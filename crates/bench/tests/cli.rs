//! Command-line behavior of the `mssr` binary that unit tests cannot
//! see: argument validation exit codes, stderr warnings, and checkpoint
//! reuse end to end.
//!
//! The checkpoint tests pin the one rule the executor applies to every
//! run mode: runs that record events (`--trace`/`--sample`) and
//! `--simpoint` representatives resume only from fast-forward boundary
//! snapshots, which have no event stream behind them, so a warm run is
//! byte-identical to a cold one and to a run without `--ckpt-dir`.

use std::process::{Command, Output};

fn mssr(experiment: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mssr"))
        .arg(experiment)
        .args(args)
        .output()
        .expect("mssr binary runs")
}

fn table1(args: &[&str]) -> Output {
    mssr("table1", args)
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mssr-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The stdout of a successful `table1 --scale test --json` run with
/// `args` appended.
fn table1_json(args: &[&str]) -> String {
    let mut all = vec!["--scale", "test", "--json", "--jobs", "2"];
    all.extend_from_slice(args);
    let out = table1(&all);
    assert!(out.status.success(), "{all:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 trajectory")
}

/// The sorted file names in a checkpoint directory.
fn ckpt_files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("ckpt dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn unknown_experiment_exits_2_with_usage() {
    for args in [&["nope"][..], &[]] {
        let out = Command::new(env!("CARGO_BIN_EXE_mssr")).args(args).output().expect("mssr runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2: {stderr}");
        assert!(stderr.contains("usage: mssr <experiment>|all"), "{args:?}: {stderr}");
        assert!(stderr.contains("table1") && stderr.contains("bpred"), "names listed: {stderr}");
    }
}

#[test]
fn simpoint_representatives_reuse_boundary_checkpoints() {
    let dir = scratch("simpoint");
    let d = dir.to_str().unwrap();
    let reference = table1_json(&["--simpoint", "2000,3"]);
    let cold = table1_json(&["--simpoint", "2000,3", "--ckpt-dir", d]);
    let written = ckpt_files(&dir);
    assert!(!written.is_empty(), "the cold run must save representative boundaries");
    assert!(written.iter().all(|f| f.ends_with(".0.ckpt")), "boundaries only: {written:?}");
    let warm = table1_json(&["--simpoint", "2000,3", "--ckpt-dir", d]);
    assert_eq!(cold, reference, "a cold checkpointed --simpoint run must not move the trajectory");
    assert_eq!(warm, reference, "a restored --simpoint run must not move the trajectory");
    assert_eq!(ckpt_files(&dir), written, "the warm run must write no new files");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn event_recording_runs_reuse_boundary_snapshots() {
    for (tag, mode) in [("sample", &["--sample", "2000"][..]), ("trace", &["--trace"])] {
        let dir = scratch(tag);
        let d = dir.to_str().unwrap();
        let with = |extra: &[&str]| {
            let mut args = mode.to_vec();
            args.extend_from_slice(&["--ffwd", "2000"]);
            args.extend_from_slice(extra);
            table1_json(&args)
        };
        let reference = with(&[]);
        let cold = with(&["--ckpt-dir", d]);
        let written = ckpt_files(&dir);
        assert!(!written.is_empty(), "{tag}: the cold run must save its boundaries");
        assert!(written.iter().all(|f| f.ends_with(".0.ckpt")), "{tag}: {written:?}");
        let warm = with(&["--ckpt-dir", d]);
        assert_eq!(cold, reference, "{tag}: cold checkpointed run diverged");
        assert_eq!(warm, reference, "{tag}: restored run diverged");
        assert_eq!(ckpt_files(&dir), written, "{tag}: the warm run must write no new files");
        // Mid-run checkpoints of the same cells (an unsampled periodic
        // run) sit next to the boundaries but are never restored here.
        table1_json(&["--ffwd", "2000", "--ckpt-dir", d, "--ckpt-every", "5000"]);
        assert!(ckpt_files(&dir).len() > written.len(), "{tag}: periodic seeding wrote nothing");
        assert_eq!(with(&["--ckpt-dir", d]), reference, "{tag}: a mid-run checkpoint leaked in");
        // The warm run really restored: with one boundary corrupted, the
        // rerun reports the skipped snapshot.
        std::fs::write(dir.join(&written[0]), b"not a checkpoint").expect("corrupt boundary");
        let degraded = with(&["--ckpt-dir", d]);
        assert!(degraded.contains("\"ckpt_restore_skips\""), "{tag}: skip not recorded");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupt_checkpoints_warn_on_stderr_and_mark_the_trajectory() {
    let dir = scratch("corrupt");
    // Seed the directory with real checkpoints...
    let out = table1(&[
        "--scale",
        "test",
        "--json",
        "--jobs",
        "1",
        "--ckpt-dir",
        dir.to_str().unwrap(),
        "--ckpt-every",
        "5000",
    ]);
    assert!(out.status.success(), "seeding run failed");
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).expect("ckpt dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "ckpt") {
            std::fs::write(&path, b"not a checkpoint").expect("corrupt ckpt");
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "seeding run must have written checkpoints");
    // ...then rerun: every restore must be skipped with a warning naming
    // the file and the error, and the trajectory must record the
    // degraded (cold) run in the cell's extra counters.
    let out =
        table1(&["--scale", "test", "--json", "--jobs", "1", "--ckpt-dir", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "rerun failed: {stderr}");
    assert!(
        stderr.contains("skipped") && stderr.contains("invalid checkpoint"),
        "missing skip warning, stderr: {stderr}"
    );
    assert!(stderr.contains(".ckpt"), "warning must name the skipped file: {stderr}");
    assert!(
        stdout.contains("\"ckpt_restore_skips\""),
        "trajectory must record degraded restores: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simpoint_argument_validation_rejects_bad_combinations() {
    // All of these fail during argument parsing, before any simulation.
    let cases: [(&[&str], &str); 4] = [
        (&["--simpoint", "2000,3"], "--simpoint requires --json"),
        (&["--json", "--simpoint", "2000"], "expected `INTERVAL,MAXK`"),
        (&["--json", "--simpoint", "0,3"], "must be positive"),
        (&["--json", "--simpoint", "2000,3", "--ffwd", "100"], "drop --ffwd"),
    ];
    for (args, needle) in cases {
        let out = table1(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: expected `{needle}` in: {stderr}");
    }
}

#[test]
fn ckpt_every_with_event_recording_exits_2() {
    // Mid-run checkpoints cannot resume an event stream, so the
    // combination is a usage error rather than a silently dropped flag.
    for mode in [&["--trace"][..], &["--sample", "2000"]] {
        let mut args = vec!["--json", "--ckpt-dir", "d", "--ckpt-every", "5"];
        args.extend_from_slice(mode);
        let out = table1(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2: {stderr}");
        assert!(stderr.contains("--ckpt-every conflicts with --trace/--sample"), "{stderr}");
    }
}

#[test]
fn profile_records_are_stderr_only_and_render_as_a_table() {
    let out = table1(&["--scale", "test", "--json", "--jobs", "2", "--profile"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "run failed: {stderr}");
    // Strictly out-of-band: the trajectory never carries profile records.
    assert!(!stdout.contains("\"type\":\"profile\""), "profile leaked into stdout: {stdout}");
    let cells = stdout.matches("{\"type\":\"cell\"").count();
    let profs = stderr.matches("{\"type\":\"profile\"").count();
    assert!(cells > 0, "fixture sanity: {stdout}");
    assert_eq!(profs, cells, "one profile record per cell, stderr: {stderr}");
    // Each record attributes wall-clock to every bucket of the schema.
    for key in ["\"ns\":{\"fetch\":", "\"commit\":", "\"squash\":", "\"total_us\":", "\"stride\":"]
    {
        assert!(stderr.contains(key), "missing {key} in profile records: {stderr}");
    }
    // The saved stream renders as the self-profile table with stage
    // shares and throughput columns.
    let dir = scratch("profile");
    let prof = dir.join("profile.jsonl");
    std::fs::write(&prof, stderr.as_bytes()).expect("save profile stream");
    let report = Command::new(env!("CARGO_BIN_EXE_mssr-report"))
        .args(["--profile", prof.to_str().unwrap()])
        .output()
        .expect("mssr-report runs");
    let rout = String::from_utf8_lossy(&report.stdout);
    assert!(report.status.success(), "report failed: {}", String::from_utf8_lossy(&report.stderr));
    for col in ["Self-profile", "workload", "execute", "sim_MIPS", "Mcyc/s", "%"] {
        assert!(rout.contains(col), "missing {col} in profile table:\n{rout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rollup_appends_a_throughput_aggregate_only_when_timed() {
    let run = |args: &[&str]| {
        let out = mssr("rollup", args);
        assert!(out.status.success(), "rollup failed: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // Untimed runs keep the plain CSV — byte-compatible with the
    // determinism gates that cmp rollup output across --jobs.
    let plain = run(&["--scale", "test", "--jobs", "2"]);
    assert!(!plain.contains("SIM_MIPS_MILLI"), "untimed rollup must not aggregate: {plain}");
    // --timing appends one aggregate row per configuration with ordered
    // min <= median <= max throughput.
    let timed = run(&["--scale", "test", "--jobs", "2", "--timing"]);
    let (csv, agg) = timed
        .split_once("\nCFG,SIM_MIPS_MILLI_MIN,SIM_MIPS_MILLI_MED,SIM_MIPS_MILLI_MAX\n")
        .expect("aggregate section");
    assert_eq!(csv, plain, "timed run must keep the base CSV");
    let rows: Vec<&str> = agg.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(rows.len(), 4, "BASE + 3 rollup configurations: {agg}");
    for row in rows {
        let cols: Vec<&str> = row.split(',').collect();
        assert_eq!(cols.len(), 4, "CFG,min,med,max: {row}");
        let v: Vec<u64> =
            cols[1..].iter().map(|c| c.parse().expect("integer milli-MIPS")).collect();
        assert!(v[0] > 0 && v[0] <= v[1] && v[1] <= v[2], "ordered nonzero aggregate: {row}");
    }
}
