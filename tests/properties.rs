//! Property-based tests: randomly generated programs (arithmetic, loads,
//! stores, data-dependent forward branches inside a bounded loop) must
//! produce identical architectural state under the baseline and under
//! every squash-reuse engine — squash reuse is an *invisible*
//! optimization, so any observable divergence on any program is a bug.
//!
//! See `oracle.rs` for the stronger differential test against the pure
//! in-order interpreter.

mod common;

use common::prop::for_each_case;
use common::{assemble, random_body, BODY_REGS, DATA, DUMP};
use mssr::core::{MemCheckPolicy, MssrConfig, MultiStreamReuse, RegisterIntegration, RiConfig};
use mssr::isa::Program;
use mssr::sim::{ReuseEngine, SimConfig, Simulator};

/// Runs a program and returns the architectural fingerprint: the register
/// dump plus the data window.
fn fingerprint(program: &Program, engine: Option<Box<dyn ReuseEngine>>) -> Vec<u64> {
    let cfg = SimConfig::default().with_max_cycles(4_000_000);
    let mut sim = match engine {
        Some(e) => Simulator::with_engine(cfg, program.clone(), e),
        None => Simulator::new(cfg, program.clone()),
    };
    sim.run();
    assert!(sim.is_halted(), "generated program must halt");
    let mut out = Vec::new();
    for i in 0..BODY_REGS.len() as u64 {
        out.push(sim.read_mem_u64(DUMP + 8 * i));
    }
    for i in 0..32u64 {
        out.push(sim.read_mem_u64(DATA + 8 * i));
    }
    out
}

#[test]
fn engines_preserve_architectural_state() {
    for_each_case("engines_preserve_architectural_state", 24, 0x6d73_7372_0001, |rng| {
        let body = random_body(rng, 4, 40);
        let iters = rng.range(1, 40) as u8;
        let seed = rng.next_u64();
        let program = assemble(&body, iters, seed);
        let base = fingerprint(&program, None);
        let mssr =
            fingerprint(&program, Some(Box::new(MultiStreamReuse::new(MssrConfig::default()))));
        assert_eq!(base, mssr, "mssr diverged");
        let bloom = fingerprint(
            &program,
            Some(Box::new(MultiStreamReuse::new(
                MssrConfig::default().with_mem_policy(MemCheckPolicy::BloomFilter),
            ))),
        );
        assert_eq!(base, bloom, "mssr-bloom diverged");
        let ri =
            fingerprint(&program, Some(Box::new(RegisterIntegration::new(RiConfig::default()))));
        assert_eq!(base, ri, "ri diverged");
    });
}

/// The differential check the fast-forward handoff depends on: for random
/// programs, the cycle-accurate pipeline under every engine — baseline,
/// MSSR, RI, and the single-stream DCI ablation — must leave the *same*
/// final architectural register file and memory as the pure in-order
/// interpreter (the same `arch_step` core that functional fast-forward
/// uses to warm a checkpointed run).
#[test]
fn every_engine_matches_the_interpreter_oracle() {
    use mssr::isa::ArchReg;
    use mssr::sim::{Interpreter, StopReason};
    for_each_case("every_engine_matches_the_interpreter_oracle", 16, 0x6d73_7372_0004, |rng| {
        let body = random_body(rng, 4, 32);
        let iters = rng.range(1, 24) as u8;
        let seed = rng.next_u64();
        let program = assemble(&body, iters, seed);

        let mut it = Interpreter::new(program.clone(), 1 << 25);
        assert_eq!(it.run(2_000_000), StopReason::Halted, "oracle must halt");
        let oracle_regs: Vec<u64> = ArchReg::all().map(|a| it.reg(a)).collect();
        let oracle_mem: Vec<u64> = (0..32u64).map(|i| it.read_mem_u64(DATA + 8 * i)).collect();

        let engines: [(&str, Option<Box<dyn ReuseEngine>>); 4] = [
            ("base", None),
            ("mssr", Some(Box::new(MultiStreamReuse::new(MssrConfig::default())))),
            ("ri", Some(Box::new(RegisterIntegration::new(RiConfig::default())))),
            // streams = 1 degenerates MSSR to classic DCI.
            ("dci", Some(Box::new(MultiStreamReuse::new(MssrConfig::default().with_streams(1))))),
        ];
        for (name, engine) in engines {
            let cfg = SimConfig::default().with_max_cycles(4_000_000);
            let mut sim = match engine {
                Some(e) => Simulator::with_engine(cfg, program.clone(), e),
                None => Simulator::new(cfg, program.clone()),
            };
            sim.run();
            assert!(sim.is_halted(), "{name}: pipeline must halt");
            let regs: Vec<u64> = ArchReg::all().map(|a| sim.read_arch_reg(a)).collect();
            assert_eq!(regs, oracle_regs, "{name}: architectural registers diverged");
            let mem: Vec<u64> = (0..32u64).map(|i| sim.read_mem_u64(DATA + 8 * i)).collect();
            assert_eq!(mem, oracle_mem, "{name}: data window diverged");
        }
    });
}

#[test]
fn tiny_configs_preserve_architectural_state() {
    for_each_case("tiny_configs_preserve_architectural_state", 24, 0x6d73_7372_0002, |rng| {
        // Stress the pressure/overflow paths: few physical registers,
        // narrow RGIDs, tiny logs.
        let body = random_body(rng, 4, 24);
        let iters = rng.range(1, 24) as u8;
        let seed = rng.next_u64();
        let program = assemble(&body, iters, seed);
        let base = fingerprint(&program, None);
        let cfg = SimConfig { phys_regs: 80, rgid_bits: 3, rob_size: 32, ..SimConfig::default() }
            .with_max_cycles(4_000_000);
        let mut sim = Simulator::with_engine(
            cfg,
            program.clone(),
            Box::new(MultiStreamReuse::new(
                MssrConfig::default().with_log_entries(8).with_wpb_entries(4).with_timeout(32),
            )),
        );
        sim.run();
        assert!(sim.is_halted());
        let mut got = Vec::new();
        for i in 0..BODY_REGS.len() as u64 {
            got.push(sim.read_mem_u64(DUMP + 8 * i));
        }
        for i in 0..32u64 {
            got.push(sim.read_mem_u64(DATA + 8 * i));
        }
        assert_eq!(base, got, "stressed mssr diverged");
    });
}

#[test]
fn cpi_accounts_conserve_commit_slots() {
    use mssr::sim::Category;
    // The CPI stack's conservation law must hold on arbitrary programs
    // under every engine: each simulated cycle contributes exactly
    // `commit_width` commit slots to the account, and reuse can never be
    // credited more cycles than were blamed on branch squashes.
    for_each_case("cpi_accounts_conserve_commit_slots", 16, 0x6d73_7372_0003, |rng| {
        let body = random_body(rng, 4, 32);
        let iters = rng.range(1, 24) as u8;
        let seed = rng.next_u64();
        let program = assemble(&body, iters, seed);
        let engines: [(&str, Option<Box<dyn ReuseEngine>>); 3] = [
            ("base", None),
            ("mssr", Some(Box::new(MultiStreamReuse::new(MssrConfig::default())))),
            ("ri", Some(Box::new(RegisterIntegration::new(RiConfig::default())))),
        ];
        for (name, engine) in engines {
            let cfg = SimConfig::default().with_max_cycles(4_000_000);
            let width = cfg.commit_width as u64;
            let mut sim = match engine {
                Some(e) => Simulator::with_engine(cfg, program.clone(), e),
                None => Simulator::new(cfg, program.clone()),
            };
            sim.run();
            assert!(sim.is_halted(), "{name}: generated program must halt");
            let account = sim.account();
            assert_eq!(
                account.total_slots(),
                sim.cycle() * width,
                "{name}: slot conservation violated over {} cycles",
                sim.cycle()
            );
            assert!(
                account.credit_reuse_cycles <= account.get(Category::SquashBranch),
                "{name}: reuse credited {} cycles against {} squash-penalty slots",
                account.credit_reuse_cycles,
                account.get(Category::SquashBranch)
            );
        }
    });
}

/// The SimPoint k-means must be a *function* of its input set: permuting
/// the vectors, or running the clustering concurrently under the harness
/// worker pool, must yield bit-identical centroids and inertia — the
/// clusters feed CI byte-identity gates, so "close enough" floats are
/// not enough. Every vector must also land on its nearest centroid.
#[test]
fn kmeans_is_deterministic_and_assigns_nearest_centroids() {
    use mssr_bench::harness::run_cells;
    use mssr_bench::harness::simpoint::{kmeans, project};

    for_each_case("kmeans_is_deterministic", 12, 0x6d73_7372_0004, |rng| {
        // Random sparse BBVs: a handful of phases, each a distinct set of
        // block addresses, plus per-interval count noise.
        let phases = rng.range(1, 4);
        let n = rng.range(6, 40);
        let seed = rng.next_u64();
        let vectors: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let p = i % phases;
                let blocks: Vec<(u64, u64)> = (0..8)
                    .map(|b| (0x1000 * (p as u64 + 1) + 16 * b, 10 + rng.below(50)))
                    .collect();
                let insts: u64 = blocks.iter().map(|&(_, c)| c).sum();
                project(&blocks, insts, 16, seed)
            })
            .collect();
        let k = rng.range(1, phases + 2).min(n);

        let a = kmeans(&vectors, k, seed);

        // Permutation invariance: reverse the input; centroid set, inertia
        // and the permuted assignment must be bit-identical.
        let rev: Vec<Vec<f64>> = vectors.iter().rev().cloned().collect();
        let b = kmeans(&rev, k, seed);
        assert_eq!(a.centroids, b.centroids, "centroids depend on input order");
        assert_eq!(a.inertia.to_bits(), b.inertia.to_bits(), "inertia depends on input order");
        for (i, &c) in a.assign.iter().enumerate() {
            assert_eq!(c, b.assign[n - 1 - i], "assignment not permutation-equivariant");
        }

        // Thread-environment independence: the same clustering computed on
        // every worker of a 4-wide pool must match the serial result.
        let pool = run_cells(4, 4, |_| kmeans(&vectors, k, seed));
        for km in &pool {
            assert_eq!(km.centroids, a.centroids, "worker pool changed the centroids");
            assert_eq!(km.assign, a.assign, "worker pool changed the assignment");
        }

        // Nearest-centroid property (ties break toward the lower index,
        // matching the implementation's documented rule).
        for (v, &c) in vectors.iter().zip(&a.assign) {
            let d = |cent: &Vec<f64>| -> f64 {
                v.iter().zip(cent).map(|(x, y)| (x - y) * (x - y)).sum()
            };
            let mine = d(&a.centroids[c]);
            for (j, cent) in a.centroids.iter().enumerate() {
                let dj = d(cent);
                assert!(
                    dj > mine || (dj == mine && j >= c),
                    "vector assigned to centroid {c} (d²={mine}) but {j} is closer (d²={dj})"
                );
            }
        }
    });
}

/// The speculation-cleanup invariant, per predictor: wrong-path work —
/// conditional predictions, RAS pushes, indirect lookups — followed by
/// `recover_cond` + `restore_ras_sp` must leave the predictor in exactly
/// the state an in-order replay of the resolved stream produces. Any
/// digest divergence means wrong-path fetch trained (or shifted history
/// in) state that squash recovery failed to unwind.
#[test]
fn wrong_path_predictions_leave_no_trace_after_recovery() {
    use common::prop::Rng;
    use mssr::isa::Pc;
    use mssr::sim::{BpredKind, BranchPredictor, OracleFeed};

    for_each_case("wrong_path_predictions_leave_no_trace", 8, 0x6d73_7372_0011, |rng| {
        let pool: Vec<Pc> = (0..8).map(|k| Pc::new(0x1000 + 16 * k)).collect();
        let stream: Vec<(Pc, bool)> =
            (0..200).map(|_| (pool[rng.range(0, 8)], rng.next_u64() & 1 == 1)).collect();
        let ex_seed = rng.next_u64();
        for kind in BpredKind::ALL {
            let kcfg = SimConfig::default().with_bpred(kind);
            let cond: Vec<bool> = stream.iter().map(|&(_, t)| t).collect();
            let fresh = || {
                let mut bp = BranchPredictor::new(&kcfg);
                if kind.needs_feed() {
                    bp.install_feed(OracleFeed::from_streams(&cond, &[]));
                }
                bp
            };

            // In-order replay: predict, fold the actual outcome into the
            // history on a miss (as the resolve stage does), train.
            let mut clean = fresh();
            for &(pc, taken) in &stream {
                let (pred, meta) = clean.predict_cond(pc);
                if pred != taken {
                    clean.recover_cond(meta, taken);
                }
                clean.train_cond(pc, taken, meta);
            }

            // Speculative run: every misprediction first fetches a burst
            // of wrong-path work before recovery unwinds it.
            let mut spec = fresh();
            let mut ex = Rng::new(ex_seed);
            for &(pc, taken) in &stream {
                let (pred, meta) = spec.predict_cond(pc);
                if pred != taken {
                    let sp = spec.ras_sp();
                    for _ in 0..ex.range(1, 8) {
                        let wp = pool[ex.range(0, 8)];
                        let _ = spec.predict_cond(wp);
                        spec.ras_push(wp.next());
                        let _ = spec.predict_indirect(wp);
                    }
                    spec.recover_cond(meta, taken);
                    spec.restore_ras_sp(sp);
                }
                spec.train_cond(pc, taken, meta);
            }

            assert_eq!(
                clean.cond_digest(),
                spec.cond_digest(),
                "{kind}: wrong-path state survived recovery"
            );
        }
    });
}

/// The oracle predictor replays the architectural branch stream, so on
/// any generated program the pipeline must take *zero* branch-mispredict
/// flushes — conditional outcomes and indirect targets both come
/// straight from the interpreter feed. This pins the oracle as the
/// reuse-irrelevant asymptote of the `--bpred` axis.
#[test]
fn oracle_predictor_never_mispredicts_on_random_programs() {
    use mssr::sim::BpredKind;

    for_each_case("oracle_never_mispredicts", 12, 0x6d73_7372_0012, |rng| {
        let body = random_body(rng, 4, 32);
        let iters = rng.range(1, 24) as u8;
        let seed = rng.next_u64();
        let program = assemble(&body, iters, seed);
        let cfg = SimConfig::default().with_bpred(BpredKind::Oracle).with_max_cycles(4_000_000);
        let mut sim = Simulator::new(cfg, program);
        let stats = sim.run();
        assert!(sim.is_halted(), "generated program must halt");
        assert!(stats.committed_cond_branches > 0, "program must exercise branches");
        assert_eq!(stats.mispredictions, 0, "oracle took a mispredict flush");
    });
}

/// The property-test stream is the harness's splitmix64: its first
/// output from any seed is the stateless finalizer the grid derives cell
/// seeds with, so case seeds and cell seeds mix identically.
#[test]
fn prop_rng_first_output_is_the_harness_splitmix64() {
    for x in [0, 1, 0x4d53_5352, u64::MAX] {
        assert_eq!(common::prop::Rng::new(x).next_u64(), mssr_bench::harness::splitmix64(x));
    }
}
