//! The serve phase of every workload: an in-process `mssr-serve` over a
//! test-scale experiment's cells, driven by two closed-loop clients, each
//! waiting for its reply before sending the next request.
//!
//! The request mix comes from the seed, in rounds. A round visits every
//! cell of the server's universe once, in a seeded order, as a family of
//! four requests:
//!
//! * **miss** — first touch of (cell, fresh seed, `ffwd`): a cold run
//!   that publishes its fast-forward snapshot to the shared memory cache;
//! * **warm** — the same cell, seed and `ffwd` with sampling on: a
//!   result-cache miss that restores the shared snapshot;
//! * **hit** — an exact repeat of the miss: a result-cache hit;
//! * **stream** — a cold sampled run whose progress samples stream back.
//!
//! Each client sends a family's miss, warm and stream requests back to
//! back; the round's hits follow once every family's other requests are
//! answered.
//!
//! A run makes a fixed number of whole rounds, so every run measures the
//! same multiset of cells and holds the same number of cached results. The per-round request
//! seeds are the default seeds of a per-round harness root, which is
//! what lets a batch run of the same cells at that root reproduce every
//! served record byte for byte.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mssr_bench::harness::report::Json;
use mssr_bench::harness::serve::{Client, Reply, ServeOpts, Server};
use mssr_bench::harness::{cell_seed, experiment, run_experiments, splitmix64, HarnessOpts};
use mssr_sim::fnv1a64;
use mssr_workloads::Scale;

use crate::span::{SpanId, Tracer};

/// Functional fast-forward of miss and warm requests, in instructions.
pub const FFWD: u64 = 2_000;

/// Sampling period of warm and stream requests, in cycles.
pub const SAMPLE: u64 = 2_000;

/// Fewest rounds over `cells` cells that leave 10 samples beyond the
/// miss p90 (4 rounds of 25 cells, 8 of 14).
pub fn min_rounds(cells: usize) -> u64 {
    (1..)
        .find(|&r| crate::stat::beyond(r as usize * cells, 90.0) >= crate::stat::MIN_BEYOND)
        .expect("some number of rounds suffices")
}

/// Closed-loop client connections (and server workers).
pub const CLIENTS: usize = 2;

const MISS_SALT: u64 = 0x6d69_7373; // "miss"
const STREAM_SALT: u64 = 0x7374_7265_616d; // "stream"
const ORDER_SALT: u64 = 0x006f_7264_6572; // "order"

/// A request class of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Cold first touch with a fast-forward.
    Miss,
    /// Result-cache miss served from a shared fast-forward snapshot.
    Warm,
    /// Result-cache hit.
    Hit,
    /// Cold sampled run with streamed progress.
    Stream,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 4] = [Class::Miss, Class::Warm, Class::Hit, Class::Stream];

    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Class::Miss => "miss",
            Class::Warm => "warm",
            Class::Hit => "hit",
            Class::Stream => "stream",
        }
    }
}

/// One `run` request of the mix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Req {
    /// Its class.
    pub class: Class,
    /// Span group: round, family and position, unique within a run.
    pub group: u64,
    /// Cell id in the server's universe.
    pub cell: usize,
    /// The request seed.
    pub seed: u64,
    /// Sampling period (0 = off).
    pub sample: u64,
    /// Fast-forward depth (0 = off).
    pub ffwd: u64,
}

impl Req {
    /// What identifies the response bytes: the server's cache key.
    pub fn key(&self) -> (usize, u64, u64, u64) {
        (self.cell, self.seed, self.sample, self.ffwd)
    }

    /// The request line; the id derives from the payload, so an exact
    /// repeat carries the same id.
    pub fn line(&self) -> String {
        let mut body = format!("\"cell\":{},\"seed\":\"{:#x}\"", self.cell, self.seed);
        if self.sample > 0 {
            body.push_str(&format!(",\"sample\":{}", self.sample));
        }
        if self.ffwd > 0 {
            body.push_str(&format!(",\"ffwd\":{}", self.ffwd));
        }
        format!("{{\"type\":\"run\",\"id\":\"b{:016x}\",{body}}}", fnv1a64(body.as_bytes()))
    }
}

/// The harness root whose default cell seeds a round's miss (and warm,
/// and hit) requests carry.
pub fn miss_root(seed: u64, round: u64) -> u64 {
    splitmix64(seed ^ MISS_SALT ^ splitmix64(round))
}

/// The harness root of a round's stream requests.
pub fn stream_root(seed: u64, round: u64) -> u64 {
    splitmix64(seed ^ STREAM_SALT ^ splitmix64(round))
}

/// Round `round` of the mix over `cells` cells: one family of four
/// requests per cell, families in a seeded order.
pub fn round(seed: u64, round: u64, cells: usize) -> Vec<Vec<Req>> {
    let mut order: Vec<usize> = (0..cells).collect();
    let mut rng = splitmix64(seed ^ ORDER_SALT ^ splitmix64(round));
    for i in (1..order.len()).rev() {
        rng = splitmix64(rng);
        order.swap(i, (rng % (i as u64 + 1)) as usize);
    }
    order
        .iter()
        .enumerate()
        .map(|(f, &cell)| {
            let group = |k: u64| (round << 32) | ((f as u64) << 8) | k;
            let s = cell_seed(miss_root(seed, round), cell as u64);
            let miss =
                Req { class: Class::Miss, group: group(0), cell, seed: s, sample: 0, ffwd: FFWD };
            vec![
                miss.clone(),
                Req { class: Class::Warm, group: group(1), sample: SAMPLE, ..miss.clone() },
                Req { class: Class::Hit, group: group(2), ..miss },
                Req {
                    class: Class::Stream,
                    group: group(3),
                    cell,
                    seed: cell_seed(stream_root(seed, round), cell as u64),
                    sample: SAMPLE,
                    ffwd: 0,
                },
            ]
        })
        .collect()
}

/// Starts a server over the cells of experiment `universe` at test
/// scale: `jobs` workers, harness root seed `seed`, default queue and
/// timeouts.
///
/// # Errors
///
/// Returns the server's start-up error.
pub fn start(universe: &str, seed: u64, jobs: usize) -> Result<Server, String> {
    let mut o = ServeOpts::new(Scale::Test);
    o.jobs = jobs;
    o.root_seed = seed;
    o.experiments = vec![universe.to_string()];
    Server::start(o)
}

/// One answered (or failed) request.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The request.
    pub req: Req,
    /// Client-side latency in seconds.
    pub lat_s: f64,
    /// The batch-comparable `"cell"` record, when the request succeeded.
    pub cell_line: Option<String>,
    /// Why it failed, if it did.
    pub error: Option<String>,
}

/// The measured body: rounds of the mix over `clients` connections.
pub struct Body {
    /// Every request's outcome.
    pub outcomes: Vec<Outcome>,
    /// Rounds completed.
    pub rounds: u64,
    /// Wall time of the rounds.
    pub wall_s: f64,
    /// The server's `stats` reply after the rounds.
    pub server_stats: Option<Json>,
}

/// Drives `server` through `rounds` rounds of the mix.
pub fn body(
    server: &Server,
    seed: u64,
    rounds: u64,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> Result<Body, String> {
    let addr = server.addr().to_string();
    let mut clients: Vec<Client> =
        (0..CLIENTS).map(|_| Client::connect(&addr, 120_000)).collect::<Result<_, _>>()?;
    let cells = server.cells();
    let outcomes = Mutex::new(Vec::new());
    let t0 = Instant::now();
    tr.span("serve.body", 0, parent, |p| {
        for r in 0..rounds {
            let fams = round(seed, r, cells);
            tr.span("serve.round", r, p, |q| {
                // The hits go out once the round's cold and warm work is
                // done, so they time the protocol and the cache, not a
                // wait for a core a simulation holds.
                for hits in [false, true] {
                    let next = AtomicUsize::new(0);
                    std::thread::scope(|s| {
                        for c in clients.iter_mut() {
                            let (next, fams, outcomes, addr) = (&next, &fams, &outcomes, &addr);
                            s.spawn(move || {
                                let mut local = Vec::new();
                                while let Some(fam) = fams.get(next.fetch_add(1, Ordering::Relaxed))
                                {
                                    for req in
                                        fam.iter().filter(|r| (r.class == Class::Hit) == hits)
                                    {
                                        local.push(request(c, addr, req, tr, q));
                                    }
                                }
                                outcomes.lock().expect("outcome list poisoned").extend(local);
                            });
                        }
                    });
                }
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let server_stats = clients[0]
        .send("{\"type\":\"stats\"}")
        .then(|| clients[0].recv())
        .flatten()
        .and_then(|l| Json::parse(&l).ok());
    let outcomes = outcomes.into_inner().expect("outcome list poisoned");
    Ok(Body { outcomes, rounds, wall_s, server_stats })
}

/// Sends one request and classifies its reply. A reply whose cache
/// outcome contradicts the request's class fails: the mix no longer
/// measures what it names.
fn request(c: &mut Client, addr: &str, req: &Req, tr: &Tracer, parent: Option<SpanId>) -> Outcome {
    let line = req.line();
    let t = Instant::now();
    let mut reply = c.request(&line);
    if matches!(reply, Reply::Lost) {
        // One reconnect, then the request counts as failed.
        if let Ok(fresh) = Client::connect(addr, 120_000) {
            *c = fresh;
            reply = c.request(&line);
        }
    }
    let end = Instant::now();
    tr.record("serve.request", req.group, parent, t, end);
    let lat_s = (end - t).as_secs_f64();
    let fail = |e: String| Outcome { req: req.clone(), lat_s, cell_line: None, error: Some(e) };
    match reply {
        Reply::Done { events, cell_line, cached } => {
            let want_cached = req.class == Class::Hit;
            if cached != want_cached {
                return fail(format!("{} request answered with cached={cached}", req.class.name()));
            }
            if req.sample > 0 && req.class != Class::Hit && events.is_empty() {
                return fail("sampled request streamed no events".into());
            }
            Outcome { req: req.clone(), lat_s, cell_line: Some(cell_line), error: None }
        }
        Reply::Busy { retry_after_ms } => fail(format!("refused busy (retry {retry_after_ms} ms)")),
        Reply::Error { error } => fail(error),
        Reply::Lost => fail("connection lost or timed out".into()),
    }
}

/// Checks every distinct served record against a batch run of the same
/// cells at the same seed, sampling and fast-forward, and every repeat
/// against the first response for its key. Returns the number of
/// requests whose bytes disagree, with the first disagreement.
pub fn batch_check(
    universe: &str,
    seed: u64,
    rounds: u64,
    jobs: usize,
    outcomes: &[Outcome],
    tr: &Tracer,
    parent: Option<SpanId>,
) -> (u64, Option<String>) {
    type Mode = (u64, u64, u64); // (root, sample, ffwd)
    let mut batch: BTreeMap<Mode, BTreeMap<usize, String>> = BTreeMap::new();
    tr.span("serve.batch_check", 0, parent, |p| {
        for r in 0..rounds {
            for mode in [
                (miss_root(seed, r), 0, FFWD),
                (miss_root(seed, r), SAMPLE, FFWD),
                (stream_root(seed, r), SAMPLE, 0),
            ] {
                let lines = tr.span("harness.batch", r, p, |_| batch_records(universe, mode, jobs));
                batch.insert(mode, lines);
            }
        }
    });
    let mut first: BTreeMap<(usize, u64, u64, u64), &str> = BTreeMap::new();
    let mut bad = 0u64;
    let mut why = None;
    for o in outcomes {
        let Some(line) = o.cell_line.as_deref() else { continue };
        let (cell, s, sample, ffwd) = o.req.key();
        let r = o.req.group >> 32;
        let root =
            if o.req.class == Class::Stream { stream_root(seed, r) } else { miss_root(seed, r) };
        let expect = batch.get(&(root, sample, ffwd)).and_then(|m| m.get(&cell));
        let seed_ok = cell_seed(root, cell as u64) == s;
        let repeat_ok = *first.entry(o.req.key()).or_insert(line) == line;
        if expect.map(String::as_str) != Some(line) || !seed_ok || !repeat_ok {
            bad += 1;
            why.get_or_insert_with(|| {
                format!("{} request on cell {cell} differs from batch", o.req.class.name())
            });
        }
    }
    (bad, why)
}

/// The `"cell"` records of one batch run of experiment `universe` at
/// test scale, by cell id.
fn batch_records(
    universe: &str,
    (root, sample, ffwd): (u64, u64, u64),
    jobs: usize,
) -> BTreeMap<usize, String> {
    let mut opts = HarnessOpts::new(Scale::Test);
    opts.jobs = jobs;
    opts.root_seed = root;
    opts.json = true;
    opts.sample = sample;
    opts.ffwd = ffwd;
    let exps = [experiment(universe).expect("registered experiment")];
    run_experiments(&exps, &opts)
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"cell\""))
        .filter_map(|l| {
            let id = Json::parse(l).ok()?.get("id")?.num()?;
            Some((id as usize, l.to_string()))
        })
        .collect()
}

/// Latencies of one class, ascending, in milliseconds.
pub fn latencies_ms(outcomes: &[Outcome], class: Class) -> Vec<f64> {
    let mut v: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.req.class == class && o.error.is_none())
        .map(|o| o.lat_s * 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Digest over the distinct served records, in key order.
pub fn digest(outcomes: &[Outcome]) -> u64 {
    let distinct: BTreeMap<(usize, u64, u64, u64), &str> =
        outcomes.iter().filter_map(|o| Some((o.req.key(), o.cell_line.as_deref()?))).collect();
    let joined: Vec<&str> = distinct.into_values().collect();
    fnv1a64(joined.join("\n").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_seeded_and_cover_every_cell_once() {
        let a = round(7, 0, 25);
        assert_eq!(a, round(7, 0, 25), "same seed, same requests");
        assert_ne!(a, round(8, 0, 25), "another seed, another mix");
        assert_ne!(a, round(7, 1, 25), "another round, another mix");
        let mut cells: Vec<usize> = a.iter().map(|f| f[0].cell).collect();
        cells.sort_unstable();
        assert_eq!(cells, (0..25).collect::<Vec<_>>());
        let lines: Vec<String> = a.iter().flatten().map(Req::line).collect();
        assert_eq!(lines, round(7, 0, 25).iter().flatten().map(Req::line).collect::<Vec<_>>());
    }

    #[test]
    fn families_pair_miss_warm_and_hit_on_one_identity() {
        for fam in round(3, 2, 25) {
            let [miss, warm, hit, stream] = &fam[..] else { panic!("four requests") };
            assert_eq!(
                (miss.class, warm.class, hit.class, stream.class),
                (Class::Miss, Class::Warm, Class::Hit, Class::Stream)
            );
            assert_eq!(miss.line(), hit.line(), "a hit repeats its miss exactly");
            assert_eq!((warm.cell, warm.seed, warm.ffwd), (miss.cell, miss.seed, miss.ffwd));
            assert_ne!(warm.key(), miss.key(), "warm misses the result cache");
            assert!(miss.ffwd > 0 && warm.sample > 0 && stream.sample > 0 && stream.ffwd == 0);
            assert_eq!(miss.seed, cell_seed(miss_root(3, 2), miss.cell as u64));
            assert_eq!(stream.seed, cell_seed(stream_root(3, 2), stream.cell as u64));
            assert_eq!(miss.group >> 32, 2);
        }
    }

    #[test]
    fn min_rounds_leave_ten_misses_beyond_p90() {
        assert_eq!(min_rounds(25), 4);
        assert_eq!(min_rounds(14), 8);
        assert_eq!(min_rounds(100), 1);
    }

    #[test]
    fn request_seeds_never_repeat_across_rounds() {
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..8 {
            for fam in round(11, r, 25) {
                assert!(seen.insert(fam[0].key()), "a miss must be a first touch");
                assert!(seen.insert(fam[3].key()), "a stream must be a first touch");
            }
        }
    }
}
