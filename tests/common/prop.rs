//! A ~100-line, std-only property-test helper: a splitmix64 PRNG and a
//! shrink-free [`for_each_case`] runner. It replaces the `proptest`
//! dependency so the whole workspace builds with zero external crates.
//!
//! Reproduction: every failure message names the property, the case
//! number, and the case seed. Re-run just that case with
//! `MSSR_PROP_SEED=<case seed>` (the runner then executes one case from
//! that exact seed); scale the case count with `MSSR_PROP_CASES`.
//!
//! This file is shared across crates via `#[path]` includes (see
//! `crates/isa/tests/proptests.rs`), so it must stay dependency-free.
#![allow(dead_code)]

/// A splitmix64 PRNG stream (Steele et al., the same mixer
/// `mssr_workloads::graph::SplitMix64` uses): the test-side random
/// source. The first output of `Rng::new(x)` is the stateless finalizer
/// `mssr_bench::harness::splitmix64(x)`; this file cannot depend on
/// that crate because the crates below it include it too.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Multiply-shift bounding (Lemire); bias is irrelevant for tests.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform usize in the half-open range `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below((hi - lo) as u64) as usize
    }

    /// Uniform i16 over the full domain.
    pub fn i16(&mut self) -> i16 {
        self.next_u64() as i16
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Runs `cases` random cases of a property. Each case gets a fresh
/// [`Rng`] whose seed derives deterministically from `root_seed` and the
/// case number, so failures reproduce exactly. No shrinking: the failing
/// case seed is reported instead.
pub fn for_each_case(name: &str, cases: u32, root_seed: u64, prop: impl Fn(&mut Rng)) {
    // MSSR_PROP_SEED pins a single case; MSSR_PROP_CASES scales the run.
    if let Ok(s) = std::env::var("MSSR_PROP_SEED") {
        let seed = parse_seed(&s);
        eprintln!("property `{name}`: running single pinned case, seed {seed:#018x}");
        prop(&mut Rng::new(seed));
        return;
    }
    let cases = std::env::var("MSSR_PROP_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(cases);
    for case in 0..cases {
        let mix = |x| Rng::new(x).next_u64();
        let seed = mix(root_seed ^ mix(case as u64));
        let mut rng = Rng::new(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!(
                "property `{name}` failed on case {case}/{cases} \
                 (reproduce with MSSR_PROP_SEED={seed:#018x})"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

fn parse_seed(s: &str) -> u64 {
    let t = s.trim();
    let parsed = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => t.parse(),
    };
    parsed.unwrap_or_else(|_| panic!("MSSR_PROP_SEED `{s}` is not a u64"))
}
