//! The workspace's one deterministic random source: SplitMix64, and an
//! xorshift128+ core seeded by it.
//!
//! `std`-only on purpose — it must be byte-stable across platforms and
//! releases, so it depends on nothing but arithmetic. Two consumers:
//!
//! * the engines' example draws of Algorithm 2 (§7): [`random_example`]
//!   reads a SplitMix64 state seeded with [`EXAMPLE_SEED`] and draws every
//!   input from [`EXAMPLE_RANGE`], so `nay`'s CEGIS loop and the `nope`
//!   example-growing loop see the same example stream,
//! * the problem generator (crate `gen`), following the classic dbgen
//!   recipe: a cheap splittable seeder (SplitMix64) derives independent
//!   per-instance seeds from a single base seed ([`instance_seed`]), and
//!   each instance draws from its own xorshift128+ stream ([`GenRng`]), so
//!   instance `i`'s content never depends on how many draws instance
//!   `i − 1` consumed (or on deduplication history).

use crate::{Example, Problem};

/// The seed of the engines' example stream.
pub const EXAMPLE_SEED: u64 = 0xC0FFEE;

/// The inclusive range example inputs are drawn from: the paper's
/// `[-50, 50]` (§7).
pub const EXAMPLE_RANGE: (i64, i64) = (-50, 50);

/// One SplitMix64 step: advances the state and returns the next output.
///
/// Used as the engines' example stream ([`random_example`]), as the
/// seed-expansion function ([`GenRng::from_seed`]) and to derive
/// independent per-instance seeds from `(base_seed, index)`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the seed of instance `index` from the sweep's base seed.
///
/// Mixing the index through SplitMix64 (rather than offsetting the state)
/// keeps nearby indices statistically independent even for tiny base seeds.
pub fn instance_seed(base_seed: u64, index: u64) -> u64 {
    let mut state = base_seed ^ index.wrapping_mul(0xa076_1d64_78bd_642f);
    // Two rounds: one to mix the index in, one to decorrelate from the raw
    // base seed (so seed 0, index 0 is not the all-zero stream).
    splitmix64(&mut state);
    splitmix64(&mut state)
}

/// Draws an example over `problem`'s input variables from the SplitMix64
/// stream `state`, each input uniform over [`EXAMPLE_RANGE`].
///
/// An input takes two words `a` and `b` and is `lo + ((a << 64 | b) % span)`:
/// the 128-bit reduction keeps the modulo bias negligible.
pub fn random_example(problem: &Problem, state: &mut u64) -> Example {
    let (lo, hi) = EXAMPLE_RANGE;
    let span = (hi - lo) as u128 + 1;
    Example::from_pairs(problem.spec().input_vars().iter().map(|x| {
        let a = u128::from(splitmix64(state));
        let b = u128::from(splitmix64(state));
        (x.clone(), lo + (((a << 64) | b) % span) as i64)
    }))
}

/// A deterministic xorshift128+ stream, seeded via SplitMix64.
#[derive(Clone, Debug)]
pub struct GenRng {
    s0: u64,
    s1: u64,
}

impl GenRng {
    /// Creates a stream from a 64-bit seed (SplitMix64-expanded to the
    /// 128-bit xorshift state, per the generator authors' recommendation).
    pub fn from_seed(seed: u64) -> GenRng {
        let mut state = seed;
        let s0 = splitmix64(&mut state);
        let s1 = splitmix64(&mut state);
        GenRng {
            // xorshift128+ must never reach the all-zero state; SplitMix64
            // outputs zero for at most one of the two words.
            s0: if s0 == 0 && s1 == 0 { 1 } else { s0 },
            s1,
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.s0;
        let y = self.s1;
        self.s0 = y;
        x ^= x << 23;
        self.s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        self.s1.wrapping_add(y)
    }

    /// A uniform integer in `lo..=hi`.
    ///
    /// Uses rejection-free modulo reduction: the tiny bias (ranges here are
    /// ≪ 2⁶⁴) is irrelevant for workload generation, and the cost is one
    /// multiplication-free step per draw.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }

    /// A uniform index in `0..len` (for choosing from a slice).
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot index an empty slice");
        (self.next_u64() % len as u64) as usize
    }

    /// `true` with probability `percent / 100`.
    pub fn chance(&mut self, percent: u32) -> bool {
        debug_assert!(percent <= 100);
        (self.next_u64() % 100) < u64::from(percent)
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        &options[self.index(options.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GrammarBuilder, Sort, Spec, Symbol};
    use logic::{LinearExpr, Var};

    #[test]
    fn example_and_generator_streams_are_pinned() {
        // The engines' first 8 examples over inputs [x, y]: the stream of
        // `rand`'s `StdRng::seed_from_u64(0xC0FFEE)` + `gen_range(-50..=50)`
        // in the SplitMix64 stand-in, which every CEGIS and nope example
        // set and every committed iteration count was drawn from.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Var("x".to_string()), &[])
            .build()
            .unwrap();
        let spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")),
            vec!["x".to_string(), "y".to_string()],
        );
        let problem = Problem::new("xy", grammar, spec);
        let mut state = EXAMPLE_SEED;
        let drawn: Vec<(i64, i64)> = (0..8)
            .map(|_| {
                let e = random_example(&problem, &mut state);
                (e.get("x").unwrap(), e.get("y").unwrap())
            })
            .collect();
        assert_eq!(
            drawn,
            [
                (4, 20),
                (-31, 14),
                (28, -38),
                (14, 26),
                (-28, 23),
                (-27, 45),
                (-33, -25),
                (-29, -48),
            ]
        );
        // The generator's stream, which every `gen` corpus was drawn from.
        let mut rng = GenRng::from_seed(42);
        let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words,
            [
                0xaf1f_56fc_41a4_d2d2,
                0xbd49_6f01_ee60_5ceb,
                0x8c8b_2271_e69f_dbf6,
                0x5438_402a_c692_1e50,
            ]
        );
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = GenRng::from_seed(42);
        let mut b = GenRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = GenRng::from_seed(43);
        let differs = (0..10).any(|_| a.next_u64() != c.next_u64());
        assert!(differs, "different seeds must give different streams");
    }

    #[test]
    fn instance_seeds_are_index_independent() {
        // The seed of instance i is a pure function of (base, i) — not of
        // the draws instance i−1 made.
        assert_eq!(instance_seed(7, 3), instance_seed(7, 3));
        assert_ne!(instance_seed(7, 3), instance_seed(7, 4));
        assert_ne!(instance_seed(7, 3), instance_seed(8, 3));
        // Small seeds do not collapse to a degenerate stream.
        assert_ne!(instance_seed(0, 0), 0);
    }

    #[test]
    fn ranges_stay_in_bounds_and_hit_both_ends() {
        let mut rng = GenRng::from_seed(1);
        let (mut saw_lo, mut saw_hi) = (false, false);
        for _ in 0..2000 {
            let v = rng.range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            saw_lo |= v == -3;
            saw_hi |= v == 3;
        }
        assert!(saw_lo && saw_hi, "2000 draws must cover a 7-value range");
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = GenRng::from_seed(2);
        let hits = (0..10_000).filter(|_| rng.chance(30)).count();
        assert!(
            (2_500..3_500).contains(&hits),
            "30% chance hit {hits}/10000 times"
        );
    }

    #[test]
    fn choose_covers_the_slice() {
        let mut rng = GenRng::from_seed(3);
        let options = [10, 20, 30];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(*rng.choose(&options));
        }
        assert_eq!(seen.len(), 3);
    }
}
