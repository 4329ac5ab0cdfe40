//! Property-based soundness tests for the presolve, backed by `gen`'s
//! by-construction problem generator: whatever the analyzer concludes, it
//! must never contradict the generator's ground-truth verdict class, on
//! any family and any seed. Every definitive outcome must additionally
//! survive its own [`Presolver::recheck`] gate, and a realizable outcome
//! must carry a witness the grammar actually derives.

use analyze::{PresolveVerdict, Presolver};
use gen::{build, Expectation, Family, GenRng, Scale};
use proptest::prelude::*;

fn check_family_seed(family: Family, seed: u64) {
    let mut rng = GenRng::from_seed(seed);
    let built = build(family, &mut rng, &Scale::default());
    let presolver = Presolver::new();
    let outcome = presolver.presolve(&built.problem);
    match (outcome.verdict, built.expected) {
        (PresolveVerdict::Unrealizable, Expectation::Realizable) => panic!(
            "presolve claims unrealizable on a by-construction realizable {} instance (seed {seed}): {}\nwitness: {:?}",
            family.name(),
            outcome.reason,
            built.witness,
        ),
        (PresolveVerdict::Realizable, Expectation::Unrealizable) => panic!(
            "presolve claims realizable on a by-construction unrealizable {} instance (seed {seed}): {}\nclaimed witness: {:?}",
            family.name(),
            outcome.reason,
            outcome.witness,
        ),
        _ => {}
    }
    if outcome.is_definitive() {
        assert!(
            presolver.recheck(&built.problem, &outcome),
            "definitive presolve outcome fails its own recheck on {} seed {seed}: {}",
            family.name(),
            outcome.reason,
        );
    }
    if outcome.verdict == PresolveVerdict::Realizable {
        let witness = outcome
            .witness
            .as_ref()
            .expect("realizable needs a witness");
        assert!(
            built.problem.grammar().contains_term(witness),
            "presolve witness {witness} is not derivable on {} seed {seed}",
            family.name(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// The presolve never contradicts the generator's ground truth, on
    /// any family at any seed.
    #[test]
    fn presolve_never_contradicts_ground_truth(
        family_index in 0usize..Family::ALL.len(),
        seed in 0u64..1_000_000,
    ) {
        check_family_seed(Family::ALL[family_index], seed);
    }
}

/// A deterministic sweep over the first seeds of every family, so the
/// cheapest regression signal does not depend on proptest's sampling.
#[test]
fn presolve_agrees_with_ground_truth_on_early_seeds() {
    for family in Family::ALL {
        for seed in 0..40u64 {
            check_family_seed(family, seed);
        }
    }
}

/// The presolve must settle at least one instance per family over a
/// modest seed range — the static analyzer's reason to exist in the
/// portfolio. (The per-family decidability argument: every family emits
/// unrealizable instances refutable by a single-probe interval ×
/// congruence abstraction, and some families additionally emit finite
/// languages.)
#[test]
fn presolve_settles_instances_of_every_family() {
    for family in Family::ALL {
        let presolver = Presolver::new();
        let settled = (0..60u64).any(|seed| {
            let mut rng = GenRng::from_seed(seed);
            let built = build(family, &mut rng, &Scale::default());
            presolver.presolve(&built.problem).is_definitive()
        });
        assert!(
            settled,
            "presolve settled no {} instance in seeds 0..60",
            family.name(),
        );
    }
}
