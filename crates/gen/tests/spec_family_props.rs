//! Bulk validation of the data-driven (`FamilySpec`) families: on 1 000
//! instances each, the printed SyGuS-IF text must parse back to identical
//! content, and the instance's own by-construction claim — its expected
//! verdict plus witness — must pass every oracle layer. This is the
//! add-a-family-as-data safety net: a new spec entry that produces
//! unsound ground truth or unprintable problems fails here before any
//! engine ever sees it.

use gen::{check_instance, roundtrip_violation, EngineClaim, Family, GenConfig};
use sygus::Verdict;

fn validate_family(family: Family) {
    let config = GenConfig::new(7).with_families(vec![family]);
    for draw_index in 0..1_000u64 {
        let instance = config.instance_at(draw_index);
        assert_eq!(instance.family, family);
        if let Some(violation) = roundtrip_violation(&instance) {
            panic!("print→parse round trip failed: {violation}");
        }
        // The generator's own claim must satisfy its own oracle: a
        // realizable instance's witness is validated against the spec on
        // the probe grid; an unrealizable claim must not contradict the
        // expectation.
        let claim = match instance.witness.clone() {
            Some(witness) => EngineClaim::new("generator", Verdict::Realizable, Some(witness)),
            None => EngineClaim::new("generator", Verdict::Unrealizable, None),
        };
        let violations = check_instance(&instance, &[claim]);
        assert!(
            violations.is_empty(),
            "by-construction claim rejected on {} (instance_seed {}): {:#?}",
            instance.name(),
            instance.seed,
            violations
        );
        // Witness presence is the verdict class, by construction.
        assert_eq!(
            instance.witness.is_some(),
            instance.expected == gen::Expectation::Realizable,
        );
    }
}

#[test]
fn mod_pool_round_trips_and_matches_its_claim_on_1k_instances() {
    validate_family(Family::ModPool);
}

#[test]
fn mod_ite_round_trips_and_matches_its_claim_on_1k_instances() {
    validate_family(Family::ModIte);
}

#[test]
fn mod_neg_round_trips_and_matches_its_claim_on_1k_instances() {
    validate_family(Family::ModNeg);
}
