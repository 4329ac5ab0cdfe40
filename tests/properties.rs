//! Property-based tests (proptest) for the core data structures and
//! invariants of the reproduction:
//!
//! * semiring laws of semi-linear sets (Prop. 5.8),
//! * exactness of the abstract semantics on sampled terms (Lemma 5.6),
//! * soundness of the symbolic concretization γ̂ (§5.4),
//! * agreement between the QF-LIA solver and brute-force evaluation,
//! * semantic equivalence of the `h(G)` rewriting (Lemma 5.4).

use logic::{Formula, LinearExpr, Solver, SolverResult, Var};
use proptest::prelude::*;
use semilinear::{concretize_semilinear, IntVec, LinearSet, SemiLinearSet};
use sygus::{ExampleSet, Term};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn small_vec(dim: usize) -> impl Strategy<Value = IntVec> {
    prop::collection::vec(-4i64..=4, dim).prop_map(IntVec::from)
}

fn linear_set(dim: usize) -> impl Strategy<Value = LinearSet> {
    (small_vec(dim), prop::collection::vec(small_vec(dim), 0..3))
        .prop_map(|(base, gens)| LinearSet::new(base, gens))
}

fn semilinear(dim: usize) -> impl Strategy<Value = SemiLinearSet> {
    prop::collection::vec(linear_set(dim), 0..3).prop_map(SemiLinearSet::from_linear_sets)
}

/// A linear set whose generator list repeats generators and adds positive
/// multiples of them, so that membership often needs one generator only.
fn linear_set_with_multiples(dim: usize) -> impl Strategy<Value = LinearSet> {
    (
        small_vec(dim),
        prop::collection::vec((small_vec(dim), 1i64..=4, any::<bool>()), 0..3),
    )
        .prop_map(|(base, picks)| {
            let mut gens = Vec::new();
            for (g, k, repeat) in picks {
                gens.push(g.scale(k));
                if repeat {
                    gens.push(g.clone());
                }
                gens.push(g);
            }
            LinearSet::new(base, gens)
        })
}

/// A linear set with at least one generator.
fn generator_set(dim: usize) -> impl Strategy<Value = LinearSet> {
    (small_vec(dim), prop::collection::vec(small_vec(dim), 1..3))
        .prop_map(|(base, gens)| LinearSet::new(base, gens))
}

/// `count` points drawn from a wider box than `small_vec`, so that few
/// collide.
fn scattered_points(
    dim: usize,
    count: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<LinearSet>> {
    prop::collection::vec(prop::collection::vec(-20i64..=20, dim), count).prop_map(|points| {
        points
            .into_iter()
            .map(|p| LinearSet::singleton(IntVec::from(p)))
            .collect()
    })
}

/// The §7 sweep as it was written before points got a list of their own:
/// every linear set is tested against every kept one.
fn quadratic_prune(set: &SemiLinearSet) -> SemiLinearSet {
    let mut keep: Vec<LinearSet> = Vec::new();
    for l in set.linear_sets() {
        if keep.iter().any(|other| l.subsumed_by(other)) {
            continue;
        }
        keep.retain(|other| !other.subsumed_by(l));
        keep.push(l.clone());
    }
    SemiLinearSet::from_linear_sets(keep)
}

fn lia_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (-3i64..=3).prop_map(Term::num),
        Just(Term::var("x")),
        Just(Term::var("y")),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        (inner.clone(), inner).prop_map(|(a, b)| Term::plus(a, b))
    })
}

// ---------------------------------------------------------------------------
// Semi-linear sets form a commutative idempotent semiring (Prop. 5.8)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn combine_is_commutative_and_idempotent(a in semilinear(2), b in semilinear(2)) {
        prop_assert_eq!(a.combine(&b), b.combine(&a));
        prop_assert_eq!(a.combine(&a), a.clone());
    }

    #[test]
    fn extend_is_commutative_with_identities(a in semilinear(2), b in semilinear(2)) {
        prop_assert_eq!(a.extend(&b), b.extend(&a));
        prop_assert_eq!(a.extend(&SemiLinearSet::one(2)), a.clone());
        prop_assert_eq!(a.extend(&SemiLinearSet::zero()), SemiLinearSet::zero());
    }

    #[test]
    fn extend_distributes_over_combine(a in semilinear(2), b in semilinear(2), c in semilinear(2)) {
        let lhs = a.extend(&b.combine(&c));
        let rhs = a.extend(&b).combine(&a.extend(&c));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn associativity(a in semilinear(2), b in semilinear(2), c in semilinear(2)) {
        prop_assert_eq!(a.combine(&b.combine(&c)), a.combine(&b).combine(&c));
        prop_assert_eq!(a.extend(&b.extend(&c)), a.extend(&b).extend(&c));
    }

    #[test]
    fn pruning_preserves_membership(a in semilinear(2), probe in small_vec(2)) {
        let pruned = a.prune();
        // pruning only removes redundant linear sets, never denoted vectors
        prop_assert_eq!(a.contains(&probe), pruned.contains(&probe));
        for ls in a.linear_sets() {
            prop_assert!(pruned.contains(ls.base()));
        }
    }

    #[test]
    fn enumerated_vectors_are_members(a in linear_set_with_multiples(2)) {
        for member in a.enumerate(3) {
            prop_assert!(a.contains(&member), "{} should be in {}", member, a);
        }
    }

    #[test]
    fn pruning_equals_the_quadratic_sweep_on_mixed_sets(
        parts in prop::collection::vec(linear_set(2), 0..12),
        extra in scattered_points(2, 0..8),
    ) {
        let set = SemiLinearSet::from_linear_sets(parts.into_iter().chain(extra));
        prop_assert_eq!(set.prune(), quadratic_prune(&set));
    }

    #[test]
    fn pruning_equals_the_quadratic_sweep_on_many_points(
        points in scattered_points(2, 60..90),
        gens in prop::collection::vec(generator_set(2), 0..4),
    ) {
        let only_points = SemiLinearSet::from_linear_sets(points.clone());
        prop_assert!(only_points.linear_sets().len() >= 50);
        prop_assert_eq!(only_points.prune(), only_points.clone());
        prop_assert_eq!(only_points.prune(), quadratic_prune(&only_points));
        let mixed = SemiLinearSet::from_linear_sets(points.into_iter().chain(gens));
        prop_assert_eq!(mixed.prune(), quadratic_prune(&mixed));
    }

    #[test]
    fn star_contains_all_finite_sums(a in linear_set(1)) {
        let sl = SemiLinearSet::from_linear_sets([a.clone()]);
        let star = sl.star();
        // the empty sum and single members are always in the star
        prop_assert!(star.contains(&IntVec::zeros(1)));
        prop_assert!(star.contains(a.base()));
        let doubled = a.base().clone() + a.base().clone();
        prop_assert!(star.contains(&doubled));
    }

    #[test]
    fn projection_zeroes_selected_components(a in semilinear(2), keep_first in any::<bool>()) {
        let mask = [keep_first, !keep_first];
        let projected = a.project(&mask);
        for ls in projected.linear_sets() {
            for (j, &keep) in mask.iter().enumerate() {
                if !keep {
                    prop_assert_eq!(ls.base()[j], 0);
                    for g in ls.generators() {
                        prop_assert_eq!(g[j], 0);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Exactness of the abstract semantics and of γ̂
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn term_outputs_are_singleton_semilinear_sets(term in lia_term(), x in -5i64..=5, y in -5i64..=5) {
        // Lemma 5.6's core argument: evaluating a single term abstractly
        // (all operations are ⊗ of singletons) yields exactly its concrete
        // output vector.
        let examples = ExampleSet::from_examples([
            sygus::Example::from_pairs([("x", x), ("y", y)]),
            sygus::Example::from_pairs([("x", x + 1), ("y", y - 1)]),
        ]);
        let concrete = term.eval_on(&examples).unwrap();
        let concrete_vec = IntVec::from(concrete.as_int().unwrap().to_vec());
        // abstract evaluation: fold the term over singleton semi-linear sets
        fn abstract_eval(term: &Term, examples: &ExampleSet) -> SemiLinearSet {
            match term.symbol() {
                sygus::Symbol::Num(c) => SemiLinearSet::singleton(IntVec::splat(*c, examples.len())),
                sygus::Symbol::Var(v) => SemiLinearSet::singleton(IntVec::from(examples.projection(v).unwrap())),
                sygus::Symbol::Plus => term
                    .children()
                    .iter()
                    .map(|c| abstract_eval(c, examples))
                    .fold(SemiLinearSet::one(examples.len()), |acc, s| acc.extend(&s)),
                other => unreachable!("LIA terms only: {other}"),
            }
        }
        let abstracted = abstract_eval(&term, &examples);
        prop_assert_eq!(abstracted.linear_sets().len(), 1);
        prop_assert!(abstracted.contains(&concrete_vec));
        prop_assert!(abstracted.linear_sets()[0].is_singleton());
    }

    #[test]
    fn concretization_agrees_with_membership(sl in semilinear(2), probe in small_vec(2)) {
        let outputs = [Var::new("o_1"), Var::new("o_2")];
        let gamma = concretize_semilinear(&sl, &outputs);
        let pinned = Formula::and(vec![
            gamma,
            Formula::eq(LinearExpr::var(outputs[0].clone()), LinearExpr::constant(probe[0])),
            Formula::eq(LinearExpr::var(outputs[1].clone()), LinearExpr::constant(probe[1])),
        ]);
        let solver_says = Solver::default().check(&pinned).is_sat();
        prop_assert_eq!(solver_says, sl.contains(&probe));
    }
}

// ---------------------------------------------------------------------------
// The QF-LIA solver against brute force
// ---------------------------------------------------------------------------

fn small_formula() -> impl Strategy<Value = Formula> {
    let atom = (
        -3i64..=3,
        -3i64..=3,
        -6i64..=6,
        prop_oneof![Just(0usize), Just(1), Just(2), Just(3)],
    )
        .prop_map(|(a, b, c, rel)| {
            let lhs = LinearExpr::from_terms([(Var::new("x"), a), (Var::new("y"), b)], 0);
            let rhs = LinearExpr::constant(c);
            match rel {
                0 => Formula::eq(lhs, rhs),
                1 => Formula::le(lhs, rhs),
                2 => Formula::gt(lhs, rhs),
                _ => Formula::ne(lhs, rhs),
            }
        });
    prop::collection::vec(atom, 1..4).prop_map(Formula::and)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn solver_models_satisfy_the_formula(f in small_formula()) {
        match Solver::default().check(&f) {
            SolverResult::Sat(model) => prop_assert!(f.eval(&model)),
            SolverResult::Unsat => {
                // brute force over a small box must not find a model either
                for x in -8i64..=8 {
                    for y in -8i64..=8 {
                        let m = logic::Model::from_bindings([(Var::new("x"), x), (Var::new("y"), y)]);
                        prop_assert!(!f.eval(&m), "solver said unsat but ({x},{y}) satisfies {f}");
                    }
                }
            }
            SolverResult::Unknown => {}
        }
    }
}

// ---------------------------------------------------------------------------
// h(G) preserves semantics on sampled derivations (Lemma 5.4)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn minus_rewriting_preserves_output_sets(c1 in -3i64..=3, c2 in -3i64..=3, x in -3i64..=3) {
        use sygus::{GrammarBuilder, Sort, Symbol};
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Minus, &["Start", "Start"])
            .production("Start", Symbol::Num(c1), &[])
            .production("Start", Symbol::Num(c2), &[])
            .production("Start", Symbol::Var("x".to_string()), &[])
            .build()
            .unwrap();
        let rewritten = sygus::rewrite::to_plus_form(&grammar).unwrap();
        prop_assert!(!rewritten.has_minus());
        let examples = ExampleSet::for_single_var("x", [x]);
        let outputs = |g: &sygus::Grammar| -> std::collections::BTreeSet<i64> {
            g.terms_up_to_size(g.start(), 5, 5000)
                .iter()
                .map(|t| t.eval_on(&examples).unwrap().as_i64(0))
                .collect()
        };
        prop_assert_eq!(outputs(&grammar), outputs(&rewritten));
    }
}
