//! Property-based tests for the hash-consing [`TermArena`]:
//!
//! * `Term → intern → extract` is the identity on arbitrary well-sorted
//!   terms (the arena is a lossless representation change),
//! * interning is idempotent — the same subtree always yields the same
//!   [`sygus::TermId`], through either construction route.

use proptest::prelude::*;
use sygus::{Symbol, Term, TermArena};

/// Arbitrary well-sorted integer terms over `x` and `y`, covering every
/// operator of the CLIA alphabet (Boolean subterms appear under `ite`).
fn arb_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (-9i64..=9).prop_map(Term::num),
        Just(Term::var("x")),
        Just(Term::var("y")),
        Just(Term::neg_var("x")),
    ];
    leaf.prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::plus(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::minus(a, b)),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(a, b, c)| {
                Term::apply(Symbol::Plus, vec![a, b, c]).expect("n-ary plus is well-sorted")
            }),
            // ite over a comparison guard, with and/or/not/equal mixed in
            (
                inner.clone(),
                inner.clone(),
                inner.clone(),
                inner.clone(),
                (0usize..4)
            )
                .prop_map(|(a, b, t, e, flavor)| {
                    let lt = Term::less_than(a.clone(), b.clone());
                    let eq = Term::apply(Symbol::Equal, vec![a, b]).expect("well-sorted");
                    let guard = match flavor {
                        0 => lt,
                        1 => Term::apply(Symbol::Not, vec![lt]).expect("well-sorted"),
                        2 => Term::apply(Symbol::And, vec![lt, eq]).expect("well-sorted"),
                        _ => Term::apply(Symbol::Or, vec![lt, eq]).expect("well-sorted"),
                    };
                    Term::ite(guard, t, e).expect("well-sorted ite")
                }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Term → intern → extract` is the identity.
    #[test]
    fn intern_extract_round_trip(term in arb_term()) {
        let mut arena = TermArena::new();
        let id = arena.intern_term(&term);
        let extracted = arena.extract(id);
        prop_assert_eq!(&extracted, &term);
        prop_assert_eq!(arena.size(id), term.size() as u64);
        prop_assert_eq!(arena.height(id), term.height());
    }

    /// Interning is idempotent: the same subtree always receives the same
    /// id — when interned twice, and when interned via its own extraction.
    #[test]
    fn interning_is_idempotent(term in arb_term()) {
        let mut arena = TermArena::new();
        let first = arena.intern_term(&term);
        let len_after_first = arena.len();
        prop_assert_eq!(arena.intern_term(&term), first);
        let extracted = arena.extract(first);
        prop_assert_eq!(arena.intern_term(&extracted), first);
        prop_assert_eq!(arena.len(), len_after_first, "re-interning adds no nodes");
    }

    /// Two structurally different routes to the same subterm share it: the
    /// arena's node count equals the number of *distinct* subterms.
    #[test]
    fn identical_subtrees_share_ids(term in arb_term()) {
        let mut arena = TermArena::new();
        let id = arena.intern_term(&term);
        // doubling the term as Plus(t, t) adds exactly one node
        let before = arena.len();
        let doubled = arena.plus2(id, id);
        prop_assert_eq!(arena.len(), before + 1);
        prop_assert_eq!(arena.children(doubled), &[id, id]);
    }
}
