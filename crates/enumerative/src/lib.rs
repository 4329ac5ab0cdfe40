//! A bottom-up enumerative SyGuS-with-examples solver.
//!
//! This crate plays the role that ESolver plays inside nay's CEGIS loop
//! (§7): given a grammar `G`, a specification `ψ` and a finite example set
//! `E`, find some term `e ∈ L(G)` with `ψ^E(⟦e⟧_E)` — i.e. a solution of the
//! example-restricted problem `sy_E` — or report that no term of size up to
//! the configured bound exists.
//!
//! The enumerator works size by size and prunes observationally equivalent
//! terms: two terms derivable from the same nonterminal that produce the same
//! output vector on `E` are interchangeable in any context, so only the first
//! one found is kept. This is the standard technique used by enumerative
//! SyGuS solvers.
//!
//! Since the hash-consing refactor the whole search runs on
//! [`sygus::TermArena`] ids: candidate terms are `Copy`-able [`TermId`]s,
//! compound candidates are built by interning (one hash probe) instead of
//! deep-cloning subtrees, and `⟦·⟧_E` is memoized per distinct subterm, so
//! a size-`n` candidate costs `O(arity · |E|)` to evaluate instead of
//! `O(n · |E|)`. The owned [`Term`] tree is materialized only at the
//! found-solution boundary ([`EnumerationResult::Found`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap, HashSet};
use sygus::{ExampleSet, Grammar, NonTerminal, Output, Problem, Term, TermArena, TermId};

/// The outcome of an enumerative search, with the found term extracted to
/// the owned-tree boundary type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnumerationResult {
    /// A term of `L(G)` satisfying the specification on every example.
    Found(Term),
    /// No term of size up to the bound satisfies the specification on the
    /// examples. If `exhausted` is `true` the search space itself was
    /// exhausted (every observational-equivalence class was enumerated), so
    /// the example-restricted problem is *unrealizable*.
    NotFound {
        /// The size bound that was reached.
        size_bound: usize,
        /// Whether the whole (quotiented) search space was covered.
        exhausted: bool,
    },
}

impl EnumerationResult {
    /// The found term, if any.
    pub fn term(&self) -> Option<&Term> {
        match self {
            EnumerationResult::Found(t) => Some(t),
            EnumerationResult::NotFound { .. } => None,
        }
    }
}

/// The outcome of an enumerative search on an arena the caller owns: the
/// found term stays an interned [`TermId`] (extract it with
/// [`TermArena::extract`] when an owned tree is needed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdEnumerationResult {
    /// An interned term of `L(G)` satisfying the specification on every
    /// example.
    Found(TermId),
    /// No term of size up to the bound satisfies the specification; see
    /// [`EnumerationResult::NotFound`].
    NotFound {
        /// The size bound that was reached.
        size_bound: usize,
        /// Whether the whole (quotiented) search space was covered.
        exhausted: bool,
    },
}

/// Configuration of the enumerator.
#[derive(Clone, Debug)]
pub struct Enumerator {
    max_size: usize,
    max_terms: usize,
}

impl Default for Enumerator {
    fn default() -> Self {
        Enumerator {
            max_size: 20,
            max_terms: 200_000,
        }
    }
}

impl Enumerator {
    /// Creates an enumerator with the default bounds (term size ≤ 20,
    /// at most 200 000 distinct equivalence classes).
    pub fn new() -> Self {
        Enumerator::default()
    }

    /// Sets the maximal term size (number of AST nodes) explored.
    pub fn with_max_size(mut self, max_size: usize) -> Self {
        self.max_size = max_size;
        self
    }

    /// Sets the maximal number of observational-equivalence classes kept.
    pub fn with_max_terms(mut self, max_terms: usize) -> Self {
        self.max_terms = max_terms;
        self
    }

    /// Searches for a term of `problem.grammar()` that satisfies
    /// `problem.spec()` on every example of `examples`.
    ///
    /// With an empty example set every term vacuously satisfies the
    /// specification, so the smallest derivable term is returned (if the
    /// grammar derives any term at all).
    pub fn solve(&self, problem: &Problem, examples: &ExampleSet) -> EnumerationResult {
        let mut arena = TermArena::new();
        let outcome = self.solve_with_arena(&mut arena, problem, examples);
        self.extract_result(&arena, outcome)
    }

    /// [`Enumerator::solve`] on a caller-owned arena: every candidate built
    /// during the search stays interned, so a CEGIS driver that calls this
    /// repeatedly (with growing example sets) reuses the interned subterm
    /// structure across iterations instead of rebuilding it. The found
    /// candidate is returned as an id — the owned [`Term`] is only
    /// materialized where the caller needs it (the witness boundary).
    ///
    /// The [`logic`] stop hook is polled once per term size; once it fires
    /// the search ends with `NotFound { exhausted: false }` — a stopped
    /// search proves nothing.
    pub fn solve_with_arena(
        &self,
        arena: &mut TermArena,
        problem: &Problem,
        examples: &ExampleSet,
    ) -> IdEnumerationResult {
        let spec = problem.spec();
        self.enumerate_ids(arena, problem.grammar(), examples, |_, _, out| {
            examples
                .iter()
                .enumerate()
                .all(|(j, e)| spec.holds(e, out.as_i64(j)))
        })
    }

    fn extract_result(&self, arena: &TermArena, outcome: IdEnumerationResult) -> EnumerationResult {
        match outcome {
            IdEnumerationResult::Found(id) => EnumerationResult::Found(arena.extract(id)),
            IdEnumerationResult::NotFound {
                size_bound,
                exhausted,
            } => EnumerationResult::NotFound {
                size_bound,
                exhausted,
            },
        }
    }

    /// The size-by-size enumeration loop on interned ids. `accept` is
    /// called (with the arena and the candidate's output vector) only for
    /// candidates derivable from the start symbol that open a new
    /// observational-equivalence class. The stop hook is polled before
    /// each size.
    fn enumerate_ids(
        &self,
        arena: &mut TermArena,
        grammar: &Grammar,
        examples: &ExampleSet,
        mut accept: impl FnMut(&mut TermArena, TermId, &Output) -> bool,
    ) -> IdEnumerationResult {
        // signature tables: nonterminal → set of output signatures seen
        let mut signatures: HashMap<&NonTerminal, HashSet<Vec<i64>>> = HashMap::new();
        // representatives by nonterminal and size (id-keyed: no subtree
        // clones, a representative is 4 bytes)
        let mut by_size: HashMap<&NonTerminal, BTreeMap<usize, Vec<TermId>>> = grammar
            .nonterminals()
            .iter()
            .map(|nt| (nt, BTreeMap::new()))
            .collect();
        let mut total_terms = 0usize;

        let max_arity = grammar
            .productions()
            .iter()
            .map(|p| p.args.len())
            .max()
            .unwrap_or(0);
        // largest size at which a new observational class appeared
        let mut largest_new_size = 0usize;

        for size in 1..=self.max_size {
            if logic::stop_requested() {
                return IdEnumerationResult::NotFound {
                    size_bound: size - 1,
                    exhausted: false,
                };
            }
            let mut added_any = false;
            for nt in grammar.nonterminals() {
                let mut new_terms: Vec<TermId> = Vec::new();
                for p in grammar.productions_of(nt) {
                    let op = arena.op_from_symbol(&p.symbol);
                    if p.args.is_empty() {
                        if size == 1 {
                            new_terms.push(arena.intern(op, &[]));
                        }
                        continue;
                    }
                    if size < p.args.len() + 1 {
                        continue;
                    }
                    // enumerate argument size splits summing to size-1
                    let budget = size - 1;
                    let mut combos: Vec<(usize, Vec<TermId>)> = vec![(0, Vec::new())];
                    for (arg_index, arg) in p.args.iter().enumerate() {
                        let remaining_args = p.args.len() - arg_index - 1;
                        let mut next = Vec::new();
                        for (used, ids) in &combos {
                            let max_here = budget - used - remaining_args;
                            for arg_size in 1..=max_here {
                                let candidates = by_size
                                    .get(arg)
                                    .and_then(|per_size| per_size.get(&arg_size));
                                let Some(candidates) = candidates else {
                                    continue;
                                };
                                for &c in candidates {
                                    let mut ids2 = ids.clone();
                                    ids2.push(c);
                                    next.push((used + arg_size, ids2));
                                }
                            }
                        }
                        combos = next;
                    }
                    for (used, args) in combos {
                        if used != budget {
                            continue;
                        }
                        if let Ok(t) = arena.try_intern(op, &args) {
                            new_terms.push(t);
                        }
                    }
                }

                // observational-equivalence pruning + acceptance check
                for t in new_terms {
                    let Ok(out) = arena.eval_id(t, examples) else {
                        continue;
                    };
                    let sig: Vec<i64> = (0..out.len()).map(|j| out.as_i64(j)).collect();
                    let entry = signatures.entry(nt).or_default();
                    if examples.is_empty() || entry.insert(sig) {
                        if nt == grammar.start() && accept(arena, t, &out) {
                            return IdEnumerationResult::Found(t);
                        }
                        by_size
                            .get_mut(nt)
                            .expect("every nonterminal is pre-registered")
                            .entry(size)
                            .or_default()
                            .push(t);
                        added_any = true;
                        total_terms += 1;
                        if total_terms >= self.max_terms {
                            return IdEnumerationResult::NotFound {
                                size_bound: size,
                                exhausted: false,
                            };
                        }
                    }
                }
            }
            if added_any {
                largest_new_size = size;
            } else if size > max_arity * largest_new_size {
                // Every representative has size ≤ largest_new_size, so any
                // term buildable from representatives has size at most
                // 1 + max_arity·largest_new_size — and all of those sizes
                // have now been processed without discovering a new
                // observational class. The (quotiented) search space is
                // exhausted.
                return IdEnumerationResult::NotFound {
                    size_bound: size,
                    exhausted: !examples.is_empty(),
                };
            }
        }
        IdEnumerationResult::NotFound {
            size_bound: self.max_size,
            exhausted: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::{Formula, LinearExpr, Var};
    use sygus::{Example, GrammarBuilder, Sort, Spec, Symbol};

    fn g1_problem() -> Problem {
        // §2: grammar G1 (terms 3kx), spec f(x) = 2x + 2
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("S1", Sort::Int)
            .nonterminal("S2", Sort::Int)
            .nonterminal("S3", Sort::Int)
            .production("Start", Symbol::Plus, &["S1", "Start"])
            .production("Start", Symbol::Num(0), &[])
            .production("S1", Symbol::Plus, &["S2", "S3"])
            .production("S2", Symbol::Plus, &["S3", "S3"])
            .production("S3", Symbol::Var("x".to_string()), &[])
            .build()
            .unwrap();
        let spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")).scale(2) + LinearExpr::constant(2),
            vec!["x".to_string()],
        );
        Problem::new("g1", grammar, spec)
    }

    #[test]
    fn finds_a_solution_when_one_exists() {
        // grammar of all sums of x and 1; spec f(x) = x + 2
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .production("Start", Symbol::Num(1), &[])
            .production("Start", Symbol::Var("x".to_string()), &[])
            .build()
            .unwrap();
        let spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")) + LinearExpr::constant(2),
            vec!["x".to_string()],
        );
        let problem = Problem::new("xplus2", grammar, spec);
        let examples = ExampleSet::for_single_var("x", [0, 5]);
        match Enumerator::new().solve(&problem, &examples) {
            EnumerationResult::Found(t) => {
                assert!(problem.satisfied_on_examples(&t, &examples).unwrap());
                assert!(problem.grammar().contains_term(&t));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn id_and_tree_front_ends_agree() {
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .production("Start", Symbol::Num(1), &[])
            .production("Start", Symbol::Var("x".to_string()), &[])
            .build()
            .unwrap();
        let spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")) + LinearExpr::constant(2),
            vec!["x".to_string()],
        );
        let problem = Problem::new("xplus2", grammar, spec);
        let examples = ExampleSet::for_single_var("x", [0, 5]);
        let mut arena = TermArena::new();
        let enumerator = Enumerator::new();
        let by_id = enumerator.solve_with_arena(&mut arena, &problem, &examples);
        let IdEnumerationResult::Found(id) = by_id else {
            panic!("unexpected {by_id:?}");
        };
        match enumerator.solve(&problem, &examples) {
            EnumerationResult::Found(t) => assert_eq!(arena.extract(id), t),
            other => panic!("unexpected {other:?}"),
        }
        assert!(!arena.is_empty(), "the search interned its candidates");
    }

    #[test]
    fn arena_reuse_across_example_sets_is_consistent() {
        // the CEGIS pattern: one arena, successive solve calls with growing
        // example sets — each call must behave exactly like a fresh solve
        let problem = g1_problem();
        let enumerator = Enumerator::new().with_max_size(8);
        let mut shared = TermArena::new();
        for examples in [
            ExampleSet::for_single_var("x", [1]),
            ExampleSet::for_single_var("x", [1, 2]),
            ExampleSet::for_single_var("x", [1, 2, -3]),
        ] {
            let mut fresh = TermArena::new();
            let reused = enumerator.solve_with_arena(&mut shared, &problem, &examples);
            let isolated = enumerator.solve_with_arena(&mut fresh, &problem, &examples);
            match (reused, isolated) {
                (IdEnumerationResult::Found(a), IdEnumerationResult::Found(b)) => {
                    assert_eq!(shared.extract(a), fresh.extract(b));
                }
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn g1_with_example_x1_is_unrealizable_and_search_saturates() {
        // On E = ⟨x=1⟩ the grammar produces only multiples of 3, so there are
        // finitely many observational classes... in fact infinitely many
        // (3, 6, 9, …), so the enumerator cannot prove unrealizability; it
        // must simply fail to find a solution up to the bound.
        let problem = g1_problem();
        let examples = ExampleSet::for_single_var("x", [1]);
        match Enumerator::new()
            .with_max_size(11)
            .solve(&problem, &examples)
        {
            EnumerationResult::NotFound { .. } => {}
            EnumerationResult::Found(t) => panic!("no solution should exist, found {t}"),
        }
    }

    #[test]
    fn saturation_detects_unrealizability_for_finite_languages() {
        // Start ::= Num(1) | Num(2): only two values, spec wants f(x) = 3.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Num(1), &[])
            .production("Start", Symbol::Num(2), &[])
            .build()
            .unwrap();
        let spec = Spec::output_equals(LinearExpr::constant(3), vec!["x".to_string()]);
        let problem = Problem::new("finite", grammar, spec);
        let examples = ExampleSet::for_single_var("x", [0]);
        match Enumerator::new().solve(&problem, &examples) {
            EnumerationResult::NotFound { exhausted, .. } => assert!(exhausted),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_stopped_search_never_claims_exhaustion() {
        // The finite language above saturates at size 2; a search stopped
        // after its first size must not report the space exhausted.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Num(1), &[])
            .production("Start", Symbol::Num(2), &[])
            .build()
            .unwrap();
        let spec = Spec::output_equals(LinearExpr::constant(3), vec!["x".to_string()]);
        let problem = Problem::new("finite", grammar, spec);
        let examples = ExampleSet::for_single_var("x", [0]);
        let polls = std::cell::Cell::new(0);
        let stop = move || {
            polls.set(polls.get() + 1);
            polls.get() > 1
        };
        let outcome = logic::interruptible(stop, || {
            Enumerator::new().solve_with_arena(&mut TermArena::new(), &problem, &examples)
        });
        assert_eq!(
            outcome,
            IdEnumerationResult::NotFound {
                size_bound: 1,
                exhausted: false
            }
        );
    }

    #[test]
    fn observational_equivalence_prunes_duplicates() {
        // With one example x = 0, the terms x, x+x, x+x+x … all have output 0
        // and must collapse into one class, so a solution requiring constant 1
        // is found quickly even though the grammar is infinite.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .production("Start", Symbol::Var("x".to_string()), &[])
            .production("Start", Symbol::Num(1), &[])
            .build()
            .unwrap();
        let spec = Spec::new(
            Formula::gt(LinearExpr::var(Spec::output_var()), LinearExpr::constant(0)),
            vec!["x".to_string()],
            Sort::Int,
        );
        let problem = Problem::new("positive", grammar, spec);
        let examples = ExampleSet::from_examples([Example::from_pairs([("x", 0)])]);
        match Enumerator::new().solve(&problem, &examples) {
            EnumerationResult::Found(t) => {
                assert!(problem.satisfied_on_examples(&t, &examples).unwrap())
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn clia_enumeration() {
        // max2-like grammar, spec f(x,y) ≥ x ∧ f(x,y) ≥ y ∧ (f = x ∨ f = y)
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("B", Sort::Bool)
            .production("Start", Symbol::Var("x".to_string()), &[])
            .production("Start", Symbol::Var("y".to_string()), &[])
            .production("Start", Symbol::IfThenElse, &["B", "Start", "Start"])
            .production("B", Symbol::LessThan, &["Start", "Start"])
            .build()
            .unwrap();
        let out = LinearExpr::var(Spec::output_var());
        let x = LinearExpr::var(Var::new("x"));
        let y = LinearExpr::var(Var::new("y"));
        let spec = Spec::new(
            Formula::and(vec![
                Formula::ge(out.clone(), x.clone()),
                Formula::ge(out.clone(), y.clone()),
                Formula::or(vec![Formula::eq(out.clone(), x), Formula::eq(out, y)]),
            ]),
            vec!["x".to_string(), "y".to_string()],
            Sort::Int,
        );
        let problem = Problem::new("max2", grammar, spec);
        let examples = ExampleSet::from_examples([
            Example::from_pairs([("x", 1), ("y", 5)]),
            Example::from_pairs([("x", 4), ("y", 2)]),
        ]);
        match Enumerator::new().solve(&problem, &examples) {
            EnumerationResult::Found(t) => {
                assert!(problem.satisfied_on_examples(&t, &examples).unwrap());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_example_set_returns_smallest_term() {
        let problem = g1_problem();
        match Enumerator::new().solve(&problem, &ExampleSet::new()) {
            EnumerationResult::Found(t) => assert_eq!(t, Term::num(0)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
