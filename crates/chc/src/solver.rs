//! An approximate Horn solver based on abstract interpretation.
//!
//! Spacer (the Horn engine of Z3 used by the paper's `nayHorn` mode) is not
//! available offline, so the Horn query of §4.3 (one predicate per
//! nonterminal, one clause per production, Example 4.7) is discharged with a sound over-approximation instead: a Kleene iteration
//! with widening over the interval × congruence domain of
//! [`crate::domain`] computes, for every nonterminal, a superset of the
//! output vectors its terms can produce on the examples; if that superset is
//! already inconsistent with the specification ([`refutation_query`] is
//! unsatisfiable), the query is unreachable and the problem is
//! unrealizable. Like Spacer, the solver is sound but incomplete — the
//! other possible verdict is `Unknown`.
//!
//! The domain is per component: every operation acts on one example's
//! values at a time, so the fixpoint runs example by example on `Copy`
//! cells, and an example's values do not depend on which other examples
//! are analyzed with it.
//!
//! Only a post-fixpoint is evidence. Inside a [`logic::interruptible`]
//! scope the Kleene loop polls the stop hook once per iteration, and a
//! stopped loop, like one that reaches its round cap without converging,
//! yields no values: a fixpoint cut short (at ⊥, or anywhere below the
//! least fixpoint) would otherwise pass for a smaller language, a false
//! `Unrealizable`.

use crate::domain::{AbsBool, AbsInt, AbsValue};
use logic::{stop_requested, Formula, Solver, SolverResult, Var};
use std::collections::BTreeMap;
use sygus::{Example, ExampleSet, Grammar, NonTerminal, Spec, Symbol};

/// Kleene rounds after which a fixpoint that is still moving is given up.
const MAX_ITERATIONS: usize = 100;

/// The verdict of the approximate Horn solver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HornVerdict {
    /// The query is unreachable: the SyGuS-with-examples problem is
    /// unrealizable.
    Unrealizable,
    /// The abstraction could not refute reachability.
    Unknown,
}

/// The abstract-interpretation Horn solver (nayHorn's backend).
///
/// # Example
/// ```
/// use chc::{HornSolver, HornVerdict};
/// use logic::{LinearExpr, Var};
/// use sygus::{ExampleSet, GrammarBuilder, Sort, Spec, Symbol};
///
/// // G1 of §2: only multiples of 3·x; spec f(x) = 2x + 2 with x = 1.
/// let grammar = GrammarBuilder::new("Start")
///     .nonterminal("Start", Sort::Int)
///     .nonterminal("X3", Sort::Int)
///     .nonterminal("X", Sort::Int)
///     .production("Start", Symbol::Plus, &["X3", "Start"])
///     .production("Start", Symbol::Num(0), &[])
///     .production("X3", Symbol::Plus, &["X", "X"])
///     .production("X", Symbol::Var("x".to_string()), &[])
///     .build().unwrap();
/// let spec = Spec::output_equals(
///     LinearExpr::var(Var::new("x")).scale(2) + LinearExpr::constant(2),
///     vec!["x".to_string()],
/// );
/// let examples = ExampleSet::for_single_var("x", [1]);
/// // (this grammar variant produces multiples of 2, and 4 = 2·1+2 is even,
/// //  so the congruence argument alone cannot refute it)
/// let verdict = HornSolver::new().check(&grammar, &examples, &spec);
/// assert!(matches!(verdict, chc::HornVerdict::Unknown | chc::HornVerdict::Unrealizable));
/// ```
#[derive(Clone, Debug)]
pub struct HornSolver {
    widening_delay: usize,
}

impl Default for HornSolver {
    fn default() -> Self {
        HornSolver { widening_delay: 3 }
    }
}

impl HornSolver {
    /// Creates a solver with the default widening delay (3 rounds).
    pub fn new() -> Self {
        HornSolver::default()
    }

    /// Sets how many iterations run before widening kicks in.
    pub fn with_widening_delay(mut self, n: usize) -> Self {
        self.widening_delay = n;
        self
    }

    /// Computes the abstract fixed point: one [`AbsValue`] per nonterminal,
    /// over-approximating the set of output vectors producible on
    /// `examples`, where an input variable an example does not bind may
    /// take any value.
    ///
    /// `None` when there is no post-fixpoint to report: `examples` is
    /// empty, the stop hook of a [`logic::interruptible`] scope cut the
    /// iteration short, or some example's iteration was still moving after
    /// the round cap.
    ///
    /// The second component counts Kleene rounds: the most any example
    /// needed to converge (the round that changed nothing included), or,
    /// with no values, the round at which the cap or the stop hook ended
    /// the iteration (0 for no examples). The domain is per example, so a
    /// joint iteration over all examples would run the same number.
    pub fn analyze(
        &self,
        grammar: &Grammar,
        examples: &ExampleSet,
    ) -> (Option<BTreeMap<NonTerminal, AbsValue>>, usize) {
        if examples.is_empty() {
            return (None, 0);
        }
        let nts = grammar.nonterminals();
        let index = |nt: &NonTerminal| {
            nts.iter()
                .position(|n| n == nt)
                .expect("productions range over declared nonterminals")
        };
        let rules: Vec<Rule> = grammar
            .productions()
            .iter()
            .map(|p| Rule {
                lhs: index(&p.lhs),
                symbol: &p.symbol,
                args: p.args.iter().map(index).collect(),
            })
            .collect();
        // One column of cells per example, filled one example at a time.
        let n = nts.len();
        let mut columns = vec![Cell::Bottom; n * examples.len()];
        let mut acc = vec![Cell::Bottom; n];
        let mut rounds = 0;
        for (column, example) in columns.chunks_mut(n).zip(examples.iter()) {
            match self.fixpoint(&rules, example, column, &mut acc) {
                Ok(converged) => rounds = rounds.max(converged),
                Err(ended) => return (None, ended),
            }
        }
        let values = nts
            .iter()
            .enumerate()
            .map(|(i, nt)| {
                let cells = columns.iter().skip(i).step_by(n);
                let value = match columns[i] {
                    Cell::Bottom => AbsValue::Bottom,
                    Cell::Int(_) => AbsValue::Int(cells.map(Cell::int).collect()),
                    Cell::Bool(_) => AbsValue::Bool(cells.map(Cell::boolean).collect()),
                };
                (nt.clone(), value)
            })
            .collect();
        (Some(values), rounds)
    }

    /// The Jacobi Kleene iteration on one example: every round recomputes
    /// each nonterminal from the previous round's cells, joining (widening,
    /// after the delay) into its old cell. `Ok` with the rounds run if it
    /// converged, else `Err` with the rounds completed when the cap or the
    /// stop hook ended it.
    fn fixpoint(
        &self,
        rules: &[Rule],
        example: &Example,
        values: &mut [Cell],
        acc: &mut [Cell],
    ) -> Result<usize, usize> {
        for iteration in 0..MAX_ITERATIONS {
            if stop_requested() {
                return Err(iteration);
            }
            acc.fill(Cell::Bottom);
            for rule in rules {
                acc[rule.lhs] = acc[rule.lhs].join(rule.transfer(values, example));
            }
            let mut changed = false;
            for (old, &new) in values.iter_mut().zip(acc.iter()) {
                let next = if iteration >= self.widening_delay {
                    old.widen(new)
                } else {
                    old.join(new)
                };
                if next != *old {
                    *old = next;
                    changed = true;
                }
            }
            if !changed {
                return Ok(iteration + 1);
            }
        }
        Err(MAX_ITERATIONS)
    }

    /// Checks unrealizability of the SyGuS-with-examples problem
    /// `(spec, grammar)` restricted to `examples` (the Horn query of §4.3).
    pub fn check(&self, grammar: &Grammar, examples: &ExampleSet, spec: &Spec) -> HornVerdict {
        let (Some(values), _) = self.analyze(grammar, examples) else {
            return HornVerdict::Unknown;
        };
        match Solver::default().check(&refutation_query(&values[grammar.start()], examples, spec)) {
            SolverResult::Unsat => HornVerdict::Unrealizable,
            SolverResult::Sat(_) | SolverResult::Unknown => HornVerdict::Unknown,
        }
    }
}

/// `γ̂(start) ∧ ψ^E`: some output vector the abstract value `start` admits
/// satisfies the specification on every example (one output variable
/// `__o_j` per example). Unsatisfiable exactly when no term the value
/// over-approximates meets the specification on `examples`, which proves
/// the problem unrealizable; a ⊥ start (no terms) gives `false`.
pub fn refutation_query(start: &AbsValue, examples: &ExampleSet, spec: &Spec) -> Formula {
    let outputs: Vec<Var> = (0..examples.len())
        .map(|j| Var::indexed("__o", j + 1))
        .collect();
    let gamma = match start {
        AbsValue::Bottom => return Formula::False,
        AbsValue::Int(components) => Formula::and(
            components
                .iter()
                .zip(&outputs)
                .enumerate()
                .map(|(j, (a, o))| a.to_formula(o, &format!("__k_{j}"))),
        ),
        AbsValue::Bool(components) => Formula::and(
            components
                .iter()
                .zip(&outputs)
                .map(|(b, o)| b.to_formula(o)),
        ),
    };
    Formula::and(vec![gamma, spec.conjunction_over(examples, &outputs)])
}

/// A production over nonterminal indices.
struct Rule<'g> {
    lhs: usize,
    symbol: &'g Symbol,
    args: Vec<usize>,
}

/// One nonterminal's abstract value on one example.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Cell {
    Bottom,
    Int(AbsInt),
    Bool(AbsBool),
}

impl Cell {
    fn int(&self) -> AbsInt {
        match self {
            Cell::Int(a) => *a,
            _ => unreachable!("sort checked by the grammar builder"),
        }
    }

    fn boolean(&self) -> AbsBool {
        match self {
            Cell::Bool(b) => *b,
            _ => unreachable!("sort checked by the grammar builder"),
        }
    }

    fn join(self, other: Cell) -> Cell {
        match (self, other) {
            (Cell::Bottom, c) | (c, Cell::Bottom) => c,
            (Cell::Int(a), Cell::Int(b)) => Cell::Int(a.join(&b)),
            (Cell::Bool(a), Cell::Bool(b)) => Cell::Bool(a.join(&b)),
            _ => unreachable!("sort checked by the grammar builder"),
        }
    }

    fn widen(self, newer: Cell) -> Cell {
        match (self, newer) {
            (Cell::Int(a), Cell::Int(b)) => Cell::Int(a.widen(&b)),
            _ => self.join(newer),
        }
    }
}

impl Rule<'_> {
    /// The production's abstract output on `example`, given the cells of
    /// its argument nonterminals.
    fn transfer(&self, values: &[Cell], example: &Example) -> Cell {
        if self.args.iter().any(|&a| values[a] == Cell::Bottom) {
            return Cell::Bottom;
        }
        let int = |k: usize| values[self.args[k]].int();
        let boolean = |k: usize| values[self.args[k]].boolean();
        // an input the example does not bind, or whose negation leaves
        // i64, may be anything
        let input = |v: Option<i64>| Cell::Int(v.map_or_else(AbsInt::top, AbsInt::constant));
        match self.symbol {
            Symbol::Num(c) => Cell::Int(AbsInt::constant(*c)),
            Symbol::Var(x) => input(example.get(x)),
            Symbol::NegVar(x) => input(example.get(x).and_then(i64::checked_neg)),
            Symbol::Plus => {
                Cell::Int((0..self.args.len()).fold(AbsInt::constant(0), |acc, k| acc.add(&int(k))))
            }
            Symbol::Minus => Cell::Int(int(0).add(&int(1).neg())),
            Symbol::IfThenElse => Cell::Int(match boolean(0) {
                AbsBool::True => int(1),
                AbsBool::False => int(2),
                AbsBool::Top => int(1).join(&int(2)),
            }),
            Symbol::LessThan => Cell::Bool(AbsBool::less_than(&int(0), &int(1))),
            Symbol::Equal => Cell::Bool(AbsBool::equal(&int(0), &int(1))),
            Symbol::And => Cell::Bool(boolean(0).and(&boolean(1))),
            Symbol::Or => Cell::Bool(boolean(0).or(&boolean(1))),
            Symbol::Not => Cell::Bool(boolean(0).not()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::LinearExpr;
    use sygus::GrammarBuilder;
    use sygus::Sort;

    /// Grammar G1 of §2 (multiples of 3x).
    fn g1() -> Grammar {
        GrammarBuilder::new("Start")
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
            .unwrap()
    }

    fn spec_2x_plus_2() -> Spec {
        Spec::output_equals(
            LinearExpr::var(Var::new("x")).scale(2) + LinearExpr::constant(2),
            vec!["x".to_string()],
        )
    }

    #[test]
    fn analysis_discovers_the_congruence_invariant() {
        let examples = ExampleSet::for_single_var("x", [1]);
        let (values, rounds) = HornSolver::new().analyze(&g1(), &examples);
        let values = values.expect("the fixpoint converges");
        assert!(0 < rounds && rounds < MAX_ITERATIONS);
        match &values[&NonTerminal::new("Start")] {
            AbsValue::Int(v) => {
                assert!(v[0].contains(0));
                assert!(v[0].contains(3));
                assert!(v[0].contains(300));
                assert!(!v[0].contains(4), "Start only produces multiples of 3");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// `Start ::= (+ N1 Z) | 7 | (+ Start Z)`, `Nᵢ ::= (+ Nᵢ₊₁ Z)` for
    /// `i < depth`, `N{depth} ::= 5`, `Z ::= 0`.
    fn deep_chain(depth: usize) -> Grammar {
        let mut builder = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("Z", Sort::Int)
            .production("Start", Symbol::Plus, &["N1", "Z"])
            .production("Start", Symbol::Num(7), &[])
            .production("Start", Symbol::Plus, &["Start", "Z"])
            .production("Z", Symbol::Num(0), &[]);
        for i in 1..=depth {
            let (name, next) = (format!("N{i}"), format!("N{}", i + 1));
            builder = builder.nonterminal(&name, Sort::Int);
            builder = if i < depth {
                builder.production(&name, Symbol::Plus, &[&next, "Z"])
            } else {
                builder.production(&name, Symbol::Num(5), &[])
            };
        }
        builder.build().unwrap()
    }

    #[test]
    fn a_capped_fixpoint_is_unknown_not_unrealizable() {
        // 5 + 0 + … + 0 reaches Start in round 121, past the cap of 100;
        // the capped iteration still has Start = {7}, which refutes f = 5.
        let spec = Spec::output_equals(LinearExpr::constant(5), vec!["x".to_string()]);
        let examples = ExampleSet::for_single_var("x", [0]);
        let solver = HornSolver::new();
        assert_eq!(
            solver.analyze(&deep_chain(120), &examples),
            (None, MAX_ITERATIONS)
        );
        assert_eq!(
            solver.check(&deep_chain(120), &examples, &spec),
            HornVerdict::Unknown
        );
        // a chain the cap covers converges, and 5 is in Start's value
        let values = solver.analyze(&deep_chain(20), &examples).0.unwrap();
        match &values[&NonTerminal::new("Start")] {
            AbsValue::Int(v) => assert!(v[0].contains(5) && v[0].contains(7)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inputs_outside_i64_and_unbound_inputs_are_top() {
        // A ::= −x with x = i64::MIN (−x = 2⁶³), B ::= y with y unbound
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("A", Sort::Int)
            .nonterminal("B", Sort::Int)
            .production("Start", Symbol::Plus, &["A", "B"])
            .production("A", Symbol::NegVar("x".to_string()), &[])
            .production("B", Symbol::Var("y".to_string()), &[])
            .build()
            .unwrap();
        let examples = ExampleSet::for_single_var("x", [i64::MIN]);
        let values = HornSolver::new().analyze(&grammar, &examples).0.unwrap();
        for nt in ["A", "B", "Start"] {
            assert_eq!(
                values[&NonTerminal::new(nt)],
                AbsValue::Int(vec![AbsInt::top()]),
                "{nt}"
            );
        }
    }

    #[test]
    fn a_stopped_check_is_unknown_not_unrealizable() {
        // Stopped before its first Kleene step, the fixpoint is still ⊥
        // everywhere; read as an empty language it would be a false proof.
        let examples = ExampleSet::for_single_var("x", [1]);
        let solver = HornSolver::new();
        let verdict = logic::interruptible(
            || true,
            || solver.check(&g1(), &examples, &spec_2x_plus_2()),
        );
        assert_eq!(verdict, HornVerdict::Unknown);
        assert_eq!(
            logic::interruptible(|| true, || solver.analyze(&g1(), &examples)),
            (None, 0)
        );
        assert_eq!(
            solver.check(&g1(), &examples, &spec_2x_plus_2()),
            HornVerdict::Unrealizable
        );
    }

    #[test]
    fn proves_the_section2_lia_problem_unrealizable() {
        // f(x) = 2x + 2 with x = 1 requires output 4, but the grammar only
        // produces multiples of 3 — the congruence component refutes it.
        let examples = ExampleSet::for_single_var("x", [1]);
        let verdict = HornSolver::new().check(&g1(), &examples, &spec_2x_plus_2());
        assert_eq!(verdict, HornVerdict::Unrealizable);
    }

    #[test]
    fn unknown_when_the_abstraction_is_too_coarse() {
        // Gconst (Ex. 3.8): Start ::= Plus(Start,Start) | Num(1); spec f(x) > x.
        // The abstraction [1,∞) is consistent with the spec for x = 1, so the
        // solver must answer Unknown (and indeed sy_E is realizable here).
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .production("Start", Symbol::Num(1), &[])
            .build()
            .unwrap();
        let spec = Spec::new(
            Formula::gt(
                LinearExpr::var(Spec::output_var()),
                LinearExpr::var(Var::new("x")),
            ),
            vec!["x".to_string()],
            Sort::Int,
        );
        let examples = ExampleSet::for_single_var("x", [1]);
        assert_eq!(
            HornSolver::new().check(&grammar, &examples, &spec),
            HornVerdict::Unknown
        );
    }

    #[test]
    fn interval_reasoning_proves_bounded_grammars_unrealizable() {
        // Start ::= Num(1) | Num(2) | Plus(... no recursion): outputs ≤ 3,
        // spec f(x) = 10 ⇒ unrealizable by the interval component.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("A", Sort::Int)
            .production("Start", Symbol::Plus, &["A", "A"])
            .production("Start", Symbol::Num(1), &[])
            .production("A", Symbol::Num(1), &[])
            .build()
            .unwrap();
        let spec = Spec::output_equals(LinearExpr::constant(10), vec!["x".to_string()]);
        let examples = ExampleSet::for_single_var("x", [0]);
        assert_eq!(
            HornSolver::new().check(&grammar, &examples, &spec),
            HornVerdict::Unrealizable
        );
    }

    #[test]
    fn clia_if_then_else_analysis() {
        // Start ::= ite(B, Num(0), Num(5)) ; B ::= x < 2. Outputs ∈ {0, 5};
        // spec f(x) = 3 is unrealizable, and provable because the interval
        // join [0,5] with congruence information... the join of constants 0
        // and 5 has modulus 5, so 3 is excluded.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("T", Sort::Int)
            .nonterminal("E", Sort::Int)
            .nonterminal("B", Sort::Bool)
            .nonterminal("X", Sort::Int)
            .nonterminal("Two", Sort::Int)
            .production("Start", Symbol::IfThenElse, &["B", "T", "E"])
            .production("T", Symbol::Num(0), &[])
            .production("E", Symbol::Num(5), &[])
            .production("B", Symbol::LessThan, &["X", "Two"])
            .production("X", Symbol::Var("x".to_string()), &[])
            .production("Two", Symbol::Num(2), &[])
            .build()
            .unwrap();
        let spec = Spec::output_equals(LinearExpr::constant(3), vec!["x".to_string()]);
        let examples = ExampleSet::for_single_var("x", [7]);
        // on x = 7 the guard is definitely false, so Start = 5 exactly
        assert_eq!(
            HornSolver::new().check(&grammar, &examples, &spec),
            HornVerdict::Unrealizable
        );
    }

    #[test]
    fn unproductive_start_symbol_is_unrealizable() {
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .build()
            .unwrap();
        let spec = spec_2x_plus_2();
        let examples = ExampleSet::for_single_var("x", [1]);
        assert_eq!(
            HornSolver::new().check(&grammar, &examples, &spec),
            HornVerdict::Unrealizable
        );
    }

    #[test]
    fn empty_example_set_gives_unknown() {
        assert_eq!(
            HornSolver::new().check(&g1(), &ExampleSet::new(), &spec_2x_plus_2()),
            HornVerdict::Unknown
        );
    }
}
