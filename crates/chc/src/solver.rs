//! An approximate Horn solver based on abstract interpretation.
//!
//! Spacer (the Horn engine of Z3 used by the paper's `nayHorn` mode) is not
//! available offline, so the Horn query produced by [`crate::encode`] is
//! discharged with a sound over-approximation instead: a Kleene iteration
//! with widening over the interval × congruence domain of
//! [`crate::domain`] computes, for every nonterminal, a superset of the
//! output vectors its terms can produce on the examples; if that superset is
//! already inconsistent with the specification, the query is unreachable and
//! the problem is unrealizable. Like Spacer, the solver is sound but
//! incomplete — the other possible verdict is `Unknown`.
//!
//! Inside a [`logic::interruptible`] scope the Kleene loop polls the stop
//! hook once per iteration. A stopped check answers `Unknown` before it
//! reads the start symbol's value: a fixpoint cut short at ⊥ would
//! otherwise pass for an empty language, a false `Unrealizable`.

use crate::domain::{AbsBool, AbsInt, AbsValue};
use logic::{stop_requested, Formula, Solver, SolverResult, Var};
use std::collections::BTreeMap;
use sygus::{ExampleSet, Grammar, NonTerminal, Spec, Symbol};

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
    max_iterations: usize,
    widening_delay: usize,
}

impl Default for HornSolver {
    fn default() -> Self {
        HornSolver {
            max_iterations: 100,
            widening_delay: 3,
        }
    }
}

impl HornSolver {
    /// Creates a solver with default iteration and widening parameters.
    pub fn new() -> Self {
        HornSolver::default()
    }

    /// Sets the maximal number of Kleene iterations.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Sets how many iterations run before widening kicks in.
    pub fn with_widening_delay(mut self, n: usize) -> Self {
        self.widening_delay = n;
        self
    }

    /// Computes the abstract fixed point: one [`AbsValue`] per nonterminal,
    /// over-approximating the set of output vectors producible on `examples`
    /// (unless the stop hook cut the iteration short, see the
    /// [module docs](self)).
    pub fn analyze(
        &self,
        grammar: &Grammar,
        examples: &ExampleSet,
    ) -> BTreeMap<NonTerminal, AbsValue> {
        let mut values: BTreeMap<NonTerminal, AbsValue> = grammar
            .nonterminals()
            .iter()
            .map(|nt| (nt.clone(), AbsValue::Bottom))
            .collect();

        for iteration in 0..self.max_iterations {
            if stop_requested() {
                break;
            }
            let mut changed = false;
            let mut next = values.clone();
            for nt in grammar.nonterminals() {
                let mut acc = AbsValue::Bottom;
                for p in grammar.productions_of(nt) {
                    let contribution = self.transfer(&p.symbol, &p.args, &values, examples);
                    if !contribution.is_bottom() {
                        acc = acc.join(&contribution);
                    }
                }
                let old = &values[nt];
                let new = if iteration >= self.widening_delay {
                    old.widen(&acc)
                } else if old.is_bottom() {
                    acc
                } else {
                    old.join(&acc)
                };
                if &new != old {
                    changed = true;
                }
                next.insert(nt.clone(), new);
            }
            values = next;
            if !changed {
                break;
            }
        }
        values
    }

    /// Checks unrealizability of the SyGuS-with-examples problem
    /// `(spec, grammar)` restricted to `examples` (the Horn query of §4.3).
    pub fn check(&self, grammar: &Grammar, examples: &ExampleSet, spec: &Spec) -> HornVerdict {
        if examples.is_empty() {
            return HornVerdict::Unknown;
        }
        let values = self.analyze(grammar, examples);
        if stop_requested() {
            return HornVerdict::Unknown;
        }
        let start = &values[grammar.start()];
        let outputs: Vec<Var> = (0..examples.len())
            .map(|j| Var::indexed("o", j + 1))
            .collect();
        let gamma = match start {
            // bottom: the start symbol derives no terms at all, so there is
            // no candidate and the problem is trivially unrealizable.
            AbsValue::Bottom => return HornVerdict::Unrealizable,
            AbsValue::Int(components) => Formula::and(
                components
                    .iter()
                    .enumerate()
                    .map(|(j, a)| a.to_formula(&outputs[j], &format!("k_{j}"))),
            ),
            AbsValue::Bool(components) => {
                Formula::and(components.iter().enumerate().map(|(j, b)| {
                    let o = logic::LinearExpr::var(outputs[j].clone());
                    match b {
                        AbsBool::True => Formula::eq(o, logic::LinearExpr::constant(1)),
                        AbsBool::False => Formula::eq(o, logic::LinearExpr::constant(0)),
                        AbsBool::Top => Formula::and(vec![
                            Formula::ge(o.clone(), logic::LinearExpr::constant(0)),
                            Formula::le(o, logic::LinearExpr::constant(1)),
                        ]),
                    }
                }))
            }
        };
        let query = Formula::and(vec![gamma, spec.conjunction_over(examples, &outputs)]);
        match Solver::default().check(&query) {
            SolverResult::Unsat => HornVerdict::Unrealizable,
            SolverResult::Sat(_) | SolverResult::Unknown => HornVerdict::Unknown,
        }
    }

    fn transfer(
        &self,
        symbol: &Symbol,
        args: &[NonTerminal],
        values: &BTreeMap<NonTerminal, AbsValue>,
        examples: &ExampleSet,
    ) -> AbsValue {
        let dim = examples.len();
        let arg_vals: Vec<&AbsValue> = args.iter().map(|a| &values[a]).collect();
        if arg_vals.iter().any(|v| v.is_bottom()) {
            return AbsValue::Bottom;
        }
        let ints = |k: usize| -> &Vec<AbsInt> {
            match arg_vals[k] {
                AbsValue::Int(v) => v,
                _ => unreachable!("sort checked by the grammar builder"),
            }
        };
        let bools = |k: usize| -> &Vec<AbsBool> {
            match arg_vals[k] {
                AbsValue::Bool(v) => v,
                _ => unreachable!("sort checked by the grammar builder"),
            }
        };
        match symbol {
            Symbol::Num(c) => AbsValue::Int(vec![AbsInt::constant(*c); dim]),
            Symbol::Var(x) => {
                let mu = examples.projection(x).unwrap_or_else(|_| vec![0; dim]);
                AbsValue::Int(mu.into_iter().map(AbsInt::constant).collect())
            }
            Symbol::NegVar(x) => {
                let mu = examples.projection(x).unwrap_or_else(|_| vec![0; dim]);
                AbsValue::Int(mu.into_iter().map(|v| AbsInt::constant(-v)).collect())
            }
            Symbol::Plus => {
                let mut acc = vec![AbsInt::constant(0); dim];
                for k in 0..args.len() {
                    for (j, cell) in acc.iter_mut().enumerate() {
                        *cell = cell.add(&ints(k)[j]);
                    }
                }
                AbsValue::Int(acc)
            }
            Symbol::Minus => AbsValue::Int(
                (0..dim)
                    .map(|j| ints(0)[j].add(&ints(1)[j].neg()))
                    .collect(),
            ),
            Symbol::IfThenElse => AbsValue::Int(
                (0..dim)
                    .map(|j| match bools(0)[j] {
                        AbsBool::True => ints(1)[j],
                        AbsBool::False => ints(2)[j],
                        AbsBool::Top => ints(1)[j].join(&ints(2)[j]),
                    })
                    .collect(),
            ),
            Symbol::LessThan => AbsValue::Bool(
                (0..dim)
                    .map(|j| AbsBool::less_than(&ints(0)[j], &ints(1)[j]))
                    .collect(),
            ),
            Symbol::Equal => AbsValue::Bool(
                (0..dim)
                    .map(|j| {
                        let (a, b) = (&ints(0)[j], &ints(1)[j]);
                        if a.interval.lo == a.interval.hi
                            && a.interval.lo.is_some()
                            && a.interval == b.interval
                            && a.congruence.modulus == 0
                            && b.congruence.modulus == 0
                        {
                            AbsBool::True
                        } else if AbsBool::less_than(a, b) == AbsBool::True
                            || AbsBool::less_than(b, a) == AbsBool::True
                        {
                            AbsBool::False
                        } else {
                            AbsBool::Top
                        }
                    })
                    .collect(),
            ),
            Symbol::And => {
                AbsValue::Bool((0..dim).map(|j| bools(0)[j].and(&bools(1)[j])).collect())
            }
            Symbol::Or => AbsValue::Bool((0..dim).map(|j| bools(0)[j].or(&bools(1)[j])).collect()),
            Symbol::Not => AbsValue::Bool((0..dim).map(|j| bools(0)[j].not()).collect()),
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
        let values = HornSolver::new().analyze(&g1(), &examples);
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
