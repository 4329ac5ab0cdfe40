//! SyGuS problems `sy = (ψ, G)` (Def. 3.2).

use crate::example::{Example, ExampleSet};
use crate::grammar::Grammar;
use crate::spec::Spec;
use crate::term::Term;
use crate::SygusError;
use std::fmt;

/// A syntax-guided synthesis problem: a behavioral specification `ψ` and a
/// regular tree grammar `G` describing the search space (Def. 3.2).
///
/// The example-restricted problem `sy_E` (Def. 3.4) is represented by a
/// [`Problem`] paired with an [`ExampleSet`]; see
/// [`Problem::satisfied_on_examples`].
///
/// # Example
/// ```
/// use sygus::{GrammarBuilder, Problem, Sort, Spec, Symbol, Term, ExampleSet};
/// use logic::{LinearExpr, Var};
///
/// let grammar = GrammarBuilder::new("Start")
///     .nonterminal("Start", Sort::Int)
///     .production("Start", Symbol::Num(0), &[])
///     .production("Start", Symbol::Plus, &["Start", "Start"])
///     .build().unwrap();
/// let spec = Spec::output_equals(
///     LinearExpr::var(Var::new("x")).scale(2),
///     vec!["x".to_string()],
/// );
/// let problem = Problem::new("double", grammar, spec);
/// let examples = ExampleSet::for_single_var("x", [3]);
/// // Num(0) is not correct on x = 3 (expected 6)
/// assert!(!problem.satisfied_on_examples(&Term::num(0), &examples).unwrap());
/// ```
#[derive(Clone)]
pub struct Problem {
    name: String,
    grammar: Grammar,
    spec: Spec,
}

impl Problem {
    /// Creates a named SyGuS problem.
    ///
    /// The parameters of the synthesized function are decided here: the
    /// specification's input variables, then every variable of the grammar
    /// they lack, in name order. So every example drawn for the problem
    /// binds every variable a term of `L(G)` can read.
    pub fn new(name: impl Into<String>, grammar: Grammar, spec: Spec) -> Self {
        let mut params = spec.input_vars().to_vec();
        for v in grammar.variables() {
            if !params.contains(&v) {
                params.push(v);
            }
        }
        let spec = if params.len() == spec.input_vars().len() {
            spec
        } else {
            Spec::new(spec.formula().clone(), params, spec.output_sort())
        };
        Problem {
            name: name.into(),
            grammar,
            spec,
        }
    }

    /// The problem's name (benchmark identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The search-space grammar `G`.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// The behavioral specification `ψ`.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// Replaces the grammar (used by benchmark generators that derive
    /// "limited" variants from a base problem); its variables join the
    /// parameters as in [`Problem::new`].
    pub fn with_grammar(self, grammar: Grammar) -> Self {
        Problem::new(self.name, grammar, self.spec)
    }

    /// Renames the problem.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// A stable 64-bit fingerprint of the problem's *content*: an FNV-1a
    /// hash over the canonical SyGuS-IF printed form
    /// ([`crate::parser::problem_to_sygus`] with a fixed function name).
    ///
    /// Two problems fingerprint equal iff they print identically, so the
    /// fingerprint ignores the benchmark [`name`](Problem::name) and all
    /// parser-normalized detail (chain productions, `≠` atoms) — exactly
    /// the equivalence a generated-instance deduplicator wants. The value
    /// is stable across processes and platforms (no pointer or `HashMap`
    /// order dependence: the printer walks declaration-ordered data).
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let text = crate::parser::problem_to_sygus(self, "f");
        let mut hash = FNV_OFFSET;
        for byte in text.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash
    }

    /// `true` iff the candidate term satisfies the specification on every
    /// example of `E`, i.e. whether the term is a solution of `sy_E`
    /// (Def. 3.4).
    ///
    /// # Errors
    /// Propagates evaluation errors (e.g. unbound input variables).
    pub fn satisfied_on_examples(
        &self,
        candidate: &Term,
        examples: &ExampleSet,
    ) -> Result<bool, SygusError> {
        for e in examples.iter() {
            let value = candidate.eval(e)?;
            if !self.spec.holds_value(e, value) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The first example of `E` on which the candidate violates the
    /// specification, if any.
    ///
    /// # Errors
    /// Propagates evaluation errors.
    pub fn first_violation(
        &self,
        candidate: &Term,
        examples: &ExampleSet,
    ) -> Result<Option<Example>, SygusError> {
        for e in examples.iter() {
            let value = candidate.eval(e)?;
            if !self.spec.holds_value(e, value) {
                return Ok(Some(e.clone()));
            }
        }
        Ok(None)
    }
}

impl fmt::Debug for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SyGuS problem {}", self.name)?;
        writeln!(f, "  spec: {}", self.spec)?;
        write!(f, "  grammar:\n{}", self.grammar)
    }
}

/// The answer to a SyGuS problem (or to its example-restricted variant
/// `sy_E`): the three-way verdict the checkers, the presolve and the
/// fuzzing oracles share. Its [`Verdict::name`] strings are the format of
/// every report, the corpus MANIFEST and the wire protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No term of the grammar satisfies the specification.
    Unrealizable,
    /// Some term of the grammar satisfies the specification.
    Realizable,
    /// No definitive answer (approximation, budget, timeout or
    /// cancellation).
    Unknown,
}

impl Verdict {
    /// Stable lower-case name: `unrealizable`, `realizable` or `unknown`.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Unrealizable => "unrealizable",
            Verdict::Realizable => "realizable",
            Verdict::Unknown => "unknown",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;
    use crate::term::{Sort, Symbol};
    use logic::{LinearExpr, Var};

    fn problem() -> Problem {
        // Grammar G1 of §2 and spec f(x) = 2x + 2
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
        Problem::new("section2-lia", grammar, spec)
    }

    #[test]
    fn candidate_evaluation() {
        let p = problem();
        let examples = ExampleSet::for_single_var("x", [1]);
        // Num(0) produces 0 ≠ 4
        assert!(!p.satisfied_on_examples(&Term::num(0), &examples).unwrap());
        assert!(p
            .first_violation(&Term::num(0), &examples)
            .unwrap()
            .is_some());
    }

    #[test]
    fn accessors() {
        let p = problem();
        assert_eq!(p.name(), "section2-lia");
        assert_eq!(p.grammar().num_nonterminals(), 4);
        let renamed = p.clone().with_name("other");
        assert_eq!(renamed.name(), "other");
    }

    #[test]
    fn fingerprint_ignores_the_name_but_not_the_content() {
        let p = problem();
        let renamed = p.clone().with_name("something-else");
        assert_eq!(p.fingerprint(), renamed.fingerprint());

        // Changing the spec changes the fingerprint.
        let other_spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")).scale(3),
            vec!["x".to_string()],
        );
        let different = Problem::new("section2-lia", p.grammar().clone(), other_spec);
        assert_ne!(p.fingerprint(), different.fingerprint());

        // Changing the grammar changes the fingerprint.
        let smaller = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Num(0), &[])
            .build()
            .unwrap();
        let trimmed = p.clone().with_grammar(smaller);
        assert_ne!(p.fingerprint(), trimmed.fingerprint());
    }

    #[test]
    fn fingerprint_is_stable_across_calls_and_clones() {
        let p = problem();
        let first = p.fingerprint();
        assert_eq!(first, p.fingerprint());
        assert_eq!(first, p.clone().fingerprint());
        // The fingerprint is a function of the printed form only: a
        // problem rebuilt from its own printed text fingerprints equal.
        let printed = crate::parser::problem_to_sygus(&p, "f");
        let reparsed = crate::parser::parse_problem(&printed, "reparsed").unwrap();
        assert_eq!(first, reparsed.fingerprint());
    }

    #[test]
    fn grammar_variables_the_spec_omits_become_parameters() {
        // The spec names only x; the grammar also reads y and a.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Var("y".to_string()), &[])
            .production("Start", Symbol::Var("x".to_string()), &[])
            .production("Start", Symbol::NegVar("a".to_string()), &[])
            .build()
            .unwrap();
        let spec = Spec::output_equals(LinearExpr::var(Var::new("x")), vec!["x".to_string()]);
        let p = Problem::new("disjoint", grammar, spec.clone());
        assert_eq!(p.spec().input_vars(), ["x", "a", "y"]);
        assert_eq!(p.spec().formula(), spec.formula());
        // every drawn example binds every variable a term can read
        let example = crate::rng::random_example(&p, &mut crate::rng::EXAMPLE_SEED.clone());
        assert!(Term::var("y").eval(&example).is_ok());
        assert!(Term::neg_var("a").eval(&example).is_ok());
        // a spec that already names every variable keeps its inputs
        assert_eq!(problem().spec().input_vars(), ["x"]);
    }

    #[test]
    fn empty_example_set_is_trivially_satisfied() {
        let p = problem();
        assert!(p
            .satisfied_on_examples(&Term::num(0), &ExampleSet::new())
            .unwrap());
    }
}
