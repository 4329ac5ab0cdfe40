//! The fuzzing oracles: what may — and may never — happen when solving
//! engines attack a generated instance.
//!
//! Three layers, all soundness-only (an engine answering `unknown` is
//! never a violation):
//!
//! 1. **Differential**: if any engine proves a problem unrealizable, no
//!    engine may report it realizable (and vice versa) — the engines
//!    contradict each other only when one of them is unsound.
//! 2. **Expectation**: the construction knows each instance's verdict
//!    class ([`crate::families::Expectation`]); an engine reporting the
//!    forbidden verdict is unsound even when the other engine stays silent.
//! 3. **Witness**: a claimed solution term must actually be in the
//!    grammar's language and satisfy the specification on a probe grid.
//!
//! Violations render with the reproducing seed and the offending `.sl`
//! text, so a CI failure is a self-contained bug report.

use crate::families::Expectation;
use crate::stream::GeneratedInstance;
use std::fmt;
use sygus::{Example, ExampleSet, Term, Verdict};

/// One engine's answer on one instance.
#[derive(Clone, Debug)]
pub struct EngineClaim {
    /// Engine name as it should appear in failure reports (`nay`, `nope`,
    /// `race`, …).
    pub engine: String,
    /// The verdict. Map budget exhaustion, cancellation and timeouts to
    /// [`Verdict::Unknown`]: only definitive answers are gated.
    pub claim: Verdict,
    /// The solution term, when the engine produced one.
    pub witness: Option<Term>,
}

impl EngineClaim {
    /// Convenience constructor.
    pub fn new(engine: impl Into<String>, claim: Verdict, witness: Option<Term>) -> EngineClaim {
        EngineClaim {
            engine: engine.into(),
            claim,
            witness,
        }
    }
}

/// A soundness violation found by [`check_instance`].
///
/// Displays as a loud, self-contained failure block: instance name,
/// family, reproducing seed, the contradiction, and the full `.sl` text.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The offending instance's name.
    pub instance: String,
    /// The family it belongs to.
    pub family: &'static str,
    /// The instance seed that reproduces it (see
    /// [`GeneratedInstance::seed`]).
    pub seed: u64,
    /// What went wrong, with the engines and verdicts involved.
    pub detail: String,
    /// The instance's SyGuS-IF text.
    pub sl_text: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ORACLE VIOLATION on {} (family {}, instance_seed {}):",
            self.instance, self.family, self.seed
        )?;
        writeln!(f, "  {}", self.detail)?;
        writeln!(f, "  offending instance:")?;
        for line in self.sl_text.lines() {
            writeln!(f, "  | {line}")?;
        }
        Ok(())
    }
}

/// The deterministic probe grid used to validate claimed witnesses:
/// every constrainable point of the generator's families lies on it.
fn probe_examples(instance: &GeneratedInstance) -> ExampleSet {
    let vars = instance.problem.spec().input_vars();
    let mut examples = ExampleSet::new();
    match vars.len() {
        0 => {
            examples.push(Example::new());
        }
        1 => {
            for v in -25..=25 {
                examples.push(Example::from_pairs([(vars[0].clone(), v)]));
            }
        }
        2 => {
            for a in -6..=6 {
                for b in -6..=6 {
                    examples.push(Example::from_pairs([
                        (vars[0].clone(), a),
                        (vars[1].clone(), b),
                    ]));
                }
            }
        }
        n => {
            // A full grid explodes combinatorially past two inputs, so
            // probe each axis over -6..=6 (the others held at 0) plus the
            // constant ±1 diagonals — every variable must be bound on
            // every example or witness evaluation fails spuriously.
            for i in 0..n {
                for v in -6..=6 {
                    examples.push(Example::from_pairs(
                        vars.iter()
                            .enumerate()
                            .map(|(j, x)| (x.clone(), if i == j { v } else { 0 })),
                    ));
                }
            }
            for c in [-1i64, 1] {
                examples.push(Example::from_pairs(vars.iter().map(|x| (x.clone(), c))));
            }
        }
    }
    examples
}

/// Checks one instance against the engines' claims; an empty result means
/// the instance passes all three oracle layers.
pub fn check_instance(instance: &GeneratedInstance, claims: &[EngineClaim]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let violation = |detail: String| Violation {
        instance: instance.name(),
        family: instance.family.name(),
        seed: instance.seed,
        detail,
        sl_text: instance.to_sl(),
    };

    // Layer 1 — differential: contradictory definitive verdicts.
    let unreal: Vec<&EngineClaim> = claims
        .iter()
        .filter(|c| c.claim == Verdict::Unrealizable)
        .collect();
    let real: Vec<&EngineClaim> = claims
        .iter()
        .filter(|c| c.claim == Verdict::Realizable)
        .collect();
    if let (Some(u), Some(r)) = (unreal.first(), real.first()) {
        violations.push(violation(format!(
            "differential mismatch: {} proved unrealizable but {} produced a solution{}",
            u.engine,
            r.engine,
            r.witness
                .as_ref()
                .map(|w| format!(" ({w})"))
                .unwrap_or_default()
        )));
    }

    // Layer 2 — expectation: the construction's forbidden verdict.
    let forbidden = match instance.expected {
        Expectation::Realizable => Verdict::Unrealizable,
        Expectation::Unrealizable => Verdict::Realizable,
    };
    for claim in claims.iter().filter(|c| c.claim == forbidden) {
        violations.push(violation(format!(
            "expectation mismatch: instance is {} by construction but {} reported {}",
            instance.expected,
            claim.engine,
            claim.claim.name()
        )));
    }

    // Layer 3 — witness validity.
    let probes = probe_examples(instance);
    for claim in claims {
        let Some(witness) = &claim.witness else {
            continue;
        };
        if !instance.problem.grammar().contains_term(witness) {
            violations.push(violation(format!(
                "invalid witness from {}: {witness} is not in the grammar's language",
                claim.engine
            )));
        }
        match instance.problem.satisfied_on_examples(witness, &probes) {
            Ok(true) => {}
            Ok(false) => violations.push(violation(format!(
                "invalid witness from {}: {witness} violates the spec on the probe grid",
                claim.engine
            ))),
            Err(e) => violations.push(violation(format!(
                "invalid witness from {}: {witness} fails to evaluate: {e}",
                claim.engine
            ))),
        }
    }
    violations
}

/// Checks that an instance's rendered `.sl` text parses back to the same
/// content — the print/parse round-trip gate of a fuzz sweep.
pub fn roundtrip_violation(instance: &GeneratedInstance) -> Option<Violation> {
    let text = instance.to_sl();
    let make = |detail: String| Violation {
        instance: instance.name(),
        family: instance.family.name(),
        seed: instance.seed,
        detail,
        sl_text: text.clone(),
    };
    match sygus::parser::parse_problem(&text, &instance.name()) {
        Err(e) => Some(make(format!("printed instance does not parse back: {e}"))),
        Ok(parsed) if parsed.fingerprint() != instance.problem.fingerprint() => Some(make(
            "printed instance parses to different content (fingerprint mismatch)".to_string(),
        )),
        Ok(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{GenConfig, ProblemStream};

    fn instance_of(expected: Expectation) -> GeneratedInstance {
        ProblemStream::new(GenConfig::new(9))
            .take(100)
            .find(|i| i.expected == expected)
            .expect("100 draws include both classes")
    }

    #[test]
    fn consistent_claims_pass() {
        let instance = instance_of(Expectation::Unrealizable);
        let claims = vec![
            EngineClaim::new("nay", Verdict::Unrealizable, None),
            EngineClaim::new("nope", Verdict::Unknown, None),
        ];
        assert!(check_instance(&instance, &claims).is_empty());
    }

    #[test]
    fn unknown_is_never_a_violation() {
        for expected in [Expectation::Realizable, Expectation::Unrealizable] {
            let instance = instance_of(expected);
            let claims = vec![
                EngineClaim::new("nay", Verdict::Unknown, None),
                EngineClaim::new("nope", Verdict::Unknown, None),
            ];
            assert!(check_instance(&instance, &claims).is_empty());
        }
    }

    #[test]
    fn contradictory_verdicts_are_flagged() {
        let instance = instance_of(Expectation::Unrealizable);
        let claims = vec![
            EngineClaim::new("nope", Verdict::Unrealizable, None),
            EngineClaim::new("nay", Verdict::Realizable, Some(sygus::Term::num(0))),
        ];
        let violations = check_instance(&instance, &claims);
        assert!(
            violations
                .iter()
                .any(|v| v.detail.contains("differential mismatch")),
            "{violations:?}"
        );
        // The rendered violation is a self-contained bug report.
        let rendered = violations[0].to_string();
        assert!(rendered.contains("ORACLE VIOLATION"));
        assert!(rendered.contains("instance_seed"));
        assert!(rendered.contains("(synth-fun"));
    }

    #[test]
    fn forbidden_expectation_verdicts_are_flagged() {
        let instance = instance_of(Expectation::Realizable);
        let claims = vec![EngineClaim::new("nope", Verdict::Unrealizable, None)];
        let violations = check_instance(&instance, &claims);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].detail.contains("expectation mismatch"));
    }

    #[test]
    fn bogus_witnesses_are_flagged() {
        let instance = instance_of(Expectation::Realizable);
        // A term outside the language (fresh variable) with the right
        // claim: layer 3 must catch it even though the verdict agrees
        // with the expectation.
        let claims = vec![EngineClaim::new(
            "nay",
            Verdict::Realizable,
            Some(sygus::Term::var("zz")),
        )];
        let violations = check_instance(&instance, &claims);
        assert!(
            violations.iter().any(|v| v.detail.contains("witness")),
            "{violations:?}"
        );
    }

    #[test]
    fn valid_witnesses_pass_layer_three() {
        let instance = instance_of(Expectation::Realizable);
        let witness = instance.witness.clone().expect("realizable ⇒ witness");
        let claims = vec![EngineClaim::new("nay", Verdict::Realizable, Some(witness))];
        assert!(check_instance(&instance, &claims).is_empty());
    }

    #[test]
    fn roundtrip_gate_passes_on_generated_instances() {
        for instance in ProblemStream::new(GenConfig::new(17)).take(30) {
            assert!(roundtrip_violation(&instance).is_none());
        }
    }

    #[test]
    fn a_witness_valid_only_modulo_2_64_is_flagged() {
        // Start ::= x | M | (+ Start Start), M = i64::MAX, f(x) = x − 2:
        // (+ (+ x M) M) equals x − 2 only in wrapping arithmetic.
        use logic::{LinearExpr, Var};
        use sygus::{GrammarBuilder, Problem, Sort, Spec, Symbol, Term};
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Var("x".to_string()), &[])
            .production("Start", Symbol::Num(i64::MAX), &[])
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .build()
            .expect("well-formed grammar");
        let spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")) + LinearExpr::constant(-2),
            vec!["x".to_string()],
        );
        let instance = GeneratedInstance {
            family: crate::families::Family::ConstSum,
            index: 0,
            seed: 0,
            expected: Expectation::Realizable,
            witness: None,
            problem: Problem::new("wide_plus", grammar, spec),
        };
        let m = Term::num(i64::MAX);
        let wrapped = Term::plus(Term::plus(Term::var("x"), m.clone()), m);
        assert!(instance.problem.grammar().contains_term(&wrapped));
        let claims = vec![EngineClaim::new("nay", Verdict::Realizable, Some(wrapped))];
        let violations = check_instance(&instance, &claims);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].detail.contains("fails to evaluate"),
            "{violations:?}"
        );
    }

    #[test]
    fn probe_grid_binds_every_variable_beyond_two_inputs() {
        // check_instance is a public API over arbitrary instances, not only
        // the current 1–2-variable families: a valid witness for a
        // 3-variable spec must pass layer 3 (every probe example binds
        // every input, else evaluation fails spuriously).
        use logic::{Formula, LinearExpr, Var};
        use sygus::{GrammarBuilder, Problem, Sort, Spec, Symbol, Term};
        let vars = ["x", "y", "z"];
        let mut builder = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Plus, &["Start", "Start"]);
        for v in vars {
            builder = builder.production("Start", Symbol::Var(v.to_string()), &[]);
        }
        let grammar = builder.build().expect("3-var grammar is well-formed");
        let sum = vars.iter().fold(LinearExpr::constant(0), |acc, v| {
            acc + LinearExpr::var(Var::new(*v))
        });
        let spec = Spec::new(
            Formula::eq(LinearExpr::var(Spec::output_var()), sum),
            vars.iter().map(|v| v.to_string()).collect(),
            Sort::Int,
        );
        let instance = GeneratedInstance {
            family: crate::families::Family::ConstSum,
            index: 0,
            seed: 0,
            expected: Expectation::Realizable,
            witness: None,
            problem: Problem::new("three_vars", grammar, spec),
        };
        let witness = Term::plus(Term::plus(Term::var("x"), Term::var("y")), Term::var("z"));
        let claims = vec![EngineClaim::new("nay", Verdict::Realizable, Some(witness))];
        assert!(check_instance(&instance, &claims).is_empty());
    }
}
