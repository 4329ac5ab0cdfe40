//! Cross-crate integration tests: the paper's worked examples end to end,
//! agreement between the exact procedure, the enumerative ground truth and
//! the two approximate tools.

use logic::{LinearExpr, Var};
use nay::check::{check_unrealizable, Verdict};
use nay::{CegisOutcome, Mode, Nay};
use nope::{NopeSolver, NopeVerdict};
use sygus::{parser, ExampleSet, Problem, Spec};

const SECTION2_LIA: &str = r#"
  (set-logic LIA)
  (synth-fun f ((x Int)) Int
    ((Start Int) (S1 Int) (S2 Int) (S3 Int))
    ((Start Int ((+ S1 Start) 0))
     (S1 Int ((+ S2 S3)))
     (S2 Int ((+ S3 S3)))
     (S3 Int (x))))
  (declare-var x Int)
  (constraint (= (f x) (+ (* 2 x) 2)))
  (check-synth)
"#;

fn section2_problem() -> Problem {
    parser::parse_problem(SECTION2_LIA, "section2-lia").expect("parses")
}

#[test]
fn section2_lia_full_pipeline() {
    let problem = section2_problem();
    // Alg. 1 with one example
    let examples = ExampleSet::for_single_var("x", [1]);
    for mode in [
        Mode::default(),
        Mode::semi_linear_unstratified(),
        Mode::horn(),
    ] {
        let outcome = check_unrealizable(&problem, &examples, &mode);
        assert_eq!(
            outcome.verdict,
            Verdict::Unrealizable,
            "mode {} must prove the §2 LIA example",
            mode.name()
        );
    }
    // Alg. 2 end to end
    let (outcome, stats) = Nay::new().run(&problem);
    assert_eq!(outcome, CegisOutcome::Unrealizable);
    assert!(stats.gfa_checks >= 1);
    // nope baseline agrees
    let (nope_verdict, _) = NopeSolver::new().check(&problem, &examples);
    assert_eq!(nope_verdict, NopeVerdict::Unrealizable);
}

#[test]
fn exact_procedure_agrees_with_enumerative_ground_truth() {
    // naySL is exact on sy_E, so the term search must agree with it: a
    // witness on E means naySL says Realizable on E, and an exhausted search
    // means it says Unrealizable.
    let problem = section2_problem();
    let grammar = problem.grammar();

    let realizable = ExampleSet::for_single_var("x", [2]); // 6 = 3·2 is producible
    assert_eq!(
        check_unrealizable(&problem, &realizable, &Mode::default()).verdict,
        Verdict::Realizable
    );
    let found = enumerative::search(grammar, &realizable, problem.spec());
    let term = found.witness.expect("a solution exists on x = 2");
    assert!(problem.satisfied_on_examples(&term, &realizable).unwrap());
    assert!(grammar.contains_term(&term));

    let unrealizable = ExampleSet::for_single_var("x", [1]);
    assert_eq!(
        check_unrealizable(&problem, &unrealizable, &Mode::default()).verdict,
        Verdict::Unrealizable
    );
    assert_eq!(
        enumerative::search(grammar, &unrealizable, problem.spec()).witness,
        None
    );

    // Start ::= 0 | 1 with f(x) = x: a finite language the search exhausts
    // on every example set, realizable only where x ∈ {0, 1}.
    let finite = parser::parse_problem(
        r#"
          (set-logic LIA)
          (synth-fun f ((x Int)) Int ((Start Int)) ((Start Int (0 1))))
          (declare-var x Int)
          (constraint (= (f x) x))
          (check-synth)
        "#,
        "finite",
    )
    .expect("parses");
    let mut exhausted = 0;
    for (problem, inputs) in [(&problem, [-2, 1, 2, 3]), (&finite, [0, 1, 5, -4])] {
        for (a, b) in inputs
            .iter()
            .flat_map(|&a| inputs.iter().map(move |&b| (a, b)))
        {
            let examples = ExampleSet::for_single_var("x", [a, b]);
            let found = enumerative::search(problem.grammar(), &examples, problem.spec());
            let exact = check_unrealizable(problem, &examples, &Mode::default()).verdict;
            if found.witness.is_some() {
                assert_eq!(
                    exact,
                    Verdict::Realizable,
                    "{} on {examples}",
                    problem.name()
                );
            }
            if found.exhausted {
                exhausted += 1;
                assert_eq!(
                    exact,
                    Verdict::Unrealizable,
                    "{} on {examples}",
                    problem.name()
                );
            }
        }
    }
    assert!(exhausted > 0, "the finite language is exhausted on x = 5");
}

#[test]
fn nope_engine_binds_variables_only_the_grammar_reads() {
    // plus_guard1's grammar reads variables its spec does not mention;
    // Problem::new makes them parameters, so every example nope's loop
    // draws binds them and the bounded search can evaluate every term.
    let bench = benchmarks::all()
        .into_iter()
        .find(|b| b.name == "plus_guard1")
        .expect("plus_guard1 is a paper benchmark");
    let params = bench.problem.spec().input_vars();
    assert!(bench
        .problem
        .grammar()
        .variables()
        .iter()
        .all(|v| params.contains(v)));
    let outcome = portfolio::solve_nope(
        &bench.problem,
        &runner::Cancel::new(),
        &portfolio::NopeEngine::new(),
    );
    assert_ne!(outcome.verdict, portfolio::SolveVerdict::Realizable);
}

#[test]
fn verdicts_are_consistent_across_tools_on_benchmarks() {
    // naySL is exact; nayHorn and nope are sound: whenever they claim
    // unrealizability, naySL must agree, and every nope witness must be a
    // term of the grammar that meets the specification on the examples.
    let mut witnesses = 0;
    for bench in benchmarks::all()
        .into_iter()
        .filter(|b| b.num_examples() <= 2 && b.num_nonterminals() <= 3 && b.num_variables() <= 3)
    {
        let sl = check_unrealizable(&bench.problem, &bench.witness_examples, &Mode::default());
        let horn = check_unrealizable(&bench.problem, &bench.witness_examples, &Mode::horn());
        let (nope_verdict, _) = NopeSolver::new().check(&bench.problem, &bench.witness_examples);
        if horn.verdict == Verdict::Unrealizable {
            assert_eq!(
                sl.verdict,
                Verdict::Unrealizable,
                "{}: nayHorn claims unrealizable but naySL disagrees",
                bench.name
            );
        }
        if nope_verdict == NopeVerdict::Unrealizable {
            assert_eq!(
                sl.verdict,
                Verdict::Unrealizable,
                "{}: nope claims unrealizable but naySL disagrees",
                bench.name
            );
        }
        if let NopeVerdict::RealizableOnExamples(term) = nope_verdict {
            assert_ne!(
                sl.verdict,
                Verdict::Unrealizable,
                "{}: nope found a witness but naySL claims unrealizable",
                bench.name
            );
            assert!(
                bench.problem.grammar().contains_term(&term),
                "{}: nope's witness {term} is not in L(G)",
                bench.name
            );
            assert!(
                bench
                    .problem
                    .satisfied_on_examples(&term, &bench.witness_examples)
                    .unwrap(),
                "{}: nope's witness {term} misses the specification",
                bench.name
            );
            witnesses += 1;
        }
    }
    assert!(witnesses > 0, "no benchmark exercised a nope witness");
}

#[test]
fn gconst_incompleteness_example() {
    // Example 3.8: the problem is unrealizable, but every finite example set
    // is realizable, so Alg. 1 must return Realizable for any example set.
    let source = r#"
      (set-logic LIA)
      (synth-fun f ((x Int)) Int
        ((Start Int))
        ((Start Int ((+ Start Start) 1))))
      (declare-var x Int)
      (constraint (> (f x) x))
      (check-synth)
    "#;
    let problem = parser::parse_problem(source, "gconst").expect("parses");
    for examples in [
        ExampleSet::for_single_var("x", [0]),
        ExampleSet::for_single_var("x", [5, 17]),
        ExampleSet::for_single_var("x", [-3, 40, 100]),
    ] {
        assert_eq!(
            check_unrealizable(&problem, &examples, &Mode::default()).verdict,
            Verdict::Realizable,
            "sy_E is realizable for every finite E (Lemma 3.7)"
        );
    }
}

#[test]
fn scaling_family_is_uniformly_unrealizable() {
    for n in 1..=6 {
        let problem = benchmarks::scaling_problem(n);
        let examples = ExampleSet::for_single_var("x", [1, 2]);
        assert_eq!(
            check_unrealizable(&problem, &examples, &Mode::default()).verdict,
            Verdict::Unrealizable,
            "scaling problem with n = {n}"
        );
    }
}

#[test]
fn synthesis_succeeds_on_realizable_problems() {
    // A problem with a solution: f(x) = x + 1 over sums of x and 1.
    let source = r#"
      (set-logic LIA)
      (synth-fun f ((x Int)) Int
        ((Start Int))
        ((Start Int (x 1 (+ Start Start)))))
      (declare-var x Int)
      (constraint (= (f x) (+ x 1)))
      (check-synth)
    "#;
    let problem = parser::parse_problem(source, "xplus1").expect("parses");
    let (outcome, _) = Nay::new().run(&problem);
    match outcome {
        CegisOutcome::Solution(term) => {
            assert!(problem.grammar().contains_term(&term));
            let spec: &Spec = problem.spec();
            for x in [-10i64, 0, 4, 99] {
                let input = sygus::Example::from_pairs([("x", x)]);
                assert!(spec.holds_value(&input, term.eval(&input).unwrap()));
            }
        }
        other => panic!("expected a solution, got {other:?}"),
    }
}

#[test]
fn horn_encoding_matches_grammar_shape() {
    let problem = section2_problem();
    let examples = ExampleSet::for_single_var("x", [1, 2]);
    // The Horn solver reads the clauses off the grammar: one predicate per
    // nonterminal, whose post-fixpoint value it reports, and the query on
    // the start predicate.
    let (values, _) = chc::HornSolver::new().analyze(problem.grammar(), &examples);
    let values = values.expect("the §2 fixpoint converges");
    assert_eq!(values.len(), problem.grammar().num_nonterminals());
    let query = chc::refutation_query(
        &values[problem.grammar().start()],
        &examples,
        problem.spec(),
    );
    assert_eq!(
        logic::Solver::default().check(&query),
        logic::SolverResult::Unsat
    );
}

#[test]
fn spec_api_round_trip() {
    let spec = Spec::output_equals(
        LinearExpr::var(Var::new("x")).scale(3),
        vec!["x".to_string()],
    );
    let problem = Problem::new("triple", benchmarks::scaling_grammar(3), spec);
    // the scaling grammar produces multiples of 3x, so f(x) = 3x is realizable
    let examples = ExampleSet::for_single_var("x", [1, 2, 5]);
    assert_eq!(
        check_unrealizable(&problem, &examples, &Mode::default()).verdict,
        Verdict::Realizable
    );
}
