//! Golden diagnostics for the SyGuS-IF front end: for every input below,
//! each diagnostic [`sygus::parser::parse_with_diagnostics`] reports (as
//! `line:col severity[code]`) and whether [`sygus::parser::parse_problem`]
//! accepts the input, or where its first error is. The inputs are the
//! parser's unit-test sources, one input per diagnostic code, a Boolean
//! grammar parameter, constraints whose arithmetic overflows i64, and
//! integer literals outside i64.
//!
//! Regenerate after an intentional change with
//! `cargo test --release -p sygus --test diagnostics -- --ignored`.

use sygus::parser::{parse_problem, parse_with_diagnostics};
use sygus::SygusError;

const GOLDEN: &str = "tests/diagnostics.golden";

/// `(name, source)` pairs, rendered in this order.
const INPUTS: &[(&str, &str)] = &[
    // Sources of the parser's unit tests.
    ("sexp_comment", "(a (b 1) ; comment\n c)"),
    ("sexp_unbalanced_open", "(a (b)"),
    ("sexp_unbalanced_close", "a) b"),
    ("sexp_spans", "(a (b 1)\n c)"),
    ("line_index", "ab\ncd\n\nx"),
    (
        "unknown_atom_on_line_2",
        "(synth-fun f ((x Int)) Int\n  ((Start Int (y))))\n(constraint (= (f x) x))",
    ),
    ("unbalanced_close_on_line_2", "(a)\n)"),
    (
        "unknown_constraint_variable",
        "(synth-fun f ((x Int)) Int ((Start Int (x))))\n(constraint (= (f x) zz))",
    ),
    ("unsupported_command", "(unsupported-command)"),
    ("empty_constraint", "(constraint)"),
    (
        "empty_equality",
        "(synth-fun f ((x Int)) Int ((Start Int (x))))\n(constraint (=))",
    ),
    (
        "empty_not",
        "(synth-fun f ((x Int)) Int ((Start Int (x))))\n(constraint (not))",
    ),
    (
        "empty_minus",
        "(synth-fun f ((x Int)) Int ((Start Int (x))))\n(constraint (- ))",
    ),
    (
        "section2_lia",
        r#"
      ; the LIA problem of Section 2 (grammar G1)
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
    "#,
    ),
    (
        "chain_productions",
        r#"
          (synth-fun f ((x Int)) Int
            ((Start Int) (A Int))
            ((Start Int (A))
             (A Int (x 0))))
          (constraint (= (f x) x))
        "#,
    ),
    (
        "clia_max2",
        r#"
          (set-logic CLIA)
          (synth-fun f ((x Int) (y Int)) Int
            ((Start Int) (B Bool))
            ((Start Int (x y 0 1 (+ Start Start) (ite B Start Start)))
             (B Bool ((< Start Start) (and B B) (not B)))))
          (declare-var x Int)
          (declare-var y Int)
          (constraint (>= (f x y) x))
          (constraint (>= (f x y) y))
          (constraint (or (= (f x y) x) (= (f x y) y)))
          (check-synth)
        "#,
    ),
    (
        "nonlinear_product",
        r#"
          (synth-fun f ((x Int)) Int ((Start Int)) ((Start Int (x))))
          (declare-var x Int)
          (constraint (= (f x) (* x x)))
        "#,
    ),
    (
        "unknown_grammar_atom",
        r#"
          (synth-fun f ((x Int)) Int ((Start Int)) ((Start Int (y))))
        "#,
    ),
    (
        "declare_var_order",
        r#"
          (synth-fun f ((x1 Int) (k Int)) Int ((Start Int (x1 k 0))))
          (declare-var x1 Int)
          (declare-var k Int)
          (constraint (= (f x1 k) x1))
        "#,
    ),
    (
        "negative_coefficients",
        r#"
          (synth-fun f ((x Int)) Int ((Start Int (x -3 (+ Start Start)))))
          (declare-var x Int)
          (constraint (= (f x) (- (* 2 x) 5)))
        "#,
    ),
    (
        "doc_parse_problem",
        r#"
  (set-logic LIA)
  (synth-fun f ((x Int)) Int
    ((Start Int) (X Int))
    ((Start Int ((+ X Start) 0))
     (X Int (x))))
  (declare-var x Int)
  (constraint (= (f x) (+ (* 2 x) 2)))
  (check-synth)
"#,
    ),
    (
        "doc_problem_to_sygus",
        r#"
  (set-logic LIA)
  (synth-fun f ((x Int)) Int ((Start Int ((+ Start Start) x 1))))
  (declare-var x Int)
  (constraint (= (f x) (+ x 2)))
  (check-synth)
"#,
    ),
    // Sources of the former well-formedness checker's unit tests.
    (
        "unknown_atom_with_check_synth",
        "(synth-fun f ((x Int)) Int\n  ((Start Int (y))))\n(constraint (= (f x) x))\n(check-synth)",
    ),
    (
        "f_arity_mismatch",
        r#"
          (synth-fun f ((x Int)) Int ((Start Int (x 0))))
          (declare-var x Int)
          (constraint (= (f x x) x))
          (check-synth)
        "#,
    ),
    (
        "duplicate_nonterminal",
        r#"
          (synth-fun f ((x Int)) Int
            ((Start Int (x)) (Start Int (0))))
          (constraint (= (f x) x))
          (check-synth)
        "#,
    ),
    (
        "return_sort_mismatch",
        r#"
          (synth-fun f ((x Int)) Bool ((Start Int (x))))
          (constraint (= (f x) x))
          (check-synth)
        "#,
    ),
    (
        "ill_sorted_rules",
        r#"
          (synth-fun f ((x Int)) Int
            ((Start Int) (B Bool))
            ((Start Int ((+ B Start) x))
             (B Bool ((< Start Start)))))
          (constraint (= (f x) x))
          (check-synth)
        "#,
    ),
    (
        "unbound_constraint_variable",
        r#"
          (synth-fun f ((x Int)) Int ((Start Int (x))))
          (constraint (= (f x) zz))
          (check-synth)
        "#,
    ),
    (
        "nonlinear_with_check_synth",
        r#"
          (synth-fun f ((x Int)) Int ((Start Int (x))))
          (declare-var x Int)
          (constraint (= (f x) (* x x)))
          (check-synth)
        "#,
    ),
    (
        "cancelling_coefficients",
        r#"
          (synth-fun f ((x Int)) Int ((Start Int (x))))
          (declare-var x Int)
          (constraint (= (f x) (* (- x x) x)))
          (check-synth)
        "#,
    ),
    (
        "multiple_diagnostics",
        r#"
          (bogus-command)
          (synth-fun f ((x Int)) Int ((Start Int (y z))))
          (constraint (= (f x) w))
          (check-synth)
        "#,
    ),
    ("missing_pieces", "(set-logic LIA)"),
    // One input per diagnostic code.
    (
        "code_invalid_command_atom",
        "x\n(synth-fun f ((x Int)) Int ((Start Int (x))))\n(constraint (= (f x) x))\n(check-synth)",
    ),
    (
        "code_invalid_command_list_head",
        "((a) b)\n(synth-fun f ((x Int)) Int ((Start Int (x))))\n(constraint (= (f x) x))\n(check-synth)",
    ),
    (
        "code_unknown_logic",
        "(set-logic NRA)\n(synth-fun f ((x Int)) Int ((Start Int (x))))\n(constraint (= (f x) x))\n(check-synth)",
    ),
    (
        "code_duplicate_synth_fun",
        "(synth-fun f ((x Int)) Int ((Start Int (x))))\n(synth-fun f ((x Int)) Int ((Start Int (0))))\n(constraint (= (f x) x))\n(check-synth)",
    ),
    (
        "code_malformed_constraint",
        "(synth-fun f ((x Int)) Int ((Start Int (x))))\n(constraint ((f x) x))\n(check-synth)",
    ),
    (
        "code_unknown_sort",
        "(synth-fun f ((x Int)) Int ((Start Int (x))))\n(declare-var x Real)\n(constraint (= (f x) x))\n(check-synth)",
    ),
    (
        "code_malformed_declare_var",
        "(synth-fun f ((x Int)) Int ((Start Int (x))))\n(declare-var)\n(declare-var x)\n(constraint (= (f x) x))\n(check-synth)",
    ),
    (
        "code_conflicting_variable",
        "(synth-fun f ((x Int)) Int ((Start Int (x))))\n(declare-var x Int)\n(declare-var x Bool)\n(constraint (= (f x) x))\n(check-synth)",
    ),
    (
        "code_duplicate_variable",
        "(synth-fun f ((x Int)) Int ((Start Int (x))))\n(declare-var x Int)\n(declare-var x Int)\n(constraint (= (f x) x))\n(check-synth)",
    ),
    (
        "code_malformed_synth_fun",
        "(synth-fun f)\n(synth-fun (f) () Int ((Start Int (x))))\n(synth-fun f (x (y) (1 Int)) Int ((Start Int (x))))\n(synth-fun f ((x Int)) Int)\n(synth-fun f ((x Int)) Int S)\n(synth-fun f ((x Int)) Int (S (T) ((1) Int ()) (U Int x)))\n(synth-fun f ((x Int)) Int ())\n(constraint (= (f x) x))\n(check-synth)",
    ),
    (
        "code_duplicate_parameter",
        "(synth-fun f ((x Int) (x Int)) Int ((Start Int (x))))\n(declare-var x Int)\n(constraint (= (f x x) x))\n(check-synth)",
    ),
    (
        "code_ill_sorted_grammar",
        "(synth-fun f ((x Int) (b Bool)) Int\n  ((Start Int) (B Bool))\n  ((Start Int (b B 0 (< Start Start) (ite Start Start Start)))\n   (B Bool (1 x Start))))\n(declare-var x Int)\n(constraint (= (f x b) x))\n(check-synth)",
    ),
    (
        "code_ill_sorted_constraint",
        "(synth-fun f ((x Int)) Int ((Start Int (x))))\n(declare-var x Int)\n(declare-var b Bool)\n(constraint (= (f x) b))\n(check-synth)",
    ),
    (
        "code_bool_literal_rule",
        "(synth-fun f ((x Int)) Int\n  ((Start Int) (B Bool))\n  ((Start Int (x (ite B Start Start)))\n   (B Bool (true false))))\n(declare-var x Int)\n(constraint (= (f x) x))\n(check-synth)",
    ),
    (
        "code_malformed_rule",
        "(synth-fun f ((x Int)) Int ((Start Int (x ((+) Start Start) ()))))\n(declare-var x Int)\n(constraint (= (f x) x))\n(check-synth)",
    ),
    (
        "code_unknown_operator",
        "(synth-fun f ((x Int)) Int ((Start Int (x (* Start Start)))))\n(declare-var x Int)\n(constraint (xor (= (f x) x) (= (f x) (div x 2))))\n(constraint (= (f x) (mod x 2)))\n(check-synth)",
    ),
    (
        "code_arity_mismatch",
        "(synth-fun f ((x Int)) Int\n  ((Start Int) (B Bool))\n  ((Start Int (x (+) (- Start) (ite B Start)))\n   (B Bool ((not B B) (< Start)))))\n(declare-var x Int)\n(constraint (= (f x) x) (= x x))\n(constraint (not (= (f x) x) (= x x)))\n(constraint (=> (= (f x) x)))\n(constraint (ite (= (f x) x) (= x x)))\n(constraint (= (f x) (-) (* x)))\n(constraint (= (f) x))\n(check-synth)",
    ),
    (
        "code_nested_rule",
        "(synth-fun f ((x Int)) Int ((Start Int (x (+ Start (+ Start Start))))))\n(declare-var x Int)\n(constraint (= (f x) x))\n(check-synth)",
    ),
    (
        "code_unbound_variable",
        "(synth-fun f ((x Int)) Int ((Start Int (x))))\n(declare-var x Int)\n(constraint (and p (= (f x) y)))\n(check-synth)",
    ),
    (
        "code_not_single_invocation",
        "(synth-fun f ((x Int) (y Int)) Int ((Start Int (x y))))\n(declare-var x Int)\n(declare-var y Int)\n(constraint (= (f y x) (f 1 (+ x 1))))\n(check-synth)",
    ),
    (
        "code_nonlinear_in_formula",
        "(synth-fun f ((x Int) (y Int)) Int ((Start Int (x y))))\n(declare-var x Int)\n(declare-var y Int)\n(constraint (< (* x y) (* (f x y) 2)))\n(check-synth)",
    ),
    // Sorts that the grammar builder used to check without a position.
    (
        "bool_parameter",
        "(set-logic CLIA)\n(synth-fun f ((x Int) (b Bool)) Int\n  ((Start Int) (B Bool))\n  ((Start Int (x 0 (ite B Start Start)))\n   (B Bool (b (< Start Start)))))\n(declare-var x Int)\n(declare-var b Bool)\n(constraint (= (f x b) x))\n(check-synth)",
    ),
    // Constraint arithmetic that does not fit in i64.
    (
        "overflow_product",
        "(set-logic LIA)\n(synth-fun f ((x Int)) Int ((Start Int (x 0 (+ Start Start)))))\n(declare-var x Int)\n(constraint (= (f x) (* 4611686018427387904 4)))\n(check-synth)",
    ),
    (
        "overflow_negation",
        "(set-logic LIA)\n(synth-fun f ((x Int)) Int ((Start Int (x 0 (+ Start Start)))))\n(declare-var x Int)\n(constraint (= (f x) (- -9223372036854775808)))\n(check-synth)",
    ),
    (
        "overflow_sum",
        "(set-logic LIA)\n(synth-fun f ((x Int)) Int ((Start Int (x 0 (+ Start Start)))))\n(declare-var x Int)\n(constraint (= (f x) (+ x 9223372036854775807 1)))\n(constraint (= (f x) (- -2 9223372036854775807)))\n(check-synth)",
    ),
    // Integer literals outside i64, in a constraint and in a rule.
    (
        "overflow_literal_constraint",
        "(set-logic LIA)\n(synth-fun f ((x Int)) Int ((Start Int (x 0 (+ Start Start)))))\n(declare-var x Int)\n(constraint (= (f x) 9223372036854775808))\n(check-synth)",
    ),
    (
        "overflow_literal_rule",
        "(set-logic LIA)\n(synth-fun f ((x Int)) Int ((Start Int (x 9223372036854775808 (+ Start Start)))))\n(declare-var x Int)\n(constraint (= (f x) x))\n(check-synth)",
    ),
];

/// One block per input: `== name`, one line per diagnostic, then the
/// verdict of `parse_problem`.
fn render() -> String {
    let mut out = String::new();
    for (name, source) in INPUTS {
        out.push_str(&format!("== {name}\n"));
        let (_, diagnostics) = parse_with_diagnostics(source, name);
        for d in diagnostics {
            out.push_str(&format!(
                "{}:{} {}[{}]\n",
                d.line, d.col, d.severity, d.code
            ));
        }
        match parse_problem(source, name) {
            Ok(_) => out.push_str("parse_problem: accept\n"),
            Err(SygusError::ParseError(e)) => {
                out.push_str(&format!("parse_problem: reject at {}:{}\n", e.line, e.col))
            }
            Err(other) => out.push_str(&format!(
                "parse_problem: reject without position ({other})\n"
            )),
        }
    }
    out
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN)
}

#[test]
fn diagnostics_match_the_golden_file() {
    let golden = std::fs::read_to_string(golden_path()).expect("readable golden file");
    let fresh = render();
    assert!(
        fresh == golden,
        "front-end diagnostics changed:\n--- golden\n{golden}--- fresh\n{fresh}"
    );
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_the_golden_file() {
    std::fs::write(golden_path(), render()).expect("writable golden file");
}
