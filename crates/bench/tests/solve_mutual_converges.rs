//! SolveMutual reaches its fixpoint on every quick table row. Its round cap
//! (`|N|·2^|E| + 2`) is only a safety net: by Lemma 6.6 the analysis
//! terminates well before it, and values taken at the cap are not a
//! fixpoint, so a check that hits it answers *unknown*.

use bench::{select, FAMILIES};
use nay::clia;

#[test]
fn every_quick_rows_solve_mutual_converges_below_its_cap() {
    let mut clia_rows = 0;
    for family in FAMILIES {
        for bench in select(family, true) {
            let grammar = sygus::rewrite::to_plus_form(bench.problem.grammar())
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            if grammar.is_lia() {
                continue;
            }
            let examples = &bench.witness_examples;
            let cap = grammar.num_nonterminals() * (1usize << examples.len()) + 2;
            let analysis = clia::analyze(&grammar, examples, true, true)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            assert!(
                analysis.outer_iterations < cap,
                "{}: SolveMutual ran {} rounds, its cap",
                bench.name,
                analysis.outer_iterations
            );
            clia_rows += 1;
        }
    }
    assert!(clia_rows > 0, "the quick suite has CLIA rows");
}
