//! The bottom-up term search both engines share: given a grammar `G`, a
//! specification `ψ` and a finite example set `E`, find a term `e ∈ L(G)`
//! with `ψ^E(⟦e⟧_E)`, i.e. a solution of the example-restricted problem
//! `sy_E`.
//!
//! The search runs on the grammar itself: per nonterminal it collects the
//! output vectors its terms produce on the examples, each with the first
//! term found producing it, so terms that agree on `E` are kept once
//! (observational equivalence). Every round applies each production to the
//! sets built so far; at most [`UNROLL_DEPTH`] rounds run, and each set
//! keeps at most [`MAX_VECTORS`] vectors. A good vector of the start
//! nonterminal is a witness. Arithmetic is checked: a run that overflows
//! i64 is dropped, never wrapped into a false witness.
//!
//! When a round adds no vector and nothing was cut (no cap truncated a set,
//! no overflowing run was dropped, the stop hook never fired), the sets are
//! exactly the output vectors of `L(G)` on `E`, and a search without a
//! witness has proved `sy_E` unrealizable ([`SearchResult::exhausted`]).
//!
//! Two engines call [`search`]:
//! * nay's CEGIS loop, as its synthesizer (the ESolver role of §7): a
//!   witness is verified against the full specification, and an exhausted
//!   search answers *unrealizable*;
//! * nope, as the bounded half of its reachability check: a witness is a
//!   run reaching the bad location, and without one nope runs `chc`'s
//!   fixpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use logic::stop_requested;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use sygus::{
    ExampleSet, Grammar, NonTerminal, Op, Production, Spec, Symbol, Term, TermArena, TermId,
};

/// The sentinel "empty list" head of the [`LazyWitness::Plus`] trail.
const NIL: u32 = u32::MAX;

/// An append-only log of witness nodes. The search records a plain
/// `(op, children)` node per vector surviving dedup (a `Vec` push, no hash
/// probe, since most searches never look at a witness) and hash-conses
/// only the one chain a found witness needs, via
/// [`WitnessLog::intern_into`].
#[derive(Clone, Debug, Default)]
struct WitnessLog {
    /// `(op, child_start, child_end)` — the child range indexes `children`.
    nodes: Vec<(Op, u32, u32)>,
    /// Child pool: log indices of each node's children, in order.
    children: Vec<u32>,
}

impl WitnessLog {
    /// Appends a node and returns its log index. Children always precede
    /// their parent in the log (the search builds bottom-up), which
    /// [`WitnessLog::intern_into`] relies on.
    fn push(&mut self, op: Op, kids: &[u32]) -> u32 {
        let start = self.children.len() as u32;
        self.children.extend_from_slice(kids);
        let end = self.children.len() as u32;
        self.nodes.push((op, start, end));
        (self.nodes.len() - 1) as u32
    }

    /// Number of nodes recorded (the search's breadth,
    /// [`SearchResult::nodes`]).
    fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Hash-conses the term rooted at `root` into `arena`, visiting only
    /// the nodes the witness actually uses.
    fn intern_into(&self, arena: &mut TermArena, root: u32) -> TermId {
        let mut memo: BTreeMap<u32, TermId> = BTreeMap::new();
        let mut stack: Vec<u32> = vec![root];
        while let Some(&r) = stack.last() {
            if memo.contains_key(&r) {
                stack.pop();
                continue;
            }
            let (op, start, end) = self.nodes[r as usize];
            let kids = &self.children[start as usize..end as usize];
            let mut ready = true;
            for &k in kids {
                if !memo.contains_key(&k) {
                    stack.push(k);
                    ready = false;
                }
            }
            if ready {
                let ids: Vec<TermId> = kids.iter().map(|k| memo[k]).collect();
                let id = arena.intern(op, &ids);
                memo.insert(r, id);
                stack.pop();
            }
        }
        memo[&root]
    }
}

/// A witness the production evaluator has not logged yet. Candidate
/// vectors are produced far faster than they survive dedup, so the
/// per-combination fast path only records *how* a vector was built (a few
/// words, no allocation); a [`WitnessLog`] node is appended once per
/// vector that actually enters a reachable set.
#[derive(Clone, Copy)]
enum LazyWitness {
    /// Already logged: leaves and the terms of a reachable set.
    Ready(u32),
    /// An n-ary `Plus` whose child list is the trail chain at this head.
    Plus(u32),
    /// A unary node over a logged child.
    Un(Op, u32),
    /// A binary node over logged children.
    Bin(Op, u32, u32),
    /// A ternary node over logged children.
    Tri(Op, u32, u32, u32),
}

/// Resolves a lazy witness to a log index. `trail` is the cons-list pool
/// `Plus` heads index into.
fn log_witness(log: &mut WitnessLog, trail: &[(u32, u32)], witness: LazyWitness) -> u32 {
    match witness {
        LazyWitness::Ready(id) => id,
        LazyWitness::Un(op, a) => log.push(op, &[a]),
        LazyWitness::Bin(op, a, b) => log.push(op, &[a, b]),
        LazyWitness::Tri(op, a, b, c) => log.push(op, &[a, b, c]),
        LazyWitness::Plus(mut head) => {
            let mut children: Vec<u32> = Vec::new();
            while head != NIL {
                let (prev, id) = trail[head as usize];
                children.push(id);
                head = prev;
            }
            children.reverse();
            log.push(Op::Plus, &children)
        }
    }
}

/// The maximal number of rounds, which bounds the height of the terms
/// searched.
pub const UNROLL_DEPTH: usize = 8;

/// The maximal number of distinct output vectors kept per nonterminal (and
/// built per production and round).
pub const MAX_VECTORS: usize = 2000;

/// The output vectors of one nonterminal's terms, each with the
/// [`WitnessLog`] index of the first term found producing it.
type Reachable = BTreeMap<Vec<i64>, u32>;

/// Candidate vectors of one production, each with its lazy witness.
type Valued = Vec<(Vec<i64>, LazyWitness)>;

/// The outcome of a [`search`].
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// A term of `L(G)` that satisfies the specification on every example.
    pub witness: Option<Term>,
    /// Number of witness-log nodes the search recorded (its breadth; the
    /// log only grows, so this is its peak).
    pub nodes: usize,
    /// `true` when the search found no witness and covered every output
    /// vector of `L(G)` on the examples: a round added no vector, no cap
    /// truncated a set, no overflowing run was dropped and the stop hook
    /// never fired. Then `sy_E` is unrealizable.
    pub exhausted: bool,
}

/// Searches `L(grammar)` bottom-up for a term that satisfies `spec` on
/// every example of `examples`.
///
/// With an empty example set every term satisfies the specification
/// vacuously, so the first term of the start nonterminal is the witness
/// (when the grammar derives any term). Every example must bind every
/// variable of the grammar.
///
/// The [`logic`] stop hook is polled once per round; a stopped search has
/// no witness and is not exhausted.
pub fn search(grammar: &Grammar, examples: &ExampleSet, spec: &Spec) -> SearchResult {
    let mut arena = TermArena::new();
    let mut log = WitnessLog::default();
    let (root, exhausted) = explore(grammar, examples, spec, &mut arena, &mut log);
    let witness = root.map(|root| {
        let id = log.intern_into(&mut arena, root);
        arena.extract(id)
    });
    SearchResult {
        witness,
        nodes: log.len(),
        exhausted,
    }
}

/// The rounds of [`search`]: computes, per nonterminal, the set of output
/// vectors derivable within the rounds run so far and checks the
/// specification against those of the start nonterminal. Returns the log
/// index of a witness, if any, and whether the search was exhausted.
/// Witnesses stay [`LazyWitness`]es on the per-combination fast path,
/// vectors surviving dedup append one log node (no hash-consing), and the
/// arena only sees the single chain a demanded witness needs.
fn explore(
    grammar: &Grammar,
    examples: &ExampleSet,
    spec: &Spec,
    arena: &mut TermArena,
    log: &mut WitnessLog,
) -> (Option<u32>, bool) {
    let nonterminals = grammar.nonterminals();
    let index: BTreeMap<&NonTerminal, usize> = nonterminals
        .iter()
        .enumerate()
        .map(|(i, nt)| (nt, i))
        .collect();
    let mut reachable: Vec<Reachable> = vec![BTreeMap::new(); nonterminals.len()];
    let mut trail: Vec<(u32, u32)> = Vec::new();
    // set once a cap truncated a set or an overflowing run was dropped
    let mut cut = false;
    for _ in 0..UNROLL_DEPTH {
        if stop_requested() {
            return (None, false);
        }
        let mut changed = false;
        for (i, nt) in nonterminals.iter().enumerate() {
            let mut new_vectors = Reachable::new();
            for p in grammar.productions_of(nt) {
                trail.clear();
                let args: Vec<&Reachable> = p.args.iter().map(|a| &reachable[index[a]]).collect();
                let vectors =
                    production_vectors(p, &args, examples, arena, log, &mut trail, &mut cut);
                for (v, w) in vectors {
                    if new_vectors.len() >= MAX_VECTORS {
                        cut = true;
                        break;
                    }
                    if let Entry::Vacant(slot) = new_vectors.entry(v) {
                        slot.insert(log_witness(log, &trail, w));
                    }
                }
            }
            for (v, w) in new_vectors {
                if reachable[i].len() >= MAX_VECTORS {
                    cut = true;
                    break;
                }
                if let Entry::Vacant(slot) = reachable[i].entry(v) {
                    slot.insert(w);
                    changed = true;
                }
            }
        }
        // check the specification on the start nonterminal's vectors
        for (v, w) in &reachable[index[grammar.start()]] {
            let good = examples
                .iter()
                .enumerate()
                .all(|(j, e)| spec.holds(e, v[j]));
            if good {
                return (Some(*w), false);
            }
        }
        if !changed {
            return (None, !cut);
        }
    }
    (None, false)
}

/// The vectors production `p` produces from its arguments' reachable sets
/// `args`, each paired with a lazy witness, in enumeration order, with at
/// most [`MAX_VECTORS`] per combination step. Booleans are 0/1. A
/// combination that overflows i64 is dropped: a skipped run only loses
/// witnesses, while a wrapped one could be a false witness. A dropped run
/// or a truncated step sets `cut`.
fn production_vectors(
    p: &Production,
    args: &[&Reachable],
    examples: &ExampleSet,
    arena: &mut TermArena,
    log: &mut WitnessLog,
    trail: &mut Vec<(u32, u32)>,
    cut: &mut bool,
) -> Valued {
    let dim = examples.len();
    let op = arena.op_from_symbol(&p.symbol);
    let value = |x: &str| examples.projection(x).expect("example binds the variable");
    let leaf = |vector: Vec<i64>, log: &mut WitnessLog| {
        vec![(vector, LazyWitness::Ready(log.push(op, &[])))]
    };
    match &p.symbol {
        Symbol::Num(c) => leaf(vec![*c; dim], log),
        Symbol::Var(x) => leaf(value(x), log),
        Symbol::NegVar(x) => match value(x).into_iter().map(i64::checked_neg).collect() {
            Some(v) => leaf(v, log),
            None => {
                *cut = true;
                Vec::new()
            }
        },
        Symbol::Plus => {
            // n-ary: witnesses accumulate as cons-list heads into the trail
            // (one O(1) push per combination), and the one Plus node with
            // the production's arity is only built for vectors that survive
            // dedup.
            let mut acc: Vec<(Vec<i64>, u32)> = vec![(vec![0i64; dim], NIL)];
            for arg in args {
                let mut next = Vec::new();
                'outer: for (av, ahead) in &acc {
                    for (bv, &bw) in arg.iter() {
                        let Some(sum) = (0..dim).map(|j| av[j].checked_add(bv[j])).collect() else {
                            *cut = true;
                            continue;
                        };
                        trail.push((*ahead, bw));
                        next.push((sum, (trail.len() - 1) as u32));
                        if next.len() >= MAX_VECTORS {
                            *cut = true;
                            break 'outer;
                        }
                    }
                }
                acc = next;
                if acc.is_empty() {
                    return Vec::new();
                }
            }
            acc.into_iter()
                .map(|(v, head)| (v, LazyWitness::Plus(head)))
                .collect()
        }
        Symbol::Minus => combine2(args, dim, op, cut, i64::checked_sub),
        Symbol::LessThan => combine2(args, dim, op, cut, |x, y| Some(i64::from(x < y))),
        Symbol::Equal => combine2(args, dim, op, cut, |x, y| Some(i64::from(x == y))),
        Symbol::And => combine2(args, dim, op, cut, |x, y| Some(x & y)),
        Symbol::Or => combine2(args, dim, op, cut, |x, y| Some(x | y)),
        Symbol::Not => args[0]
            .iter()
            .map(|(v, &w)| (v.iter().map(|x| 1 - x).collect(), LazyWitness::Un(op, w)))
            .collect(),
        Symbol::IfThenElse => {
            let mut out: Valued = Vec::new();
            'outer: for (gv, &gw) in args[0] {
                for (tv, &tw) in args[1] {
                    for (ev, &ew) in args[2] {
                        let vector = (0..dim)
                            .map(|j| if gv[j] == 1 { tv[j] } else { ev[j] })
                            .collect();
                        out.push((vector, LazyWitness::Tri(op, gw, tw, ew)));
                        if out.len() >= MAX_VECTORS {
                            *cut = true;
                            break 'outer;
                        }
                    }
                }
            }
            out
        }
    }
}

/// Applies the binary `f` component-wise to every pair from the two
/// arguments' reachable sets; `f` answers `None` on overflow, which drops
/// the pair and sets `cut`, as does truncation at [`MAX_VECTORS`].
fn combine2(
    args: &[&Reachable],
    dim: usize,
    op: Op,
    cut: &mut bool,
    f: impl Fn(i64, i64) -> Option<i64>,
) -> Valued {
    let mut out: Valued = Vec::new();
    'outer: for (xv, &xw) in args[0] {
        for (yv, &yw) in args[1] {
            let Some(vector) = (0..dim).map(|j| f(xv[j], yv[j])).collect() else {
                *cut = true;
                continue;
            };
            out.push((vector, LazyWitness::Bin(op, xw, yw)));
            if out.len() >= MAX_VECTORS {
                *cut = true;
                break 'outer;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::{Formula, LinearExpr, Var};
    use sygus::{Example, GrammarBuilder, Sort};

    fn g1() -> Grammar {
        // §2: grammar G1 (terms 3kx)
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

    /// Start ::= 1 | 2, whose language is finite.
    fn one_or_two() -> Grammar {
        GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Num(1), &[])
            .production("Start", Symbol::Num(2), &[])
            .build()
            .unwrap()
    }

    fn constant_spec(c: i64) -> Spec {
        Spec::output_equals(LinearExpr::constant(c), vec!["x".to_string()])
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
        let problem = sygus::Problem::new("xplus2", grammar, spec);
        let examples = ExampleSet::for_single_var("x", [0, 5]);
        let found = search(problem.grammar(), &examples, problem.spec());
        let term = found.witness.expect("x + 1 + 1 is derivable");
        assert!(problem.satisfied_on_examples(&term, &examples).unwrap());
        assert!(problem.grammar().contains_term(&term));
        assert!(!found.exhausted);
        assert!(found.nodes > 0);
    }

    #[test]
    fn g1_with_example_x1_is_unrealizable_and_search_saturates() {
        // On E = ⟨x=1⟩ G1 produces the multiples of 3: no witness for
        // 2x + 2 = 4, and every round adds the next multiple, so the
        // search runs out of rounds with its sets still growing and
        // cannot claim exhaustion.
        let found = search(
            &g1(),
            &ExampleSet::for_single_var("x", [1]),
            &spec_2x_plus_2(),
        );
        assert_eq!(found.witness, None);
        assert!(!found.exhausted);
    }

    #[test]
    fn saturation_detects_unrealizability_for_finite_languages() {
        // Start ::= 1 | 2: only two values, the spec wants f(x) = 3.
        let examples = ExampleSet::for_single_var("x", [0]);
        let found = search(&one_or_two(), &examples, &constant_spec(3));
        assert_eq!(found.witness, None);
        assert!(found.exhausted);
    }

    #[test]
    fn a_stopped_search_never_claims_exhaustion() {
        // The finite language above saturates in its second round; a
        // search stopped after its first round must not report the space
        // exhausted.
        let examples = ExampleSet::for_single_var("x", [0]);
        let polls = std::cell::Cell::new(0);
        let stop = move || {
            polls.set(polls.get() + 1);
            polls.get() > 1
        };
        let found =
            logic::interruptible(stop, || search(&one_or_two(), &examples, &constant_spec(3)));
        assert_eq!(found.witness, None);
        assert!(!found.exhausted);
    }

    #[test]
    fn a_capped_search_is_not_exhausted() {
        // Start ::= (+ Units Fifties) over 50 units and 50 multiples of 50:
        // a finite language of 2500 values, more than MAX_VECTORS keeps.
        let mut builder = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("Units", Sort::Int)
            .nonterminal("Fifties", Sort::Int)
            .production("Start", Symbol::Plus, &["Units", "Fifties"]);
        for i in 0..50 {
            builder = builder.production("Units", Symbol::Num(i), &[]).production(
                "Fifties",
                Symbol::Num(50 * i),
                &[],
            );
        }
        let grammar = builder.build().unwrap();
        let examples = ExampleSet::for_single_var("x", [0]);
        let found = search(&grammar, &examples, &constant_spec(-1));
        assert_eq!(found.witness, None);
        assert!(!found.exhausted, "the cap truncated Start's set");
    }

    #[test]
    fn an_overflowing_search_is_not_exhausted() {
        // Start ::= x | M | (+ Start Start), M = i64::MAX, f(x) = x − 2:
        // on x = 0 the sets stop growing at {0, M} only because M + M is
        // dropped, and M + M wrapped modulo 2⁶⁴ would be the witness −2.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Var("x".to_string()), &[])
            .production("Start", Symbol::Num(i64::MAX), &[])
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .build()
            .unwrap();
        let spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")) + LinearExpr::constant(-2),
            vec!["x".to_string()],
        );
        let found = search(&grammar, &ExampleSet::for_single_var("x", [0]), &spec);
        assert_eq!(found.witness, None);
        assert!(!found.exhausted, "an overflowing run was dropped");
    }

    #[test]
    fn observational_equivalence_prunes_duplicates() {
        // With one example x = 0, the terms x, x+x, x+x+x … all have output 0
        // and collapse into one vector, so a solution requiring constant 1
        // is found although the grammar is infinite.
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
        let zero = Example::from_pairs([("x", 0)]);
        let examples = ExampleSet::from_examples([zero.clone()]);
        let term = search(&grammar, &examples, &spec).witness.expect("1 > 0");
        assert_eq!(term.eval(&zero).unwrap().as_i64(), 1);
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
        let problem = sygus::Problem::new("max2", grammar, spec);
        let examples = ExampleSet::from_examples([
            Example::from_pairs([("x", 1), ("y", 5)]),
            Example::from_pairs([("x", 4), ("y", 2)]),
        ]);
        let term = search(problem.grammar(), &examples, problem.spec())
            .witness
            .expect("ite(x < y, y, x) is derivable");
        assert!(problem.satisfied_on_examples(&term, &examples).unwrap());
        assert!(problem.grammar().contains_term(&term));
    }

    #[test]
    fn empty_example_set_returns_smallest_term() {
        let found = search(&g1(), &ExampleSet::new(), &spec_2x_plus_2());
        assert_eq!(found.witness, Some(Term::num(0)));
    }
}
