//! The bounded half of nope's reachability check: is the "bad" location (a
//! run of the start procedure whose return value satisfies the
//! specification on every example) reachable within a few unrollings?
//!
//! nope's program has one procedure per nonterminal and one
//! non-deterministic branch per production, so a run of a procedure is a
//! derivation from its nonterminal and the search runs on the grammar
//! itself: per nonterminal it collects the output vectors its terms produce
//! on the examples, each with the first term found producing it. A good
//! vector of the start nonterminal proves `sy_E` realizable. The unbounded
//! half, the proof that no run is good, is the `chc` fixpoint that
//! [`NopeSolver::check`](crate::NopeSolver::check) runs when this search
//! finds nothing.

use logic::stop_requested;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use sygus::{
    ExampleSet, Grammar, NonTerminal, Op, Production, Spec, Symbol, Term, TermArena, TermId,
};

/// The sentinel "empty list" head of the [`LazyWitness::Plus`] trail.
const NIL: u32 = u32::MAX;

/// An append-only log of witness nodes. Where the search previously
/// hash-consed one term per vector surviving dedup into a [`TermArena`]
/// (a hash probe each, even for searches that end `Unknown` and never
/// look at a witness), it now records a plain `(op, children)` node per
/// surviving vector — a `Vec` push — and only hash-conses the one chain
/// that is actually demanded, via [`WitnessLog::intern_into`], after a
/// good vector is found.
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

    /// Number of nodes recorded (the search-breadth statistic reported as
    /// `arena_terms`).
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

/// Unrolling depth of the bounded concrete exploration.
const UNROLL_DEPTH: usize = 8;

/// Cap on the number of distinct concrete vectors tracked per nonterminal.
const MAX_VECTORS: usize = 2000;

/// The output vectors of one nonterminal's terms, each with the
/// [`WitnessLog`] index of the first term found producing it.
type Reachable = BTreeMap<Vec<i64>, u32>;

/// Candidate vectors of one production, each with its lazy witness.
type Valued = Vec<(Vec<i64>, LazyWitness)>;

/// Searches for a term of `L(grammar)` that satisfies `spec` on every
/// example. Returns that witness, if any, and the number of witness-log
/// nodes the search recorded (its breadth, reported as `arena_terms`).
pub(crate) fn bounded_search(
    grammar: &Grammar,
    examples: &ExampleSet,
    spec: &Spec,
) -> (Option<Term>, usize) {
    let mut arena = TermArena::new();
    let mut log = WitnessLog::default();
    let witness = explore(grammar, examples, spec, &mut arena, &mut log).map(|root| {
        let id = log.intern_into(&mut arena, root);
        arena.extract(id)
    });
    (witness, log.len())
}

/// Bounded unrolling of the grammar: computes, per nonterminal, the set of
/// output vectors derivable within the unrolling depth and checks the
/// specification against those of the start nonterminal. It polls the
/// [`logic`] stop hook once per unrolling round; a stopped search returns
/// `None` (no witness found). Witnesses stay [`LazyWitness`]es on the
/// per-combination fast path, vectors surviving dedup append one log node
/// (no hash-consing), and the arena only sees the single chain a demanded
/// witness needs.
fn explore(
    grammar: &Grammar,
    examples: &ExampleSet,
    spec: &Spec,
    arena: &mut TermArena,
    log: &mut WitnessLog,
) -> Option<u32> {
    let nonterminals = grammar.nonterminals();
    let index: BTreeMap<&NonTerminal, usize> = nonterminals
        .iter()
        .enumerate()
        .map(|(i, nt)| (nt, i))
        .collect();
    let mut reachable: Vec<Reachable> = vec![BTreeMap::new(); nonterminals.len()];
    let mut trail: Vec<(u32, u32)> = Vec::new();
    for _ in 0..UNROLL_DEPTH {
        if stop_requested() {
            return None;
        }
        let mut changed = false;
        for (i, nt) in nonterminals.iter().enumerate() {
            let mut new_vectors = Reachable::new();
            for p in grammar.productions_of(nt) {
                trail.clear();
                let args: Vec<&Reachable> = p.args.iter().map(|a| &reachable[index[a]]).collect();
                for (v, w) in production_vectors(p, &args, examples, arena, log, &mut trail) {
                    if new_vectors.len() >= MAX_VECTORS {
                        break;
                    }
                    if let Entry::Vacant(slot) = new_vectors.entry(v) {
                        slot.insert(log_witness(log, &trail, w));
                    }
                }
            }
            for (v, w) in new_vectors {
                if reachable[i].len() >= MAX_VECTORS {
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
                return Some(*w);
            }
        }
        if !changed {
            break;
        }
    }
    None
}

/// The vectors production `p` produces from its arguments' reachable sets
/// `args`, each paired with a lazy witness, in enumeration order, with at
/// most [`MAX_VECTORS`] per combination step. Booleans are 0/1. A
/// combination that overflows i64 is dropped: the search only collects
/// witnesses, so a skipped run is sound, while a wrapped one could be a
/// false witness.
fn production_vectors(
    p: &Production,
    args: &[&Reachable],
    examples: &ExampleSet,
    arena: &mut TermArena,
    log: &mut WitnessLog,
    trail: &mut Vec<(u32, u32)>,
) -> Valued {
    let dim = examples.len();
    let op = arena.op_from_symbol(&p.symbol);
    let value = |x: &str| examples.projection(x).expect("example binds the variable");
    let leaf = |vector: Option<Vec<i64>>, log: &mut WitnessLog| match vector {
        Some(v) => vec![(v, LazyWitness::Ready(log.push(op, &[])))],
        None => Vec::new(),
    };
    match &p.symbol {
        Symbol::Num(c) => leaf(Some(vec![*c; dim]), log),
        Symbol::Var(x) => leaf(Some(value(x)), log),
        Symbol::NegVar(x) => leaf(value(x).into_iter().map(i64::checked_neg).collect(), log),
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
                            continue;
                        };
                        trail.push((*ahead, bw));
                        next.push((sum, (trail.len() - 1) as u32));
                        if next.len() >= MAX_VECTORS {
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
        Symbol::Minus => combine2(args, dim, op, i64::checked_sub),
        Symbol::LessThan => combine2(args, dim, op, |x, y| Some(i64::from(x < y))),
        Symbol::Equal => combine2(args, dim, op, |x, y| Some(i64::from(x == y))),
        Symbol::And => combine2(args, dim, op, |x, y| Some(x & y)),
        Symbol::Or => combine2(args, dim, op, |x, y| Some(x | y)),
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
/// the pair.
fn combine2(
    args: &[&Reachable],
    dim: usize,
    op: Op,
    f: impl Fn(i64, i64) -> Option<i64>,
) -> Valued {
    let mut out: Valued = Vec::new();
    'outer: for (xv, &xw) in args[0] {
        for (yv, &yw) in args[1] {
            let Some(vector) = (0..dim).map(|j| f(xv[j], yv[j])).collect() else {
                continue;
            };
            out.push((vector, LazyWitness::Bin(op, xw, yw)));
            if out.len() >= MAX_VECTORS {
                break 'outer;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{NopeSolver, NopeStats, NopeVerdict};
    use logic::{LinearExpr, Var};
    use sygus::{ExampleSet, Grammar, GrammarBuilder, Output, Problem, Sort, Spec, Symbol};

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

    /// [`NopeSolver::check`] on `(grammar, spec)`.
    fn check(grammar: &Grammar, examples: &ExampleSet, spec: &Spec) -> (NopeVerdict, NopeStats) {
        let problem = Problem::new("test", grammar.clone(), spec.clone());
        NopeSolver::new().check(&problem, examples)
    }

    #[test]
    fn unreachability_proves_unrealizability() {
        let examples = ExampleSet::for_single_var("x", [1]);
        let (verdict, _) = check(&g1(), &examples, &spec_2x_plus_2());
        assert_eq!(verdict, NopeVerdict::Unrealizable);
    }

    #[test]
    fn bounded_search_finds_good_runs() {
        // With x = 2 the output 6 is producible (3·2), so the bad location is
        // reachable and the verifier reports the witness.
        let examples = ExampleSet::for_single_var("x", [2]);
        match check(&g1(), &examples, &spec_2x_plus_2()).0 {
            NopeVerdict::RealizableOnExamples(witness) => {
                assert_eq!(witness.eval_on(&examples).unwrap(), Output::Int(vec![6]))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bounded_search_reconstructs_a_derivable_witness_term() {
        // The lazy witnesses threaded through the exploration must denote a
        // real grammar term whose outputs are the good vector.
        let grammar = g1();
        let examples = ExampleSet::for_single_var("x", [2]);
        let (verdict, stats) = check(&grammar, &examples, &spec_2x_plus_2());
        let NopeVerdict::RealizableOnExamples(term) = verdict else {
            panic!("x = 2 has the good run 3·2 = 6, got {verdict:?}");
        };
        assert!(
            grammar.contains_term(&term),
            "witness {term} must be in L(G)"
        );
        assert_eq!(term.eval_on(&examples).unwrap(), Output::Int(vec![6]));
        assert!(stats.arena_terms > 0);
    }

    #[test]
    fn ite_and_boolean_witnesses_are_derivable() {
        // A CLIA grammar exercising Ite/Less lazy witnesses end to end.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("B", Sort::Bool)
            .production("Start", Symbol::Var("x".to_string()), &[])
            .production("Start", Symbol::Num(7), &[])
            .production("Start", Symbol::IfThenElse, &["B", "Start", "Start"])
            .production("B", Symbol::LessThan, &["Start", "Start"])
            .build()
            .unwrap();
        let spec = Spec::output_equals(LinearExpr::constant(7), vec!["x".to_string()]);
        let examples = ExampleSet::for_single_var("x", [3]);
        let NopeVerdict::RealizableOnExamples(term) = check(&grammar, &examples, &spec).0 else {
            panic!("the constant 7 is derivable");
        };
        assert!(grammar.contains_term(&term), "witness {term} not in L(G)");
        assert_eq!(term.eval_on(&examples).unwrap(), Output::Int(vec![7]));
    }

    #[test]
    fn coarse_abstraction_yields_unknown() {
        // The interval × congruence domain is strong on finite constant
        // sets, so take a recursive grammar whose language is
        // {1, 4, 7, …} ∪ {2, 5, 8, …}: the join breaks both components.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("Three", Sort::Int)
            .production("Start", Symbol::Num(1), &[])
            .production("Start", Symbol::Num(2), &[])
            .production("Start", Symbol::Plus, &["Start", "Three"])
            .production("Three", Symbol::Num(3), &[])
            .build()
            .unwrap();
        // language: 1, 2, 4, 5, 7, 8, … (all n with n mod 3 ∈ {1, 2});
        // target 6 is unreachable but interval [1,∞) + congruence top cannot
        // prove it, and the bounded search cannot reach it either → Unknown.
        let spec = Spec::output_equals(LinearExpr::constant(6), vec!["x".to_string()]);
        let examples = ExampleSet::for_single_var("x", [0]);
        let (verdict, _) = check(&grammar, &examples, &spec);
        assert_eq!(verdict, NopeVerdict::Unknown);
    }

    #[test]
    fn a_capped_fixpoint_is_not_evidence() {
        // Start ::= (+ N1 Z) | 7 | (+ Start Z), Nᵢ ::= (+ Nᵢ₊₁ Z) for
        // i < 120, N120 ::= 5, Z ::= 0: realizable by 5 + 0 + … + 0, whose
        // value reaches Start in round 121. At the cap of 100 the iteration
        // still has Start = {7}, which would refute f = 5.
        let mut builder = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("Z", Sort::Int)
            .production("Start", Symbol::Plus, &["N1", "Z"])
            .production("Start", Symbol::Num(7), &[])
            .production("Start", Symbol::Plus, &["Start", "Z"])
            .production("Z", Symbol::Num(0), &[]);
        for i in 1..=120 {
            let (name, next) = (format!("N{i}"), format!("N{}", i + 1));
            builder = builder.nonterminal(&name, Sort::Int);
            builder = if i < 120 {
                builder.production(&name, Symbol::Plus, &[&next, "Z"])
            } else {
                builder.production(&name, Symbol::Num(5), &[])
            };
        }
        let grammar = builder.build().unwrap();
        let spec = Spec::output_equals(LinearExpr::constant(5), vec!["x".to_string()]);
        let examples = ExampleSet::for_single_var("x", [0]);
        let (verdict, stats) = check(&grammar, &examples, &spec);
        // the fixpoint ran to chc's cap of 100 rounds without converging
        assert_eq!(stats.abstract_iterations, 100);
        assert_eq!(verdict, NopeVerdict::Unknown);
    }
}
