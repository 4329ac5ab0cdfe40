//! The naive search [`crate::search`] replaced, kept as the reference its
//! equivalence tests compare against (compiled under `#[cfg(test)]` only).
//!
//! Every round re-applies every production to the *whole* reachable sets,
//! builds a `Vec<i64>` per combination and dedups it in a `BTreeMap`, and
//! checks the specification on every start vector. It reports, besides the
//! witness and the exhaustion flag, every nonterminal's reachable map
//! (vector → first term found) and how often each cut tripped, so a test
//! can show that its grammar exercises the cut it is about.

use crate::{WitnessLog, MAX_VECTORS, UNROLL_DEPTH};
use logic::stop_requested;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use sygus::{ExampleSet, Grammar, NonTerminal, Production, Spec, Symbol, Term};

/// The sentinel "empty list" head of the [`LazyWitness::Plus`] trail.
const NIL: u32 = u32::MAX;

/// The symbol of every logged [`LazyWitness::Plus`] node.
static PLUS: Symbol = Symbol::Plus;

/// How often each cut tripped during a reference run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Cuts {
    /// A stage of an n-ary `Plus` reached [`MAX_VECTORS`] combinations.
    pub plus_step: usize,
    /// An `ite` production reached [`MAX_VECTORS`] combinations.
    pub ite_step: usize,
    /// A binary production reached [`MAX_VECTORS`] combinations.
    pub binary_step: usize,
    /// A nonterminal's round collected [`MAX_VECTORS`] distinct vectors and
    /// had more candidates.
    pub new_vectors: usize,
    /// A merge found the reachable set full with vectors left to merge.
    pub merge: usize,
    /// A combination overflowed i64 and was dropped.
    pub overflow: usize,
}

/// What a reference run found.
pub(crate) struct Outcome {
    /// The witness term, as [`crate::search`] reports it.
    pub witness: Option<Term>,
    /// The exhaustion flag, as [`crate::search`] reports it.
    pub exhausted: bool,
    /// Per nonterminal (grammar order), every reachable vector with the
    /// first term found producing it.
    pub reachable: Vec<BTreeMap<Vec<i64>, Term>>,
    /// The cuts that tripped.
    pub cuts: Cuts,
}

/// A witness the production evaluator has not logged yet.
#[derive(Clone, Copy)]
enum LazyWitness<'g> {
    /// Already logged: leaves and the terms of a reachable set.
    Ready(u32),
    /// An n-ary `Plus` whose child list is the trail chain at this head.
    Plus(u32),
    /// A unary node over a logged child.
    Un(&'g Symbol, u32),
    /// A binary node over logged children.
    Bin(&'g Symbol, u32, u32),
    /// A ternary node over logged children.
    Tri(&'g Symbol, u32, u32, u32),
}

fn log_witness<'g>(
    log: &mut WitnessLog<'g>,
    trail: &[(u32, u32)],
    witness: LazyWitness<'g>,
) -> u32 {
    match witness {
        LazyWitness::Ready(id) => id,
        LazyWitness::Un(symbol, a) => log.push(symbol, &[a]),
        LazyWitness::Bin(symbol, a, b) => log.push(symbol, &[a, b]),
        LazyWitness::Tri(symbol, a, b, c) => log.push(symbol, &[a, b, c]),
        LazyWitness::Plus(mut head) => {
            let mut children: Vec<u32> = Vec::new();
            while head != NIL {
                let (prev, id) = trail[head as usize];
                children.push(id);
                head = prev;
            }
            children.reverse();
            log.push(&PLUS, &children)
        }
    }
}

type Reachable = BTreeMap<Vec<i64>, u32>;

type Valued<'g> = Vec<(Vec<i64>, LazyWitness<'g>)>;

/// Runs the naive search.
pub(crate) fn search(grammar: &Grammar, examples: &ExampleSet, spec: &Spec) -> Outcome {
    let mut log = WitnessLog::default();
    let mut cuts = Cuts::default();
    let mut reachable = Vec::new();
    let (root, exhausted) = explore(grammar, examples, spec, &mut log, &mut reachable, &mut cuts);
    Outcome {
        witness: root.map(|root| log.term(root)),
        exhausted,
        reachable: reachable
            .iter()
            .map(|set| set.iter().map(|(v, &w)| (v.clone(), log.term(w))).collect())
            .collect(),
        cuts,
    }
}

fn explore<'g>(
    grammar: &'g Grammar,
    examples: &ExampleSet,
    spec: &Spec,
    log: &mut WitnessLog<'g>,
    reachable: &mut Vec<Reachable>,
    cuts: &mut Cuts,
) -> (Option<u32>, bool) {
    let nonterminals = grammar.nonterminals();
    let index: BTreeMap<&NonTerminal, usize> = nonterminals
        .iter()
        .enumerate()
        .map(|(i, nt)| (nt, i))
        .collect();
    *reachable = vec![BTreeMap::new(); nonterminals.len()];
    let mut trail: Vec<(u32, u32)> = Vec::new();
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
                    production_vectors(p, &args, examples, log, &mut trail, &mut cut, cuts);
                for (v, w) in vectors {
                    if new_vectors.len() >= MAX_VECTORS {
                        cut = true;
                        cuts.new_vectors += 1;
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
                    cuts.merge += 1;
                    break;
                }
                if let Entry::Vacant(slot) = reachable[i].entry(v) {
                    slot.insert(w);
                    changed = true;
                }
            }
        }
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

fn production_vectors<'g>(
    p: &'g Production,
    args: &[&Reachable],
    examples: &ExampleSet,
    log: &mut WitnessLog<'g>,
    trail: &mut Vec<(u32, u32)>,
    cut: &mut bool,
    cuts: &mut Cuts,
) -> Valued<'g> {
    let dim = examples.len();
    let symbol = &p.symbol;
    let value = |x: &str| examples.projection(x).expect("example binds the variable");
    let leaf = |vector: Vec<i64>, log: &mut WitnessLog<'g>| {
        vec![(vector, LazyWitness::Ready(log.push(symbol, &[])))]
    };
    match symbol {
        Symbol::Num(c) => leaf(vec![*c; dim], log),
        Symbol::Var(x) => leaf(value(x), log),
        Symbol::NegVar(x) => match value(x).into_iter().map(i64::checked_neg).collect() {
            Some(v) => leaf(v, log),
            None => {
                *cut = true;
                cuts.overflow += 1;
                Vec::new()
            }
        },
        Symbol::Plus => {
            let mut acc: Vec<(Vec<i64>, u32)> = vec![(vec![0i64; dim], NIL)];
            for arg in args {
                let mut next = Vec::new();
                'outer: for (av, ahead) in &acc {
                    for (bv, &bw) in arg.iter() {
                        let Some(sum) = (0..dim).map(|j| av[j].checked_add(bv[j])).collect() else {
                            *cut = true;
                            cuts.overflow += 1;
                            continue;
                        };
                        trail.push((*ahead, bw));
                        next.push((sum, (trail.len() - 1) as u32));
                        if next.len() >= MAX_VECTORS {
                            *cut = true;
                            cuts.plus_step += 1;
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
        Symbol::Minus => combine2(args, dim, symbol, cut, cuts, i64::checked_sub),
        Symbol::LessThan => combine2(args, dim, symbol, cut, cuts, |x, y| Some(i64::from(x < y))),
        Symbol::Equal => combine2(args, dim, symbol, cut, cuts, |x, y| Some(i64::from(x == y))),
        Symbol::And => combine2(args, dim, symbol, cut, cuts, |x, y| Some(x & y)),
        Symbol::Or => combine2(args, dim, symbol, cut, cuts, |x, y| Some(x | y)),
        Symbol::Not => args[0]
            .iter()
            .map(|(v, &w)| {
                (
                    v.iter().map(|x| 1 - x).collect(),
                    LazyWitness::Un(symbol, w),
                )
            })
            .collect(),
        Symbol::IfThenElse => {
            let mut out: Valued<'g> = Vec::new();
            'outer: for (gv, &gw) in args[0] {
                for (tv, &tw) in args[1] {
                    for (ev, &ew) in args[2] {
                        let vector = (0..dim)
                            .map(|j| if gv[j] == 1 { tv[j] } else { ev[j] })
                            .collect();
                        out.push((vector, LazyWitness::Tri(symbol, gw, tw, ew)));
                        if out.len() >= MAX_VECTORS {
                            *cut = true;
                            cuts.ite_step += 1;
                            break 'outer;
                        }
                    }
                }
            }
            out
        }
    }
}

fn combine2<'g>(
    args: &[&Reachable],
    dim: usize,
    symbol: &'g Symbol,
    cut: &mut bool,
    cuts: &mut Cuts,
    f: impl Fn(i64, i64) -> Option<i64>,
) -> Valued<'g> {
    let mut out: Valued<'g> = Vec::new();
    'outer: for (xv, &xw) in args[0] {
        for (yv, &yw) in args[1] {
            let Some(vector) = (0..dim).map(|j| f(xv[j], yv[j])).collect() else {
                *cut = true;
                cuts.overflow += 1;
                continue;
            };
            out.push((vector, LazyWitness::Bin(symbol, xw, yw)));
            if out.len() >= MAX_VECTORS {
                *cut = true;
                cuts.binary_step += 1;
                break 'outer;
            }
        }
    }
    out
}
