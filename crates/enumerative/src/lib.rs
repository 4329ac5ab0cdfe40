//! The bottom-up term search both engines share: given a grammar `G`, a
//! specification `ψ` and a finite example set `E`, find a term `e ∈ L(G)`
//! with `ψ^E(⟦e⟧_E)`, i.e. a solution of the example-restricted problem
//! `sy_E`.
//!
//! The search runs on the grammar itself: per nonterminal it collects the
//! output vectors its terms produce on the examples, each with the first
//! term found producing it, so terms that agree on `E` are kept once
//! (observational equivalence). Every round evaluates each nonterminal in
//! grammar order, applying its productions to the sets built so far; at
//! most [`UNROLL_DEPTH`] rounds run, and each set keeps at most
//! [`MAX_VECTORS`] vectors. A good vector of the start nonterminal is a
//! witness. Arithmetic is checked: a run that overflows i64 is dropped,
//! never wrapped into a false witness. Each kept vector logs how its term
//! was built (the production's symbol, borrowed from the grammar, over its
//! children's log entries); only the witness returned is built as a
//! [`Term`].
//!
//! # Delta rounds
//!
//! The rounds are semi-naive. Every kept vector is stamped with the
//! evaluation that kept it, and a nonterminal evaluated before builds only
//! the argument tuples that contain a vector kept since its last
//! evaluation. This is exact because sets only grow and a vector's witness
//! never changes: a tuple of older vectors was built by that evaluation,
//! over the same vectors and terms, and its vector was kept then — unless
//! a cap stopped the evaluation first. A step cap (`Plus`, `ite` or
//! binary) stops a production at a position in its tuple order, and an
//! old tuple's position only grows as the sets grow, so a tuple past the
//! cap then is past it now and is not built by a full evaluation either.
//! The new-vectors cap and the merge cap leave the set full, and a full
//! set is skipped. The caps keep their positions:
//!
//! * a skipped tuple still counts toward its production's per-step cap
//!   (skipped tuples never overflow: a production that ever dropped an
//!   overflowing run builds every tuple);
//! * a delta evaluation whose kept and new vectors together could reach
//!   [`MAX_VECTORS`] is redone in full, since only then can the
//!   new-vectors or the merge cap trip;
//! * a nonterminal whose set is full is skipped and counts as cut, which
//!   is what its full evaluation would do.
//!
//! Candidates are built in one reused buffer and deduplicated by value in
//! hash maps: a vector already kept or already found in the round costs no
//! allocation. The new vectors are sorted at the merge, which keeps the
//! merge order and every first-found witness, so each witness term and
//! exhaustion flag equals that of the naive search that re-applies every
//! production to the whole sets. The specification is checked on the
//! start vectors that entered in the round, as the older ones failed
//! before.
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
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hasher};
use sygus::{Example, ExampleSet, Grammar, NonTerminal, Production, Spec, Symbol, Term};

#[cfg(test)]
mod reference;

/// The sentinel "empty list" head of the `Plus` trail.
const NIL: u32 = u32::MAX;

/// An append-only log of witness nodes. The search records a plain
/// `(symbol, children)` node per kept vector (a `Vec` push, no hash probe,
/// since most searches never look at a witness), borrowing the symbol from
/// the grammar's production, and builds a [`Term`] only for the one
/// witness it returns ([`WitnessLog::term`]).
#[derive(Clone, Debug, Default)]
struct WitnessLog<'g> {
    /// `(symbol, child_start, child_end)` — the child range indexes
    /// `children`.
    nodes: Vec<(&'g Symbol, u32, u32)>,
    /// Child pool: log indices of each node's children, in order.
    children: Vec<u32>,
}

impl<'g> WitnessLog<'g> {
    /// Appends a node and returns its log index. Children always precede
    /// their parent in the log (the search builds bottom-up).
    fn push(&mut self, symbol: &'g Symbol, kids: &[u32]) -> u32 {
        let start = self.children.len() as u32;
        self.children.extend_from_slice(kids);
        let end = self.children.len() as u32;
        self.nodes.push((symbol, start, end));
        (self.nodes.len() - 1) as u32
    }

    /// Number of nodes recorded (the search's breadth,
    /// [`SearchResult::nodes`]).
    fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The term rooted at `root`, built children before parents with an
    /// explicit stack (no recursion), visiting only the nodes the witness
    /// uses. A node shared by several parents is built once per use, since
    /// a [`Term`] is a tree.
    fn term(&self, root: u32) -> Term {
        let mut built: Vec<Term> = Vec::new();
        let mut stack: Vec<(u32, bool)> = vec![(root, false)];
        while let Some((r, expanded)) = stack.pop() {
            let (symbol, start, end) = self.nodes[r as usize];
            let kids = &self.children[start as usize..end as usize];
            if expanded {
                let children = built.split_off(built.len() - kids.len());
                built.push(
                    Term::apply(symbol.clone(), children)
                        .expect("the grammar's productions are well-sorted"),
                );
            } else {
                stack.push((r, true));
                stack.extend(kids.iter().rev().map(|&k| (k, false)));
            }
        }
        built.pop().expect("the root term is built last")
    }
}

/// How a new candidate vector was built, recorded in a few words. Most
/// candidates are duplicates, so a [`WitnessLog`] node is appended only
/// for a vector that is kept.
#[derive(Clone, Copy)]
enum LazyWitness<'g> {
    /// A leaf (or a nullary `Plus`).
    Leaf(&'g Symbol),
    /// A unary node over a logged child.
    Un(&'g Symbol, u32),
    /// A binary node over logged children.
    Bin(&'g Symbol, u32, u32),
    /// A ternary node over logged children.
    Tri(&'g Symbol, u32, u32, u32),
    /// An n-ary `Plus`: the children on the trail chain at the head, then
    /// the last child.
    Plus(&'g Symbol, u32, u32),
}

/// Resolves a lazy witness to a log index. `trail` is the cons-list pool
/// `Plus` heads index into.
fn log_witness<'g>(
    log: &mut WitnessLog<'g>,
    trail: &[(u32, u32)],
    witness: LazyWitness<'g>,
) -> u32 {
    match witness {
        LazyWitness::Leaf(symbol) => log.push(symbol, &[]),
        LazyWitness::Un(symbol, a) => log.push(symbol, &[a]),
        LazyWitness::Bin(symbol, a, b) => log.push(symbol, &[a, b]),
        LazyWitness::Tri(symbol, a, b, c) => log.push(symbol, &[a, b, c]),
        LazyWitness::Plus(symbol, mut head, last) => {
            let mut children = vec![last];
            while head != NIL {
                let (prev, id) = trail[head as usize];
                children.push(id);
                head = prev;
            }
            children.reverse();
            log.push(symbol, &children)
        }
    }
}

/// The maximal number of rounds, which bounds the height of the terms
/// searched.
pub const UNROLL_DEPTH: usize = 8;

/// The maximal number of distinct output vectors kept per nonterminal (and
/// built per production and round).
pub const MAX_VECTORS: usize = 2000;

/// A multiply-rotate hasher for the `i64` vectors of one search (the
/// `FxHash` round). It starts from a random seed per search, so an input
/// cannot be crafted to make its vectors collide, and it folds the high
/// half into the low one at the end, since the table picks buckets by the
/// low bits, which the round leaves depending on the low bits of the
/// values only.
#[derive(Clone, Copy)]
struct VectorHasher(u64);

impl Hasher for VectorHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Builds the [`VectorHasher`]s of one search from its seed.
#[derive(Clone, Copy)]
struct Seed(u64);

impl BuildHasher for Seed {
    type Hasher = VectorHasher;

    fn build_hasher(&self) -> VectorHasher {
        VectorHasher(self.0)
    }
}

/// A nonterminal's vectors by value, kept ones and those its running
/// evaluation found, each with the last evaluation that built it.
type Index = HashMap<Vec<i64>, u32, Seed>;

/// One nonterminal's kept vectors in sorted order (the order its terms are
/// combined in), each with its witness and the evaluation that kept it.
#[derive(Clone, Default)]
struct Kept {
    /// The vectors, `dim` values each.
    vectors: Vec<i64>,
    /// [`WitnessLog`] index of each vector's term.
    witnesses: Vec<u32>,
    /// The evaluation that kept each vector.
    stamps: Vec<u32>,
}

impl Kept {
    fn len(&self) -> usize {
        self.witnesses.len()
    }

    fn vector(&self, k: usize, dim: usize) -> &[i64] {
        &self.vectors[k * dim..(k + 1) * dim]
    }

    fn push(&mut self, vector: &[i64], witness: u32, stamp: u32) {
        self.vectors.extend_from_slice(vector);
        self.witnesses.push(witness);
        self.stamps.push(stamp);
    }
}

/// A production with the set indices of its arguments.
struct Rule<'g> {
    production: &'g Production,
    args: Vec<usize>,
    /// Set once a combination of this production overflowed; from then on
    /// every tuple is built, so that skipped tuples never overflow.
    overflowed: bool,
}

/// The candidates of one nonterminal's evaluation.
struct Candidates<'a, 'g> {
    /// The nonterminal's vectors by value.
    index: &'a mut Index,
    /// The evaluation's number.
    eval: u32,
    /// A delta evaluation: old tuples are skipped, and it is abandoned
    /// (`abort`) once the kept and new vectors could reach [`MAX_VECTORS`].
    delta: bool,
    /// Vectors the nonterminal kept before this evaluation.
    kept: usize,
    /// Full evaluations: distinct candidates so far, kept or new.
    distinct: usize,
    dim: usize,
    /// New vectors in the order found, `dim` values each.
    fresh: Vec<i64>,
    /// How each new vector was built.
    witnesses: Vec<LazyWitness<'g>>,
    /// The cons-list pool of `Plus` partial sums.
    trail: Vec<(u32, u32)>,
    /// A cap truncated this evaluation.
    capped: bool,
    /// The current production dropped an overflowing run.
    dropped: bool,
    abort: bool,
}

impl<'g> Candidates<'_, 'g> {
    /// Records a candidate vector; `false` ends the evaluation (the
    /// new-vectors cap tripped, or a delta evaluation must be redone).
    /// Only a vector not seen before is copied.
    fn offer(&mut self, vector: &[i64], witness: LazyWitness<'g>) -> bool {
        if self.delta {
            if self.index.contains_key(vector) {
                return true;
            }
            if self.kept + self.witnesses.len() + 1 >= MAX_VECTORS {
                self.abort = true;
                return false;
            }
        } else {
            if self.distinct >= MAX_VECTORS {
                self.capped = true;
                return false;
            }
            if let Some(seen) = self.index.get_mut(vector) {
                if *seen != self.eval {
                    *seen = self.eval;
                    self.distinct += 1;
                }
                return true;
            }
            self.distinct += 1;
        }
        self.index.insert(vector.to_vec(), self.eval);
        self.fresh.extend_from_slice(vector);
        self.witnesses.push(witness);
        true
    }

    fn fresh_vector(&self, f: usize) -> &[i64] {
        &self.fresh[f * self.dim..(f + 1) * self.dim]
    }

    /// Removes new vector `f` from the index (it is not kept).
    fn forget(&mut self, f: usize) {
        self.index
            .remove(&self.fresh[f * self.dim..(f + 1) * self.dim]);
    }
}

/// The outcome of one visited tuple.
enum Visit {
    /// It overflowed and was dropped (not counted toward the step cap).
    Dropped,
    /// Its vector was offered.
    Offered,
    /// The evaluation ended.
    Stop,
}

/// The combination loop of a production: every row `r < rows` (an index
/// into the outer arguments) with every vector of the inner argument
/// `inner`, counted toward the step cap of [`MAX_VECTORS`] tuples. An old
/// row (`old(r)`, its outer vectors all predate evaluation `since`)
/// visits only the inner vectors kept since then; the tuples it skips
/// still count, so the cap trips where it trips when every tuple is built.
/// Returns `false` when the evaluation ended.
fn combine<'a, 'g>(
    cands: &mut Candidates<'a, 'g>,
    rows: usize,
    old: impl Fn(usize) -> bool,
    inner: &Kept,
    since: u32,
    mut visit: impl FnMut(&mut Candidates<'a, 'g>, usize, usize) -> Visit,
) -> bool {
    let every: Vec<usize> = (0..inner.len()).collect();
    let newer: Vec<usize> = (0..inner.len())
        .filter(|&k| inner.stamps[k] >= since)
        .collect();
    let mut count = 0;
    for r in 0..rows {
        let mut next = 0;
        for &k in if old(r) { &newer } else { &every } {
            count += k - next;
            next = k + 1;
            if count >= MAX_VECTORS {
                cands.capped = true;
                return true;
            }
            match visit(cands, r, k) {
                Visit::Dropped => {}
                Visit::Offered => count += 1,
                Visit::Stop => return false,
            }
            if count >= MAX_VECTORS {
                cands.capped = true;
                return true;
            }
        }
        count += inner.len() - next;
        if count >= MAX_VECTORS {
            cands.capped = true;
            return true;
        }
    }
    true
}

/// The outcome of a [`search`].
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// A term of `L(G)` that satisfies the specification on every example.
    pub witness: Option<Term>,
    /// Number of witness-log nodes the search recorded: one node per
    /// vector kept (the search's breadth; the log only grows, so this is
    /// its peak).
    pub nodes: usize,
    /// `true` when the search found no witness and covered every output
    /// vector of `L(G)` on the examples: a round added no vector, no cap
    /// truncated a set, no overflowing run was dropped and the stop hook
    /// never fired. Then `sy_E` is unrealizable.
    pub exhausted: bool,
}

/// Searches `L(grammar)` bottom-up for a term that satisfies `spec` on
/// every example of `examples`, in delta rounds (see the crate docs).
///
/// With an empty example set every term satisfies the specification
/// vacuously, so the first term of the start nonterminal is the witness
/// (when the grammar derives any term). Every example must bind every
/// variable of the grammar.
///
/// The [`logic`] stop hook is polled once per round; a stopped search has
/// no witness and is not exhausted.
pub fn search(grammar: &Grammar, examples: &ExampleSet, spec: &Spec) -> SearchResult {
    let mut run = Search::new(grammar, examples);
    let (root, exhausted) = run.explore(spec);
    SearchResult {
        witness: root.map(|root| run.log.term(root)),
        nodes: run.log.len(),
        exhausted,
    }
}

/// The state of one [`search`].
struct Search<'g, 'e> {
    grammar: &'g Grammar,
    examples: &'e ExampleSet,
    dim: usize,
    /// Per nonterminal (grammar order), its productions.
    rules: Vec<Vec<Rule<'g>>>,
    sets: Vec<Kept>,
    indexes: Vec<Index>,
    /// Per nonterminal, its last evaluation, or 0 before the first (the
    /// next evaluation is full).
    last_eval: Vec<u32>,
    log: WitnessLog<'g>,
    /// Set once a cap truncated a set or an overflowing run was dropped.
    cut: bool,
}

impl<'g, 'e> Search<'g, 'e> {
    fn new(grammar: &'g Grammar, examples: &'e ExampleSet) -> Self {
        let nonterminals = grammar.nonterminals();
        let index: BTreeMap<&NonTerminal, usize> = nonterminals
            .iter()
            .enumerate()
            .map(|(i, nt)| (nt, i))
            .collect();
        let rules = nonterminals
            .iter()
            .map(|nt| {
                grammar
                    .productions_of(nt)
                    .map(|production| Rule {
                        production,
                        args: production.args.iter().map(|a| index[a]).collect(),
                        overflowed: false,
                    })
                    .collect()
            })
            .collect();
        let n = nonterminals.len();
        Search {
            grammar,
            examples,
            dim: examples.len(),
            rules,
            sets: vec![Kept::default(); n],
            indexes: vec![Index::with_hasher(Seed(RandomState::new().hash_one(0))); n],
            last_eval: vec![0; n],
            log: WitnessLog::default(),
            cut: false,
        }
    }

    /// The rounds of [`search`]. Returns the log index of a witness, if
    /// any, and whether the search was exhausted.
    fn explore(&mut self, spec: &Spec) -> (Option<u32>, bool) {
        let start = self
            .grammar
            .nonterminals()
            .iter()
            .position(|nt| nt == self.grammar.start())
            .expect("the start symbol is a nonterminal");
        let mut eval = 0;
        for _ in 0..UNROLL_DEPTH {
            if stop_requested() {
                return (None, false);
            }
            let mut changed = false;
            let mut start_eval = 0;
            for i in 0..self.sets.len() {
                eval += 1;
                if i == start {
                    start_eval = eval;
                }
                changed |= self.evaluate(i, eval);
            }
            // check the specification on the start vectors that entered
            let set = &self.sets[start];
            for k in (0..set.len()).filter(|&k| set.stamps[k] == start_eval) {
                let vector = set.vector(k, self.dim);
                let good = self
                    .examples
                    .iter()
                    .zip(vector)
                    .all(|(e, &out)| spec.holds(e, out));
                if good {
                    return (Some(set.witnesses[k]), false);
                }
            }
            if !changed {
                return (None, !self.cut);
            }
        }
        (None, false)
    }

    /// Evaluates nonterminal `i` as evaluation `eval`, in delta mode after
    /// its first evaluation, and merges the vectors it finds.
    /// Returns whether a vector was kept.
    fn evaluate(&mut self, i: usize, eval: u32) -> bool {
        if self.sets[i].len() >= MAX_VECTORS {
            // a full evaluation finds only kept vectors and cuts at the merge
            self.cut = true;
            return false;
        }
        let since = self.last_eval[i];
        let mut delta = since > 0;
        loop {
            let mut cands = Candidates {
                index: &mut self.indexes[i],
                eval,
                delta,
                kept: self.sets[i].len(),
                distinct: 0,
                dim: self.dim,
                fresh: Vec::new(),
                witnesses: Vec::new(),
                trail: Vec::new(),
                capped: false,
                dropped: false,
                abort: false,
            };
            let mut dropped = false;
            for rule in &mut self.rules[i] {
                let args: Vec<&Kept> = rule.args.iter().map(|&a| &self.sets[a]).collect();
                // with `since` 0 every tuple is new
                let since = if delta && !rule.overflowed { since } else { 0 };
                cands.dropped = false;
                let go = production(rule.production, &args, since, self.examples, &mut cands);
                rule.overflowed |= cands.dropped;
                dropped |= cands.dropped;
                if !go {
                    break;
                }
            }
            if cands.abort {
                // the caps could trip: redo the evaluation in full
                for f in 0..cands.witnesses.len() {
                    cands.forget(f);
                }
                delta = false;
                continue;
            }
            // merge the new vectors in sorted order, up to the set's room
            let mut order: Vec<usize> = (0..cands.witnesses.len()).collect();
            order.sort_unstable_by(|&a, &b| cands.fresh_vector(a).cmp(cands.fresh_vector(b)));
            let room = MAX_VECTORS - cands.kept;
            if order.len() > room {
                cands.capped = true;
                for &f in &order[room..] {
                    cands.forget(f);
                }
                order.truncate(room);
            }
            let Candidates {
                fresh,
                witnesses,
                trail,
                capped,
                ..
            } = cands;
            let dim = self.dim;
            let old = std::mem::take(&mut self.sets[i]);
            let set = &mut self.sets[i];
            let mut k = 0;
            for &f in &order {
                let vector = &fresh[f * dim..(f + 1) * dim];
                while k < old.len() && old.vector(k, dim) < vector {
                    set.push(old.vector(k, dim), old.witnesses[k], old.stamps[k]);
                    k += 1;
                }
                set.push(
                    vector,
                    log_witness(&mut self.log, &trail, witnesses[f]),
                    eval,
                );
            }
            for k in k..old.len() {
                set.push(old.vector(k, dim), old.witnesses[k], old.stamps[k]);
            }
            self.last_eval[i] = eval;
            self.cut |= capped || dropped;
            return !order.is_empty();
        }
    }
}

/// The value of variable `x` in example `e`.
fn bind(e: &Example, x: &str) -> i64 {
    e.get(x).expect("example binds the variable")
}

/// `x + y` component-wise into `out`; `false` on overflow.
fn add_into(out: &mut [i64], x: &[i64], y: &[i64]) -> bool {
    for ((slot, a), b) in out.iter_mut().zip(x).zip(y) {
        match a.checked_add(*b) {
            Some(sum) => *slot = sum,
            None => return false,
        }
    }
    true
}

/// Offers `v` built by `witness`, as a [`Visit`].
fn offered<'g>(cands: &mut Candidates<'_, 'g>, v: &[i64], witness: LazyWitness<'g>) -> Visit {
    if cands.offer(v, witness) {
        Visit::Offered
    } else {
        Visit::Stop
    }
}

/// Builds the candidates of production `p` over its arguments' sets
/// `args`, skipping the tuples whose vectors all predate evaluation
/// `since`. Booleans are 0/1. A combination that overflows i64 is dropped
/// (a skipped run only loses witnesses, while a wrapped one could be a
/// false witness). Returns `false` when the evaluation ended.
fn production<'g>(
    p: &'g Production,
    args: &[&Kept],
    since: u32,
    examples: &ExampleSet,
    cands: &mut Candidates<'_, 'g>,
) -> bool {
    let dim = cands.dim;
    let symbol = &p.symbol;
    let mut v = vec![0i64; dim];
    let binary = |f: fn(i64, i64) -> Option<i64>, cands: &mut Candidates<'_, 'g>, v: &mut [i64]| {
        let (a, b) = (args[0], args[1]);
        combine(
            cands,
            a.len(),
            |x| a.stamps[x] < since,
            b,
            since,
            |cands, x, y| {
                let pairs = a.vector(x, dim).iter().zip(b.vector(y, dim));
                for (slot, (&p, &q)) in v.iter_mut().zip(pairs) {
                    match f(p, q) {
                        Some(r) => *slot = r,
                        None => {
                            cands.dropped = true;
                            return Visit::Dropped;
                        }
                    }
                }
                offered(
                    cands,
                    v,
                    LazyWitness::Bin(symbol, a.witnesses[x], b.witnesses[y]),
                )
            },
        )
    };
    match symbol {
        _ if args.is_empty() => {
            // a leaf (or a nullary Plus): its one (empty) tuple is old
            // after the first evaluation
            if since > 0 {
                return true;
            }
            let built = match symbol {
                Symbol::Num(c) => {
                    v.fill(*c);
                    true
                }
                Symbol::Var(x) => {
                    for (slot, e) in v.iter_mut().zip(examples.iter()) {
                        *slot = bind(e, x);
                    }
                    true
                }
                Symbol::NegVar(x) => v
                    .iter_mut()
                    .zip(examples.iter())
                    .all(|(slot, e)| bind(e, x).checked_neg().map(|n| *slot = n).is_some()),
                _ => true,
            };
            if !built {
                cands.dropped = true;
                return true;
            }
            cands.offer(&v, LazyWitness::Leaf(symbol))
        }
        Symbol::Plus => plus(symbol, args, since, &mut v, cands),
        Symbol::Minus => binary(i64::checked_sub, cands, &mut v),
        Symbol::LessThan => binary(|x, y| Some(i64::from(x < y)), cands, &mut v),
        Symbol::Equal => binary(|x, y| Some(i64::from(x == y)), cands, &mut v),
        Symbol::And => binary(|x, y| Some(x & y), cands, &mut v),
        Symbol::Or => binary(|x, y| Some(x | y), cands, &mut v),
        Symbol::Not => {
            let a = args[0];
            for k in (0..a.len()).filter(|&k| a.stamps[k] >= since) {
                for (slot, x) in v.iter_mut().zip(a.vector(k, dim)) {
                    *slot = 1 - x;
                }
                if !cands.offer(&v, LazyWitness::Un(symbol, a.witnesses[k])) {
                    return false;
                }
            }
            true
        }
        Symbol::IfThenElse => {
            // rows are the (guard, then) pairs
            let (g, t, e) = (args[0], args[1], args[2]);
            let split = |r: usize| (r / t.len(), r % t.len());
            let old = |r| {
                let (gi, ti) = split(r);
                g.stamps[gi] < since && t.stamps[ti] < since
            };
            combine(cands, g.len() * t.len(), old, e, since, |cands, r, ei| {
                let (gi, ti) = split(r);
                let (gv, tv, ev) = (g.vector(gi, dim), t.vector(ti, dim), e.vector(ei, dim));
                for j in 0..dim {
                    v[j] = if gv[j] == 1 { tv[j] } else { ev[j] };
                }
                let witness =
                    LazyWitness::Tri(symbol, g.witnesses[gi], t.witnesses[ti], e.witnesses[ei]);
                offered(cands, &v, witness)
            })
        }
        Symbol::Num(_) | Symbol::Var(_) | Symbol::NegVar(_) => {
            unreachable!("leaves take no arguments")
        }
    }
}

/// An n-ary `Plus`: the partial sums over all arguments but the last are
/// built as the naive search builds them (every partial, each on the
/// trail, with at most [`MAX_VECTORS`] per step), and are the rows the
/// last argument is combined with.
fn plus<'g>(
    symbol: &'g Symbol,
    args: &[&Kept],
    since: u32,
    v: &mut [i64],
    cands: &mut Candidates<'_, 'g>,
) -> bool {
    let dim = cands.dim;
    let (last, init) = args.split_last().expect("a Plus with arguments");
    let mut sums: Vec<i64> = vec![0; dim];
    let mut heads: Vec<u32> = vec![NIL];
    // whether a partial sum contains a vector kept since `since`
    let mut new: Vec<bool> = vec![false];
    for arg in init {
        let (mut next_sums, mut next_heads, mut next_new) = (Vec::new(), Vec::new(), Vec::new());
        'step: for k in 0..heads.len() {
            for y in 0..arg.len() {
                if !add_into(v, &sums[k * dim..(k + 1) * dim], arg.vector(y, dim)) {
                    cands.dropped = true;
                    continue;
                }
                next_sums.extend_from_slice(v);
                cands.trail.push((heads[k], arg.witnesses[y]));
                next_heads.push((cands.trail.len() - 1) as u32);
                next_new.push(new[k] || arg.stamps[y] >= since);
                if next_heads.len() >= MAX_VECTORS {
                    cands.capped = true;
                    break 'step;
                }
            }
        }
        (sums, heads, new) = (next_sums, next_heads, next_new);
        if heads.is_empty() {
            return true;
        }
    }
    combine(
        cands,
        heads.len(),
        |k| !new[k],
        last,
        since,
        |cands, k, y| {
            if !add_into(v, &sums[k * dim..(k + 1) * dim], last.vector(y, dim)) {
                cands.dropped = true;
                return Visit::Dropped;
            }
            offered(
                cands,
                v,
                LazyWitness::Plus(symbol, heads[k], last.witnesses[y]),
            )
        },
    )
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
    fn a_vector_good_only_modulo_2_64_is_no_witness() {
        // Start ::= −(2⁶³ − 1) | x with f(x) + f(x) = 2 on x = 0: the
        // constant's double is 2 only modulo 2⁶⁴.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Num(-i64::MAX), &[])
            .production("Start", Symbol::Var("x".to_string()), &[])
            .build()
            .unwrap();
        let spec = Spec::new(
            Formula::eq(
                LinearExpr::var(Spec::output_var()).scale(2),
                LinearExpr::constant(2),
            ),
            vec!["x".to_string()],
            Sort::Int,
        );
        let found = search(&grammar, &ExampleSet::for_single_var("x", [0]), &spec);
        assert_eq!(found.witness, None);
        assert!(found.exhausted, "both values are kept and neither is good");
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

    /// The delta search's final reachable maps (vector → first term), with
    /// its witness and exhaustion flag.
    fn delta_outcome(grammar: &Grammar, examples: &ExampleSet, spec: &Spec) -> reference::Outcome {
        let mut run = Search::new(grammar, examples);
        let (root, exhausted) = run.explore(spec);
        let reachable = run
            .sets
            .iter()
            .map(|set| {
                (0..set.len())
                    .map(|k| {
                        let vector = set.vector(k, run.dim).to_vec();
                        (vector, run.log.term(set.witnesses[k]))
                    })
                    .collect()
            })
            .collect();
        reference::Outcome {
            witness: root.map(|root| run.log.term(root)),
            exhausted,
            reachable,
            cuts: reference::Cuts::default(),
        }
    }

    /// Runs both searches and asserts the same witness, exhaustion flag and
    /// reachable maps; returns the cuts the reference saw.
    fn assert_matches_reference(
        name: &str,
        grammar: &Grammar,
        examples: &ExampleSet,
        spec: &Spec,
    ) -> reference::Cuts {
        let expected = reference::search(grammar, examples, spec);
        let found = delta_outcome(grammar, examples, spec);
        assert_eq!(found.witness, expected.witness, "{name}: witness");
        assert_eq!(found.exhausted, expected.exhausted, "{name}: exhausted");
        assert_eq!(found.reachable.len(), expected.reachable.len());
        for (i, (got, want)) in found.reachable.iter().zip(&expected.reachable).enumerate() {
            assert!(
                got == want,
                "{name}: nonterminal {i} keeps {} vectors, the naive search {}",
                got.len(),
                want.len()
            );
        }
        let nodes = search(grammar, examples, spec).nodes;
        let kept: usize = found.reachable.iter().map(BTreeMap::len).sum();
        assert_eq!(nodes, kept, "{name}: one node per vector kept");
        expected.cuts
    }

    #[test]
    fn delta_rounds_match_the_naive_search_on_every_benchmark() {
        use sygus::rng::{random_example, EXAMPLE_SEED};
        for bench in benchmarks::all() {
            let (grammar, spec) = (bench.problem.grammar(), bench.problem.spec());
            assert_matches_reference(&bench.name, grammar, &bench.witness_examples, spec);
            let mut rng = EXAMPLE_SEED;
            let one = ExampleSet::from_examples([random_example(&bench.problem, &mut rng)]);
            assert_matches_reference(&bench.name, grammar, &one, spec);
        }
    }

    #[test]
    fn delta_rounds_match_the_naive_search_on_generated_instances() {
        use gen::{Family, GenConfig, ProblemStream};
        use sygus::rng::random_example;
        for family in Family::ALL {
            let config = GenConfig::new(42).with_families(vec![family]);
            for instance in ProblemStream::new(config).take(4) {
                let problem = &instance.problem;
                let mut rng = instance.seed;
                let mut examples = ExampleSet::new();
                for _ in 0..3 {
                    examples.push(random_example(problem, &mut rng));
                    let name = format!("{} |E|={}", instance.name(), examples.len());
                    assert_matches_reference(&name, problem.grammar(), &examples, problem.spec());
                }
            }
        }
    }

    /// `A ::= 1 | 2 | (+ A A)` on one example, so after round r
    /// `A = {1, …, 2^r}`, and `rules` on top, `Start`'s among them. In
    /// round 7 `Start ::= (op A A)` combines 64 × 64 tuples of which
    /// 32 × 32 are old, and the step cap trips in the row of 32 after its
    /// 32 old tuples.
    fn doubling(rules: &[(&str, Symbol, &[&str])]) -> Grammar {
        let mut builder = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("A", Sort::Int)
            .nonterminal("B", Sort::Bool)
            .nonterminal("Z", Sort::Int)
            .production("A", Symbol::Num(1), &[])
            .production("A", Symbol::Num(2), &[])
            .production("A", Symbol::Plus, &["A", "A"])
            .production("B", Symbol::LessThan, &["Z", "A"])
            .production("Z", Symbol::Num(0), &[]);
        for (lhs, symbol, args) in rules {
            builder = builder.production(lhs, symbol.clone(), args);
        }
        builder.build().unwrap()
    }

    #[test]
    fn skipped_tuples_count_toward_the_plus_step_cap() {
        let grammar = doubling(&[("Start", Symbol::Plus, &["A", "A"])]);
        let examples = ExampleSet::for_single_var("x", [0]);
        let cuts = assert_matches_reference("plus", &grammar, &examples, &constant_spec(-1));
        assert!(cuts.plus_step > 0, "{cuts:?}");
    }

    #[test]
    fn skipped_tuples_count_toward_the_binary_step_cap() {
        let grammar = doubling(&[("Start", Symbol::Minus, &["A", "A"])]);
        let examples = ExampleSet::for_single_var("x", [0]);
        let spec = constant_spec(1 << 20);
        let cuts = assert_matches_reference("minus", &grammar, &examples, &spec);
        assert!(cuts.binary_step > 0, "{cuts:?}");
    }

    #[test]
    fn skipped_tuples_count_toward_the_ite_step_cap() {
        // B = {1}, so (ite B A A) is its then-branch and every new vector
        // comes from a tuple after the old ones of its row
        let grammar = doubling(&[("Start", Symbol::IfThenElse, &["B", "A", "A"])]);
        let examples = ExampleSet::for_single_var("x", [0]);
        let cuts = assert_matches_reference("ite", &grammar, &examples, &constant_spec(-1));
        assert!(cuts.ite_step > 0, "{cuts:?}");
    }

    #[test]
    fn a_delta_round_that_could_fill_the_set_is_redone_in_full() {
        // Start ::= (+ A B) | (+ A M), A ::= -1 | (+ A A) doubles the
        // negatives {-2^r, …, -1}, B holds 100 multiples of 10⁴ and M is
        // -10⁸. In round 7 the first production's 2000 tuples give 1600 new
        // and 400 old sums, so the new-vectors cap drops the second
        // production's new (smallest) sums, and the merge cap keeps only
        // the 400 smallest new ones. A delta round would see neither cap.
        let mut builder = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("A", Sort::Int)
            .nonterminal("B", Sort::Int)
            .nonterminal("M", Sort::Int)
            .production("Start", Symbol::Plus, &["A", "B"])
            .production("Start", Symbol::Plus, &["A", "M"])
            .production("A", Symbol::Num(-1), &[])
            .production("A", Symbol::Plus, &["A", "A"])
            .production("M", Symbol::Num(-100_000_000), &[]);
        for i in 0..100 {
            builder = builder.production("B", Symbol::Num(10_000 * i), &[]);
        }
        let grammar = builder.build().unwrap();
        let examples = ExampleSet::for_single_var("x", [0]);
        let cuts = assert_matches_reference("merge", &grammar, &examples, &constant_spec(1));
        assert!(cuts.new_vectors > 0 && cuts.merge > 0, "{cuts:?}");
    }

    #[test]
    fn overflow_drops_and_stops_match_the_naive_search() {
        // the overflowing grammar of an_overflowing_search_is_not_exhausted
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Var("x".to_string()), &[])
            .production("Start", Symbol::Num(i64::MAX), &[])
            .production("Start", Symbol::NegVar("x".to_string()), &[])
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .build()
            .unwrap();
        let spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")) + LinearExpr::constant(-2),
            vec!["x".to_string()],
        );
        let examples = ExampleSet::for_single_var("x", [0, i64::MIN]);
        let cuts = assert_matches_reference("overflow", &grammar, &examples, &spec);
        assert!(cuts.overflow > 0, "{cuts:?}");
        // with M in A every row of (+ A A) ends in an overflowing tuple,
        // which a skipped row must not count toward the step cap
        let grammar = doubling(&[
            ("Start", Symbol::Plus, &["A", "A"]),
            ("A", Symbol::Num(i64::MAX), &[]),
        ]);
        let examples = ExampleSet::for_single_var("x", [0]);
        let cuts = assert_matches_reference("plus max", &grammar, &examples, &constant_spec(-1));
        assert!(cuts.overflow > 0 && cuts.plus_step > 0, "{cuts:?}");
        // a stop hook firing after three rounds stops both searches with
        // the same sets
        let after_three_rounds = || {
            let polls = std::cell::Cell::new(0);
            move || {
                polls.set(polls.get() + 1);
                polls.get() > 3
            }
        };
        let grammar = doubling(&[("Start", Symbol::Plus, &["A", "A"])]);
        let examples = ExampleSet::for_single_var("x", [0]);
        let spec = constant_spec(-1);
        let expected = logic::interruptible(after_three_rounds(), || {
            reference::search(&grammar, &examples, &spec)
        });
        let found = logic::interruptible(after_three_rounds(), || {
            delta_outcome(&grammar, &examples, &spec)
        });
        assert!(!found.exhausted && found.witness.is_none());
        assert!(found.reachable == expected.reachable);
        assert_eq!(found.reachable[0].len(), 7, "Start after three rounds");
    }
}
