//! A hash-consing term arena: structurally shared, `Copy`-indexed terms.
//!
//! [`Term`] is a pointer-chasing tree (`Vec<Term>` children, `String`
//! variables). [`TermArena`] is the representation for building terms
//! bottom-up: every distinct subterm is *interned* exactly once and
//! addressed by a `Copy`-able [`TermId`]; building a compound term over
//! already-interned children is a single hash-table probe, and structurally
//! identical terms receive identical ids no matter where or when they are
//! built. Variables are interned too ([`VarId`]), so the arena's node
//! representation ([`Op`]) carries no owned strings. The term search of the
//! `enumerative` crate hash-conses the witness it returns here, and the
//! `gen` builders construct their witnesses here.
//!
//! All traversals (interning, extraction) use explicit stacks, never
//! recursion, so arena operations cannot overflow the call stack on deeply
//! nested terms.
//!
//! [`Term`] remains the owned-tree boundary type for parsing, printing and
//! serialization; [`TermArena::intern_term`] and [`TermArena::extract`]
//! convert losslessly between the two representations.
//!
//! # Example
//! ```
//! use sygus::TermArena;
//!
//! let mut arena = TermArena::new();
//! let x = arena.var_leaf("x");
//! let one = arena.num(1);
//! let sum = arena.plus2(x, one); // (+ x 1)
//! // interning is idempotent: the same structure yields the same id
//! assert_eq!(arena.plus2(x, one), sum);
//! assert_eq!(arena.size(sum), 3);
//!
//! // lossless round trip to the owned-tree boundary type
//! let term = arena.extract(sum);
//! assert_eq!(term.to_string(), "(+ x 1)");
//! assert_eq!(arena.intern_term(&term), sum);
//! ```

use crate::term::{Sort, Symbol, Term};
use crate::SygusError;
use std::collections::HashMap;

/// An interned input-variable name. `Copy`-able stand-in for the `String`
/// payloads of [`Symbol::Var`] / [`Symbol::NegVar`]; resolve it back with
/// [`TermArena::var_name`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(u32);

impl VarId {
    /// The arena-local index of the variable (dense, in interning order).
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// An interned term. Ids are dense indices into one [`TermArena`]; two ids
/// from the *same* arena are equal iff the terms are structurally equal
/// (hash consing), and a term's children always carry smaller ids than the
/// term itself (children are interned first).
///
/// Ids from different arenas are unrelated; mixing them is a logic error
/// that debug builds catch on out-of-range access.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TermId(u32);

impl TermId {
    /// The arena-local index of the term (dense, in interning order).
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// The arena's compact, `Copy`-able symbol: [`Symbol`] with interned
/// variable names. Convert with [`TermArena::op_from_symbol`] and
/// [`TermArena::symbol_of_op`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// n-ary integer addition (n ≥ 1).
    Plus,
    /// Binary integer subtraction.
    Minus,
    /// An integer constant.
    Num(i64),
    /// An input variable.
    Var(VarId),
    /// A negated input variable (LIA⁺/CLIA⁺ grammars).
    NegVar(VarId),
    /// `ite(cond, then, else)`.
    IfThenElse,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// Boolean negation.
    Not,
    /// Integer comparison `a < b`.
    LessThan,
    /// Integer equality `a = b`.
    Equal,
}

impl Op {
    /// The output sort of the operator (mirrors [`Symbol::sort`]).
    pub fn sort(&self) -> Sort {
        match self {
            Op::Plus | Op::Minus | Op::Num(_) | Op::Var(_) | Op::NegVar(_) | Op::IfThenElse => {
                Sort::Int
            }
            Op::And | Op::Or | Op::Not | Op::LessThan | Op::Equal => Sort::Bool,
        }
    }

    /// The expected arity, or `None` for the variadic `Plus` (mirrors
    /// [`Symbol::arity`]).
    pub fn arity(&self) -> Option<usize> {
        match self {
            Op::Plus => None,
            Op::Minus => Some(2),
            Op::Num(_) | Op::Var(_) | Op::NegVar(_) => Some(0),
            Op::IfThenElse => Some(3),
            Op::And | Op::Or => Some(2),
            Op::Not => Some(1),
            Op::LessThan | Op::Equal => Some(2),
        }
    }

    /// The expected sort of the `i`-th argument (mirrors
    /// [`Symbol::arg_sort`]).
    pub fn arg_sort(&self, i: usize) -> Sort {
        match self {
            Op::IfThenElse => {
                if i == 0 {
                    Sort::Bool
                } else {
                    Sort::Int
                }
            }
            Op::And | Op::Or | Op::Not => Sort::Bool,
            _ => Sort::Int,
        }
    }
}

/// One interned node: its operator plus a `(start, len)` window into the
/// arena's flat child pool.
#[derive(Clone, Copy)]
struct Node {
    op: Op,
    children_start: u32,
    children_len: u32,
}

/// Splitmix64-style finalizer: one multiply-xor-shift round per word.
#[inline]
fn mix(hash: u64, v: u64) -> u64 {
    let mut x = hash ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x.wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

/// Word-granular hash over the node's identity, used as the hash-cons
/// bucket key. This sits on the interning fast path (one call per node
/// interned), so it mixes whole 64-bit words instead of bytes.
fn node_hash(op: &Op, children: &[TermId]) -> u64 {
    let op_word = match op {
        Op::Plus => 1u64,
        Op::Minus => 2,
        Op::Num(c) => 3 | ((*c as u64) << 4),
        Op::Var(v) => 4 | (u64::from(v.0) << 4),
        Op::NegVar(v) => 5 | (u64::from(v.0) << 4),
        Op::IfThenElse => 6,
        Op::And => 7,
        Op::Or => 8,
        Op::Not => 9,
        Op::LessThan => 10,
        Op::Equal => 11,
    };
    let mut hash = mix(0xcbf2_9ce4_8422_2325, op_word);
    for c in children {
        hash = mix(hash, u64::from(c.0));
    }
    hash
}

/// The hash-consing arena: interns terms into `Copy`-able [`TermId`]s with
/// structural sharing.
#[derive(Clone, Default)]
pub struct TermArena {
    nodes: Vec<Node>,
    child_pool: Vec<TermId>,
    /// Tree size (node count *with* duplication) per id; `u64` because a
    /// structurally shared DAG can denote an exponentially larger tree.
    sizes: Vec<u64>,
    /// hash → candidate ids with that hash (hash-cons buckets).
    dedup: HashMap<u64, Vec<TermId>>,
    var_names: Vec<String>,
    var_ids: HashMap<String, VarId>,
}

impl TermArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        TermArena::default()
    }

    /// Number of distinct terms interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of distinct variable names interned so far.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    // -- variables ---------------------------------------------------------

    /// Interns a variable name.
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.var_ids.get(name) {
            return id;
        }
        let id = VarId(u32::try_from(self.var_names.len()).expect("< 2^32 variables"));
        self.var_names.push(name.to_string());
        self.var_ids.insert(name.to_string(), id);
        id
    }

    /// The name behind an interned variable id.
    pub fn var_name(&self, id: VarId) -> &str {
        &self.var_names[id.index()]
    }

    // -- symbol conversion -------------------------------------------------

    /// Converts a [`Symbol`] into the arena's compact [`Op`], interning the
    /// variable name if there is one.
    pub fn op_from_symbol(&mut self, symbol: &Symbol) -> Op {
        match symbol {
            Symbol::Plus => Op::Plus,
            Symbol::Minus => Op::Minus,
            Symbol::Num(c) => Op::Num(*c),
            Symbol::Var(x) => Op::Var(self.var(x)),
            Symbol::NegVar(x) => Op::NegVar(self.var(x)),
            Symbol::IfThenElse => Op::IfThenElse,
            Symbol::And => Op::And,
            Symbol::Or => Op::Or,
            Symbol::Not => Op::Not,
            Symbol::LessThan => Op::LessThan,
            Symbol::Equal => Op::Equal,
        }
    }

    /// Converts an [`Op`] back into the owned [`Symbol`].
    pub fn symbol_of_op(&self, op: Op) -> Symbol {
        match op {
            Op::Plus => Symbol::Plus,
            Op::Minus => Symbol::Minus,
            Op::Num(c) => Symbol::Num(c),
            Op::Var(v) => Symbol::Var(self.var_name(v).to_string()),
            Op::NegVar(v) => Symbol::NegVar(self.var_name(v).to_string()),
            Op::IfThenElse => Symbol::IfThenElse,
            Op::And => Symbol::And,
            Op::Or => Symbol::Or,
            Op::Not => Symbol::Not,
            Op::LessThan => Symbol::LessThan,
            Op::Equal => Symbol::Equal,
        }
    }

    // -- interning ---------------------------------------------------------

    /// Interns `op(children…)`, checking arity and child sorts (the same
    /// validation as [`Term::apply`]).
    ///
    /// # Errors
    /// Returns a [`SygusError::SortError`] on an arity or sort mismatch.
    pub fn try_intern(&mut self, op: Op, children: &[TermId]) -> Result<TermId, SygusError> {
        match op.arity() {
            Some(a) if a != children.len() => {
                return Err(SygusError::SortError(format!(
                    "operator {op:?} expects {a} arguments, got {}",
                    children.len()
                )))
            }
            None if children.is_empty() => {
                return Err(SygusError::SortError(
                    "variadic Plus requires at least one argument".to_string(),
                ))
            }
            _ => {}
        }
        for (i, &c) in children.iter().enumerate() {
            let expected = op.arg_sort(i);
            if self.sort(c) != expected {
                return Err(SygusError::SortError(format!(
                    "argument {i} of {op:?} has sort {}, expected {expected}",
                    self.sort(c)
                )));
            }
        }
        Ok(self.intern(op, children))
    }

    /// Interns `op(children…)` without sort validation (the children must
    /// already satisfy `op`'s arity and argument sorts, which holds for
    /// anything built from a validated [`crate::Grammar`]). Identical
    /// structures always return the identical id.
    pub fn intern(&mut self, op: Op, children: &[TermId]) -> TermId {
        debug_assert!(
            self.try_validate(op, children),
            "ill-sorted intern of {op:?}"
        );
        let hash = node_hash(&op, children);
        if let Some(bucket) = self.dedup.get(&hash) {
            for &candidate in bucket {
                let node = self.nodes[candidate.index()];
                if node.op == op && self.children(candidate) == children {
                    return candidate;
                }
            }
        }
        let id = TermId(u32::try_from(self.nodes.len()).expect("< 2^32 interned terms"));
        let children_start = u32::try_from(self.child_pool.len()).expect("child pool fits u32");
        self.child_pool.extend_from_slice(children);
        self.nodes.push(Node {
            op,
            children_start,
            children_len: children.len() as u32,
        });
        let size = 1u64.saturating_add(
            children
                .iter()
                .fold(0u64, |acc, c| acc.saturating_add(self.sizes[c.index()])),
        );
        self.sizes.push(size);
        self.dedup.entry(hash).or_default().push(id);
        id
    }

    /// `true` when `op(children…)` passes the arity/sort checks (used by
    /// the `debug_assert` in [`TermArena::intern`]).
    fn try_validate(&self, op: Op, children: &[TermId]) -> bool {
        match op.arity() {
            Some(a) if a != children.len() => return false,
            None if children.is_empty() => return false,
            _ => {}
        }
        children
            .iter()
            .enumerate()
            .all(|(i, &c)| self.sort(c) == op.arg_sort(i))
    }

    // -- convenience constructors -----------------------------------------

    /// Interns the constant `Num(c)`.
    pub fn num(&mut self, c: i64) -> TermId {
        self.intern(Op::Num(c), &[])
    }

    /// Interns the variable leaf `Var(name)`.
    pub fn var_leaf(&mut self, name: &str) -> TermId {
        let v = self.var(name);
        self.intern(Op::Var(v), &[])
    }

    /// Interns binary `Plus(a, b)`.
    pub fn plus2(&mut self, a: TermId, b: TermId) -> TermId {
        self.intern(Op::Plus, &[a, b])
    }

    /// Interns `Minus(a, b)`.
    pub fn minus2(&mut self, a: TermId, b: TermId) -> TermId {
        self.intern(Op::Minus, &[a, b])
    }

    /// Interns `IfThenElse(c, t, e)`; `c` must be Boolean-sorted.
    pub fn ite3(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        self.try_intern(Op::IfThenElse, &[c, t, e])
            .expect("ite over a Boolean guard and integer branches")
    }

    /// Interns `LessThan(a, b)`.
    pub fn less_than2(&mut self, a: TermId, b: TermId) -> TermId {
        self.intern(Op::LessThan, &[a, b])
    }

    // -- accessors ---------------------------------------------------------

    /// The root operator of an interned term.
    pub fn op(&self, id: TermId) -> Op {
        self.nodes[id.index()].op
    }

    /// The child ids of an interned term (each strictly smaller than `id`).
    pub fn children(&self, id: TermId) -> &[TermId] {
        let node = &self.nodes[id.index()];
        let start = node.children_start as usize;
        &self.child_pool[start..start + node.children_len as usize]
    }

    /// The sort of an interned term.
    pub fn sort(&self, id: TermId) -> Sort {
        self.op(id).sort()
    }

    /// Number of nodes in the *tree* the id denotes (with duplication —
    /// structural sharing can make this exponentially larger than the
    /// number of distinct subterms). `O(1)`: sizes are computed at intern
    /// time from the children's sizes.
    pub fn size(&self, id: TermId) -> u64 {
        self.sizes[id.index()]
    }

    /// Height of the term a leaf has height 1. Iterative (explicit stack).
    pub fn height(&self, id: TermId) -> usize {
        // memo-free two-phase DFS over the distinct subterms of `id`
        let mut heights: HashMap<TermId, usize> = HashMap::new();
        let mut stack = vec![id];
        while let Some(&top) = stack.last() {
            if heights.contains_key(&top) {
                stack.pop();
                continue;
            }
            let pending: Vec<TermId> = self
                .children(top)
                .iter()
                .copied()
                .filter(|c| !heights.contains_key(c))
                .collect();
            if pending.is_empty() {
                let h = 1 + self
                    .children(top)
                    .iter()
                    .map(|c| heights[c])
                    .max()
                    .unwrap_or(0);
                heights.insert(top, h);
                stack.pop();
            } else {
                stack.extend(pending);
            }
        }
        heights[&id]
    }

    // -- conversion to/from the owned tree ---------------------------------

    /// Interns an owned [`Term`] bottom-up, sharing every subterm already
    /// in the arena. Iterative (explicit stack), so deeply nested terms
    /// cannot overflow the call stack.
    pub fn intern_term(&mut self, term: &Term) -> TermId {
        struct Frame<'a> {
            term: &'a Term,
            next_child: usize,
            child_ids: Vec<TermId>,
        }
        let mut stack = vec![Frame {
            term,
            next_child: 0,
            child_ids: Vec::with_capacity(term.children().len()),
        }];
        let mut result = None;
        while let Some(frame) = stack.last_mut() {
            if frame.next_child < frame.term.children().len() {
                let child = &frame.term.children()[frame.next_child];
                frame.next_child += 1;
                stack.push(Frame {
                    term: child,
                    next_child: 0,
                    child_ids: Vec::with_capacity(child.children().len()),
                });
            } else {
                let frame = stack.pop().expect("non-empty stack");
                let op = self.op_from_symbol(frame.term.symbol());
                let id = self.intern(op, &frame.child_ids);
                match stack.last_mut() {
                    Some(parent) => parent.child_ids.push(id),
                    None => result = Some(id),
                }
            }
        }
        result.expect("interning always produces a root id")
    }

    /// Extracts the owned [`Term`] tree behind an id. Iterative; note the
    /// result is a *tree*, so extracting a heavily shared DAG materializes
    /// every duplicate (check [`TermArena::size`] first when in doubt).
    pub fn extract(&self, id: TermId) -> Term {
        struct Frame {
            id: TermId,
            next_child: usize,
            children: Vec<Term>,
        }
        let mut stack = vec![Frame {
            id,
            next_child: 0,
            children: Vec::with_capacity(self.children(id).len()),
        }];
        let mut result = None;
        while let Some(frame) = stack.last_mut() {
            let child_ids = self.children(frame.id);
            if frame.next_child < child_ids.len() {
                let child = child_ids[frame.next_child];
                frame.next_child += 1;
                stack.push(Frame {
                    id: child,
                    next_child: 0,
                    children: Vec::with_capacity(self.children(child).len()),
                });
            } else {
                let frame = stack.pop().expect("non-empty stack");
                let symbol = self.symbol_of_op(self.op(frame.id));
                let term = Term::apply(symbol, frame.children)
                    .expect("interned terms are well-sorted by construction");
                match stack.last_mut() {
                    Some(parent) => parent.children.push(term),
                    None => result = Some(term),
                }
            }
        }
        result.expect("extraction always produces a root term")
    }
}

impl std::fmt::Debug for TermArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TermArena")
            .field("terms", &self.nodes.len())
            .field("vars", &self.var_names.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_shares_structure() {
        let mut arena = TermArena::new();
        let x = arena.var_leaf("x");
        let one = arena.num(1);
        let a = arena.plus2(x, one);
        let b = arena.plus2(x, one);
        assert_eq!(a, b);
        assert_eq!(arena.len(), 3);
        // a structurally identical term built through the owned tree shares
        let owned = Term::plus(Term::var("x"), Term::num(1));
        assert_eq!(arena.intern_term(&owned), a);
        assert_eq!(arena.len(), 3, "no new nodes for a known structure");
    }

    #[test]
    fn children_have_smaller_ids() {
        let mut arena = TermArena::new();
        let x = arena.var_leaf("x");
        let s = arena.plus2(x, x);
        let t = arena.minus2(s, x);
        for &id in [s, t].iter() {
            for &c in arena.children(id) {
                assert!(c < id);
            }
        }
    }

    #[test]
    fn size_is_tree_size_even_under_sharing() {
        let mut arena = TermArena::new();
        let x = arena.var_leaf("x");
        // full binary tree of depth 40 as a 40-node DAG
        let mut t = x;
        for _ in 0..40 {
            t = arena.plus2(t, t);
        }
        assert_eq!(arena.size(t), (1u64 << 41) - 1);
        assert!(arena.len() <= 41);
        assert_eq!(arena.height(t), 41);
    }

    #[test]
    fn round_trip_matches_the_owned_tree() {
        let mut arena = TermArena::new();
        let owned = Term::ite(
            Term::less_than(Term::var("x"), Term::num(2)),
            Term::plus(Term::var("y"), Term::num(1)),
            Term::neg_var("x"),
        )
        .unwrap();
        let id = arena.intern_term(&owned);
        assert_eq!(arena.extract(id), owned);
        assert_eq!(arena.size(id), owned.size() as u64);
        let extracted = arena.extract(id);
        assert_eq!(arena.intern_term(&extracted), id);
    }

    #[test]
    fn try_intern_validates_like_term_apply() {
        let mut arena = TermArena::new();
        let x = arena.var_leaf("x");
        assert!(arena.try_intern(Op::And, &[x, x]).is_err());
        assert!(arena.try_intern(Op::Minus, &[x]).is_err());
        assert!(arena.try_intern(Op::Plus, &[]).is_err());
        let lt = arena.try_intern(Op::LessThan, &[x, x]).unwrap();
        assert!(arena.try_intern(Op::And, &[lt, lt]).is_ok());
    }

    #[test]
    fn variables_intern_once() {
        let mut arena = TermArena::new();
        let a = arena.var("x");
        let b = arena.var("x");
        let c = arena.var("y");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(arena.var_name(a), "x");
        assert_eq!(arena.num_vars(), 2);
        let sym = Symbol::NegVar("y".to_string());
        let op = arena.op_from_symbol(&sym);
        assert_eq!(arena.symbol_of_op(op), sym);
    }

    #[test]
    fn deep_interning_does_not_recurse() {
        // a left-leaning chain of 100_000 Plus nodes: explicit-stack
        // interning, extraction and size must all survive it
        let mut arena = TermArena::new();
        let one = arena.num(1);
        let mut t = one;
        for _ in 0..100_000 {
            t = arena.plus2(t, one);
        }
        assert_eq!(arena.size(t), 200_001);
        assert_eq!(arena.height(t), 100_001);
    }
}
