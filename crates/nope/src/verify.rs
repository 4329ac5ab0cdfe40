//! Verification of the non-deterministic recursive program: is the "bad"
//! location (a run of the entry procedure whose return value satisfies the
//! specification on every example) reachable?
//!
//! The original nope hands the program to an off-the-shelf software verifier
//! (SeaHorn), which turns it into constrained Horn clauses for Spacer. In
//! this reproduction the same obligations are discharged with
//!
//! * a **bounded concrete exploration** of the program's runs, which can
//!   find a reachable good run and hence prove realizability of `sy_E`, and
//! * the **Horn back end** of the `chc` crate, the one nayHorn and the
//!   presolve use: the program has one procedure per nonterminal and one
//!   branch per production, so the interval × congruence fixpoint of
//!   [`HornSolver::analyze`] over the grammar is the fixpoint of the
//!   program, and an unsatisfiable [`refutation_query`] proves the bad
//!   location unreachable, i.e. the problem unrealizable.
//!
//! The exploration runs on the program IR: the indirection through the
//! encoding is the overhead the paper observes when comparing nope against
//! nayHorn.

use crate::program::{ProgExpr, Program};
use chc::{refutation_query, HornSolver};
use logic::{stop_requested, Solver, SolverResult};
use std::collections::BTreeMap;
use sygus::{ExampleSet, Grammar, Op, Spec, Term, TermArena, TermId};

/// The verdict of the nope-style reachability analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NopeVerdict {
    /// The bad location is unreachable: `sy_E` (and hence `sy`) is
    /// unrealizable.
    Unrealizable,
    /// A concrete run reaching the bad location was found: `sy_E` is
    /// realizable (the returned vector is the witness output).
    RealizableOnExamples(Vec<i64>),
    /// Neither analysis was conclusive.
    Unknown,
    /// [`NopeSolver::check_cancellable`](crate::NopeSolver::check_cancellable)'s
    /// token tripped before the check reached a definitive verdict
    /// (portfolio racing: the other engine answered first, or the deadline
    /// passed).
    Cancelled,
}

impl NopeVerdict {
    /// Stable lower-case name used by the benchmark report
    /// (`unrealizable`, `realizable`, `unknown`, `cancelled`).
    pub fn name(&self) -> &'static str {
        match self {
            NopeVerdict::Unrealizable => "unrealizable",
            NopeVerdict::RealizableOnExamples(_) => "realizable",
            NopeVerdict::Unknown => "unknown",
            NopeVerdict::Cancelled => "cancelled",
        }
    }
}

/// Everything [`ProgramVerifier::check`] reports alongside the verdict.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// The combined verdict of both analyses.
    pub verdict: NopeVerdict,
    /// Kleene rounds of the Horn back end's fixpoint (0 when the bounded
    /// search already decided the verdict).
    pub abstract_iterations: usize,
    /// Number of witness-log nodes the bounded search recorded while
    /// exploring reachable vectors (its peak size — the log only grows;
    /// terms are hash-consed into a [`TermArena`] only when a witness is
    /// demanded).
    pub arena_terms: usize,
    /// The witness *term* behind a
    /// [`NopeVerdict::RealizableOnExamples`] verdict: a term of `L(G)`
    /// whose output vector satisfies the specification on every example.
    pub witness: Option<Term>,
}

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

/// A witness the expression evaluator has not logged yet. Candidate
/// vectors are produced far faster than they survive dedup, so the
/// per-combination fast path only records *how* a vector was built (a few
/// words, no allocation); a [`WitnessLog`] node is appended once per
/// vector that actually enters a reachable set.
#[derive(Clone, Copy)]
enum LazyWitness {
    /// Already logged: leaves and procedure-call results.
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

/// Cap on the number of distinct concrete vectors tracked per procedure.
const MAX_VECTORS: usize = 2000;

/// The program verifier: a bounded search for a good run, then `chc`'s
/// refutation of every run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProgramVerifier;

impl ProgramVerifier {
    /// Decides whether `program`, which must be
    /// [`Program::from_grammar`]`(grammar, examples)`, reaches its bad
    /// location: the bounded search looks for a good run (the witness
    /// vector and term), and when it finds none, [`HornSolver::analyze`]'s
    /// fixpoint over `grammar` and [`refutation_query`] try to prove that
    /// no run is good.
    ///
    /// Inside a [`logic::interruptible`] scope the bounded search and the
    /// fixpoint poll the stop hook once per round, and the final query per
    /// solver step; a stopped check answers [`NopeVerdict::Unknown`]
    /// unless it had already found a witness.
    pub fn check(
        &self,
        grammar: &Grammar,
        program: &Program,
        examples: &ExampleSet,
        spec: &Spec,
    ) -> CheckOutcome {
        let done = |verdict, abstract_iterations, arena_terms, witness| CheckOutcome {
            verdict,
            abstract_iterations,
            arena_terms,
            witness,
        };
        if examples.is_empty() {
            return done(NopeVerdict::Unknown, 0, 0, None);
        }
        // 1. bounded concrete exploration: can we reach the bad location?
        let mut arena = TermArena::new();
        let mut log = WitnessLog::default();
        if let Some((witness_vector, witness_ref)) =
            self.explore(program, examples, spec, &mut arena, &mut log)
        {
            let witness_id = log.intern_into(&mut arena, witness_ref);
            let witness = arena.extract(witness_id);
            return done(
                NopeVerdict::RealizableOnExamples(witness_vector),
                0,
                log.len(),
                Some(witness),
            );
        }
        let arena_terms = log.len();
        // 2. the Horn back end: is the bad location provably unreachable?
        let (values, iterations) = HornSolver::new().analyze(grammar, examples);
        let refuted = values.is_some_and(|values| {
            let query = refutation_query(&values[grammar.start()], examples, spec);
            Solver::default().check(&query) == SolverResult::Unsat
        });
        let verdict = if refuted {
            NopeVerdict::Unrealizable
        } else {
            NopeVerdict::Unknown
        };
        done(verdict, iterations, arena_terms, None)
    }

    /// Bounded unrolling of the recursive program: computes, per procedure,
    /// the set of return vectors realizable within the unrolling depth and
    /// checks the assertion against those of the entry procedure. It polls
    /// the [`logic`] stop hook once per unrolling round; a stopped search
    /// returns `None` (no witness found). Every reachable vector carries
    /// the [`WitnessLog`] index of
    /// the first term found producing it — witnesses stay
    /// [`LazyWitness`]es on the per-combination fast path, vectors
    /// surviving dedup append one log node (no hash-consing), and the
    /// arena only sees the single chain a demanded witness needs, so the
    /// vector sets (and with them every verdict) are exactly the
    /// pre-arena ones.
    fn explore(
        &self,
        program: &Program,
        examples: &ExampleSet,
        spec: &Spec,
        arena: &mut TermArena,
        log: &mut WitnessLog,
    ) -> Option<(Vec<i64>, u32)> {
        let n = program.procedures.len();
        let mut reachable: Vec<BTreeMap<Vec<i64>, u32>> = vec![BTreeMap::new(); n];
        let mut trail: Vec<(u32, u32)> = Vec::new();
        for _ in 0..UNROLL_DEPTH {
            if stop_requested() {
                return None;
            }
            let mut changed = false;
            for (i, proc_) in program.procedures.iter().enumerate() {
                let mut new_vectors: BTreeMap<Vec<i64>, u32> = BTreeMap::new();
                for branch in &proc_.branches {
                    self.eval_bounded(
                        branch,
                        &reachable,
                        program.dim,
                        arena,
                        log,
                        &mut trail,
                        &mut new_vectors,
                    );
                    if new_vectors.len() > MAX_VECTORS {
                        break;
                    }
                }
                for (v, w) in new_vectors {
                    if reachable[i].len() >= MAX_VECTORS {
                        break;
                    }
                    if let std::collections::btree_map::Entry::Vacant(slot) = reachable[i].entry(v)
                    {
                        slot.insert(w);
                        changed = true;
                    }
                }
            }
            // check the assertion on the entry procedure's vectors
            for (v, w) in &reachable[program.entry] {
                let good = examples
                    .iter()
                    .enumerate()
                    .all(|(j, e)| spec.holds(e, v[j]));
                if good {
                    return Some((v.clone(), *w));
                }
            }
            if !changed {
                break;
            }
        }
        None
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_bounded(
        &self,
        expr: &ProgExpr,
        reachable: &[BTreeMap<Vec<i64>, u32>],
        dim: usize,
        arena: &mut TermArena,
        log: &mut WitnessLog,
        trail: &mut Vec<(u32, u32)>,
        out: &mut BTreeMap<Vec<i64>, u32>,
    ) {
        trail.clear();
        let entries = self.eval_expr(expr, reachable, dim, arena, log, trail);
        for (v, w) in entries {
            if out.len() >= MAX_VECTORS {
                return;
            }
            if let std::collections::btree_map::Entry::Vacant(slot) = out.entry(v) {
                slot.insert(log_witness(log, trail, w));
            }
        }
    }

    /// Resolves every entry's witness to a log index (used where lazy
    /// witnesses become children of another node).
    fn forced(
        log: &mut WitnessLog,
        trail: &[(u32, u32)],
        entries: Vec<(Vec<i64>, LazyWitness)>,
    ) -> Vec<(Vec<i64>, u32)> {
        entries
            .into_iter()
            .map(|(v, w)| (v, log_witness(log, trail, w)))
            .collect()
    }

    /// Evaluates one branch expression to the vectors it can produce, each
    /// paired with a lazy witness. The enumeration (and capping) order is
    /// exactly the pre-arena one.
    #[allow(clippy::too_many_arguments)]
    fn eval_expr(
        &self,
        expr: &ProgExpr,
        reachable: &[BTreeMap<Vec<i64>, u32>],
        dim: usize,
        arena: &mut TermArena,
        log: &mut WitnessLog,
        trail: &mut Vec<(u32, u32)>,
    ) -> Vec<(Vec<i64>, LazyWitness)> {
        type Valued = Vec<(Vec<i64>, LazyWitness)>;
        // `f` answers `None` on i64 overflow, which drops the combination:
        // the search only collects witnesses, so a skipped run is sound,
        // while a wrapped one could be a false witness.
        let combine2 = |a: Vec<(Vec<i64>, u32)>,
                        b: Vec<(Vec<i64>, u32)>,
                        f: &dyn Fn(i64, i64) -> Option<i64>,
                        op: Op| {
            let mut out: Valued = Vec::new();
            'outer: for (xv, xw) in &a {
                for (yv, yw) in &b {
                    let Some(vector) = (0..dim).map(|j| f(xv[j], yv[j])).collect() else {
                        continue;
                    };
                    out.push((vector, LazyWitness::Bin(op, *xw, *yw)));
                    if out.len() >= MAX_VECTORS {
                        break 'outer;
                    }
                }
            }
            out
        };
        // Evaluates a child expression with every witness forced (children
        // of compound nodes must be log indices; in the programs
        // `from_grammar` builds, children are `Call`/`Const` and forcing
        // is a no-op).
        macro_rules! child {
            ($e:expr) => {{
                let entries = self.eval_expr($e, reachable, dim, arena, log, trail);
                Self::forced(log, trail, entries)
            }};
        }
        match expr {
            ProgExpr::Const(v, symbol) => {
                let op = arena.op_from_symbol(symbol);
                vec![(v.clone(), LazyWitness::Ready(log.push(op, &[])))]
            }
            ProgExpr::Call(p) => reachable[*p]
                .iter()
                .map(|(v, w)| (v.clone(), LazyWitness::Ready(*w)))
                .collect(),
            ProgExpr::Add(xs) => {
                // n-ary: witnesses accumulate as cons-list heads into the
                // trail (one O(1) push per combination), and the one Plus
                // node with the production's arity is only built for
                // vectors that survive dedup.
                let mut acc: Vec<(Vec<i64>, u32)> = vec![(vec![0i64; dim], NIL)];
                for x in xs {
                    let vals = child!(x);
                    let mut next = Vec::new();
                    'outer: for (av, ahead) in &acc {
                        for (bv, bw) in &vals {
                            let Some(sum) = (0..dim).map(|j| av[j].checked_add(bv[j])).collect()
                            else {
                                continue;
                            };
                            trail.push((*ahead, *bw));
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
            ProgExpr::Sub(a, b) => combine2(child!(a), child!(b), &i64::checked_sub, Op::Minus),
            ProgExpr::Less(a, b) => combine2(
                child!(a),
                child!(b),
                &|x, y| Some(i64::from(x < y)),
                Op::LessThan,
            ),
            ProgExpr::Equal(a, b) => combine2(
                child!(a),
                child!(b),
                &|x, y| Some(i64::from(x == y)),
                Op::Equal,
            ),
            ProgExpr::And(a, b) => combine2(child!(a), child!(b), &|x, y| Some(x & y), Op::And),
            ProgExpr::Or(a, b) => combine2(child!(a), child!(b), &|x, y| Some(x | y), Op::Or),
            ProgExpr::Not(a) => child!(a)
                .into_iter()
                .map(|(v, w)| {
                    (
                        v.into_iter().map(|x| 1 - x).collect(),
                        LazyWitness::Un(Op::Not, w),
                    )
                })
                .collect(),
            ProgExpr::Ite(c, t, e) => {
                let guards = child!(c);
                let thens = child!(t);
                let elses = child!(e);
                let mut out: Valued = Vec::new();
                'outer: for (gv, gw) in &guards {
                    for (tv, tw) in &thens {
                        for (ev, ew) in &elses {
                            let vector = (0..dim)
                                .map(|j| if gv[j] == 1 { tv[j] } else { ev[j] })
                                .collect();
                            out.push((vector, LazyWitness::Tri(Op::IfThenElse, *gw, *tw, *ew)));
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use logic::{LinearExpr, Var};
    use sygus::{Grammar, GrammarBuilder, Sort, Symbol};

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

    /// [`ProgramVerifier::check`] on the grammar's program.
    fn check(grammar: &Grammar, examples: &ExampleSet, spec: &Spec) -> CheckOutcome {
        let program = Program::from_grammar(grammar, examples);
        ProgramVerifier.check(grammar, &program, examples, spec)
    }

    #[test]
    fn unreachability_proves_unrealizability() {
        let examples = ExampleSet::for_single_var("x", [1]);
        let verdict = check(&g1(), &examples, &spec_2x_plus_2()).verdict;
        assert_eq!(verdict, NopeVerdict::Unrealizable);
    }

    #[test]
    fn bounded_search_finds_good_runs() {
        // With x = 2 the output 6 is producible (3·2), so the bad location is
        // reachable and the verifier reports the witness.
        let examples = ExampleSet::for_single_var("x", [2]);
        match check(&g1(), &examples, &spec_2x_plus_2()).verdict {
            NopeVerdict::RealizableOnExamples(witness) => assert_eq!(witness, vec![6]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bounded_search_reconstructs_a_derivable_witness_term() {
        // The lazy witnesses threaded through the exploration must denote a
        // real grammar term whose outputs are the good vector.
        let grammar = g1();
        let examples = ExampleSet::for_single_var("x", [2]);
        let outcome = check(&grammar, &examples, &spec_2x_plus_2());
        let NopeVerdict::RealizableOnExamples(vector) = outcome.verdict else {
            panic!("x = 2 has the good run 3·2 = 6, got {:?}", outcome.verdict);
        };
        let term = outcome
            .witness
            .expect("a good run carries its witness term");
        assert_eq!(vector, vec![6]);
        assert!(
            grammar.contains_term(&term),
            "witness {term} must be in L(G)"
        );
        let out = term.eval_on(&examples).unwrap();
        assert_eq!(out, sygus::Output::Int(vector));
        assert!(outcome.arena_terms > 0);
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
        let outcome = check(&grammar, &examples, &spec);
        let (NopeVerdict::RealizableOnExamples(vector), Some(term)) =
            (outcome.verdict, outcome.witness)
        else {
            panic!("the constant 7 is derivable");
        };
        assert_eq!(vector, vec![7]);
        assert!(grammar.contains_term(&term), "witness {term} not in L(G)");
        assert_eq!(term.eval_on(&examples).unwrap(), sygus::Output::Int(vector));
    }

    #[test]
    fn coarse_abstraction_yields_unknown() {
        // Gconst with spec f(x) > x on x = 1: realizable... the bounded search
        // will find 2 > 1 quickly, so this is actually Realizable; to force
        // Unknown we use a spec that is unrealizable but not refutable by the
        // interval/congruence domain: f(x) = 7 over sums of 1 and 2 with at
        // least... sums of {1,2} eventually hit 7, so pick f(x) = 0 instead:
        // all sums are ≥ 1, interval refutes it — still Unrealizable. A truly
        // Unknown case needs values that the domain cannot separate, e.g.
        // f(x) = x over a grammar producing 1 and 3 only (x = 2):
        // join(1, 3) = [1,3] with modulus 2 … 2 is even, 1 and 3 are odd, so
        // the congruence does refute it. Use modulus-breaking constants 1, 2
        // and target 3 ∉ {1,2} but 3 ∈ [1,2]∪… join(1,2) = [1,2] top modulus;
        // target 3 is outside the interval → still refuted. Final choice:
        // constants 1 and 4, target 3: join = [1,4], gcd(3) → 1 mod 3;
        // 3 ≢ 1 (mod 3) → refuted again. The point stands that the domain is
        // strong on constant sets, so instead take a recursive grammar whose
        // language is {1, 4, 7, …} ∪ {2}: join breaks both components.
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
        let verdict = check(&grammar, &examples, &spec).verdict;
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
        let outcome = check(&grammar, &examples, &spec);
        // the fixpoint ran to chc's cap of 100 rounds without converging
        assert_eq!(outcome.abstract_iterations, 100);
        assert_eq!(outcome.verdict, NopeVerdict::Unknown);
    }
}
