//! Per-family problem construction.
//!
//! Every `build_*` function draws an instance's knobs from its own
//! [`GenRng`] stream and returns the problem *together with* the verdict
//! class the construction guarantees — and, for realizable instances, a
//! concrete witness term in the grammar's language. The verdict arguments
//! are spelled out per family; they are what the fuzzing oracle gates on,
//! so they must be airtight.

use crate::families::{Expectation, Family, FamilySpec, Scale, SignSkew};
use crate::rng::GenRng;
use logic::{Formula, LinearExpr, Var};
use sygus::{GrammarBuilder, Problem, Sort, Spec, Symbol, Term};

/// A freshly built instance: the problem, its by-construction verdict
/// class, and (when realizable) a witness term derivable from the
/// grammar's start symbol that satisfies the specification.
#[derive(Clone, Debug)]
pub struct Built {
    /// The generated problem (named by the stream, not the builder).
    pub problem: Problem,
    /// The verdict class guaranteed by the construction.
    pub expected: Expectation,
    /// A solution term, present iff `expected` is
    /// [`Expectation::Realizable`].
    pub witness: Option<Term>,
}

/// Builds one instance of `family` from the given stream.
pub fn build(family: Family, rng: &mut GenRng, scale: &Scale) -> Built {
    match family {
        Family::PlusMod => build_plus_mod(rng, scale),
        Family::ConstSum => build_const_sum(rng, scale),
        Family::GuardedConst => build_guarded_const(rng, scale),
        Family::PbePoints => build_pbe_points(rng, scale),
        Family::MaxGap => build_max_gap(rng, scale),
        spec_driven => build_from_spec(
            spec_driven
                .spec()
                .expect("non-hand-written families carry a FamilySpec"),
            rng,
            scale,
        ),
    }
}

fn out() -> LinearExpr {
    LinearExpr::var(Spec::output_var())
}

fn x() -> LinearExpr {
    LinearExpr::var(Var::new("x"))
}

/// `k` distinct integers in `lo..=hi`, sorted ascending.
fn distinct_points(rng: &mut GenRng, k: usize, lo: i64, hi: i64) -> Vec<i64> {
    assert!(
        (hi - lo + 1) as usize >= k,
        "range too small for {k} points"
    );
    let mut points: Vec<i64> = Vec::with_capacity(k);
    while points.len() < k {
        let p = rng.range_i64(lo, hi);
        if !points.contains(&p) {
            points.push(p);
        }
    }
    points.sort_unstable();
    points
}

/// `⋀ⱼ (x = aⱼ ⇒ f = vⱼ)` — the point-wise spec shared by the
/// `guarded_const` and `pbe_points` families.
fn pointwise_spec(points: &[(i64, i64)]) -> Spec {
    let conjuncts: Vec<Formula> = points
        .iter()
        .map(|&(a, v)| {
            Formula::implies(
                Formula::eq(x(), LinearExpr::constant(a)),
                Formula::eq(out(), LinearExpr::constant(v)),
            )
        })
        .collect();
    Spec::new(Formula::and(conjuncts), vec!["x".to_string()], Sort::Int)
}

// ---------------------------------------------------------------------------
// plus_mod — the §2 chain shape, scaled by grammar depth
// ---------------------------------------------------------------------------

/// Grammar: `Start ::= S₁ + Start | 0`, `Sᵢ ::= Sᵢ₊₁ + Sᵢ₊₁` (i < d),
/// `S_d ::= x`. Every `S₁` derivation is a full binary tree of `x` leaves,
/// so `S₁` evaluates to exactly `M·x` with `M = 2^(d−1)`, and `Start`
/// derives exactly `{m·M·x : m ≥ 0}`.
///
/// Spec `f(x) = c·x + r` is therefore realizable iff `r = 0 ∧ c ≥ 0 ∧
/// c ≡ 0 (mod M)`; the unrealizable sub-cases each violate one conjunct.
fn build_plus_mod(rng: &mut GenRng, scale: &Scale) -> Built {
    let depth = rng.range_i64(1, scale.max_depth.max(1) as i64) as usize;
    let modulus = 1i64 << (depth - 1);

    let mut builder = GrammarBuilder::new("Start").nonterminal("Start", Sort::Int);
    for i in 1..=depth {
        builder = builder.nonterminal(format!("S{i}"), Sort::Int);
    }
    builder = builder
        .production("Start", Symbol::Plus, &["S1", "Start"])
        .production("Start", Symbol::Num(0), &[]);
    for i in 1..depth {
        let next = format!("S{}", i + 1);
        builder = builder.production(&format!("S{i}"), Symbol::Plus, &[&next, &next]);
    }
    builder = builder.production(&format!("S{depth}"), Symbol::Var("x".to_string()), &[]);
    let grammar = builder.build().expect("plus_mod grammar is well-formed");

    let realizable = rng.chance(scale.realizable_percent);
    let (coefficient, offset, witness) = if realizable {
        // Keep the witness inside the exact engine's default search budget:
        // an m-summand witness has size m·(2^d − 1) + m + 1.
        let max_m = if depth >= 3 { 1 } else { 2 };
        let m = rng.range_i64(0, max_m);
        (m * modulus, 0, Some(plus_mod_witness(depth, m as usize)))
    } else {
        // Violate exactly one of the three realizability conjuncts.
        let mode = rng.index(if modulus > 1 { 3 } else { 2 });
        match mode {
            // r ≠ 0: at x = 0 every term evaluates to 0 but the spec wants r.
            0 => {
                let mut r = rng.range_i64(-scale.max_magnitude, scale.max_magnitude);
                if r == 0 {
                    r = 1;
                }
                (rng.range_i64(0, 3) * modulus, r, None)
            }
            // c < 0 (and r = 0): m·M·x = c·x needs m = c/M < 0.
            1 => (-modulus * rng.range_i64(1, 3), 0, None),
            // c ≢ 0 (mod M): only distinct from the above when M > 1.
            _ => {
                let m = rng.range_i64(0, 2);
                let residue = rng.range_i64(1, modulus - 1);
                (m * modulus + residue, 0, None)
            }
        }
    };
    let spec = Spec::output_equals(
        x().scale(coefficient) + LinearExpr::constant(offset),
        vec!["x".to_string()],
    );
    Built {
        problem: Problem::new("plus_mod", grammar, spec),
        expected: if realizable {
            Expectation::Realizable
        } else {
            Expectation::Unrealizable
        },
        witness,
    }
}

/// The witness `m·2^(d−1)·x` as a `Start` derivation: `m` copies of the
/// full `S₁` tree folded over `Start ::= S₁ + Start | 0`.
fn plus_mod_witness(depth: usize, m: usize) -> Term {
    let mut level = Term::var("x");
    for _ in 1..depth {
        level = Term::plus(level.clone(), level);
    }
    let mut term = Term::num(0);
    for _ in 0..m {
        term = Term::plus(level.clone(), term);
    }
    term
}

// ---------------------------------------------------------------------------
// const_sum — constant sums, scaled by magnitude
// ---------------------------------------------------------------------------

/// Grammar: `Start ::= c | Start + Start` with a single non-zero constant
/// `c`, so `L(G)` evaluates to exactly `{m·c : m ≥ 1}`. Spec `f(x) = t` is
/// realizable iff `t` is a positive multiple of `c` (same sign, |t| ≥ |c|).
fn build_const_sum(rng: &mut GenRng, scale: &Scale) -> Built {
    let magnitude = scale.max_magnitude.max(1);
    let sign = if rng.chance(50) { 1 } else { -1 };
    let constant = sign * rng.range_i64(1, magnitude);

    let grammar = GrammarBuilder::new("Start")
        .nonterminal("Start", Sort::Int)
        .production("Start", Symbol::Num(constant), &[])
        .production("Start", Symbol::Plus, &["Start", "Start"])
        .build()
        .expect("const_sum grammar is well-formed");

    let realizable = rng.chance(scale.realizable_percent);
    let (target, witness) = if realizable {
        let m = rng.range_i64(1, 4);
        let mut term = Term::num(constant);
        for _ in 1..m {
            term = Term::plus(Term::num(constant), term);
        }
        (m * constant, Some(term))
    } else {
        // Draw until the target is *not* a positive multiple of c.
        loop {
            let t = rng.range_i64(-4 * magnitude, 4 * magnitude);
            let is_multiple = t != 0 && t % constant == 0 && t / constant >= 1;
            if !is_multiple {
                break (t, None);
            }
        }
    };
    let spec = Spec::output_equals(LinearExpr::constant(target), vec!["x".to_string()]);
    Built {
        problem: Problem::new("const_sum", grammar, spec),
        expected: if realizable {
            Expectation::Realizable
        } else {
            Expectation::Unrealizable
        },
        witness,
    }
}

// ---------------------------------------------------------------------------
// guarded_const — piecewise constants under ite, scaled by nesting/points
// ---------------------------------------------------------------------------

/// Grammar: `Start ::= c₁ | c₂ | ite(B, Start, Start)`,
/// `B ::= X < Gc [| and(B,B) | not(B)]`, `X ::= x`, `Gc ::= g…`. Every
/// term denotes a piecewise-constant function whose *values* all lie in
/// `{c₁, c₂}` — guards only choose between branches, they never produce
/// values.
///
/// Spec: `⋀ⱼ (x = aⱼ ⇒ f = vⱼ)`. Realizable instances take every `vⱼ`
/// from the value set and put the separating thresholds `a₂ … a_k` in the
/// grammar, so a nested-ite witness exists. Unrealizable instances demand
/// one `vⱼ` outside the value set — no term can produce it at `x = aⱼ`.
fn build_guarded_const(rng: &mut GenRng, scale: &Scale) -> Built {
    let magnitude = scale.max_magnitude.max(2);
    let values = distinct_points(rng, 2, -magnitude, magnitude);
    let k = rng.range_i64(2, scale.max_points.max(2) as i64) as usize;
    let points = distinct_points(rng, k, -20, 20);
    let nesting = rng.range_i64(1, scale.max_nesting.max(1) as i64) as usize;

    let realizable = rng.chance(scale.realizable_percent);
    let assignments: Vec<(i64, i64)> = if realizable {
        points.iter().map(|&a| (a, *rng.choose(&values))).collect()
    } else {
        // One point demands a value no grammar term can ever produce.
        let bad_index = rng.index(points.len());
        let bad_value = values.iter().max().unwrap() + rng.range_i64(1, magnitude);
        points
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                if i == bad_index {
                    (a, bad_value)
                } else {
                    (a, *rng.choose(&values))
                }
            })
            .collect()
    };

    // Thresholds: the separators the witness needs (every interior point),
    // plus one decoy so threshold choice is not forced.
    let mut thresholds: Vec<i64> = points[1..].to_vec();
    let decoy = rng.range_i64(-25, 25);
    if !thresholds.contains(&decoy) {
        thresholds.push(decoy);
    }

    let mut builder = GrammarBuilder::new("Start")
        .nonterminal("Start", Sort::Int)
        .nonterminal("B", Sort::Bool)
        .nonterminal("X", Sort::Int)
        .nonterminal("Gc", Sort::Int)
        .production("Start", Symbol::IfThenElse, &["B", "Start", "Start"])
        .production("B", Symbol::LessThan, &["X", "Gc"])
        .production("X", Symbol::Var("x".to_string()), &[]);
    for &v in &values {
        builder = builder.production("Start", Symbol::Num(v), &[]);
    }
    for &g in &thresholds {
        builder = builder.production("Gc", Symbol::Num(g), &[]);
    }
    if nesting >= 2 {
        builder = builder
            .production("B", Symbol::And, &["B", "B"])
            .production("B", Symbol::Not, &["B"]);
    }
    let grammar = builder
        .build()
        .expect("guarded_const grammar is well-formed");

    let witness = realizable.then(|| {
        // ite(x < a₂, v₁, ite(x < a₃, v₂, … v_k)) — the thresholds are the
        // *next* point, so each vⱼ is selected exactly on its point.
        let mut term = Term::num(assignments.last().unwrap().1);
        for j in (0..assignments.len() - 1).rev() {
            let guard = Term::less_than(Term::var("x"), Term::num(assignments[j + 1].0));
            term = Term::ite(guard, Term::num(assignments[j].1), term).expect("well-sorted ite");
        }
        term
    });
    Built {
        problem: Problem::new("guarded_const", grammar, pointwise_spec(&assignments)),
        expected: if realizable {
            Expectation::Realizable
        } else {
            Expectation::Unrealizable
        },
        witness,
    }
}

// ---------------------------------------------------------------------------
// pbe_points — affine PBE, scaled by example count
// ---------------------------------------------------------------------------

/// Realizable: grammar `Start ::= x | 0 | 1 | Start + Start` (which
/// denotes `{a·x + b : a, b ≥ 0}`), points sampled from a hidden target
/// `a*·x + b*` — the target itself is the witness.
///
/// Unrealizable: grammar without the `1` (denoting `{a·x : a ≥ 0}`) and
/// points forcing `f(2) ≠ 2·f(1)` — any `a·x` satisfies
/// `f(2) = 2·f(1)`, so no term fits.
fn build_pbe_points(rng: &mut GenRng, scale: &Scale) -> Built {
    let k = rng.range_i64(2, scale.max_points.max(2) as i64) as usize;
    let realizable = rng.chance(scale.realizable_percent);

    let mut builder = GrammarBuilder::new("Start")
        .nonterminal("Start", Sort::Int)
        .production("Start", Symbol::Var("x".to_string()), &[])
        .production("Start", Symbol::Num(0), &[])
        .production("Start", Symbol::Plus, &["Start", "Start"]);
    if realizable {
        builder = builder.production("Start", Symbol::Num(1), &[]);
    }
    let grammar = builder.build().expect("pbe_points grammar is well-formed");

    let (assignments, witness) = if realizable {
        // Hidden affine target with a witness inside the search budget
        // (size 2·(a* + b*) − 1 ≤ 9).
        let a_star = rng.range_i64(0, 2);
        let b_star = rng.range_i64(0, 3 - a_star.min(2));
        let points = distinct_points(rng, k, -10, 10);
        let assignments: Vec<(i64, i64)> =
            points.iter().map(|&a| (a, a_star * a + b_star)).collect();
        let mut parts: Vec<Term> = Vec::new();
        parts.extend((0..a_star).map(|_| Term::var("x")));
        parts.extend((0..b_star).map(|_| Term::num(1)));
        let witness = match parts.pop() {
            None => Term::num(0),
            Some(first) => parts.into_iter().fold(first, |acc, t| Term::plus(t, acc)),
        };
        (assignments, Some(witness))
    } else {
        // Points 1 and 2 with v₂ ≠ 2·v₁ rule out every a·x; the remaining
        // points add noise but cannot restore realizability.
        let v1 = rng.range_i64(-scale.max_magnitude, scale.max_magnitude);
        let mut delta = rng.range_i64(-3, 3);
        if delta == 0 {
            delta = 1;
        }
        let mut assignments = vec![(1, v1), (2, 2 * v1 + delta)];
        while assignments.len() < k {
            let a = rng.range_i64(-10, 10);
            if assignments.iter().all(|&(p, _)| p != a) {
                let v = rng.range_i64(-scale.max_magnitude, scale.max_magnitude);
                assignments.push((a, v));
            }
        }
        assignments.sort_unstable();
        (assignments, None)
    };
    Built {
        problem: Problem::new("pbe_points", grammar, pointwise_spec(&assignments)),
        expected: if realizable {
            Expectation::Realizable
        } else {
            Expectation::Unrealizable
        },
        witness,
    }
}

// ---------------------------------------------------------------------------
// max_gap — max(x, y) + g over a constant-free CLIA grammar
// ---------------------------------------------------------------------------

/// Grammar: `Start ::= x | y | 0 | Start + Start | ite(B, Start, Start)`,
/// `B ::= Start < Start [| and | not]`. Spec:
/// `f ≥ x + g ∧ f ≥ y + g ∧ (f = x + g ∨ f = y + g)`.
///
/// At `x = y = 0` every grammar term evaluates to `0` (all leaves are `0`
/// there and `+`/`ite` preserve it), but the spec forces `f(0,0) = g` — so
/// `g ≠ 0` is unrealizable. For `g = 0`, `ite(x < y, y, x)` is a witness.
fn build_max_gap(rng: &mut GenRng, scale: &Scale) -> Built {
    let nesting = rng.range_i64(1, scale.max_nesting.max(1) as i64) as usize;
    let mut builder = GrammarBuilder::new("Start")
        .nonterminal("Start", Sort::Int)
        .nonterminal("B", Sort::Bool)
        .production("Start", Symbol::Var("x".to_string()), &[])
        .production("Start", Symbol::Var("y".to_string()), &[])
        .production("Start", Symbol::Num(0), &[])
        .production("Start", Symbol::Plus, &["Start", "Start"])
        .production("Start", Symbol::IfThenElse, &["B", "Start", "Start"])
        .production("B", Symbol::LessThan, &["Start", "Start"]);
    if nesting >= 2 {
        builder = builder
            .production("B", Symbol::And, &["B", "B"])
            .production("B", Symbol::Not, &["B"]);
    }
    let grammar = builder.build().expect("max_gap grammar is well-formed");

    let realizable = rng.chance(scale.realizable_percent);
    let gap = if realizable {
        0
    } else {
        let sign = if rng.chance(50) { 1 } else { -1 };
        sign * rng.range_i64(1, scale.max_magnitude.max(1))
    };
    let y = LinearExpr::var(Var::new("y"));
    let fx = x() + LinearExpr::constant(gap);
    let fy = y + LinearExpr::constant(gap);
    let formula = Formula::and(vec![
        Formula::ge(out(), fx.clone()),
        Formula::ge(out(), fy.clone()),
        Formula::or(vec![Formula::eq(out(), fx), Formula::eq(out(), fy)]),
    ]);
    let spec = Spec::new(formula, vec!["x".to_string(), "y".to_string()], Sort::Int);
    let witness = realizable.then(|| {
        let guard = Term::less_than(Term::var("x"), Term::var("y"));
        Term::ite(guard, Term::var("y"), Term::var("x")).expect("well-sorted ite")
    });
    Built {
        problem: Problem::new("max_gap", grammar, spec),
        expected: if realizable {
            Expectation::Realizable
        } else {
            Expectation::Unrealizable
        },
        witness,
    }
}

// ---------------------------------------------------------------------------
// build_from_spec — the data-driven congruence-anchor interpreter
// ---------------------------------------------------------------------------

/// Builds one instance of a [`FamilySpec`]-driven family.
///
/// Grammar: `Start ::= c₁ | … | c_k | Start + Start [| x]
/// [| ite(B, Start, Start)]`, `B ::= Start < Start [| and | not]`, where
/// every `cᵢ` is a non-zero multiple of a per-instance **even** modulus
/// `g ≥ 2` whose sign follows `spec.sign`.
///
/// Verdict argument (the congruence anchor): at `x = 0` every `Int`-sorted
/// term evaluates to a multiple of `g` — leaves are `0` (the variable) or
/// `cᵢ ≡ 0 (mod g)`, `+` preserves the congruence, and `ite` only selects
/// between two terms that both satisfy it. The spec always contains the
/// anchor conjunct `x = 0 ⇒ f = t`, so:
///
/// * **unrealizable**: `t ≢ 0 (mod g)` — no term can hit `t` at the
///   anchor, regardless of the extra points;
/// * **realizable**: `t` is a sum of `m ≤ max_summands` pool constants and
///   every extra point demands the same value, so the constant sum term is
///   a witness.
///
/// `g` is kept even and unrealizable targets are biased toward odd `t`,
/// so even a parity argument settles a healthy share of these statically;
/// the presolve's congruence domain can see every `t ≢ 0 (mod g)`. The
/// `presolve-diff --require-presolved` CI gate needs at least one settled
/// instance per family.
fn build_from_spec(spec: &FamilySpec, rng: &mut GenRng, scale: &Scale) -> Built {
    let magnitude = scale.max_magnitude.max(2);
    let g = 2 * rng.range_i64(1, (magnitude / 2).max(1));

    // Distinct non-zero pool constants, all multiples of g.
    let k = rng.range_i64(spec.pool_min as i64, spec.pool_max as i64) as usize;
    let mut pool: Vec<i64> = Vec::with_capacity(k);
    while pool.len() < k {
        let m = rng.range_i64(1, spec.multiplier_cap);
        let sign = match spec.sign {
            SignSkew::Positive => 1,
            SignSkew::Negative => -1,
            SignSkew::Mixed => {
                if rng.chance(50) {
                    1
                } else {
                    -1
                }
            }
        };
        let c = sign * g * m;
        if !pool.contains(&c) {
            pool.push(c);
        }
    }
    pool.sort_unstable();

    let mut builder = GrammarBuilder::new("Start").nonterminal("Start", Sort::Int);
    for &c in &pool {
        builder = builder.production("Start", Symbol::Num(c), &[]);
    }
    builder = builder.production("Start", Symbol::Plus, &["Start", "Start"]);
    if spec.var_leaf {
        builder = builder.production("Start", Symbol::Var("x".to_string()), &[]);
    }
    if spec.ite {
        builder = builder
            .nonterminal("B", Sort::Bool)
            .production("Start", Symbol::IfThenElse, &["B", "Start", "Start"])
            .production("B", Symbol::LessThan, &["Start", "Start"]);
        let nesting = rng.range_i64(1, scale.max_nesting.max(1) as i64) as usize;
        if nesting >= 2 {
            builder = builder
                .production("B", Symbol::And, &["B", "B"])
                .production("B", Symbol::Not, &["B"]);
        }
    }
    let grammar = builder.build().expect("spec-driven grammar is well-formed");

    let realizable = rng.chance(spec.realizable_percent);
    let (anchor_value, witness) = if realizable {
        // t = a reachable sum of pool constants; the sum term itself is the
        // witness (a constant function, so it meets every spec point).
        let m = rng.range_i64(1, spec.max_summands);
        let first = *rng.choose(&pool);
        let mut total = first;
        let mut term = Term::num(first);
        for _ in 1..m {
            let c = *rng.choose(&pool);
            total += c;
            term = Term::plus(Term::num(c), term);
        }
        (total, Some(term))
    } else {
        // t = g·q + r with r ∈ 1..g: off the congruence class, so the
        // anchor alone refutes. Bias r odd (g is even, so t is then odd),
        // which a parity argument alone already refutes.
        let q = rng.range_i64(-2, 2);
        let r = if g > 2 && !rng.chance(70) {
            rng.range_i64(1, g - 1)
        } else {
            let odd_candidates: Vec<i64> = (1..g).step_by(2).collect();
            *rng.choose(&odd_candidates)
        };
        (g * q + r, None)
    };

    // The anchor point plus up to `extra_points_max` distinct non-zero
    // points. Realizable extras must agree with the constant witness;
    // unrealizable extras are pure noise (the anchor already refutes).
    let mut points: Vec<(i64, i64)> = vec![(0, anchor_value)];
    let extras = if spec.extra_points_max > 0 {
        rng.range_i64(0, spec.extra_points_max as i64) as usize
    } else {
        0
    };
    while points.len() < 1 + extras {
        let a = rng.range_i64(-20, 20);
        if a != 0 && points.iter().all(|&(p, _)| p != a) {
            let v = if realizable {
                anchor_value
            } else {
                rng.range_i64(-magnitude, magnitude)
            };
            points.push((a, v));
        }
    }
    points.sort_unstable();

    Built {
        problem: Problem::new(spec.name, grammar, pointwise_spec(&points)),
        expected: if realizable {
            Expectation::Realizable
        } else {
            Expectation::Unrealizable
        },
        witness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sygus::{Example, ExampleSet};

    /// Deterministic probe inputs covering the small-integer grid.
    fn probe_examples(problem: &Problem) -> ExampleSet {
        let vars: Vec<&String> = problem.spec().input_vars().iter().collect();
        let mut examples = ExampleSet::new();
        match vars.len() {
            1 => {
                // Wide enough to cover every point the point-wise families
                // can constrain (they draw from [-20, 20]).
                for v in -25..=25 {
                    examples.push(Example::from_pairs([(vars[0].clone(), v)]));
                }
            }
            2 => {
                for a in -4..=4 {
                    for b in -4..=4 {
                        examples.push(Example::from_pairs([
                            (vars[0].clone(), a),
                            (vars[1].clone(), b),
                        ]));
                    }
                }
            }
            n => panic!("unexpected input arity {n}"),
        }
        examples
    }

    /// Every family, many seeds: witnesses must be in the grammar's
    /// language and satisfy the spec on the probe grid; unrealizable
    /// instances must resist a brute-force term search.
    #[test]
    fn witnesses_are_valid_and_unrealizable_instances_resist_enumeration() {
        let scale = Scale::default();
        for family in Family::ALL {
            for seed in 0..40u64 {
                let mut rng = GenRng::from_seed(crate::rng::instance_seed(99, seed));
                let built = build(family, &mut rng, &scale);
                let examples = probe_examples(&built.problem);
                match built.expected {
                    Expectation::Realizable => {
                        let witness = built.witness.expect("realizable instances carry a witness");
                        assert!(
                            built.problem.grammar().contains_term(&witness),
                            "{family} seed {seed}: witness {witness} not in L(G)"
                        );
                        assert!(
                            built
                                .problem
                                .satisfied_on_examples(&witness, &examples)
                                .unwrap(),
                            "{family} seed {seed}: witness {witness} violates the spec"
                        );
                    }
                    Expectation::Unrealizable => {
                        assert!(built.witness.is_none());
                        // Brute-force cross-check: no small term derivable
                        // from the start symbol satisfies the spec on the
                        // probe grid (a true solution would have to).
                        let grammar = built.problem.grammar();
                        for term in grammar.terms_up_to_size(grammar.start(), 7, 200) {
                            assert!(
                                !built
                                    .problem
                                    .satisfied_on_examples(&term, &examples)
                                    .unwrap(),
                                "{family} seed {seed}: {term} solves an instance \
                                 built as unrealizable"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn both_verdict_classes_are_generated_for_every_family() {
        let scale = Scale::default();
        for family in Family::ALL {
            let mut saw = (false, false);
            for seed in 0..60u64 {
                let mut rng = GenRng::from_seed(crate::rng::instance_seed(5, seed));
                match build(family, &mut rng, &scale).expected {
                    Expectation::Realizable => saw.0 = true,
                    Expectation::Unrealizable => saw.1 = true,
                }
            }
            assert!(
                saw.0 && saw.1,
                "{family}: 60 seeds must hit both verdict classes"
            );
        }
    }

    #[test]
    fn construction_is_deterministic_in_the_seed() {
        let scale = Scale::default();
        for family in Family::ALL {
            let mut a = GenRng::from_seed(1234);
            let mut b = GenRng::from_seed(1234);
            let built_a = build(family, &mut a, &scale);
            let built_b = build(family, &mut b, &scale);
            assert_eq!(
                built_a.problem.fingerprint(),
                built_b.problem.fingerprint(),
                "{family}: same seed must build the same problem"
            );
            assert_eq!(built_a.expected, built_b.expected);
        }
    }
}
