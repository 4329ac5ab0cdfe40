//! The family catalogue: which kinds of SyGuS problems the generator
//! emits, and the knobs that scale them.
//!
//! Every family is *verdict-transparent*: the builder knows, by
//! construction, whether each emitted instance is realizable or
//! unrealizable (see [`Expectation`]), which turns every generated
//! instance into a free soundness test for the solving engines — an
//! engine reporting the forbidden verdict is a bug, full stop.

use std::fmt;

/// Which verdict class an instance belongs to, known by construction.
///
/// The expectation is a *soundness bound*, not a completeness demand: an
/// engine may always answer `unknown`, but it must never report the
/// verdict the construction rules out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// A witness term exists (the builder produces one); no engine may
    /// report `unrealizable`.
    Realizable,
    /// No solution exists (a finite argument rules every term out); no
    /// engine may report `realizable`.
    Unrealizable,
}

impl Expectation {
    /// Stable lower-case name (`realizable` / `unrealizable`), used in the
    /// generated `.sl` header comments and the oracle's failure reports.
    pub fn name(&self) -> &'static str {
        match self {
            Expectation::Realizable => "realizable",
            Expectation::Unrealizable => "unrealizable",
        }
    }
}

impl fmt::Display for Expectation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The sign skew of a [`FamilySpec`]'s constant pool: which side of zero
/// the generated constant leaves are drawn from. A data knob in the spirit
/// of dbgen's template-driven value skew.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignSkew {
    /// Constants are strictly positive.
    Positive,
    /// Constants are strictly negative.
    Negative,
    /// Each constant's sign is a fair coin flip.
    Mixed,
}

/// A data-configurable problem family: grammar shape, constant skew, guard
/// usage, and spec size as *data*, interpreted by one generic builder
/// (`build_from_spec` in the builder module) — adding a family of this
/// class is a table edit, not a new Rust constructor.
///
/// Every spec-driven instance rests on one airtight **congruence-anchor**
/// argument: all constant leaves are multiples of a per-instance modulus
/// `g ≥ 2`, the only other leaf is the input variable `x`, and the spec
/// always contains the anchor conjunct `x = 0 ⇒ f = t`. At `x = 0` every
/// integer-sorted grammar term evaluates to a multiple of `g` (leaves are
/// `0` or multiples of `g`; `+` preserves the property; `ite` merely
/// selects between two terms that both have it), so `t ≢ 0 (mod g)` is
/// unrealizable by construction, and `t` a reachable sum of constant
/// leaves is realizable with that sum as an explicit witness.
#[derive(Clone, Copy, Debug)]
pub struct FamilySpec {
    /// Stable snake_case family name.
    pub name: &'static str,
    /// One-line description for the CLI catalogue.
    pub description: &'static str,
    /// Whether the grammar has an `x` variable leaf (it never disturbs the
    /// anchor argument, since `x = 0` there).
    pub var_leaf: bool,
    /// Minimal number of distinct constant leaves (≥ 1).
    pub pool_min: usize,
    /// Maximal number of distinct constant leaves.
    pub pool_max: usize,
    /// Sign skew of the constant pool.
    pub sign: SignSkew,
    /// Constants are `±g·m` with `m ∈ 1..=multiplier_cap`.
    pub multiplier_cap: i64,
    /// Whether the grammar has `ite` with `<` guards (plus `and`/`not` at
    /// guard-nesting tier ≥ 2, per [`Scale::max_nesting`]).
    pub ite: bool,
    /// Maximal number of extra spec points beyond the anchor (each drawn
    /// from the probe grid; extra points never restore realizability — the
    /// anchor alone refutes unrealizable instances).
    pub extra_points_max: usize,
    /// Probability (percent) that an instance is realizable.
    pub realizable_percent: u32,
    /// Realizable witnesses sum at most this many constant leaves.
    pub max_summands: i64,
}

/// The spec-driven slice of the catalogue, interpreted by the builder's
/// `build_from_spec`. **To add a family as data**: append
/// a spec here, give it a [`Family`] variant, and list the variant in
/// [`Family::ALL`] — builder, stream, CLI, fuzz aggregation, and the CI
/// gates pick it up from the catalogue.
pub const FAMILY_SPECS: [FamilySpec; 3] = [
    FamilySpec {
        name: "mod_pool",
        description: "mixed-sign pool of g-multiples under + vs a congruence anchor",
        var_leaf: false,
        pool_min: 2,
        pool_max: 4,
        sign: SignSkew::Mixed,
        multiplier_cap: 3,
        ite: false,
        extra_points_max: 0,
        realizable_percent: 40,
        max_summands: 3,
    },
    FamilySpec {
        name: "mod_ite",
        description: "piecewise g-multiples with ite guards and extra spec points",
        var_leaf: true,
        pool_min: 2,
        pool_max: 3,
        sign: SignSkew::Mixed,
        multiplier_cap: 2,
        ite: true,
        extra_points_max: 2,
        realizable_percent: 40,
        max_summands: 2,
    },
    FamilySpec {
        name: "mod_neg",
        description: "negative-skew constant pool under ite vs a congruence anchor",
        var_leaf: false,
        pool_min: 2,
        pool_max: 3,
        sign: SignSkew::Negative,
        multiplier_cap: 3,
        ite: true,
        extra_points_max: 1,
        realizable_percent: 35,
        max_summands: 3,
    },
];

/// A parameterized problem family.
///
/// Each variant scales along different knobs of [`Scale`]; the per-family
/// construction (and the by-construction verdict argument) lives in
/// [`crate::builder`] — hand-written for the five legacy families, one
/// generic data-driven interpreter for the [`FamilySpec`] families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// `Start ::= S₁ + Start | 0`, `Sᵢ ::= Sᵢ₊₁ + Sᵢ₊₁`, `S_d ::= x` — the
    /// §2 chain shape. The grammar generates exactly `{m·2^(d−1)·x : m ≥ 0}`;
    /// the spec asks for `c·x + r`. Scales with grammar **depth** `d`.
    PlusMod,
    /// `Start ::= c | Start + Start` (no variables): sums `{m·c : m ≥ 1}`
    /// against a constant target. Scales with **constant magnitude**.
    ConstSum,
    /// Piecewise-constant CLIA: constants under `ite` with `x < g` guards,
    /// point-wise spec `x = aⱼ ⇒ f = vⱼ`. Scales with **guard nesting**
    /// and **point count**.
    GuardedConst,
    /// Programming-by-example over `Start ::= x | 0 [| 1] | Start + Start`:
    /// point constraints from a hidden affine target (or a deliberately
    /// inconsistent perturbation). Scales with **example count**.
    PbePoints,
    /// The max-with-offset CLIA shape: `f = max(x, y) + g` over a grammar
    /// whose only constant is `0` — realizable exactly when `g = 0`.
    /// Scales with **guard nesting**.
    MaxGap,
    /// Spec-driven: `FAMILY_SPECS[0]` (`mod_pool`).
    ModPool,
    /// Spec-driven: `FAMILY_SPECS[1]` (`mod_ite`).
    ModIte,
    /// Spec-driven: `FAMILY_SPECS[2]` (`mod_neg`).
    ModNeg,
}

impl Family {
    /// Every family, in catalogue order (the round-robin order of the
    /// stream).
    pub const ALL: [Family; 8] = [
        Family::PlusMod,
        Family::ConstSum,
        Family::GuardedConst,
        Family::PbePoints,
        Family::MaxGap,
        Family::ModPool,
        Family::ModIte,
        Family::ModNeg,
    ];

    /// The [`FamilySpec`] behind a spec-driven family; `None` for the
    /// hand-written families.
    pub fn spec(&self) -> Option<&'static FamilySpec> {
        match self {
            Family::ModPool => Some(&FAMILY_SPECS[0]),
            Family::ModIte => Some(&FAMILY_SPECS[1]),
            Family::ModNeg => Some(&FAMILY_SPECS[2]),
            _ => None,
        }
    }

    /// Stable snake_case name, used in instance names, report families,
    /// and the `--families` CLI flag.
    pub fn name(&self) -> &'static str {
        if let Some(spec) = self.spec() {
            return spec.name;
        }
        match self {
            Family::PlusMod => "plus_mod",
            Family::ConstSum => "const_sum",
            Family::GuardedConst => "guarded_const",
            Family::PbePoints => "pbe_points",
            Family::MaxGap => "max_gap",
            Family::ModPool | Family::ModIte | Family::ModNeg => unreachable!(),
        }
    }

    /// Inverse of [`Family::name`].
    pub fn parse(s: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == s)
    }

    /// One-line description for the CLI family catalogue.
    pub fn description(&self) -> &'static str {
        if let Some(spec) = self.spec() {
            return spec.description;
        }
        match self {
            Family::PlusMod => "multiples-of-2^(d-1)·x chain grammar vs an affine target",
            Family::ConstSum => "constant-sum grammar {m·c} vs a constant target",
            Family::GuardedConst => "piecewise-constant ite grammar vs point constraints",
            Family::PbePoints => "affine PBE: point constraints from a hidden (or broken) target",
            Family::MaxGap => "max(x,y)+g over a constant-free CLIA grammar",
            Family::ModPool | Family::ModIte | Family::ModNeg => unreachable!(),
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The scaling knobs, applied per instance: each instance draws its own
/// depth/magnitude/point-count/nesting uniformly up to these caps, and is
/// realizable with probability `realizable_percent`.
///
/// The defaults keep instances small enough that the exact engine's term
/// search can *find* the realizable witnesses (within its round and vector
/// bounds), so a fuzz sweep exercises both verdict paths.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Maximal chain depth `d` of [`Family::PlusMod`] grammars (≥ 1).
    pub max_depth: usize,
    /// Maximal absolute value of generated constants (≥ 1).
    pub max_magnitude: i64,
    /// Maximal number of spec points for the point-wise families (≥ 2).
    pub max_points: usize,
    /// Maximal guard-nesting tier: 1 = plain `x < g` / `a < b` guards,
    /// 2 = adds `and`/`not` guard productions.
    pub max_nesting: usize,
    /// Probability (percent) that an instance is realizable by
    /// construction.
    pub realizable_percent: u32,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            max_depth: 3,
            max_magnitude: 9,
            max_points: 3,
            max_nesting: 2,
            realizable_percent: 40,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_round_trip() {
        for family in Family::ALL {
            assert_eq!(Family::parse(family.name()), Some(family));
            assert!(!family.description().is_empty());
        }
        assert_eq!(Family::parse("nope_family"), None);
    }

    #[test]
    fn catalogue_has_no_duplicate_names() {
        let names: std::collections::BTreeSet<_> = Family::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), Family::ALL.len());
    }

    #[test]
    fn expectation_names_are_stable() {
        assert_eq!(Expectation::Realizable.name(), "realizable");
        assert_eq!(Expectation::Unrealizable.name(), "unrealizable");
    }

    #[test]
    fn every_spec_is_reachable_from_a_family_and_well_formed() {
        let spec_names: Vec<_> = Family::ALL
            .iter()
            .filter_map(|f| f.spec())
            .map(|s| s.name)
            .collect();
        assert_eq!(
            spec_names,
            FAMILY_SPECS.iter().map(|s| s.name).collect::<Vec<_>>(),
            "every FAMILY_SPECS entry must be wired to exactly one Family variant"
        );
        for spec in &FAMILY_SPECS {
            assert!(spec.pool_min >= 1 && spec.pool_min <= spec.pool_max);
            assert!(spec.multiplier_cap >= 1);
            assert!(spec.realizable_percent <= 100);
            assert!(spec.max_summands >= 1);
        }
    }
}
