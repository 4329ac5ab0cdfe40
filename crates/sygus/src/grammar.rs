//! Regular tree grammars (Def. 3.1).

use crate::term::{Sort, Symbol, Term};
use crate::SygusError;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// A nonterminal symbol of a regular tree grammar.
///
/// Nonterminals are compared by name; cloning is cheap.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NonTerminal(Arc<str>);

impl NonTerminal {
    /// Creates a nonterminal with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        NonTerminal(Arc::from(name.into().as_str()))
    }

    /// The nonterminal's name.
    pub fn name(&self) -> &str {
        &self.0
    }

    /// The "negative" twin `X⁻` used by the `h(G)` rewriting (§5.2).
    pub fn negative(&self) -> NonTerminal {
        NonTerminal::new(format!("{}⁻", self.0))
    }
}

impl fmt::Debug for NonTerminal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for NonTerminal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for NonTerminal {
    fn from(s: &str) -> Self {
        NonTerminal::new(s)
    }
}

/// A production `A₀ → σ(A₁, …, Aᵢ)` of a regular tree grammar.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Production {
    /// The left-hand-side nonterminal `A₀`.
    pub lhs: NonTerminal,
    /// The alphabet symbol `σ`.
    pub symbol: Symbol,
    /// The argument nonterminals `A₁, …, Aᵢ`.
    pub args: Vec<NonTerminal>,
}

impl Production {
    /// Creates a production.
    pub fn new(lhs: NonTerminal, symbol: Symbol, args: Vec<NonTerminal>) -> Self {
        Production { lhs, symbol, args }
    }
}

impl fmt::Debug for Production {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Production {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} → {}", self.lhs, self.symbol)?;
        if !self.args.is_empty() {
            write!(f, "(")?;
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A regular tree grammar `G = (N, Σ, S, δ)` (Def. 3.1), with a sort
/// attached to every nonterminal.
///
/// Use [`GrammarBuilder`] to construct grammars; the builder validates
/// sorts, arities and declaredness of all nonterminals.
///
/// # Example
/// ```
/// use sygus::{GrammarBuilder, Sort, Symbol};
/// // Start ::= Plus(Start, Start) | Num(1)   (the Gconst grammar of Ex. 3.8)
/// let g = GrammarBuilder::new("Start")
///     .nonterminal("Start", Sort::Int)
///     .production("Start", Symbol::Plus, &["Start", "Start"])
///     .production("Start", Symbol::Num(1), &[])
///     .build()
///     .unwrap();
/// assert_eq!(g.num_nonterminals(), 1);
/// assert_eq!(g.num_productions(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Grammar {
    start: NonTerminal,
    nonterminals: Vec<NonTerminal>,
    sorts: BTreeMap<NonTerminal, Sort>,
    productions: Vec<Production>,
}

impl Grammar {
    /// The start nonterminal `S`.
    pub fn start(&self) -> &NonTerminal {
        &self.start
    }

    /// The nonterminals, in declaration order.
    pub fn nonterminals(&self) -> &[NonTerminal] {
        &self.nonterminals
    }

    /// All productions `δ`.
    pub fn productions(&self) -> &[Production] {
        &self.productions
    }

    /// The productions `δ_A` with left-hand side `nt`.
    pub fn productions_of<'a>(
        &'a self,
        nt: &'a NonTerminal,
    ) -> impl Iterator<Item = &'a Production> + 'a {
        self.productions.iter().filter(move |p| &p.lhs == nt)
    }

    /// The sort of a nonterminal.
    pub fn sort_of(&self, nt: &NonTerminal) -> Option<Sort> {
        self.sorts.get(nt).copied()
    }

    /// `|N|`: number of nonterminals.
    pub fn num_nonterminals(&self) -> usize {
        self.nonterminals.len()
    }

    /// `|δ|`: number of productions.
    pub fn num_productions(&self) -> usize {
        self.productions.len()
    }

    /// The distinct input variables `Var(x)` / `NegVar(x)` appearing in the
    /// grammar (the `|V|` column of Tables 1 and 2).
    pub fn variables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for p in &self.productions {
            match &p.symbol {
                Symbol::Var(x) | Symbol::NegVar(x) => {
                    out.insert(x.clone());
                }
                _ => {}
            }
        }
        out
    }

    /// `true` when every production symbol is in the LIA fragment
    /// (`Plus`, `Minus`, `Num`, `Var`, `NegVar`).
    pub fn is_lia(&self) -> bool {
        self.productions.iter().all(|p| p.symbol.is_lia())
    }

    /// `true` when the grammar contains a `Minus` production (and therefore
    /// needs the `h(G)` rewriting of §5.2 before grammar-flow analysis).
    pub fn has_minus(&self) -> bool {
        self.productions
            .iter()
            .any(|p| matches!(p.symbol, Symbol::Minus))
    }

    /// `true` when the grammar contains an `IfThenElse` production (the
    /// mutually-recursive CLIA case of §6.4).
    pub fn has_ite(&self) -> bool {
        self.productions
            .iter()
            .any(|p| matches!(p.symbol, Symbol::IfThenElse))
    }

    /// The Boolean-sorted nonterminals.
    pub fn bool_nonterminals(&self) -> Vec<NonTerminal> {
        self.nonterminals
            .iter()
            .filter(|nt| self.sort_of(nt) == Some(Sort::Bool))
            .cloned()
            .collect()
    }

    /// The integer-sorted nonterminals.
    pub fn int_nonterminals(&self) -> Vec<NonTerminal> {
        self.nonterminals
            .iter()
            .filter(|nt| self.sort_of(nt) == Some(Sort::Int))
            .cloned()
            .collect()
    }

    /// The set of nonterminals reachable from the start symbol.
    pub fn reachable(&self) -> BTreeSet<NonTerminal> {
        let mut seen: BTreeSet<NonTerminal> = BTreeSet::new();
        let mut queue: VecDeque<NonTerminal> = VecDeque::new();
        seen.insert(self.start.clone());
        queue.push_back(self.start.clone());
        while let Some(nt) = queue.pop_front() {
            for p in self.productions_of(&nt) {
                for a in &p.args {
                    if seen.insert(a.clone()) {
                        queue.push_back(a.clone());
                    }
                }
            }
        }
        seen
    }

    /// The set of productive nonterminals (those that derive at least one
    /// finite tree).
    pub fn productive(&self) -> BTreeSet<NonTerminal> {
        let mut productive: BTreeSet<NonTerminal> = BTreeSet::new();
        loop {
            let mut changed = false;
            for p in &self.productions {
                if productive.contains(&p.lhs) {
                    continue;
                }
                if p.args.iter().all(|a| productive.contains(a)) {
                    productive.insert(p.lhs.clone());
                    changed = true;
                }
            }
            if !changed {
                return productive;
            }
        }
    }

    /// Removes unreachable and unproductive nonterminals (and the
    /// productions referring to them). The start symbol is always kept.
    pub fn trim(&self) -> Grammar {
        let reachable = self.reachable();
        let productive = self.productive();
        let keep: BTreeSet<NonTerminal> = reachable
            .intersection(&productive)
            .cloned()
            .chain(std::iter::once(self.start.clone()))
            .collect();
        let nonterminals: Vec<NonTerminal> = self
            .nonterminals
            .iter()
            .filter(|nt| keep.contains(nt))
            .cloned()
            .collect();
        let productions: Vec<Production> = self
            .productions
            .iter()
            .filter(|p| keep.contains(&p.lhs) && p.args.iter().all(|a| keep.contains(a)))
            .cloned()
            .collect();
        Grammar {
            start: self.start.clone(),
            sorts: self
                .sorts
                .iter()
                .filter(|(nt, _)| keep.contains(nt))
                .map(|(nt, s)| (nt.clone(), *s))
                .collect(),
            nonterminals,
            productions,
        }
    }

    /// `true` if the term is derivable from the given nonterminal (a simple
    /// top-down membership check, used in tests).
    pub fn derives(&self, nt: &NonTerminal, term: &Term) -> bool {
        self.productions_of(nt).any(|p| {
            p.symbol == *term.symbol()
                && p.args.len() == term.children().len()
                && p.args
                    .iter()
                    .zip(term.children())
                    .all(|(a, c)| self.derives(a, c))
        })
    }

    /// `true` if the term is in `L(G)` (derivable from the start symbol).
    pub fn contains_term(&self, term: &Term) -> bool {
        self.derives(&self.start, term)
    }

    /// Enumerates all terms derivable from `nt` with at most `max_size`
    /// nodes, up to `limit` terms (breadth-first by size). Intended for
    /// tests and cross-validation, not for synthesis (see crate
    /// `enumerative` for the term search).
    pub fn terms_up_to_size(&self, nt: &NonTerminal, max_size: usize, limit: usize) -> Vec<Term> {
        // terms_by_size[nt][s] = terms of size exactly s derivable from nt
        let mut table: BTreeMap<(NonTerminal, usize), Vec<Term>> = BTreeMap::new();
        for size in 1..=max_size {
            for n in &self.nonterminals {
                let mut terms: Vec<Term> = Vec::new();
                for p in self.productions_of(n) {
                    if p.args.is_empty() {
                        if size == 1 {
                            terms.push(Term::leaf(p.symbol.clone()));
                        }
                        continue;
                    }
                    // distribute size-1 among the arguments
                    let budget = size - 1;
                    let arg_terms: Vec<Vec<(usize, Term)>> = p
                        .args
                        .iter()
                        .map(|a| {
                            (1..budget + 1)
                                .flat_map(|s| {
                                    table
                                        .get(&(a.clone(), s))
                                        .cloned()
                                        .unwrap_or_default()
                                        .into_iter()
                                        .map(move |t| (s, t))
                                })
                                .collect()
                        })
                        .collect();
                    // cartesian product with exact total size
                    let mut partial: Vec<(usize, Vec<Term>)> = vec![(0, Vec::new())];
                    for options in &arg_terms {
                        let mut next = Vec::new();
                        for (used, ts) in &partial {
                            for (s, t) in options {
                                if used + s <= budget {
                                    let mut ts2 = ts.clone();
                                    ts2.push(t.clone());
                                    next.push((used + s, ts2));
                                }
                            }
                        }
                        partial = next;
                        if partial.len() > limit * 4 {
                            partial.truncate(limit * 4);
                        }
                    }
                    for (used, ts) in partial {
                        if used == budget && ts.len() == p.args.len() {
                            if let Ok(t) = Term::apply(p.symbol.clone(), ts) {
                                terms.push(t);
                            }
                        }
                    }
                }
                terms.truncate(limit);
                table.insert((n.clone(), size), terms);
            }
        }
        let mut out = Vec::new();
        for size in 1..=max_size {
            if let Some(ts) = table.get(&(nt.clone(), size)) {
                out.extend(ts.iter().cloned());
                if out.len() >= limit {
                    out.truncate(limit);
                    break;
                }
            }
        }
        out
    }
}

impl fmt::Debug for Grammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Grammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for nt in &self.nonterminals {
            write!(f, "{nt} ::= ")?;
            let prods: Vec<String> = self
                .productions_of(nt)
                .map(|p| {
                    if p.args.is_empty() {
                        p.symbol.to_string()
                    } else {
                        format!(
                            "{}({})",
                            p.symbol,
                            p.args
                                .iter()
                                .map(|a| a.to_string())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    }
                })
                .collect();
            writeln!(f, "{}", prods.join(" | "))?;
        }
        Ok(())
    }
}

/// A builder for [`Grammar`]s that validates sorts and arities.
#[derive(Clone, Debug)]
pub struct GrammarBuilder {
    start: NonTerminal,
    nonterminals: Vec<NonTerminal>,
    sorts: BTreeMap<NonTerminal, Sort>,
    productions: Vec<Production>,
    chains: Vec<(NonTerminal, NonTerminal)>,
}

impl GrammarBuilder {
    /// Starts building a grammar with the given start nonterminal (which
    /// must still be declared with [`nonterminal`](Self::nonterminal)).
    pub fn new(start: impl Into<String>) -> Self {
        GrammarBuilder {
            start: NonTerminal::new(start),
            nonterminals: Vec::new(),
            sorts: BTreeMap::new(),
            productions: Vec::new(),
            chains: Vec::new(),
        }
    }

    /// Declares a nonterminal with its sort.
    pub fn nonterminal(mut self, name: impl Into<String>, sort: Sort) -> Self {
        let nt = NonTerminal::new(name);
        if !self.sorts.contains_key(&nt) {
            self.nonterminals.push(nt.clone());
            self.sorts.insert(nt, sort);
        }
        self
    }

    /// Adds the production `lhs → symbol(args…)`.
    pub fn production(mut self, lhs: &str, symbol: Symbol, args: &[&str]) -> Self {
        self.productions.push(Production::new(
            NonTerminal::new(lhs),
            symbol,
            args.iter().map(|a| NonTerminal::new(*a)).collect(),
        ));
        self
    }

    /// Adds a production with pre-built nonterminals.
    pub fn production_nt(
        mut self,
        lhs: NonTerminal,
        symbol: Symbol,
        args: Vec<NonTerminal>,
    ) -> Self {
        self.productions.push(Production::new(lhs, symbol, args));
        self
    }

    /// Adds a *chain* (unit) production `lhs ::= rhs`, as used by grammars
    /// like G₂ of §2 (`Start ::= Exp2 | Exp3`). Chain productions are
    /// resolved at [`build`](Self::build) time by copying the right-hand
    /// side's productions onto the left-hand side (transitively), which
    /// preserves the generated language while keeping the grammar in the
    /// `A → σ(A₁,…,Aᵢ)` normal form of Def. 3.1.
    pub fn chain(mut self, lhs: &str, rhs: &str) -> Self {
        self.chains
            .push((NonTerminal::new(lhs), NonTerminal::new(rhs)));
        self
    }

    /// Finishes construction, validating the grammar.
    ///
    /// # Errors
    /// Returns a [`SygusError::GrammarError`] if the start symbol or a
    /// production argument is undeclared, or a [`SygusError::SortError`] if
    /// a production is ill-sorted (wrong arity, argument sort, or result
    /// sort).
    pub fn build(mut self) -> Result<Grammar, SygusError> {
        if !self.sorts.contains_key(&self.start) {
            return Err(SygusError::GrammarError(format!(
                "start nonterminal {} is not declared",
                self.start
            )));
        }
        // Resolve chain productions by transitive copying.
        if !self.chains.is_empty() {
            for (a, b) in &self.chains {
                match (self.sorts.get(a), self.sorts.get(b)) {
                    (Some(sa), Some(sb)) if sa == sb => {}
                    (Some(_), Some(_)) => {
                        return Err(SygusError::SortError(format!(
                            "chain production {a} ::= {b} mixes sorts"
                        )))
                    }
                    _ => {
                        return Err(SygusError::GrammarError(format!(
                            "chain production {a} ::= {b} uses an undeclared nonterminal"
                        )))
                    }
                }
            }
            loop {
                let mut added = Vec::new();
                for (a, b) in &self.chains {
                    for p in self.productions.iter().filter(|p| &p.lhs == b) {
                        let copy = Production::new(a.clone(), p.symbol.clone(), p.args.clone());
                        if !self.productions.contains(&copy) && !added.contains(&copy) {
                            added.push(copy);
                        }
                    }
                }
                if added.is_empty() {
                    break;
                }
                self.productions.extend(added);
            }
        }
        for p in &self.productions {
            let Some(&lhs_sort) = self.sorts.get(&p.lhs) else {
                return Err(SygusError::GrammarError(format!(
                    "production {p} uses undeclared nonterminal {}",
                    p.lhs
                )));
            };
            p.symbol.check_arity(p.args.len())?;
            if p.symbol.sort() != lhs_sort {
                return Err(SygusError::SortError(format!(
                    "production {p}: symbol sort {} does not match nonterminal sort {lhs_sort}",
                    p.symbol.sort()
                )));
            }
            for (i, a) in p.args.iter().enumerate() {
                let Some(&arg_sort) = self.sorts.get(a) else {
                    return Err(SygusError::GrammarError(format!(
                        "production {p} uses undeclared nonterminal {a}"
                    )));
                };
                if arg_sort != p.symbol.arg_sort(i) {
                    return Err(SygusError::SortError(format!(
                        "production {p}: argument {i} has sort {arg_sort}, expected {}",
                        p.symbol.arg_sort(i)
                    )));
                }
            }
        }
        Ok(Grammar {
            start: self.start,
            nonterminals: self.nonterminals,
            sorts: self.sorts,
            productions: self.productions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The grammar G₁ of §2 (expanded form of footnote 1).
    pub(crate) fn grammar_g1() -> Grammar {
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

    #[test]
    fn builder_validates_sorts() {
        // LessThan producing an Int nonterminal is a sort error
        let bad = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::LessThan, &["Start", "Start"])
            .build();
        assert!(matches!(bad, Err(SygusError::SortError(_))));

        // undeclared argument nonterminal
        let bad = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Plus, &["Start", "Mystery"])
            .build();
        assert!(matches!(bad, Err(SygusError::GrammarError(_))));

        // undeclared start
        let bad = GrammarBuilder::new("Start").build();
        assert!(matches!(bad, Err(SygusError::GrammarError(_))));
    }

    #[test]
    fn metrics() {
        let g = grammar_g1();
        assert_eq!(g.num_nonterminals(), 4);
        assert_eq!(g.num_productions(), 5);
        assert_eq!(g.variables().len(), 1);
        assert!(g.is_lia());
        assert!(!g.has_minus());
        assert!(!g.has_ite());
    }

    #[test]
    fn reachability_and_productivity() {
        let g = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("Dead", Sort::Int)
            .nonterminal("Loop", Sort::Int)
            .production("Start", Symbol::Num(1), &[])
            .production("Dead", Symbol::Num(2), &[])
            .production("Loop", Symbol::Plus, &["Loop", "Loop"])
            .build()
            .unwrap();
        let reach = g.reachable();
        assert!(reach.contains(&NonTerminal::new("Start")));
        assert!(!reach.contains(&NonTerminal::new("Dead")));
        let prod = g.productive();
        assert!(prod.contains(&NonTerminal::new("Start")));
        assert!(prod.contains(&NonTerminal::new("Dead")));
        assert!(!prod.contains(&NonTerminal::new("Loop")));
        let trimmed = g.trim();
        assert_eq!(trimmed.num_nonterminals(), 1);
    }

    #[test]
    fn derivation_membership() {
        let g = grammar_g1();
        // Num(0) ∈ L(G1)
        assert!(g.contains_term(&Term::num(0)));
        // Plus(Plus(Plus(x,x),x), Num(0)) — i.e. 3x — is in L(G1)
        let three_x = Term::plus(
            Term::plus(Term::plus(Term::var("x"), Term::var("x")), Term::var("x")),
            Term::num(0),
        );
        assert!(g.contains_term(&three_x));
        // a bare Var(x) is not derivable from Start
        assert!(!g.contains_term(&Term::var("x")));
    }

    #[test]
    fn enumeration_yields_derivable_terms() {
        let g = grammar_g1();
        let terms = g.terms_up_to_size(g.start(), 9, 50);
        assert!(!terms.is_empty());
        for t in &terms {
            assert!(g.contains_term(t), "{t} must be derivable");
        }
    }

    #[test]
    fn bool_and_int_partition() {
        let g = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("B", Sort::Bool)
            .production("Start", Symbol::Num(0), &[])
            .production("Start", Symbol::IfThenElse, &["B", "Start", "Start"])
            .production("B", Symbol::LessThan, &["Start", "Start"])
            .build()
            .unwrap();
        assert_eq!(g.int_nonterminals().len(), 1);
        assert_eq!(g.bool_nonterminals().len(), 1);
        assert!(g.has_ite());
        assert!(!g.is_lia());
    }
}
