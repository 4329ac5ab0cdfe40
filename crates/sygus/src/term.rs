//! Ranked alphabet symbols and terms (trees) over them.

use crate::SygusError;
use std::fmt;

/// The sort (type) of a term or nonterminal: integers or Booleans.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sort {
    /// Integer-sorted.
    Int,
    /// Boolean-sorted.
    Bool,
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Int => write!(f, "Int"),
            Sort::Bool => write!(f, "Bool"),
        }
    }
}

/// A symbol of the CLIA ranked alphabet (§3.1, §6.1).
///
/// `Plus` is n-ary (n ≥ 1), matching the paper's readability convention
/// (footnote 1); all other symbols have fixed arity.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Symbol {
    /// n-ary integer addition.
    Plus,
    /// Binary integer subtraction.
    Minus,
    /// An integer constant.
    Num(i64),
    /// An input variable of the function being synthesized.
    Var(String),
    /// The negation of an input variable (only in LIA⁺/CLIA⁺ grammars, §5.2).
    NegVar(String),
    /// `IfThenElse(cond, then, else)`.
    IfThenElse,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// Boolean negation.
    Not,
    /// Integer comparison `a < b`.
    LessThan,
    /// Integer equality `a = b` (provided for benchmark grammars).
    Equal,
}

impl Symbol {
    /// The output sort of the symbol.
    pub fn sort(&self) -> Sort {
        match self {
            Symbol::Plus
            | Symbol::Minus
            | Symbol::Num(_)
            | Symbol::Var(_)
            | Symbol::NegVar(_)
            | Symbol::IfThenElse => Sort::Int,
            Symbol::And | Symbol::Or | Symbol::Not | Symbol::LessThan | Symbol::Equal => Sort::Bool,
        }
    }

    /// The expected arity, or `None` for the variadic `Plus`.
    pub fn arity(&self) -> Option<usize> {
        match self {
            Symbol::Plus => None,
            Symbol::Minus => Some(2),
            Symbol::Num(_) | Symbol::Var(_) | Symbol::NegVar(_) => Some(0),
            Symbol::IfThenElse => Some(3),
            Symbol::And | Symbol::Or => Some(2),
            Symbol::Not => Some(1),
            Symbol::LessThan | Symbol::Equal => Some(2),
        }
    }

    /// The expected sort of the `i`-th argument (given the actual arity).
    pub fn arg_sort(&self, i: usize) -> Sort {
        match self {
            Symbol::IfThenElse => {
                if i == 0 {
                    Sort::Bool
                } else {
                    Sort::Int
                }
            }
            Symbol::And | Symbol::Or | Symbol::Not => Sort::Bool,
            _ => Sort::Int,
        }
    }

    /// `true` if the symbol belongs to the LIA fragment (Ex. 3.6).
    pub fn is_lia(&self) -> bool {
        matches!(
            self,
            Symbol::Plus | Symbol::Minus | Symbol::Num(_) | Symbol::Var(_) | Symbol::NegVar(_)
        )
    }

    /// Checks that `num_args` is a legal arity for this symbol.
    pub fn check_arity(&self, num_args: usize) -> Result<(), SygusError> {
        match self.arity() {
            Some(a) if a != num_args => Err(SygusError::SortError(format!(
                "symbol {self:?} expects {a} arguments, got {num_args}"
            ))),
            None if num_args == 0 => Err(SygusError::SortError(
                "variadic Plus requires at least one argument".to_string(),
            )),
            _ => Ok(()),
        }
    }

    /// The SyGuS-IF operator name of the symbol.
    pub fn sygus_name(&self) -> String {
        match self {
            Symbol::Plus => "+".to_string(),
            Symbol::Minus => "-".to_string(),
            Symbol::Num(c) => c.to_string(),
            Symbol::Var(x) => x.clone(),
            Symbol::NegVar(x) => format!("(- {x})"),
            Symbol::IfThenElse => "ite".to_string(),
            Symbol::And => "and".to_string(),
            Symbol::Or => "or".to_string(),
            Symbol::Not => "not".to_string(),
            Symbol::LessThan => "<".to_string(),
            Symbol::Equal => "=".to_string(),
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Symbol::Plus => write!(f, "Plus"),
            Symbol::Minus => write!(f, "Minus"),
            Symbol::Num(c) => write!(f, "Num({c})"),
            Symbol::Var(x) => write!(f, "Var({x})"),
            Symbol::NegVar(x) => write!(f, "NegVar({x})"),
            Symbol::IfThenElse => write!(f, "IfThenElse"),
            Symbol::And => write!(f, "And"),
            Symbol::Or => write!(f, "Or"),
            Symbol::Not => write!(f, "Not"),
            Symbol::LessThan => write!(f, "LessThan"),
            Symbol::Equal => write!(f, "Equal"),
        }
    }
}

/// A term (ranked tree) over the CLIA alphabet.
///
/// # Example
/// ```
/// use sygus::{Symbol, Term};
/// // Plus(Var(x), Num(1))
/// let t = Term::apply(Symbol::Plus, vec![Term::var("x"), Term::num(1)]).unwrap();
/// assert_eq!(t.size(), 3);
/// assert_eq!(t.to_string(), "(+ x 1)");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Term {
    symbol: Symbol,
    children: Vec<Term>,
}

impl Term {
    /// Builds a term, checking arity and argument sorts.
    pub fn apply(symbol: Symbol, children: Vec<Term>) -> Result<Term, SygusError> {
        symbol.check_arity(children.len())?;
        for (i, c) in children.iter().enumerate() {
            let expected = symbol.arg_sort(i);
            if c.sort() != expected {
                return Err(SygusError::SortError(format!(
                    "argument {i} of {symbol} has sort {}, expected {expected}",
                    c.sort()
                )));
            }
        }
        Ok(Term { symbol, children })
    }

    /// A leaf term (constant or variable).
    pub fn leaf(symbol: Symbol) -> Term {
        debug_assert_eq!(symbol.arity(), Some(0), "leaf requires a nullary symbol");
        Term {
            symbol,
            children: Vec::new(),
        }
    }

    /// The constant term `Num(c)`.
    pub fn num(c: i64) -> Term {
        Term::leaf(Symbol::Num(c))
    }

    /// The variable term `Var(x)`.
    pub fn var(x: impl Into<String>) -> Term {
        Term::leaf(Symbol::Var(x.into()))
    }

    /// The negated variable term `NegVar(x)`.
    pub fn neg_var(x: impl Into<String>) -> Term {
        Term::leaf(Symbol::NegVar(x.into()))
    }

    /// Convenience constructor for binary `Plus`.
    pub fn plus(a: Term, b: Term) -> Term {
        Term::apply(Symbol::Plus, vec![a, b]).expect("well-sorted by construction")
    }

    /// Convenience constructor for `Minus`.
    pub fn minus(a: Term, b: Term) -> Term {
        Term::apply(Symbol::Minus, vec![a, b]).expect("well-sorted by construction")
    }

    /// Convenience constructor for `IfThenElse`.
    pub fn ite(c: Term, t: Term, e: Term) -> Result<Term, SygusError> {
        Term::apply(Symbol::IfThenElse, vec![c, t, e])
    }

    /// Convenience constructor for `LessThan`.
    pub fn less_than(a: Term, b: Term) -> Term {
        Term::apply(Symbol::LessThan, vec![a, b]).expect("well-sorted by construction")
    }

    /// The root symbol.
    pub fn symbol(&self) -> &Symbol {
        &self.symbol
    }

    /// The child subterms.
    pub fn children(&self) -> &[Term] {
        &self.children
    }

    /// The sort of the term.
    pub fn sort(&self) -> Sort {
        self.symbol.sort()
    }

    /// Number of nodes in the term. Iterative (explicit work list), so
    /// deeply nested terms cannot overflow the call stack.
    pub fn size(&self) -> usize {
        let mut count = 0usize;
        let mut stack: Vec<&Term> = vec![self];
        while let Some(t) = stack.pop() {
            count += 1;
            stack.extend(t.children.iter());
        }
        count
    }

    /// Height of the term (a leaf has height 1). Iterative: a DFS carrying
    /// each node's depth instead of recursing.
    pub fn height(&self) -> usize {
        let mut max_depth = 0usize;
        let mut stack: Vec<(&Term, usize)> = vec![(self, 1)];
        while let Some((t, depth)) = stack.pop() {
            max_depth = max_depth.max(depth);
            stack.extend(t.children.iter().map(|c| (c, depth + 1)));
        }
        max_depth
    }

    /// The set of input-variable names occurring in the term. Iterative.
    pub fn variables(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        let mut stack: Vec<&Term> = vec![self];
        while let Some(t) = stack.pop() {
            if let Symbol::Var(x) | Symbol::NegVar(x) = &t.symbol {
                out.insert(x.clone());
            }
            stack.extend(t.children.iter());
        }
        out
    }
}

impl Drop for Term {
    /// Iterative drop: the derived drop would recurse through the child
    /// vectors and overflow the stack on deeply nested terms (the `gen`
    /// scaler can produce trees far deeper than the call stack
    /// tolerates).
    fn drop(&mut self) {
        let mut stack: Vec<Term> = std::mem::take(&mut self.children);
        while let Some(mut t) = stack.pop() {
            stack.append(&mut t.children);
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Term {
    /// SyGuS-IF-style rendering, iterative for the same deep-term reason
    /// as [`Term::size`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        enum Tok<'a> {
            Node(&'a Term),
            Text(&'static str),
        }
        let mut stack = vec![Tok::Node(self)];
        while let Some(tok) = stack.pop() {
            match tok {
                Tok::Text(s) => f.write_str(s)?,
                Tok::Node(t) if t.children.is_empty() => match &t.symbol {
                    Symbol::Num(c) => write!(f, "{c}")?,
                    Symbol::Var(x) => write!(f, "{x}")?,
                    Symbol::NegVar(x) => write!(f, "(- {x})")?,
                    other => write!(f, "{}", other.sygus_name())?,
                },
                Tok::Node(t) => {
                    write!(f, "({}", t.symbol.sygus_name())?;
                    stack.push(Tok::Text(")"));
                    for c in t.children.iter().rev() {
                        stack.push(Tok::Node(c));
                        stack.push(Tok::Text(" "));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_and_arity() {
        assert_eq!(Symbol::Plus.sort(), Sort::Int);
        assert_eq!(Symbol::LessThan.sort(), Sort::Bool);
        assert_eq!(Symbol::IfThenElse.arity(), Some(3));
        assert_eq!(Symbol::Plus.arity(), None);
        assert_eq!(Symbol::IfThenElse.arg_sort(0), Sort::Bool);
        assert_eq!(Symbol::IfThenElse.arg_sort(1), Sort::Int);
    }

    #[test]
    fn term_construction_checks_sorts() {
        // LessThan(Var(x), Num(2)) is fine
        assert!(Term::apply(Symbol::LessThan, vec![Term::var("x"), Term::num(2)]).is_ok());
        // And(Var(x), Var(x)) is ill-sorted
        assert!(Term::apply(Symbol::And, vec![Term::var("x"), Term::var("x")]).is_err());
        // Minus with one argument is an arity error
        assert!(Term::apply(Symbol::Minus, vec![Term::num(1)]).is_err());
    }

    #[test]
    fn nary_plus() {
        let t = Term::apply(
            Symbol::Plus,
            vec![Term::var("x"), Term::var("x"), Term::var("x"), Term::num(0)],
        )
        .unwrap();
        assert_eq!(t.size(), 5);
        assert_eq!(t.to_string(), "(+ x x x 0)");
    }

    #[test]
    fn metrics_and_variables() {
        let t = Term::ite(
            Term::less_than(Term::var("x"), Term::num(2)),
            Term::plus(Term::var("y"), Term::num(1)),
            Term::num(0),
        )
        .unwrap();
        assert_eq!(t.height(), 3);
        assert_eq!(t.size(), 8);
        let vars = t.variables();
        assert!(vars.contains("x") && vars.contains("y"));
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn deep_terms_do_not_overflow_the_stack() {
        // A left-leaning chain of 100 000 Plus nodes, far deeper than any
        // call stack tolerates: the iterative size/height/variables/Display
        // implementations and the iterative Drop must all survive it.
        const DEPTH: usize = 100_000;
        let mut t = Term::num(1);
        for _ in 0..DEPTH {
            t = Term::plus(t, Term::var("x"));
        }
        assert_eq!(t.size(), 2 * DEPTH + 1);
        assert_eq!(t.height(), DEPTH + 1);
        let vars = t.variables();
        assert_eq!(vars.len(), 1);
        assert!(vars.contains("x"));
        let printed = t.to_string();
        assert!(printed.starts_with("(+ (+ "));
        assert!(printed.ends_with(" x)"));
        drop(t); // iterative Drop: must not recurse through 100k levels
    }

    #[test]
    fn display_round_shape() {
        let t = Term::minus(Term::var("x"), Term::num(3));
        assert_eq!(t.to_string(), "(- x 3)");
        assert_eq!(Term::neg_var("x").to_string(), "(- x)");
    }
}
