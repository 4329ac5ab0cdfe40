//! The concrete semantics `⟦·⟧` and its example-vector lifting `⟦·⟧_E`
//! (Ex. 3.6 for LIA, §6.1 for CLIA).

use crate::example::{Example, ExampleSet, Output};
use crate::term::{Sort, Symbol, Term};
use crate::SygusError;

/// The value of a term on a single input example.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Value {
    /// An integer value.
    Int(i64),
    /// A Boolean value.
    Bool(bool),
}

impl Value {
    /// The sort of the value.
    pub fn sort(&self) -> Sort {
        match self {
            Value::Int(_) => Sort::Int,
            Value::Bool(_) => Sort::Bool,
        }
    }

    /// The integer content (Booleans encode as 0/1).
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            Value::Bool(b) => i64::from(*b),
        }
    }

    fn expect_int(&self) -> Result<i64, SygusError> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Bool(_) => Err(SygusError::EvalError(
                "expected an integer value, got a Boolean".to_string(),
            )),
        }
    }

    fn expect_bool(&self) -> Result<bool, SygusError> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Int(_) => Err(SygusError::EvalError(
                "expected a Boolean value, got an integer".to_string(),
            )),
        }
    }
}

impl Term {
    /// Evaluates the term on a single input example (`⟦e⟧(i)`), in i64
    /// arithmetic that never wraps.
    ///
    /// # Errors
    /// Returns an error if an input variable is not bound by the example,
    /// or if `+`, `-` or a negated variable overflows i64.
    pub fn eval(&self, input: &Example) -> Result<Value, SygusError> {
        let kids: Vec<Value> = self
            .children()
            .iter()
            .map(|c| c.eval(input))
            .collect::<Result<_, _>>()?;
        match self.symbol() {
            Symbol::Num(c) => Ok(Value::Int(*c)),
            Symbol::Var(x) => input.get(x).map(Value::Int).ok_or_else(|| {
                SygusError::EvalError(format!("input variable {x} is not bound by {input}"))
            }),
            Symbol::NegVar(x) => {
                let v = input.get(x).ok_or_else(|| {
                    SygusError::EvalError(format!("input variable {x} is not bound by {input}"))
                })?;
                v.checked_neg()
                    .map(Value::Int)
                    .ok_or_else(|| overflow(self))
            }
            Symbol::Plus => {
                let mut acc = 0i64;
                for k in &kids {
                    acc = acc
                        .checked_add(k.expect_int()?)
                        .ok_or_else(|| overflow(self))?;
                }
                Ok(Value::Int(acc))
            }
            Symbol::Minus => kids[0]
                .expect_int()?
                .checked_sub(kids[1].expect_int()?)
                .map(Value::Int)
                .ok_or_else(|| overflow(self)),
            Symbol::IfThenElse => {
                if kids[0].expect_bool()? {
                    Ok(Value::Int(kids[1].expect_int()?))
                } else {
                    Ok(Value::Int(kids[2].expect_int()?))
                }
            }
            Symbol::And => Ok(Value::Bool(
                kids[0].expect_bool()? && kids[1].expect_bool()?,
            )),
            Symbol::Or => Ok(Value::Bool(
                kids[0].expect_bool()? || kids[1].expect_bool()?,
            )),
            Symbol::Not => Ok(Value::Bool(!kids[0].expect_bool()?)),
            Symbol::LessThan => Ok(Value::Bool(kids[0].expect_int()? < kids[1].expect_int()?)),
            Symbol::Equal => Ok(Value::Bool(kids[0].expect_int()? == kids[1].expect_int()?)),
        }
    }

    /// Evaluates the term on every example of `E`, producing the output
    /// vector `⟦e⟧_E = ⟨⟦e⟧(i₁), …, ⟦e⟧(iₙ)⟩` (Def. 3.4).
    ///
    /// # Errors
    /// Returns an error if any example misses an input variable.
    pub fn eval_on(&self, examples: &ExampleSet) -> Result<Output, SygusError> {
        match self.sort() {
            Sort::Int => {
                let mut out = Vec::with_capacity(examples.len());
                for e in examples.iter() {
                    out.push(self.eval(e)?.expect_int()?);
                }
                Ok(Output::Int(out))
            }
            Sort::Bool => {
                let mut out = Vec::with_capacity(examples.len());
                for e in examples.iter() {
                    out.push(self.eval(e)?.expect_bool()?);
                }
                Ok(Output::Bool(out))
            }
        }
    }
}

/// The error of a term whose value leaves i64.
fn overflow(term: &Term) -> SygusError {
    SygusError::EvalError(format!("integer overflow in {term}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn examples() -> ExampleSet {
        ExampleSet::for_single_var("x", [1, 2])
    }

    #[test]
    fn lia_semantics() {
        // (x + x + x) on ⟨1, 2⟩ = (3, 6)
        let t = Term::apply(
            Symbol::Plus,
            vec![Term::var("x"), Term::var("x"), Term::var("x")],
        )
        .unwrap();
        assert_eq!(t.eval_on(&examples()).unwrap(), Output::Int(vec![3, 6]));
        // Minus and NegVar
        let m = Term::minus(Term::num(10), Term::var("x"));
        assert_eq!(m.eval_on(&examples()).unwrap(), Output::Int(vec![9, 8]));
        let n = Term::neg_var("x");
        assert_eq!(n.eval_on(&examples()).unwrap(), Output::Int(vec![-1, -2]));
    }

    #[test]
    fn clia_semantics() {
        // ite(x < 2, 0, x + x) on ⟨1, 2⟩ = (0, 4)
        let t = Term::ite(
            Term::less_than(Term::var("x"), Term::num(2)),
            Term::num(0),
            Term::plus(Term::var("x"), Term::var("x")),
        )
        .unwrap();
        assert_eq!(t.eval_on(&examples()).unwrap(), Output::Int(vec![0, 4]));
    }

    #[test]
    fn boolean_semantics() {
        // (x < 2) and not(x < 1)  on ⟨1, 2⟩ = (t, f) and (t, t) = (t, f)
        let t = Term::apply(
            Symbol::And,
            vec![
                Term::less_than(Term::var("x"), Term::num(2)),
                Term::apply(
                    Symbol::Not,
                    vec![Term::less_than(Term::var("x"), Term::num(1))],
                )
                .unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(
            t.eval_on(&examples()).unwrap(),
            Output::Bool(vec![true, false])
        );
    }

    #[test]
    fn equal_and_or() {
        let t = Term::apply(
            Symbol::Or,
            vec![
                Term::apply(Symbol::Equal, vec![Term::var("x"), Term::num(1)]).unwrap(),
                Term::apply(Symbol::Equal, vec![Term::var("x"), Term::num(3)]).unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(
            t.eval_on(&examples()).unwrap(),
            Output::Bool(vec![true, false])
        );
    }

    #[test]
    fn overflow_is_an_error_not_a_wrapped_value() {
        // (+ x M M) with M = i64::MAX on x = 0 wraps to −2 in two's
        // complement; over ℤ it is 2⁶⁴ − 2.
        let m = Term::num(i64::MAX);
        let sum = Term::apply(Symbol::Plus, vec![Term::var("x"), m.clone(), m]).unwrap();
        let zero = Example::from_pairs([("x", 0)]);
        assert!(matches!(sum.eval(&zero), Err(SygusError::EvalError(_))));
        let low = Example::from_pairs([("x", i64::MIN)]);
        assert!(Term::neg_var("x").eval(&low).is_err());
        assert!(Term::minus(Term::num(0), Term::var("x"))
            .eval(&low)
            .is_err());
        // in-range values are unaffected
        assert_eq!(
            Term::minus(Term::num(-1), Term::var("x"))
                .eval(&low)
                .unwrap(),
            Value::Int(i64::MAX)
        );
    }

    #[test]
    fn missing_variable_errors() {
        let t = Term::var("y");
        assert!(t.eval_on(&examples()).is_err());
    }

    #[test]
    fn paper_section2_candidate() {
        // Plus(Var(x),Var(x), Plus(Var(x),Var(x),Num(0))) is correct on i1=1
        // for the spec f(x) = 2x+2 (output 4), but wrong on i2=2 (6 ≠ 8... the
        // paper's G2 discussion: it produces 4 on x=1 and 8 on x=2; the spec
        // wants 4 and 6).
        let t = Term::apply(
            Symbol::Plus,
            vec![
                Term::var("x"),
                Term::var("x"),
                Term::apply(
                    Symbol::Plus,
                    vec![Term::var("x"), Term::var("x"), Term::num(0)],
                )
                .unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(t.eval_on(&examples()).unwrap(), Output::Int(vec![4, 8]));
    }
}
