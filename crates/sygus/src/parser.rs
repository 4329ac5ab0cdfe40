//! The SyGuS-IF front end, the one reader of `synth-fun` problems, and a
//! printer back to the same format.
//!
//! The supported fragment covers the LIA/CLIA benchmarks of the paper's
//! evaluation:
//!
//! * `(set-logic LIA)` / `(set-logic CLIA)` (recorded, not enforced),
//! * `(synth-fun f ((x Int) …) Int (<nonterminal decls>) (<grouped rules>))`,
//! * `(declare-var x Int)`,
//! * `(constraint <formula>)` where the formula uses `= < <= > >= + - *`
//!   (multiplication by constants only), `and`, `or`, `not`, `=>`, `ite`,
//!   integer literals, declared variables, and single-invocation
//!   applications `(f x …)` of the synthesis function,
//! * `(check-synth)`.
//!
//! [`parse_with_diagnostics`] makes one pass over the s-expressions of a
//! source text. It records every finding as a [`Diagnostic`] anchored at the
//! offending token's 1-based `line:col`, and it elaborates the [`Problem`].
//! An [`Severity::Error`] always rejects the file and a
//! [`Severity::Warning`] never does; [`parse_problem`] returns the problem
//! or the first error. Constraint arithmetic is checked: a sum, difference
//! or product that leaves the i64 range is an `overflow` error, never a
//! wrapped value.

use crate::grammar::{Grammar, GrammarBuilder};
use crate::problem::Problem;
use crate::spec::Spec;
use crate::term::{Sort, Symbol};
use crate::{ParseError, SygusError};
use logic::{Formula, LinearExpr, Var};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// How serious a [`Diagnostic`] is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Severity {
    /// Suspicious but meaningful; the file is accepted.
    Warning,
    /// The file is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding of the front end.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// 1-based source line of the offending token.
    pub line: u32,
    /// 1-based source column (bytes) of the offending token.
    pub col: u32,
    /// Error or warning.
    pub severity: Severity,
    /// Stable machine-readable code, e.g. `arity-mismatch`.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}]: {}",
            self.line, self.col, self.severity, self.code, self.message
        )
    }
}

/// A half-open byte range `[start, end)` into the source text.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Span {
    /// Byte offset of the first byte of the spanned region.
    start: u32,
    /// Byte offset one past the last byte of the spanned region.
    end: u32,
}

impl Span {
    fn new(start: u32, end: u32) -> Self {
        Span { start, end }
    }
}

/// Byte-offset → line/column conversion for one source text.
///
/// Lines and columns are 1-based; columns count bytes within the line
/// (identical to character counts for the ASCII benchmark corpus).
struct LineIndex {
    /// Byte offset at which each line starts; `line_starts[0] == 0`.
    line_starts: Vec<u32>,
}

impl LineIndex {
    fn new(text: &str) -> Self {
        let mut line_starts = vec![0u32];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push((i + 1) as u32);
            }
        }
        LineIndex { line_starts }
    }

    /// The 1-based `(line, column)` of a byte offset.
    fn position(&self, offset: u32) -> (u32, u32) {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        ((line + 1) as u32, offset - self.line_starts[line] + 1)
    }
}

/// The payload of a spanned [`Sexp`]: an atom or a parenthesised list.
#[derive(Debug)]
enum SexpKind {
    /// An atom (symbol or numeral).
    Atom(String),
    /// A parenthesised list.
    List(Vec<Sexp>),
}

/// An s-expression with the source span it was parsed from.
#[derive(Debug)]
struct Sexp {
    kind: SexpKind,
    /// The byte range of the expression (for lists: including both
    /// parentheses).
    span: Span,
}

impl Sexp {
    fn atom(&self) -> Option<&str> {
        match &self.kind {
            SexpKind::Atom(s) => Some(s),
            SexpKind::List(_) => None,
        }
    }

    fn list(&self) -> Option<&[Sexp]> {
        match &self.kind {
            SexpKind::List(l) => Some(l),
            SexpKind::Atom(_) => None,
        }
    }
}

enum Tok {
    Open,
    Close,
    Atom(String),
}

fn tokenize(input: &str) -> Vec<(Tok, Span)> {
    let mut tokens: Vec<(Tok, Span)> = Vec::new();
    let mut current = String::new();
    let mut current_start = 0u32;
    let flush = |current: &mut String, current_start: u32, end: usize, out: &mut Vec<_>| {
        if !current.is_empty() {
            out.push((
                Tok::Atom(std::mem::take(current)),
                Span::new(current_start, end as u32),
            ));
        }
    };
    let mut chars = input.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        match c {
            ';' => {
                flush(&mut current, current_start, i, &mut tokens);
                while let Some(&(_, n)) = chars.peek() {
                    if n == '\n' {
                        break;
                    }
                    chars.next();
                }
            }
            '(' | ')' => {
                flush(&mut current, current_start, i, &mut tokens);
                let tok = if c == '(' { Tok::Open } else { Tok::Close };
                tokens.push((tok, Span::new(i as u32, (i + 1) as u32)));
            }
            c if c.is_whitespace() => flush(&mut current, current_start, i, &mut tokens),
            c => {
                if current.is_empty() {
                    current_start = i as u32;
                }
                current.push(c);
            }
        }
    }
    flush(&mut current, current_start, input.len(), &mut tokens);
    tokens
}

/// Tokenises and parses a string into a sequence of spanned s-expressions.
///
/// Comments start with `;` and run to the end of the line. Unbalanced
/// parentheses are a [`SygusError::ParseError`] at the offending
/// parenthesis.
fn parse_sexps(input: &str) -> Result<Vec<Sexp>, SygusError> {
    let perr = |span: Span, msg: &str| {
        let (line, col) = LineIndex::new(input).position(span.start);
        SygusError::ParseError(ParseError::new(line, col, msg))
    };
    struct Frame {
        open: Span,
        items: Vec<Sexp>,
    }
    let mut stack: Vec<Frame> = vec![Frame {
        open: Span::new(0, 0),
        items: Vec::new(),
    }];
    for (tok, span) in tokenize(input) {
        match tok {
            Tok::Open => stack.push(Frame {
                open: span,
                items: Vec::new(),
            }),
            Tok::Close => {
                if stack.len() == 1 {
                    return Err(perr(span, "unbalanced ')'"));
                }
                let frame = stack.pop().expect("len checked above");
                let sexp = Sexp {
                    span: Span::new(frame.open.start, span.end),
                    kind: SexpKind::List(frame.items),
                };
                stack
                    .last_mut()
                    .expect("root frame remains")
                    .items
                    .push(sexp);
            }
            Tok::Atom(a) => stack
                .last_mut()
                .expect("stack never empty")
                .items
                .push(Sexp {
                    kind: SexpKind::Atom(a),
                    span,
                }),
        }
    }
    if stack.len() != 1 {
        let open = stack.last().expect("nonempty stack").open;
        return Err(perr(open, "unbalanced '('"));
    }
    Ok(stack.pop().expect("single frame").items)
}

/// The findings of one elaboration, kept as byte spans until the end so
/// that a clean file never builds a [`LineIndex`].
#[derive(Default)]
struct Findings {
    found: Vec<(Span, Severity, &'static str, String)>,
    errors: usize,
}

impl Findings {
    fn error(&mut self, span: Span, code: &'static str, message: impl Into<String>) {
        self.errors += 1;
        self.found
            .push((span, Severity::Error, code, message.into()));
    }

    fn warning(&mut self, span: Span, code: &'static str, message: impl Into<String>) {
        self.found
            .push((span, Severity::Warning, code, message.into()));
    }

    fn into_diagnostics(self, source: &str) -> Vec<Diagnostic> {
        if self.found.is_empty() {
            return Vec::new();
        }
        let idx = LineIndex::new(source);
        self.found
            .into_iter()
            .map(|(span, severity, code, message)| {
                let (line, col) = idx.position(span.start);
                Diagnostic {
                    line,
                    col,
                    severity,
                    code,
                    message,
                }
            })
            .collect()
    }
}

/// The elaborated `synth-fun` command.
struct SynthFun {
    name: String,
    params: Vec<(String, Sort)>,
    ret: Sort,
    nts: BTreeMap<String, Sort>,
    /// Built only while the file has no error: a rejected file needs none.
    grammar: Option<Grammar>,
}

impl SynthFun {
    fn param_sort(&self, name: &str) -> Option<Sort> {
        self.params.iter().find(|(p, _)| p == name).map(|(_, s)| *s)
    }
}

/// A grammar rule's right-hand side, in the form [`GrammarBuilder`] takes.
enum Rhs<'a> {
    Production(Symbol, Vec<&'a str>),
    Chain(&'a str),
}

#[derive(Default)]
struct Elaborator {
    findings: Findings,
    fun: Option<SynthFun>,
    declared: BTreeMap<String, Sort>,
    /// Declaration order, kept separately: the spec's input variables must
    /// come out in the order the file declares them, not sorted, so that
    /// printing a parsed problem reproduces the file.
    declared_order: Vec<String>,
}

impl Elaborator {
    fn problem(&mut self, sexps: &[Sexp], name: &str) -> Option<Problem> {
        // Commands first: declarations are collected before constraints are
        // elaborated, so declaration order in the file does not matter.
        let mut constraints: Vec<&Sexp> = Vec::new();
        let mut saw_check_synth = false;
        for s in sexps {
            let Some(items) = s.list() else {
                self.findings.error(
                    s.span,
                    "invalid-command",
                    "top-level atoms are not valid SyGuS commands",
                );
                continue;
            };
            let Some(head) = items.first().and_then(Sexp::atom) else {
                self.findings.warning(
                    s.span,
                    "invalid-command",
                    "command head is not an atom; the form is ignored",
                );
                continue;
            };
            match head {
                "set-logic" => match items.get(1).and_then(Sexp::atom) {
                    Some("LIA" | "CLIA") => {}
                    Some(other) => self.findings.warning(
                        items[1].span,
                        "unknown-logic",
                        format!("logic {other} is outside the supported LIA/CLIA fragment"),
                    ),
                    None => self.findings.warning(
                        s.span,
                        "unknown-logic",
                        "set-logic without a logic name",
                    ),
                },
                "check-synth" => saw_check_synth = true,
                "set-option" => {}
                "synth-fun" => {
                    if self.fun.is_some() {
                        self.findings.error(
                            s.span,
                            "duplicate-synth-fun",
                            "more than one synth-fun",
                        );
                    }
                    if let Some(fun) = self.synth_fun(s.span, items) {
                        self.fun = Some(fun);
                    }
                }
                "declare-var" => self.declare_var(s.span, items),
                "constraint" => match items.get(1) {
                    Some(formula) => {
                        if items.len() > 2 {
                            self.findings.error(
                                items[2].span,
                                "arity-mismatch",
                                "constraint takes a single formula",
                            );
                        }
                        constraints.push(formula);
                    }
                    None => self.findings.error(
                        s.span,
                        "malformed-constraint",
                        "constraint needs a formula",
                    ),
                },
                other => self.findings.error(
                    items[0].span,
                    "invalid-command",
                    format!("unsupported SyGuS command {other}"),
                ),
            }
        }

        let file_start = Span::default();
        if self.fun.is_none() {
            self.findings.error(
                file_start,
                "missing-synth-fun",
                "no synth-fun command found",
            );
        }
        if constraints.is_empty() {
            self.findings.warning(
                file_start,
                "no-constraint",
                "no constraint command: every grammar term trivially satisfies the empty specification",
            );
        }
        if !saw_check_synth {
            self.findings.warning(
                file_start,
                "missing-check-synth",
                "no check-synth command found",
            );
        }

        // Then the constraints, against the collected declarations; each
        // one is elaborated, even after an error, so that all are diagnosed.
        let formulas: Vec<Option<Formula>> = constraints.iter().map(|c| self.formula(c)).collect();
        if self.findings.errors > 0 {
            return None;
        }
        let fun = self.fun.take()?;
        let formula = Formula::and(formulas.into_iter().collect::<Option<Vec<_>>>()?);
        // Without declarations, the spec's inputs are the synth-fun's
        // parameters (constraints are single-invocation).
        let input_vars: Vec<String> = if self.declared_order.is_empty() {
            fun.params.into_iter().map(|(p, _)| p).collect()
        } else {
            std::mem::take(&mut self.declared_order)
        };
        let spec = Spec::new(formula, input_vars, fun.ret);
        Some(Problem::new(name, fun.grammar?, spec))
    }

    fn sort(&mut self, s: &Sexp) -> Option<Sort> {
        match s.atom() {
            Some("Int") => Some(Sort::Int),
            Some("Bool") => Some(Sort::Bool),
            other => {
                self.findings.error(
                    s.span,
                    "unknown-sort",
                    format!("unsupported sort {other:?}; only Int and Bool are available"),
                );
                None
            }
        }
    }

    fn declare_var(&mut self, span: Span, items: &[Sexp]) {
        let Some(name) = items.get(1).and_then(Sexp::atom) else {
            self.findings
                .error(span, "malformed-declare-var", "declare-var needs a name");
            return;
        };
        let Some(sort_sexp) = items.get(2) else {
            self.findings
                .error(span, "malformed-declare-var", "declare-var needs a sort");
            return;
        };
        let Some(sort) = self.sort(sort_sexp) else {
            return;
        };
        match self.declared.get(name) {
            Some(prev) if *prev != sort => self.findings.error(
                items[1].span,
                "conflicting-variable",
                format!("variable {name} is re-declared with sort {sort}, previously {prev}"),
            ),
            Some(_) => self.findings.warning(
                items[1].span,
                "duplicate-variable",
                format!("variable {name} is declared more than once"),
            ),
            None => {
                self.declared.insert(name.to_string(), sort);
                self.declared_order.push(name.to_string());
            }
        }
    }

    fn synth_fun(&mut self, span: Span, items: &[Sexp]) -> Option<SynthFun> {
        // (synth-fun name ((x Int) ...) Ret [(decls)] ((A Int (rules)) ...))
        if items.len() < 4 {
            self.findings.error(
                span,
                "malformed-synth-fun",
                "synth-fun needs a name, parameters and a return sort",
            );
            return None;
        }
        let Some(name) = items[1].atom() else {
            self.findings.error(
                items[1].span,
                "malformed-synth-fun",
                "synth-fun name must be an atom",
            );
            return None;
        };
        let mut params: Vec<(String, Sort)> = Vec::new();
        match items[2].list() {
            Some(plist) => {
                for p in plist {
                    let Some([name_sexp, sort_sexp]) = p.list() else {
                        self.findings.error(
                            p.span,
                            "malformed-synth-fun",
                            "parameter must be (name Sort)",
                        );
                        continue;
                    };
                    let Some(pname) = name_sexp.atom() else {
                        self.findings.error(
                            name_sexp.span,
                            "malformed-synth-fun",
                            "parameter name must be an atom",
                        );
                        continue;
                    };
                    let Some(psort) = self.sort(sort_sexp) else {
                        continue;
                    };
                    if params.iter().any(|(n, _)| n == pname) {
                        self.findings.error(
                            name_sexp.span,
                            "duplicate-parameter",
                            format!("parameter {pname} is declared more than once"),
                        );
                        continue;
                    }
                    params.push((pname.to_string(), psort));
                }
            }
            None => self.findings.error(
                items[2].span,
                "malformed-synth-fun",
                "synth-fun parameter list expected",
            ),
        }
        let ret = self.sort(&items[3])?;

        // SyGuS-IF v2 places the grouped rules at index 5, after a list of
        // nonterminal declarations; the direct format places them at 4.
        let grouped_sexp = if items.len() >= 6 {
            &items[5]
        } else if items.len() == 5 {
            &items[4]
        } else {
            self.findings.error(
                span,
                "malformed-synth-fun",
                "synth-fun must declare a grammar",
            );
            return None;
        };
        let Some(grouped) = grouped_sexp.list() else {
            self.findings.error(
                grouped_sexp.span,
                "malformed-synth-fun",
                "grouped grammar rules must be a list",
            );
            return None;
        };

        // Nonterminal declarations first, so rules can reference forward.
        let mut nts: BTreeMap<String, Sort> = BTreeMap::new();
        let mut order: Vec<(&str, Sort)> = Vec::new();
        for g in grouped {
            let Some(gl) = g.list().filter(|gl| gl.len() >= 3) else {
                self.findings.error(
                    g.span,
                    "malformed-synth-fun",
                    "grammar group must be (Name Sort (rules…))",
                );
                continue;
            };
            let Some(nt) = gl[0].atom() else {
                self.findings.error(
                    gl[0].span,
                    "malformed-synth-fun",
                    "nonterminal name must be an atom",
                );
                continue;
            };
            let Some(sort) = self.sort(&gl[1]) else {
                continue;
            };
            if nts.insert(nt.to_string(), sort).is_some() {
                self.findings.error(
                    gl[0].span,
                    "duplicate-nonterminal",
                    format!("nonterminal {nt} is declared more than once"),
                );
            } else {
                order.push((nt, sort));
            }
        }
        let Some(&(start, start_sort)) = order.first() else {
            self.findings.error(
                grouped_sexp.span,
                "malformed-synth-fun",
                "grammar has no nonterminals",
            );
            return None;
        };
        if start_sort != ret {
            self.findings.error(
                items[3].span,
                "return-sort-mismatch",
                format!(
                    "synth-fun returns {ret} but the start nonterminal {start} has sort {start_sort}"
                ),
            );
        }

        let mut fun = SynthFun {
            name: name.to_string(),
            params,
            ret,
            nts,
            grammar: None,
        };
        let mut builder = GrammarBuilder::new(start);
        for &(nt, sort) in &order {
            builder = builder.nonterminal(nt, sort);
        }
        // Rules, now that every nonterminal is known.
        for g in grouped {
            let Some(gl) = g.list().filter(|gl| gl.len() >= 3) else {
                continue;
            };
            let Some((lhs, lhs_sort)) = gl[0].atom().and_then(|n| Some((n, *fun.nts.get(n)?)))
            else {
                continue;
            };
            let Some(rules) = gl[2].list() else {
                self.findings.error(
                    gl[2].span,
                    "malformed-synth-fun",
                    "grammar rules must be a parenthesised list",
                );
                continue;
            };
            for rule in rules {
                builder = match self.rule(&fun, lhs, lhs_sort, rule) {
                    Some(Rhs::Production(symbol, args)) => builder.production(lhs, symbol, &args),
                    Some(Rhs::Chain(rhs)) => builder.chain(lhs, rhs),
                    None => builder,
                };
            }
        }
        if self.findings.errors == 0 {
            match builder.build() {
                Ok(grammar) => fun.grammar = Some(grammar),
                Err(e) => self.findings.error(span, "ill-sorted", e.to_string()),
            }
        }
        Some(fun)
    }

    /// Checks one rule of `lhs`; its right-hand side when the rule is
    /// well-formed.
    fn rule<'a>(
        &mut self,
        fun: &SynthFun,
        lhs: &str,
        lhs_sort: Sort,
        rule: &'a Sexp,
    ) -> Option<Rhs<'a>> {
        let errors = self.findings.errors;
        let rhs = match &rule.kind {
            SexpKind::Atom(a) => {
                if is_int_literal(a) {
                    let Ok(c) = a.parse::<i64>() else {
                        self.findings.error(rule.span, "overflow", out_of_range(a));
                        return None;
                    };
                    if lhs_sort != Sort::Int {
                        self.findings.error(
                            rule.span,
                            "ill-sorted",
                            format!("integer literal {a} in rules of Boolean nonterminal {lhs}"),
                        );
                    }
                    Rhs::Production(Symbol::Num(c), Vec::new())
                } else if let Some(psort) = fun.param_sort(a) {
                    if psort != lhs_sort {
                        self.findings.error(
                            rule.span,
                            "ill-sorted",
                            format!("parameter {a} has sort {psort} but appears in rules of {lhs} ({lhs_sort})"),
                        );
                    } else if psort != Sort::Int {
                        self.findings.error(
                            rule.span,
                            "ill-sorted",
                            format!("parameter {a} has sort {psort}; grammar rules can only use Int parameters"),
                        );
                    }
                    Rhs::Production(Symbol::Var(a.clone()), Vec::new())
                } else if let Some(&nt_sort) = fun.nts.get(a.as_str()) {
                    if nt_sort != lhs_sort {
                        self.findings.error(
                            rule.span,
                            "ill-sorted",
                            format!(
                                "chain rule {lhs} ::= {a} mixes sorts {lhs_sort} and {nt_sort}"
                            ),
                        );
                    }
                    Rhs::Chain(a)
                } else if a == "true" || a == "false" {
                    self.findings.error(
                        rule.span,
                        "bool-literal-rule",
                        "Boolean literals in grammars are not supported; use comparisons",
                    );
                    return None;
                } else {
                    self.findings.error(
                        rule.span,
                        "unknown-atom",
                        format!("unknown grammar atom {a} in rules of {lhs}: not a literal, parameter, or nonterminal"),
                    );
                    return None;
                }
            }
            SexpKind::List(items) => {
                let Some(op) = items.first().and_then(Sexp::atom) else {
                    self.findings.error(
                        rule.span,
                        "malformed-rule",
                        "rule operator must be an atom",
                    );
                    return None;
                };
                let symbol = match op {
                    "+" => Symbol::Plus,
                    "-" => Symbol::Minus,
                    "ite" => Symbol::IfThenElse,
                    "and" => Symbol::And,
                    "or" => Symbol::Or,
                    "not" => Symbol::Not,
                    "<" => Symbol::LessThan,
                    "=" => Symbol::Equal,
                    other => {
                        self.findings.error(
                            items[0].span,
                            "unknown-operator",
                            format!("unsupported grammar operator {other}"),
                        );
                        return None;
                    }
                };
                if symbol.sort() != lhs_sort {
                    self.findings.error(
                        rule.span,
                        "ill-sorted",
                        format!(
                            "operator {op} produces {} but appears in rules of {lhs} ({lhs_sort})",
                            symbol.sort()
                        ),
                    );
                }
                let args = &items[1..];
                match symbol.arity() {
                    Some(n) if n != args.len() => self.findings.error(
                        rule.span,
                        "arity-mismatch",
                        format!("operator {op} expects {n} arguments, got {}", args.len()),
                    ),
                    None if args.is_empty() => self.findings.error(
                        rule.span,
                        "arity-mismatch",
                        "variadic + requires at least one argument",
                    ),
                    _ => {}
                }
                let mut names = Vec::with_capacity(args.len());
                for (i, arg) in args.iter().enumerate() {
                    let Some(name) = arg.atom() else {
                        self.findings.error(
                            arg.span,
                            "nested-rule",
                            format!(
                                "nested terms in grammar rules are not supported (rule of {lhs}); \
                                 introduce an auxiliary nonterminal"
                            ),
                        );
                        continue;
                    };
                    let Some(&arg_sort) = fun.nts.get(name) else {
                        self.findings.error(
                            arg.span,
                            "unknown-atom",
                            format!("rule argument {name} of {lhs} is not a declared nonterminal"),
                        );
                        continue;
                    };
                    let expected = symbol.arg_sort(i);
                    if arg_sort != expected {
                        self.findings.error(
                            arg.span,
                            "ill-sorted",
                            format!(
                                "argument {i} of {op} must be {expected}, but {name} has sort {arg_sort}"
                            ),
                        );
                    }
                    names.push(name);
                }
                Rhs::Production(symbol, names)
            }
        };
        (self.findings.errors == errors).then_some(rhs)
    }

    /// Elaborates every form, so that each one is diagnosed; `Some` only
    /// when all of them elaborate.
    fn each<T>(
        &mut self,
        forms: &[Sexp],
        mut elaborate: impl FnMut(&mut Self, &Sexp) -> Option<T>,
    ) -> Option<Vec<T>> {
        let parts: Vec<Option<T>> = forms.iter().map(|f| elaborate(self, f)).collect();
        parts.into_iter().collect()
    }

    /// The operands of a fixed-arity operator: a wrong count is an error,
    /// and the first `N` operands are elaborated regardless.
    fn operands<const N: usize, T>(
        &mut self,
        form: &Sexp,
        op: &str,
        args: &[Sexp],
        elaborate: impl FnMut(&mut Self, &Sexp) -> Option<T>,
    ) -> Option<[T; N]> {
        if args.len() != N {
            self.findings.error(
                form.span,
                "arity-mismatch",
                format!("operator {op} expects {N} operands, got {}", args.len()),
            );
        }
        let parts = self.each(&args[..args.len().min(N)], elaborate)?;
        parts.try_into().ok()
    }

    /// Elaborates a constraint formula (Boolean context).
    fn formula(&mut self, sexp: &Sexp) -> Option<Formula> {
        let items = match &sexp.kind {
            SexpKind::Atom(a) if a == "true" => return Some(Formula::True),
            SexpKind::Atom(a) if a == "false" => return Some(Formula::False),
            SexpKind::Atom(a) => {
                self.findings.error(
                    sexp.span,
                    "unbound-variable",
                    format!("Boolean variables in constraints are not supported: {a}"),
                );
                return None;
            }
            SexpKind::List(items) => items,
        };
        let Some(op) = items.first().and_then(Sexp::atom) else {
            self.findings.error(
                sexp.span,
                "malformed-constraint",
                "operator must be an atom",
            );
            return None;
        };
        let args = &items[1..];
        match op {
            "=" | "<" | "<=" | ">" | ">=" => {
                let [lhs, rhs] = self.operands(sexp, op, args, Self::int_expr)?;
                Some(match op {
                    "=" => Formula::eq(lhs, rhs),
                    "<" => Formula::lt(lhs, rhs),
                    "<=" => Formula::le(lhs, rhs),
                    ">" => Formula::gt(lhs, rhs),
                    _ => Formula::ge(lhs, rhs),
                })
            }
            "and" => Some(Formula::and(self.each(args, Self::formula)?)),
            "or" => Some(Formula::or(self.each(args, Self::formula)?)),
            "not" => {
                let [f] = self.operands(sexp, op, args, Self::formula)?;
                Some(Formula::not(f))
            }
            "=>" => {
                let [a, b] = self.operands(sexp, op, args, Self::formula)?;
                Some(Formula::implies(a, b))
            }
            "ite" => {
                let [c, t, e] = self.operands(sexp, op, args, Self::formula)?;
                Some(Formula::ite(c, t, e))
            }
            other => {
                self.findings.error(
                    items[0].span,
                    "unknown-operator",
                    format!("unsupported Boolean operator {other}"),
                );
                None
            }
        }
    }

    /// Elaborates an integer-context constraint term into a linear
    /// expression, with checked arithmetic.
    fn int_expr(&mut self, sexp: &Sexp) -> Option<LinearExpr> {
        let items = match &sexp.kind {
            SexpKind::Atom(a) => return self.int_atom(sexp.span, a),
            SexpKind::List(items) => items,
        };
        let Some(op) = items.first().and_then(Sexp::atom) else {
            self.findings.error(
                sexp.span,
                "malformed-constraint",
                "operator must be an atom",
            );
            return None;
        };
        let args = &items[1..];
        let value = match op {
            "+" => self
                .each(args, Self::int_expr)?
                .into_iter()
                .try_fold(LinearExpr::zero(), LinearExpr::checked_add),
            "-" => {
                if args.is_empty() {
                    self.findings.error(
                        sexp.span,
                        "arity-mismatch",
                        "operator - needs at least one operand",
                    );
                    return None;
                }
                let mut parts = self.each(args, Self::int_expr)?.into_iter();
                let first = parts.next()?;
                if args.len() == 1 {
                    first.checked_scale(-1)
                } else {
                    parts.try_fold(first, LinearExpr::checked_sub)
                }
            }
            "*" => {
                if args.len() != 2 {
                    self.findings.error(
                        sexp.span,
                        "arity-mismatch",
                        "* must have exactly two operands",
                    );
                    return None;
                }
                let a = self.int_expr(&args[0])?;
                let b = self.int_expr(&args[1])?;
                if a.is_constant() {
                    b.checked_scale(a.constant_part())
                } else if b.is_constant() {
                    a.checked_scale(b.constant_part())
                } else {
                    self.findings.error(
                        sexp.span,
                        "nonlinear",
                        "non-linear multiplication is not supported",
                    );
                    return None;
                }
            }
            name if self.fun.as_ref().is_some_and(|f| f.name == name) => {
                return self.application(sexp.span, name, args)
            }
            other => {
                self.findings.error(
                    items[0].span,
                    "unknown-operator",
                    format!("unsupported integer operator {other}"),
                );
                return None;
            }
        };
        if value.is_none() {
            self.findings.error(
                sexp.span,
                "overflow",
                format!("the value of ({op} …) leaves the 64-bit integer range"),
            );
        }
        value
    }

    fn int_atom(&mut self, span: Span, a: &str) -> Option<LinearExpr> {
        if is_int_literal(a) {
            let Ok(c) = a.parse::<i64>() else {
                self.findings.error(span, "overflow", out_of_range(a));
                return None;
            };
            return Some(LinearExpr::constant(c));
        }
        let sort = self
            .declared
            .get(a)
            .copied()
            .or_else(|| self.fun.as_ref()?.param_sort(a));
        match sort {
            Some(Sort::Int) => Some(LinearExpr::var(Var::new(a))),
            Some(Sort::Bool) => {
                self.findings.error(
                    span,
                    "ill-sorted",
                    format!("Boolean variable {a} used in an integer context"),
                );
                None
            }
            None => {
                self.findings.error(
                    span,
                    "unbound-variable",
                    format!("unknown variable {a} in constraint"),
                );
                None
            }
        }
    }

    /// A single-invocation application `f(x̄)`, which stands for the
    /// reserved output variable.
    fn application(&mut self, span: Span, name: &str, args: &[Sexp]) -> Option<LinearExpr> {
        let fun = self.fun.as_ref()?;
        if args.len() != fun.params.len() {
            self.findings.error(
                span,
                "arity-mismatch",
                format!(
                    "application of {name} has {} arguments, but {name} declares {} parameters",
                    args.len(),
                    fun.params.len()
                ),
            );
        }
        for (arg, (param, _)) in args.iter().zip(&fun.params) {
            if arg.atom() != Some(param.as_str()) {
                self.findings.error(
                    arg.span,
                    "not-single-invocation",
                    "only single-invocation applications f(x̄) on the declared variables are supported",
                );
            }
        }
        Some(LinearExpr::var(Spec::output_var()))
    }
}

/// `true` when the atom is a decimal integer literal, whether or not its
/// value fits in i64.
fn is_int_literal(a: &str) -> bool {
    let digits = a.strip_prefix('-').unwrap_or(a);
    !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())
}

/// The `overflow` message of an integer literal outside i64.
fn out_of_range(literal: &str) -> String {
    format!("integer literal {literal} leaves the 64-bit integer range")
}

/// Reads a SyGuS-IF source text in one pass over its s-expressions.
///
/// Returns every finding as a [`Diagnostic`], in the order they are found,
/// and the [`Problem`] when no finding is a [`Severity::Error`].
pub fn parse_with_diagnostics(source: &str, name: &str) -> (Option<Problem>, Vec<Diagnostic>) {
    let sexps = match parse_sexps(source) {
        Ok(sexps) => sexps,
        Err(e) => {
            let (line, col, message) = match e {
                SygusError::ParseError(e) => (e.line, e.col, e.msg),
                other => (1, 1, other.to_string()),
            };
            let diagnostic = Diagnostic {
                line,
                col,
                severity: Severity::Error,
                code: "parse-error",
                message,
            };
            return (None, vec![diagnostic]);
        }
    };
    let mut elaborator = Elaborator::default();
    let problem = elaborator.problem(&sexps, name);
    (problem, elaborator.findings.into_diagnostics(source))
}

/// Parses a complete SyGuS-IF problem.
///
/// # Errors
/// Returns the first [`Severity::Error`] of [`parse_with_diagnostics`] as a
/// [`SygusError::ParseError`], carrying the offending token's line and
/// column.
///
/// # Example
/// ```
/// let src = r#"
///   (set-logic LIA)
///   (synth-fun f ((x Int)) Int
///     ((Start Int) (X Int))
///     ((Start Int ((+ X Start) 0))
///      (X Int (x))))
///   (declare-var x Int)
///   (constraint (= (f x) (+ (* 2 x) 2)))
///   (check-synth)
/// "#;
/// let problem = sygus::parser::parse_problem(src, "doc").unwrap();
/// assert_eq!(problem.grammar().num_nonterminals(), 2);
/// ```
pub fn parse_problem(input: &str, name: &str) -> Result<Problem, SygusError> {
    let (problem, diagnostics) = parse_with_diagnostics(input, name);
    if let Some(e) = diagnostics
        .into_iter()
        .find(|d| d.severity == Severity::Error)
    {
        return Err(SygusError::ParseError(ParseError::new(
            e.line, e.col, e.message,
        )));
    }
    Ok(problem.expect("a file without errors elaborates to a problem"))
}

/// Prints a grammar in the grouped SyGuS-IF rule format.
///
/// The start nonterminal is printed first (the format identifies the start
/// symbol positionally), so the output of this function parses back to the
/// same grammar via [`parse_problem`].
pub fn grammar_to_sygus(grammar: &Grammar) -> String {
    let mut out = String::new();
    let _ = write!(out, "(");
    let start_first: Vec<_> = std::iter::once(grammar.start())
        .chain(
            grammar
                .nonterminals()
                .iter()
                .filter(|n| *n != grammar.start()),
        )
        .collect();
    for (i, nt) in start_first.into_iter().enumerate() {
        if i > 0 {
            let _ = write!(out, "\n ");
        }
        let sort = grammar.sort_of(nt).expect("declared nonterminal");
        let _ = write!(out, "({nt} {sort} (");
        let rules: Vec<String> = grammar
            .productions_of(nt)
            .map(|p| {
                if p.args.is_empty() {
                    p.symbol.sygus_name()
                } else {
                    format!(
                        "({} {})",
                        p.symbol.sygus_name(),
                        p.args
                            .iter()
                            .map(|a| a.to_string())
                            .collect::<Vec<_>>()
                            .join(" ")
                    )
                }
            })
            .collect();
        let _ = write!(out, "{}))", rules.join(" "));
    }
    let _ = write!(out, ")");
    out
}

/// Prints a linear expression as a constraint-side s-expression. `app` is
/// the rendering of the synthesis-function application that stands in for
/// the reserved output variable.
fn linexpr_to_sygus(expr: &LinearExpr, app: &str) -> String {
    let render_var = |v: &Var| {
        if *v == Spec::output_var() {
            app.to_string()
        } else {
            v.name().to_string()
        }
    };
    let mut parts: Vec<String> = expr
        .terms()
        .map(|(v, c)| {
            let name = render_var(v);
            if c == 1 {
                name
            } else {
                format!("(* {c} {name})")
            }
        })
        .collect();
    let constant = expr.constant_part();
    if constant != 0 || parts.is_empty() {
        parts.push(constant.to_string());
    }
    if parts.len() == 1 {
        parts.pop().expect("len checked")
    } else {
        format!("(+ {})", parts.join(" "))
    }
}

/// Prints a formula as a constraint-side s-expression (`Ne` atoms become
/// `(not (= …))`, which [`parse_problem`] reads back as the equivalent
/// negated equality).
fn formula_to_sygus(formula: &Formula, app: &str) -> String {
    use logic::Rel;
    match formula {
        Formula::True => "true".to_string(),
        Formula::False => "false".to_string(),
        Formula::Atom(atom) => {
            let lhs = linexpr_to_sygus(&atom.lhs, app);
            let rhs = linexpr_to_sygus(&atom.rhs, app);
            match atom.rel {
                Rel::Eq => format!("(= {lhs} {rhs})"),
                Rel::Ne => format!("(not (= {lhs} {rhs}))"),
                Rel::Le => format!("(<= {lhs} {rhs})"),
                Rel::Lt => format!("(< {lhs} {rhs})"),
                Rel::Ge => format!("(>= {lhs} {rhs})"),
                Rel::Gt => format!("(> {lhs} {rhs})"),
            }
        }
        // A negated atom prints as the atom with the negated relation (and
        // `Ne` in turn as a negated equality): the printed form then
        // re-parses to the same normalized shape, keeping print ∘ parse a
        // fixpoint for double negations like `not (a ≠ b)`.
        Formula::Not(inner) => match inner.as_ref() {
            Formula::Atom(atom) => formula_to_sygus(&Formula::Atom(atom.negate()), app),
            other => format!("(not {})", formula_to_sygus(other, app)),
        },
        Formula::And(parts) => format!(
            "(and {})",
            parts
                .iter()
                .map(|p| formula_to_sygus(p, app))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        Formula::Or(parts) => format!(
            "(or {})",
            parts
                .iter()
                .map(|p| formula_to_sygus(p, app))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    }
}

/// Prints a complete problem in the SyGuS-IF fragment that
/// [`parse_problem`] reads, with `fun` as the synthesis-function name.
///
/// The output is a fixpoint of printing and parsing: for any problem in
/// the supported fragment,
/// `problem_to_sygus(&parse_problem(&problem_to_sygus(p, "f"), …), "f")`
/// equals `problem_to_sygus(p, "f")` — chain productions come out resolved
/// and `≠` atoms come out as negated equalities, exactly as the parser
/// normalizes them.
///
/// # Example
/// ```
/// use sygus::parser::{parse_problem, problem_to_sygus};
/// let src = r#"
///   (set-logic LIA)
///   (synth-fun f ((x Int)) Int ((Start Int ((+ Start Start) x 1))))
///   (declare-var x Int)
///   (constraint (= (f x) (+ x 2)))
///   (check-synth)
/// "#;
/// let problem = parse_problem(src, "doc").unwrap();
/// let printed = problem_to_sygus(&problem, "f");
/// let reparsed = parse_problem(&printed, "doc").unwrap();
/// assert_eq!(problem_to_sygus(&reparsed, "f"), printed);
/// ```
pub fn problem_to_sygus(problem: &Problem, fun: &str) -> String {
    let grammar = problem.grammar();
    let spec = problem.spec();
    let mut out = String::new();
    let logic = if grammar.is_lia() { "LIA" } else { "CLIA" };
    let _ = writeln!(out, "(set-logic {logic})");

    // The parameters are the spec's input variables, which `Problem::new`
    // extends with every grammar variable; every parameter is also
    // declared, so a reparse reproduces the same variables in the same
    // order.
    let params = spec.input_vars();
    let param_decls: Vec<String> = params.iter().map(|x| format!("({x} Int)")).collect();
    let _ = writeln!(
        out,
        "(synth-fun {fun} ({}) {}",
        param_decls.join(" "),
        spec.output_sort()
    );
    let grammar_text = grammar_to_sygus(grammar).replace('\n', "\n ");
    let _ = writeln!(out, "  {grammar_text})");

    for x in params {
        let _ = writeln!(out, "(declare-var {x} Int)");
    }

    let app = format!("({fun} {})", params.join(" "));
    // A top-level conjunction prints as one constraint per conjunct, which
    // is how SyGuS benchmarks are usually written; parse_problem conjoins
    // them back.
    let conjuncts: Vec<&Formula> = match spec.formula() {
        Formula::And(parts) => parts.iter().collect(),
        single => vec![single],
    };
    for c in conjuncts {
        let _ = writeln!(out, "(constraint {})", formula_to_sygus(c, app.as_str()));
    }
    let _ = writeln!(out, "(check-synth)");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::ExampleSet;
    use crate::term::Term;

    const SECTION2_LIA: &str = r#"
      ; the LIA problem of Section 2 (grammar G1)
      (set-logic LIA)
      (synth-fun f ((x Int)) Int
        ((Start Int) (S1 Int) (S2 Int) (S3 Int))
        ((Start Int ((+ S1 Start) 0))
         (S1 Int ((+ S2 S3)))
         (S2 Int ((+ S3 S3)))
         (S3 Int (x))))
      (declare-var x Int)
      (constraint (= (f x) (+ (* 2 x) 2)))
      (check-synth)
    "#;

    fn parse_err(input: &str) -> ParseError {
        match parse_problem(input, "err") {
            Err(SygusError::ParseError(e)) => e,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn sexp_parsing() {
        let sexps = parse_sexps("(a (b 1) ; comment\n c)").unwrap();
        assert_eq!(sexps.len(), 1);
        match &sexps[0].kind {
            SexpKind::List(items) => assert_eq!(items.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_sexps("(a (b)").is_err());
        assert!(parse_sexps("a) b").is_err());
    }

    #[test]
    fn sexp_spans_cover_the_source() {
        let src = "(a (b 1)\n c)";
        let sexps = parse_sexps(src).unwrap();
        let top = &sexps[0];
        assert_eq!(top.span, Span::new(0, src.len() as u32));
        let items = top.list().unwrap();
        assert_eq!(
            &src[items[0].span.start as usize..items[0].span.end as usize],
            "a"
        );
        assert_eq!(
            &src[items[1].span.start as usize..items[1].span.end as usize],
            "(b 1)"
        );
        assert_eq!(
            &src[items[2].span.start as usize..items[2].span.end as usize],
            "c"
        );
    }

    #[test]
    fn line_index_positions() {
        let idx = LineIndex::new("ab\ncd\n\nx");
        assert_eq!(idx.position(0), (1, 1));
        assert_eq!(idx.position(1), (1, 2));
        assert_eq!(idx.position(3), (2, 1));
        assert_eq!(idx.position(4), (2, 2));
        assert_eq!(idx.position(6), (3, 1));
        assert_eq!(idx.position(7), (4, 1));
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        // the unknown grammar atom `y` sits on line 2
        let e =
            parse_err("(synth-fun f ((x Int)) Int\n  ((Start Int (y))))\n(constraint (= (f x) x))");
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("unknown grammar atom y"));
        assert_eq!(
            &"  ((Start Int (y))))"[e.col as usize - 1..e.col as usize],
            "y"
        );

        // an unbalanced close paren reports its own position
        let e = match parse_sexps("(a)\n)") {
            Err(SygusError::ParseError(e)) => e,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!((e.line, e.col), (2, 1));
        assert!(e.msg.contains("unbalanced ')'"));

        // unknown constraint variable, with column pointing at the token
        let e =
            parse_err("(synth-fun f ((x Int)) Int ((Start Int (x))))\n(constraint (= (f x) zz))");
        assert_eq!(e.line, 2);
        assert_eq!(e.col, 22);
        assert!(e.msg.contains("unknown variable zz"));
    }

    #[test]
    fn display_of_parse_errors_is_line_col_prefixed() {
        let e = parse_err("(unsupported-command)");
        let rendered = SygusError::ParseError(e).to_string();
        assert!(
            rendered.starts_with("parse error at 1:2:"),
            "unexpected rendering {rendered}"
        );
    }

    #[test]
    fn malformed_constraints_error_instead_of_panicking() {
        for bad in [
            "(constraint)",
            "(synth-fun f ((x Int)) Int ((Start Int (x))))\n(constraint (=))",
            "(synth-fun f ((x Int)) Int ((Start Int (x))))\n(constraint (not))",
            "(synth-fun f ((x Int)) Int ((Start Int (x))))\n(constraint (- ))",
        ] {
            assert!(
                matches!(parse_problem(bad, "bad"), Err(SygusError::ParseError(_))),
                "input {bad:?} must produce a parse error"
            );
        }
    }

    #[test]
    fn parses_the_section2_problem() {
        let p = parse_problem(SECTION2_LIA, "section2").unwrap();
        assert_eq!(p.grammar().num_nonterminals(), 4);
        assert_eq!(p.grammar().num_productions(), 5);
        assert!(p.grammar().is_lia());
        // spec: f(1) must be 4
        let e = crate::Example::from_pairs([("x", 1)]);
        assert!(p.spec().holds(&e, 4));
        assert!(!p.spec().holds(&e, 3));
    }

    #[test]
    fn parsed_grammar_generates_3kx() {
        let p = parse_problem(SECTION2_LIA, "section2").unwrap();
        let examples = ExampleSet::for_single_var("x", [1]);
        for t in p.grammar().terms_up_to_size(p.grammar().start(), 9, 100) {
            let out = t.eval_on(&examples).unwrap();
            let v = out.as_int().unwrap()[0];
            assert_eq!(v % 3, 0, "grammar G1 should only produce multiples of 3·x");
        }
    }

    #[test]
    fn chain_productions_are_resolved() {
        let src = r#"
          (synth-fun f ((x Int)) Int
            ((Start Int) (A Int))
            ((Start Int (A))
             (A Int (x 0))))
          (constraint (= (f x) x))
        "#;
        let p = parse_problem(src, "chain").unwrap();
        // Start has the copied productions of A
        assert!(p.grammar().contains_term(&Term::var("x")));
        assert!(p.grammar().contains_term(&Term::num(0)));
    }

    #[test]
    fn clia_grammar_parsing() {
        let src = r#"
          (set-logic CLIA)
          (synth-fun f ((x Int) (y Int)) Int
            ((Start Int) (B Bool))
            ((Start Int (x y 0 1 (+ Start Start) (ite B Start Start)))
             (B Bool ((< Start Start) (and B B) (not B)))))
          (declare-var x Int)
          (declare-var y Int)
          (constraint (>= (f x y) x))
          (constraint (>= (f x y) y))
          (constraint (or (= (f x y) x) (= (f x y) y)))
          (check-synth)
        "#;
        let p = parse_problem(src, "max2").unwrap();
        assert!(p.grammar().has_ite());
        assert_eq!(p.grammar().bool_nonterminals().len(), 1);
        assert_eq!(p.grammar().variables().len(), 2);
        // max(3,5) = 5 satisfies, 4 does not
        let e = crate::Example::from_pairs([("x", 3), ("y", 5)]);
        assert!(p.spec().holds(&e, 5));
        assert!(!p.spec().holds(&e, 4));
    }

    #[test]
    fn rejects_nonlinear_and_unknown() {
        let bad = r#"
          (synth-fun f ((x Int)) Int ((Start Int)) ((Start Int (x))))
          (declare-var x Int)
          (constraint (= (f x) (* x x)))
        "#;
        assert!(parse_problem(bad, "bad").is_err());
        let unknown = r#"
          (synth-fun f ((x Int)) Int ((Start Int)) ((Start Int (y))))
        "#;
        assert!(parse_problem(unknown, "bad").is_err());
    }

    #[test]
    fn grammar_printer_round_trips_through_parser() {
        let p = parse_problem(SECTION2_LIA, "section2").unwrap();
        let printed = grammar_to_sygus(p.grammar());
        assert!(printed.contains("(Start Int"));
        assert!(printed.contains("(+ S1 Start)"));
    }

    #[test]
    fn problem_printer_is_a_parse_fixpoint() {
        for src in [
            SECTION2_LIA,
            r#"
              (set-logic CLIA)
              (synth-fun f ((x Int) (y Int)) Int
                ((Start Int) (B Bool))
                ((Start Int (x y 0 1 (+ Start Start) (ite B Start Start)))
                 (B Bool ((< Start Start) (and B B) (not B)))))
              (declare-var x Int)
              (declare-var y Int)
              (constraint (>= (f x y) x))
              (constraint (>= (f x y) y))
              (constraint (or (= (f x y) x) (= (f x y) y)))
              (check-synth)
            "#,
        ] {
            let problem = parse_problem(src, "fixpoint").unwrap();
            let printed = problem_to_sygus(&problem, "f");
            let reparsed = parse_problem(&printed, "fixpoint").unwrap();
            assert_eq!(problem_to_sygus(&reparsed, "f"), printed);
        }
    }

    #[test]
    fn printer_preserves_verdict_relevant_structure() {
        let problem = parse_problem(SECTION2_LIA, "section2").unwrap();
        let printed = problem_to_sygus(&problem, "f");
        let reparsed = parse_problem(&printed, "section2").unwrap();
        assert_eq!(
            reparsed.grammar().num_nonterminals(),
            problem.grammar().num_nonterminals()
        );
        assert_eq!(
            reparsed.grammar().num_productions(),
            problem.grammar().num_productions()
        );
        assert_eq!(reparsed.spec().input_vars(), problem.spec().input_vars());
        let e = crate::Example::from_pairs([("x", 3)]);
        for out in -10..=10 {
            assert_eq!(
                reparsed.spec().holds(&e, out),
                problem.spec().holds(&e, out)
            );
        }
    }

    #[test]
    fn declare_var_order_is_preserved() {
        let src = r#"
          (synth-fun f ((x1 Int) (k Int)) Int ((Start Int (x1 k 0))))
          (declare-var x1 Int)
          (declare-var k Int)
          (constraint (= (f x1 k) x1))
        "#;
        let p = parse_problem(src, "order").unwrap();
        assert_eq!(p.spec().input_vars(), ["x1".to_string(), "k".to_string()]);
    }

    #[test]
    fn printer_handles_negative_coefficients_and_constants() {
        let src = r#"
          (synth-fun f ((x Int)) Int ((Start Int (x -3 (+ Start Start)))))
          (declare-var x Int)
          (constraint (= (f x) (- (* 2 x) 5)))
        "#;
        let problem = parse_problem(src, "neg").unwrap();
        let printed = problem_to_sygus(&problem, "f");
        let reparsed = parse_problem(&printed, "neg").unwrap();
        assert_eq!(problem_to_sygus(&reparsed, "f"), printed);
        let e = crate::Example::from_pairs([("x", 4)]);
        assert!(reparsed.spec().holds(&e, 3));
    }

    #[test]
    fn a_difference_whose_value_fits_is_accepted() {
        // −1 − (−2⁶³) = 2⁶³ − 1: no intermediate value leaves i64.
        let src = "(set-logic LIA)\n\
                   (synth-fun f ((x Int)) Int ((Start Int (x 0 (+ Start Start)))))\n\
                   (declare-var x Int)\n\
                   (constraint (= (f x) (- -1 -9223372036854775808)))\n\
                   (check-synth)";
        let problem = parse_problem(src, "max").unwrap();
        let e = crate::Example::from_pairs([("x", 0)]);
        assert!(problem.spec().holds(&e, i64::MAX));
    }

    #[test]
    fn integer_literals_outside_i64_are_overflow_errors() {
        let constraint = "(set-logic LIA)\n\
                          (synth-fun f ((x Int)) Int ((Start Int (x))))\n\
                          (declare-var x Int)\n\
                          (constraint (= (f x) 9223372036854775808))\n\
                          (check-synth)";
        let rule = "(set-logic LIA)\n\
                    (synth-fun f ((x Int)) Int ((Start Int (x -9223372036854775809))))\n\
                    (declare-var x Int)\n\
                    (constraint (= (f x) x))\n\
                    (check-synth)";
        for src in [constraint, rule] {
            let (problem, diagnostics) = parse_with_diagnostics(src, "literal");
            assert!(problem.is_none());
            let codes: Vec<_> = diagnostics.iter().map(|d| d.code).collect();
            assert_eq!(codes, ["overflow"], "{src}");
            assert!(parse_err(src).msg.contains("64-bit integer range"));
        }
    }

    #[test]
    fn constraint_arithmetic_that_overflows_is_rejected_at_its_form() {
        for constant in ["(* 4611686018427387904 4)", "(- -9223372036854775808)"] {
            let src = format!(
                "(set-logic LIA)\n\
                 (synth-fun f ((x Int)) Int ((Start Int (x 0 (+ Start Start)))))\n\
                 (declare-var x Int)\n\
                 (constraint (= (f x) {constant}))\n\
                 (check-synth)"
            );
            let e = parse_err(&src);
            assert_eq!((e.line, e.col), (4, 22), "{constant}: {e}");
            assert!(e.msg.contains("64-bit integer range"), "{e}");
            let (problem, diagnostics) = parse_with_diagnostics(&src, "overflow");
            assert!(problem.is_none());
            let codes: Vec<_> = diagnostics.iter().map(|d| d.code).collect();
            assert_eq!(codes, ["overflow"]);
        }
    }
}
