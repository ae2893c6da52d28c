//! Recursive-descent parser for the Ur surface language (paper §2 syntax).
//!
//! Noteworthy disambiguations:
//!
//! * `[ ... ]` in type position is a row literal unless a `~` follows the
//!   first constructor, in which case it is a disjointness guard
//!   `[c1 ~ c2] => t`.
//! * `x :: K -> t` parses as a polymorphic type when an identifier is
//!   immediately followed by `::` (the paper: "the parsing precedence of
//!   the :: operator is such that it binds more tightly than any other").
//! * In an application spine, `e [c]` is explicit constructor application
//!   and `e !` discharges a disjointness guard.

use crate::ast::*;
use crate::lex::{lex, LexError, SpannedTok, Tok};
use std::fmt;
use std::sync::mpsc;

/// Parse errors, carrying the offending position.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    pub span: Span,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            span: e.span,
            message: e.message,
        }
    }
}

impl From<ParseError> for crate::diag::Diagnostic {
    fn from(e: ParseError) -> Self {
        let code = if e.message.contains(TOO_DEEP_MSG) {
            crate::diag::Code::ParseTooDeep
        } else if e.message.starts_with("unterminated") {
            crate::diag::Code::LexUnterminated
        } else {
            crate::diag::Code::Parse
        };
        crate::diag::Diagnostic::new(e.span, code, e.message)
    }
}

/// Maximum nesting depth of the recursive-descent parser. Inputs nested
/// deeper than this (e.g. ten thousand unbalanced `(`s) are rejected with
/// a `ParseTooDeep` diagnostic instead of overflowing the stack. One
/// nesting level costs several grammar-cascade stack frames (expression →
/// binop chain → application → atom), each of which is kilobyte-sized in
/// debug builds — tens of kilobytes of stack per level in the worst case.
/// Inputs nested deeper than [`INLINE_PARSE_DEPTH`] are therefore parsed
/// on a dedicated [`PARSER_STACK_BYTES`] thread, independent of the
/// caller's stack, and 200 levels keep the worst case under ~1/3 of it.
pub const MAX_PARSE_DEPTH: usize = 200;

/// Nesting budget of the first parse, which runs on the caller's own
/// stack: ~800 KiB in the worst case in debug builds, well inside a
/// 2 MiB thread. Almost every real input fits, and skips the hand-off
/// to the parser-stack thread.
const INLINE_PARSE_DEPTH: usize = 32;

/// Stack size of the dedicated parsing thread. The recursive-descent
/// cascade costs up to ~25 KiB of stack per nesting level in debug
/// builds, so [`MAX_PARSE_DEPTH`] levels fit with a ~3× margin.
const PARSER_STACK_BYTES: usize = 16 * 1024 * 1024;

const TOO_DEEP_MSG: &str = "nesting too deep";

/// A job for the parser-stack thread.
type ParseJob = Box<dyn FnOnce() + Send>;

thread_local! {
    /// The calling thread's parked parser-stack thread, spawned on first
    /// use. Dropping the sender when the caller exits ends the worker.
    static PARSER_THREAD: std::cell::RefCell<Option<mpsc::Sender<ParseJob>>> =
        const { std::cell::RefCell::new(None) };
}

fn spawn_parser_thread() -> Option<mpsc::Sender<ParseJob>> {
    let (tx, rx) = mpsc::channel::<ParseJob>();
    std::thread::Builder::new()
        .name("ur-parse".into())
        .stack_size(PARSER_STACK_BYTES)
        .spawn(move || {
            for job in rx {
                job();
            }
        })
        .ok()?;
    Some(tx)
}

/// Runs `f` on a thread with a parser-sized stack, so the depth guard —
/// not the caller's (possibly 2 MiB test-runner) stack — is what bounds
/// recursion. Each calling thread keeps one such thread parked between
/// deep parses, so one costs a hand-off rather than a thread spawn.
/// Falls back to a structured error if the thread cannot be spawned or
/// the parser panics; callers never see a panic.
fn on_parser_stack<T, F>(f: F) -> PResult<T>
where
    T: Send + 'static,
    F: FnOnce() -> PResult<T> + Send + 'static,
{
    let (done, result) = mpsc::sync_channel(1);
    let job: ParseJob = Box::new(move || {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let _ = done.send(r);
    });
    let sent = PARSER_THREAD.try_with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            *slot = spawn_parser_thread();
        }
        let sent = slot.as_ref().is_some_and(|tx| tx.send(job).is_ok());
        if !sent {
            // Respawn on the next parse.
            *slot = None;
        }
        sent
    });
    if sent != Ok(true) {
        return Err(ParseError {
            span: Span::default(),
            message: "could not allocate parser stack".into(),
        });
    }
    match result.recv() {
        Ok(Ok(r)) => r,
        _ => Err(ParseError {
            span: Span::default(),
            message: "internal parser error".into(),
        }),
    }
}

type PResult<T> = Result<T, ParseError>;

/// Lexes `src` and runs `entry` over its tokens: first on the caller's
/// stack under [`INLINE_PARSE_DEPTH`], and only if the input nests
/// deeper than that, again on the parser-stack thread under
/// [`MAX_PARSE_DEPTH`]. The parse is deterministic and the budget is the
/// only difference between the two, so the result (E0201 included) is
/// the one a single parse under the full budget gives.
fn parse_with<T>(src: &str, entry: fn(&mut Parser) -> PResult<T>) -> PResult<T>
where
    T: Send + 'static,
{
    let mut p = Parser::new(lex(src)?, INLINE_PARSE_DEPTH);
    let inline = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| entry(&mut p)));
    match inline {
        Ok(r) if !p.over_budget => r,
        Ok(_) => {
            let toks = std::mem::take(&mut p.toks);
            on_parser_stack(move || entry(&mut Parser::new(toks, MAX_PARSE_DEPTH)))
        }
        Err(_) => Err(ParseError {
            span: Span::default(),
            message: "internal parser error".into(),
        }),
    }
}

/// Parses a full program (a sequence of declarations).
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
pub fn parse_program(src: &str) -> PResult<Program> {
    parse_with(src, |p| {
        let mut decls = Vec::new();
        while p.peek() != &Tok::Eof {
            decls.push(p.decl()?);
        }
        Ok(Program { decls })
    })
}

/// Parses a single expression (useful for tests and the REPL example).
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
pub fn parse_expr(src: &str) -> PResult<SExpr> {
    parse_with(src, |p| {
        let e = p.expr()?;
        p.expect(Tok::Eof)?;
        Ok(e)
    })
}

/// Parses a single constructor (type).
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
pub fn parse_con(src: &str) -> PResult<SCon> {
    parse_with(src, |p| {
        let c = p.con()?;
        p.expect(Tok::Eof)?;
        Ok(c)
    })
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    depth: usize,
    /// Nesting levels this parse may use.
    budget: usize,
    /// Set once the parse has gone over `budget`.
    over_budget: bool,
}

impl Parser {
    fn new(toks: Vec<SpannedTok>, budget: usize) -> Parser {
        Parser {
            toks,
            pos: 0,
            depth: 0,
            budget,
            over_budget: false,
        }
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: Tok) -> bool {
        if *self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> PResult<()> {
        if self.eat(t.clone()) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{t}`, found `{}`", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            span: self.span(),
            message,
        }
    }

    fn ident(&mut self) -> PResult<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found `{other}`"))),
        }
    }

    /// An identifier in name-literal position (`#N`); the kind keywords
    /// `Type` and `Name` are acceptable names there.
    fn name_ident(&mut self) -> PResult<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            Tok::KwType => {
                self.bump();
                Ok("Type".to_string())
            }
            Tok::KwName => {
                self.bump();
                Ok("Name".to_string())
            }
            other => Err(self.err(format!("expected a name, found `{other}`"))),
        }
    }

    // ---------------- declarations ----------------

    fn decl(&mut self) -> PResult<SDecl> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Con => {
                self.bump();
                let name = self.ident()?;
                self.expect(Tok::DColon)?;
                let k = self.kind()?;
                if self.eat(Tok::Eq) {
                    let c = self.con()?;
                    Ok(SDecl::ConDef(span, name, Some(k), c))
                } else {
                    Ok(SDecl::ConAbs(span, name, k))
                }
            }
            Tok::Type => {
                self.bump();
                let name = self.ident()?;
                // Optional parameters: `(x :: K)` groups or bare idents.
                let mut params: Vec<(String, Option<SKind>)> = Vec::new();
                loop {
                    match self.peek().clone() {
                        Tok::Ident(x) => {
                            self.bump();
                            params.push((x, None));
                        }
                        Tok::LParen => {
                            self.bump();
                            let x = self.ident()?;
                            self.expect(Tok::DColon)?;
                            let k = self.kind()?;
                            self.expect(Tok::RParen)?;
                            params.push((x, Some(k)));
                        }
                        _ => break,
                    }
                }
                self.expect(Tok::Eq)?;
                let mut body = self.con()?;
                for (x, k) in params.into_iter().rev() {
                    body = SCon::Lam(span, x, k, Box::new(body));
                }
                Ok(SDecl::ConDef(span, name, None, body))
            }
            Tok::Val => {
                self.bump();
                let name = self.ident()?;
                let ann = if self.eat(Tok::Colon) {
                    Some(self.con()?)
                } else {
                    None
                };
                if self.eat(Tok::Eq) {
                    let e = self.expr()?;
                    Ok(SDecl::Val(span, name, ann, e))
                } else {
                    match ann {
                        Some(t) => Ok(SDecl::ValAbs(span, name, t)),
                        None => Err(self.err(
                            "`val` without a body needs a type annotation".into(),
                        )),
                    }
                }
            }
            Tok::Fun => {
                self.bump();
                let name = self.ident()?;
                let params = self.params()?;
                let ann = if self.eat(Tok::Colon) {
                    Some(self.con()?)
                } else {
                    None
                };
                self.expect(Tok::Eq)?;
                let e = self.expr()?;
                Ok(SDecl::Fun(span, name, params, ann, e))
            }
            other => Err(self.err(format!("expected a declaration, found `{other}`"))),
        }
    }

    /// Parses zero or more `fn`/`fun` parameters.
    fn params(&mut self) -> PResult<Vec<SParam>> {
        let mut out = Vec::new();
        loop {
            match self.peek().clone() {
                Tok::LBrack => {
                    self.bump();
                    out.push(self.bracket_param()?);
                }
                Tok::LParen => {
                    // `(x : t)` — but avoid consuming `(` of an expression:
                    // parameters only appear before `=`/`=>`, so a LParen
                    // here is always a typed value binder.
                    self.bump();
                    let x = match self.peek().clone() {
                        Tok::Ident(x) => {
                            self.bump();
                            x
                        }
                        Tok::Under => {
                            self.bump();
                            "_".into()
                        }
                        other => {
                            return Err(
                                self.err(format!("expected parameter name, found `{other}`"))
                            )
                        }
                    };
                    self.expect(Tok::Colon)?;
                    let t = self.con()?;
                    self.expect(Tok::RParen)?;
                    out.push(SParam::VParam(x, Some(t)));
                }
                Tok::Ident(x) => {
                    self.bump();
                    out.push(SParam::VParam(x, None));
                }
                Tok::Under => {
                    self.bump();
                    out.push(SParam::VParam("_".into(), None));
                }
                _ => return Ok(out),
            }
        }
    }

    /// Parses the interior of a `[...]` parameter: either a constructor
    /// binder `[a :: K]` / `[a]`, or a disjointness binder `[c1 ~ c2]`.
    fn bracket_param(&mut self) -> PResult<SParam> {
        // `[[...] ~ ...]` — definitely a disjointness binder.
        if *self.peek() == Tok::LBrack {
            let c1 = self.con()?;
            self.expect(Tok::Tilde)?;
            let c2 = self.con()?;
            self.expect(Tok::RBrack)?;
            return Ok(SParam::DParam(c1, c2));
        }
        if let Tok::Ident(x) = self.peek().clone() {
            match self.peek2().clone() {
                Tok::RBrack => {
                    self.bump();
                    self.bump();
                    return Ok(SParam::CParam(x, None));
                }
                Tok::DColon => {
                    self.bump();
                    self.bump();
                    let k = self.kind()?;
                    self.expect(Tok::RBrack)?;
                    return Ok(SParam::CParam(x, Some(k)));
                }
                _ => {}
            }
        }
        let c1 = self.con()?;
        self.expect(Tok::Tilde)?;
        let c2 = self.con()?;
        self.expect(Tok::RBrack)?;
        Ok(SParam::DParam(c1, c2))
    }

    /// Charges one level of parser recursion; deeply nested inputs get a
    /// `ParseTooDeep` error instead of a stack overflow.
    fn descend(&mut self) -> PResult<()> {
        self.depth += 1;
        if self.depth > self.budget {
            self.over_budget = true;
            Err(self.err(format!(
                "{TOO_DEEP_MSG}: the parse-depth budget of {MAX_PARSE_DEPTH} \
                 nesting levels is exhausted"
            )))
        } else {
            Ok(())
        }
    }

    fn ascend(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    // ---------------- kinds ----------------

    fn kind(&mut self) -> PResult<SKind> {
        self.descend()?;
        let out = self.kind_inner();
        self.ascend();
        out
    }

    fn kind_inner(&mut self) -> PResult<SKind> {
        let lhs = self.kind_pair()?;
        if self.eat(Tok::Arrow) {
            let rhs = self.kind()?;
            Ok(SKind::Arrow(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn kind_pair(&mut self) -> PResult<SKind> {
        // Iterative right fold: `k1 * k2 * ... * kn` in O(1) stack.
        let mut parts = vec![self.kind_atom()?];
        while self.eat(Tok::Star) {
            parts.push(self.kind_atom()?);
        }
        let mut out = match parts.pop() {
            Some(last) => last,
            None => return Err(self.err("expected a kind".into())),
        };
        while let Some(lhs) = parts.pop() {
            out = SKind::Pair(Box::new(lhs), Box::new(out));
        }
        Ok(out)
    }

    fn kind_atom(&mut self) -> PResult<SKind> {
        match self.peek().clone() {
            Tok::KwType => {
                self.bump();
                Ok(SKind::Type)
            }
            Tok::KwName => {
                self.bump();
                Ok(SKind::Name)
            }
            Tok::Under => {
                self.bump();
                Ok(SKind::Wild)
            }
            Tok::LBrace => {
                self.bump();
                let k = self.kind()?;
                self.expect(Tok::RBrace)?;
                Ok(SKind::Row(Box::new(k)))
            }
            Tok::LParen => {
                self.bump();
                let k = self.kind()?;
                self.expect(Tok::RParen)?;
                Ok(k)
            }
            other => Err(self.err(format!("expected a kind, found `{other}`"))),
        }
    }

    // ---------------- constructors ----------------

    fn con(&mut self) -> PResult<SCon> {
        self.descend()?;
        let out = self.con_inner();
        self.ascend();
        out
    }

    fn con_inner(&mut self) -> PResult<SCon> {
        let span = self.span();
        // Polymorphic type: IDENT :: K -> c. The binder kind parses
        // without a top-level arrow (write `tf :: ({Type} -> Type) -> ...`
        // for function kinds), so the `->` always belongs to the
        // polymorphic type itself.
        if let Tok::Ident(x) = self.peek().clone() {
            if *self.peek2() == Tok::DColon {
                self.bump();
                self.bump();
                let k = self.kind_pair()?;
                self.expect(Tok::Arrow)?;
                let body = self.con()?;
                return Ok(SCon::Poly(span, x, k, Box::new(body)));
            }
        }
        // `fn` constructor-level function.
        if *self.peek() == Tok::Fn {
            return self.con_fn();
        }
        // `[c1 ~ c2] => t` guard, or a row literal starting an arrow chain.
        if *self.peek() == Tok::LBrack {
            if let Some(guard) = self.try_guard(span)? {
                return Ok(guard);
            }
        }
        self.con_arrow()
    }

    /// After seeing `[`, determines whether this is a guard
    /// `[c1 ~ c2] => t`. On success consumes through the body; otherwise
    /// rewinds and returns `None`.
    fn try_guard(&mut self, span: Span) -> PResult<Option<SCon>> {
        let save = self.pos;
        self.expect(Tok::LBrack)?;
        let c1 = match self.con() {
            Ok(c) => c,
            Err(_) => {
                self.pos = save;
                return Ok(None);
            }
        };
        if !self.eat(Tok::Tilde) {
            self.pos = save;
            return Ok(None);
        }
        let c2 = self.con()?;
        self.expect(Tok::RBrack)?;
        self.expect(Tok::DArrow)?;
        let body = self.con()?;
        Ok(Some(SCon::Guarded(
            span,
            Box::new(c1),
            Box::new(c2),
            Box::new(body),
        )))
    }

    fn con_fn(&mut self) -> PResult<SCon> {
        let span = self.span();
        self.expect(Tok::Fn)?;
        // Binders: `x`, `x :: K` (single, unparenthesized), or repeated
        // `(x :: K)` groups.
        let mut binders: Vec<(String, Option<SKind>)> = Vec::new();
        loop {
            match self.peek().clone() {
                Tok::Ident(x) => {
                    self.bump();
                    if binders.is_empty() && self.eat(Tok::DColon) {
                        let k = self.kind()?;
                        binders.push((x, Some(k)));
                        break;
                    }
                    binders.push((x, None));
                }
                Tok::Under => {
                    self.bump();
                    binders.push(("_".to_string(), None));
                }
                Tok::LParen => {
                    self.bump();
                    let x = self.ident()?;
                    self.expect(Tok::DColon)?;
                    let k = self.kind()?;
                    self.expect(Tok::RParen)?;
                    binders.push((x, Some(k)));
                }
                _ => break,
            }
        }
        if binders.is_empty() {
            return Err(self.err("`fn` at type level needs at least one binder".into()));
        }
        self.expect(Tok::DArrow)?;
        let mut body = self.con()?;
        for (x, k) in binders.into_iter().rev() {
            body = SCon::Lam(span, x, k, Box::new(body));
        }
        Ok(body)
    }

    fn con_arrow(&mut self) -> PResult<SCon> {
        let span = self.span();
        let lhs = self.con_cat()?;
        if self.eat(Tok::Arrow) {
            let rhs = self.con()?;
            Ok(SCon::Arrow(span, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn con_cat(&mut self) -> PResult<SCon> {
        // Iterative right fold, like `e_cat`: wide `++` chains must not
        // consume stack proportional to their length.
        let span = self.span();
        let mut parts = vec![self.con_app()?];
        while self.eat(Tok::PlusPlus) {
            parts.push(self.con_app()?);
        }
        let mut out = match parts.pop() {
            Some(last) => last,
            None => return Err(self.err("expected a constructor".into())),
        };
        while let Some(lhs) = parts.pop() {
            out = SCon::Cat(span, Box::new(lhs), Box::new(out));
        }
        Ok(out)
    }

    fn con_app(&mut self) -> PResult<SCon> {
        let span = self.span();
        let mut head = self.con_atom()?;
        loop {
            match self.peek() {
                Tok::Ident(_)
                | Tok::Hash
                | Tok::Dollar
                | Tok::LParen
                | Tok::LBrace
                | Tok::LBrack
                | Tok::Under => {
                    let arg = self.con_atom()?;
                    head = SCon::App(span, Box::new(head), Box::new(arg));
                }
                _ => return Ok(head),
            }
        }
    }

    fn con_atom(&mut self) -> PResult<SCon> {
        let span = self.span();
        let mut atom = match self.peek().clone() {
            Tok::Ident(x) => {
                self.bump();
                SCon::Var(span, x)
            }
            Tok::Under => {
                self.bump();
                SCon::Wild(span)
            }
            Tok::Hash => {
                self.bump();
                let n = self.name_ident()?;
                SCon::Name(span, n)
            }
            Tok::Dollar => {
                self.bump();
                let inner = self.con_atom()?;
                SCon::Record(span, Box::new(inner))
            }
            Tok::LParen => {
                self.bump();
                let first = self.con()?;
                if self.eat(Tok::Comma) {
                    let second = self.con()?;
                    self.expect(Tok::RParen)?;
                    SCon::Pair(span, Box::new(first), Box::new(second))
                } else {
                    self.expect(Tok::RParen)?;
                    first
                }
            }
            Tok::LBrace => {
                self.bump();
                let mut fields = Vec::new();
                if !self.eat(Tok::RBrace) {
                    loop {
                        let name = self.field_name()?;
                        self.expect(Tok::Colon)?;
                        let t = self.con()?;
                        fields.push((name, t));
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(Tok::RBrace)?;
                }
                SCon::RecordType(span, fields)
            }
            Tok::LBrack => {
                self.bump();
                let mut entries = Vec::new();
                if !self.eat(Tok::RBrack) {
                    loop {
                        let name = self.field_name()?;
                        let value = if self.eat(Tok::Eq) {
                            Some(self.con()?)
                        } else {
                            None
                        };
                        entries.push((name, value));
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(Tok::RBrack)?;
                }
                SCon::RowLit(span, entries)
            }
            other => return Err(self.err(format!("expected a type, found `{other}`"))),
        };
        // Postfix pair projections `.1` / `.2`.
        while *self.peek() == Tok::Dot {
            match self.peek2().clone() {
                Tok::Int(1) => {
                    self.bump();
                    self.bump();
                    atom = SCon::Fst(span, Box::new(atom));
                }
                Tok::Int(2) => {
                    self.bump();
                    self.bump();
                    atom = SCon::Snd(span, Box::new(atom));
                }
                _ => break,
            }
        }
        Ok(atom)
    }

    /// A field-name position: an identifier (resolved later: variable if
    /// bound, literal otherwise) or an explicit `#Name`. The kind keywords
    /// `Type` and `Name` are valid literal field names here.
    fn field_name(&mut self) -> PResult<SCon> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Ident(x) => {
                self.bump();
                Ok(SCon::Var(span, x))
            }
            Tok::KwType => {
                self.bump();
                Ok(SCon::Name(span, "Type".to_string()))
            }
            Tok::KwName => {
                self.bump();
                Ok(SCon::Name(span, "Name".to_string()))
            }
            Tok::Hash => {
                self.bump();
                let n = self.name_ident()?;
                Ok(SCon::Name(span, n))
            }
            other => Err(self.err(format!("expected a field name, found `{other}`"))),
        }
    }

    // ---------------- expressions ----------------

    fn expr(&mut self) -> PResult<SExpr> {
        self.descend()?;
        let out = self.expr_inner();
        self.ascend();
        out
    }

    fn expr_inner(&mut self) -> PResult<SExpr> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Fn => {
                self.bump();
                let params = self.params()?;
                if params.is_empty() {
                    return Err(self.err("`fn` needs at least one parameter".into()));
                }
                self.expect(Tok::DArrow)?;
                let body = self.expr()?;
                Ok(SExpr::Fn(span, params, Box::new(body)))
            }
            Tok::Let => {
                self.bump();
                let mut decls = Vec::new();
                while *self.peek() != Tok::In {
                    decls.push(self.decl()?);
                }
                self.expect(Tok::In)?;
                let body = self.expr()?;
                self.expect(Tok::End)?;
                Ok(SExpr::Let(span, decls, Box::new(body)))
            }
            Tok::If => {
                self.bump();
                let c = self.expr()?;
                self.expect(Tok::Then)?;
                let t = self.expr()?;
                self.expect(Tok::Else)?;
                let e = self.expr()?;
                Ok(SExpr::If(span, Box::new(c), Box::new(t), Box::new(e)))
            }
            _ => self.e_or(),
        }
    }

    fn e_or(&mut self) -> PResult<SExpr> {
        let span = self.span();
        let mut lhs = self.e_and()?;
        while self.eat(Tok::OrOr) {
            let rhs = self.e_and()?;
            lhs = SExpr::BinOp(span, "||".into(), Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn e_and(&mut self) -> PResult<SExpr> {
        let span = self.span();
        let mut lhs = self.e_cmp()?;
        while self.eat(Tok::AndAnd) {
            let rhs = self.e_cmp()?;
            lhs = SExpr::BinOp(span, "&&".into(), Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn e_cmp(&mut self) -> PResult<SExpr> {
        let span = self.span();
        let lhs = self.e_cat()?;
        let op = match self.peek() {
            Tok::EqEq => "==",
            Tok::Ne => "!=",
            Tok::Lt => "<",
            Tok::Le => "<=",
            Tok::Gt => ">",
            Tok::Ge => ">=",
            _ => return Ok(lhs),
        }
        .to_string();
        self.bump();
        let rhs = self.e_cat()?;
        Ok(SExpr::BinOp(span, op, Box::new(lhs), Box::new(rhs)))
    }

    fn e_cat(&mut self) -> PResult<SExpr> {
        // `++` is right-associative; collect the chain iteratively and
        // fold from the right so a 10k-element concatenation costs O(1)
        // stack instead of one frame per element.
        let span = self.span();
        let mut parts = vec![self.e_add()?];
        while self.eat(Tok::PlusPlus) {
            parts.push(self.e_add()?);
        }
        let mut out = match parts.pop() {
            Some(last) => last,
            None => return Err(self.err("expected an expression".into())),
        };
        while let Some(lhs) = parts.pop() {
            out = SExpr::Cat(span, Box::new(lhs), Box::new(out));
        }
        Ok(out)
    }

    fn e_add(&mut self) -> PResult<SExpr> {
        let span = self.span();
        let mut lhs = self.e_mul()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => "+",
                Tok::Minus => "-",
                Tok::Caret => "^",
                _ => return Ok(lhs),
            }
            .to_string();
            self.bump();
            let rhs = self.e_mul()?;
            lhs = SExpr::BinOp(span, op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn e_mul(&mut self) -> PResult<SExpr> {
        let span = self.span();
        let mut lhs = self.e_app()?;
        loop {
            let op = match self.peek() {
                Tok::Star => "*",
                Tok::Slash => "/",
                Tok::Percent => "%",
                _ => return Ok(lhs),
            }
            .to_string();
            self.bump();
            let rhs = self.e_app()?;
            lhs = SExpr::BinOp(span, op, Box::new(lhs), Box::new(rhs));
        }
    }

    /// Application spine with interleaved `[c]`, `!`, and trailing `-- c`.
    fn e_app(&mut self) -> PResult<SExpr> {
        let span = self.span();
        let mut head = self.e_postfix()?;
        loop {
            match self.peek() {
                Tok::LBrack => {
                    self.bump();
                    let c = self.con()?;
                    self.expect(Tok::RBrack)?;
                    head = SExpr::CApp(span, Box::new(head), c);
                }
                Tok::Bang => {
                    self.bump();
                    head = SExpr::Bang(span, Box::new(head));
                }
                Tok::MinusMinus => {
                    self.bump();
                    let c = self.field_name()?;
                    head = SExpr::Cut(span, Box::new(head), c);
                }
                Tok::Ident(_)
                | Tok::Int(_)
                | Tok::Float(_)
                | Tok::Str(_)
                | Tok::True
                | Tok::False
                | Tok::LParen
                | Tok::LBrace
                | Tok::At => {
                    let arg = self.e_postfix()?;
                    head = SExpr::App(span, Box::new(head), Box::new(arg));
                }
                _ => return Ok(head),
            }
        }
    }

    /// An atom with postfix projections `.field`.
    fn e_postfix(&mut self) -> PResult<SExpr> {
        let span = self.span();
        let mut e = self.e_atom()?;
        while *self.peek() == Tok::Dot {
            self.bump();
            let c = self.field_name()?;
            e = SExpr::Proj(span, Box::new(e), c);
        }
        Ok(e)
    }

    fn e_atom(&mut self) -> PResult<SExpr> {
        let span = self.span();
        match self.peek().clone() {
            Tok::At => {
                self.bump();
                let inner = self.e_atom()?;
                Ok(SExpr::Explicit(span, Box::new(inner)))
            }
            Tok::Ident(x) => {
                self.bump();
                Ok(SExpr::Var(span, x))
            }
            Tok::Int(n) => {
                self.bump();
                Ok(SExpr::Lit(span, SLit::Int(n)))
            }
            Tok::Float(x) => {
                self.bump();
                Ok(SExpr::Lit(span, SLit::Float(x)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(SExpr::Lit(span, SLit::Str(s)))
            }
            Tok::True => {
                self.bump();
                Ok(SExpr::Lit(span, SLit::Bool(true)))
            }
            Tok::False => {
                self.bump();
                Ok(SExpr::Lit(span, SLit::Bool(false)))
            }
            Tok::LParen => {
                self.bump();
                if self.eat(Tok::RParen) {
                    return Ok(SExpr::Lit(span, SLit::Unit));
                }
                let e = self.expr()?;
                if self.eat(Tok::Colon) {
                    let t = self.con()?;
                    self.expect(Tok::RParen)?;
                    Ok(SExpr::Ann(span, Box::new(e), t))
                } else {
                    self.expect(Tok::RParen)?;
                    Ok(e)
                }
            }
            Tok::LBrace => {
                self.bump();
                let mut fields = Vec::new();
                if !self.eat(Tok::RBrace) {
                    loop {
                        let name = self.field_name()?;
                        self.expect(Tok::Eq)?;
                        let e = self.expr()?;
                        fields.push((name, e));
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(Tok::RBrace)?;
                }
                Ok(SExpr::Record(span, fields))
            }
            other => Err(self.err(format!("expected an expression, found `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_stack_thread_is_reused_per_caller() {
        let here = std::thread::current().id();
        let first = on_parser_stack(|| Ok(std::thread::current().id())).unwrap();
        let second = on_parser_stack(|| Ok(std::thread::current().id())).unwrap();
        assert_ne!(first, here);
        assert_eq!(first, second);
        let other = std::thread::spawn(|| on_parser_stack(|| Ok(std::thread::current().id())))
            .join()
            .unwrap()
            .unwrap();
        assert_ne!(other, first);
    }

    /// `depth` nested parentheses around `1`.
    fn nested(depth: usize) -> String {
        format!("{}1{}", "(".repeat(depth), ")".repeat(depth))
    }

    fn has_parser_thread() -> bool {
        PARSER_THREAD.with(|slot| slot.borrow().is_some())
    }

    #[test]
    fn shallow_parses_stay_on_the_callers_stack() {
        std::thread::spawn(|| {
            assert!(parse_expr(&nested(INLINE_PARSE_DEPTH / 2)).is_ok());
            assert!(parse_program("val x = (1 + 2) * 3").is_ok());
            assert!(parse_con("{A : int} -> int").is_ok());
            assert!(!has_parser_thread(), "a shallow parse handed off");
            assert!(parse_expr(&nested(INLINE_PARSE_DEPTH * 2)).is_ok());
            assert!(has_parser_thread(), "a deep parse stayed inline");
        })
        .join()
        .unwrap();
    }

    /// Runs `f` on a fresh thread with a 2 MiB stack, the default a
    /// test or server thread gets.
    fn on_2_mib_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn ten_thousand_deep_inputs_get_e0201_on_a_2_mib_thread() {
        on_2_mib_thread(|| {
            let n = 10_000;
            let expr = parse_expr(&nested(n)).unwrap_err();
            let con = parse_con(&format!("{}int{}", "(".repeat(n), ")".repeat(n))).unwrap_err();
            let prog = parse_program(&format!("val x = {}", nested(n))).unwrap_err();
            for err in [expr, con, prog] {
                let d: crate::diag::Diagnostic = err.into();
                assert_eq!(d.code, crate::diag::Code::ParseTooDeep, "{d}");
            }
        });
    }

    #[test]
    fn parses_past_the_inline_budget_match_a_full_budget_parse() {
        on_2_mib_thread(parses_past_the_inline_budget_match);
    }

    fn parses_past_the_inline_budget_match() {
        let full_budget = |src: String| {
            on_parser_stack(move || {
                let mut p = Parser::new(lex(&src)?, MAX_PARSE_DEPTH);
                let e = p.expr()?;
                p.expect(Tok::Eof)?;
                Ok(e)
            })
        };
        let depths = [INLINE_PARSE_DEPTH - 1, INLINE_PARSE_DEPTH + 1, MAX_PARSE_DEPTH / 2];
        let mut inputs: Vec<String> = depths.into_iter().map(nested).collect();
        // Errors inside and past the inline budget, and past the full one.
        for depth in [3, INLINE_PARSE_DEPTH + 8, MAX_PARSE_DEPTH + 1] {
            inputs.push(format!("{}1 +{}", "(".repeat(depth), ")".repeat(depth)));
        }
        for src in inputs {
            assert_eq!(parse_expr(&src), full_budget(src.clone()), "{src}");
        }
    }

    #[test]
    fn parser_panic_is_an_error_and_the_thread_survives() {
        let err = on_parser_stack::<(), _>(|| panic!("boom")).unwrap_err();
        assert_eq!(err.message, "internal parser error");
        assert!(parse_expr("1 + 2").is_ok());
    }

    #[test]
    fn parse_paper_proj_declaration() {
        let src = "fun proj [nm :: Name] [t :: Type] [r :: {Type}] [[nm] ~ r] \
                   (x : $([nm = t] ++ r)) = x.nm";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.decls.len(), 1);
        match &prog.decls[0] {
            SDecl::Fun(_, name, params, None, body) => {
                assert_eq!(name, "proj");
                assert_eq!(params.len(), 5);
                assert!(matches!(params[0], SParam::CParam(_, Some(SKind::Name))));
                assert!(matches!(params[3], SParam::DParam(_, _)));
                assert!(matches!(params[4], SParam::VParam(_, Some(_))));
                assert!(matches!(body, SExpr::Proj(_, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_proj_call() {
        let e = parse_expr("proj [#A] {A = 1, B = 2.3}").unwrap();
        match e {
            SExpr::App(_, f, arg) => {
                assert!(matches!(*f, SExpr::CApp(_, _, SCon::Name(_, _))));
                assert!(matches!(*arg, SExpr::Record(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_poly_type() {
        let c = parse_con("nm :: Name -> t :: Type -> r :: {Type} -> [[nm = t]~r] => $([nm=t] ++ r) -> t").unwrap();
        match c {
            SCon::Poly(_, n, SKind::Name, rest) => {
                assert_eq!(n, "nm");
                assert!(matches!(*rest, SCon::Poly(_, _, SKind::Type, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_record_type_sugar() {
        let c = parse_con("{Label : string, Show : t -> string}").unwrap();
        match c {
            SCon::RecordType(_, fields) => assert_eq!(fields.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_folder_type() {
        let src = "tf :: ({Type} -> Type) -> \
                   (nm :: Name -> t :: Type -> r :: {Type} -> [[nm]~r] => tf r -> tf ([nm=t] ++ r)) -> \
                   tf [] -> tf r";
        let c = parse_con(src).unwrap();
        assert!(matches!(c, SCon::Poly(_, _, SKind::Arrow(_, _), _)));
    }

    #[test]
    fn parse_con_level_fn_without_kind() {
        let c = parse_con("fn r => $(map meta r) -> $r -> string").unwrap();
        match c {
            SCon::Lam(_, x, None, body) => {
                assert_eq!(x, "r");
                assert!(matches!(*body, SCon::Arrow(_, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_expression_level_step_function() {
        let src = "fn [nm] [t] [r] [[nm] ~ r] acc mr x => acc (mr -- nm) (x -- nm)";
        let e = parse_expr(src).unwrap();
        match e {
            SExpr::Fn(_, params, _) => {
                assert_eq!(params.len(), 7);
                assert!(matches!(params[0], SParam::CParam(_, None)));
                assert!(matches!(params[3], SParam::DParam(_, _)));
                assert!(matches!(params[4], SParam::VParam(_, None)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_bang_in_spine() {
        let e = parse_expr("acc (x -- nm) [[nm = t] ++ rest] !").unwrap();
        assert!(matches!(e, SExpr::Bang(_, _)));
    }

    #[test]
    fn parse_binops_with_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            SExpr::BinOp(_, op, _, rhs) => {
                assert_eq!(op, "+");
                assert!(matches!(*rhs, SExpr::BinOp(_, _, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_string_concat() {
        let e = parse_expr(r#""<tr>" ^ x.Label ^ "</tr>""#).unwrap();
        assert!(matches!(e, SExpr::BinOp(_, _, _, _)));
    }

    #[test]
    fn parse_let_and_if() {
        let e = parse_expr("let val x = 1 in if x == 1 then x else 0 end").unwrap();
        match e {
            SExpr::Let(_, decls, body) => {
                assert_eq!(decls.len(), 1);
                assert!(matches!(*body, SExpr::If(_, _, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_type_declaration_with_params() {
        let prog =
            parse_program("type meta (t :: Type) = {Label : string, Show : t -> string}")
                .unwrap();
        match &prog.decls[0] {
            SDecl::ConDef(_, name, None, SCon::Lam(_, p, Some(SKind::Type), _)) => {
                assert_eq!(name, "meta");
                assert_eq!(p, "t");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_abstract_declarations() {
        let prog = parse_program(
            "con folder :: {Type} -> Type\nval insert : r :: {Type} -> table r -> unit",
        )
        .unwrap();
        assert!(matches!(prog.decls[0], SDecl::ConAbs(_, _, _)));
        assert!(matches!(prog.decls[1], SDecl::ValAbs(_, _, _)));
    }

    #[test]
    fn parse_pair_kinds_and_projections() {
        let c = parse_con("fn (p :: Type * Type) => p.1 -> p.2").unwrap();
        match c {
            SCon::Lam(_, _, Some(SKind::Pair(_, _)), body) => match *body {
                SCon::Arrow(_, l, r) => {
                    assert!(matches!(*l, SCon::Fst(_, _)));
                    assert!(matches!(*r, SCon::Snd(_, _)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_row_literal_without_values() {
        // Constraint shorthand `[nm]` is a row whose single entry has no
        // explicit value.
        let c = parse_con("[nm]").unwrap();
        match c {
            SCon::RowLit(_, entries) => {
                assert_eq!(entries.len(), 1);
                assert!(entries[0].1.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_guarded_con_type() {
        let c = parse_con("[rest ~ r] => exp (r ++ rest) bool").unwrap();
        assert!(matches!(c, SCon::Guarded(_, _, _, _)));
    }

    #[test]
    fn parse_wildcards() {
        let e = parse_expr("toDb [_] x").unwrap();
        assert!(matches!(e, SExpr::App(_, _, _)));
        let c = parse_con("_ -> int").unwrap();
        assert!(matches!(c, SCon::Arrow(_, _, _)));
    }

    #[test]
    fn parse_ascription() {
        let e = parse_expr("(x : int)").unwrap();
        assert!(matches!(e, SExpr::Ann(_, _, _)));
    }

    #[test]
    fn parse_unit_literal() {
        let e = parse_expr("f ()").unwrap();
        match e {
            SExpr::App(_, _, arg) => assert!(matches!(*arg, SExpr::Lit(_, SLit::Unit))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_program("fun = 3").unwrap_err();
        assert_eq!(err.span.line, 1);
        assert!(err.message.contains("identifier"));
    }

    #[test]
    fn parse_nested_record_value() {
        let e = parse_expr(
            "mkTable {A = {Label = \"A\", Show = showInt}, B = {Label = \"B\", Show = showFloat}}",
        )
        .unwrap();
        match e {
            SExpr::App(_, _, arg) => match *arg {
                SExpr::Record(_, fields) => assert_eq!(fields.len(), 2),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
