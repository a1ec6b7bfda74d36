//! A hand-rolled recursive-descent parser for the Rust subset this
//! workspace uses.
//!
//! Built directly on [`crate::lexer`]'s token stream (no new dependencies),
//! it produces a span-carrying AST precise where the dataflow passes need
//! precision — items, `fn` signatures, statements, and expressions with
//! calls, method calls, casts, field accesses, and bindings — and raw
//! token spans everywhere structure is semantically irrelevant (generic
//! parameter lists, `where` clauses, type expressions, patterns,
//! attributes).
//!
//! Every AST node records the half-open token-index range `[lo, hi)` it
//! consumed. Child spans nest inside parent spans, appear in source order,
//! and never overlap, so the original token stream can be reconstructed by
//! an in-order walk ([`ParsedFile::emit_tokens`]); the parser test battery
//! pins that reconstruction against the lexer's stream for every file in
//! the workspace, proving no token is dropped, duplicated, or reordered.
//!
//! Error handling is recovery-based: an unparseable statement or item is
//! consumed to a synchronization point (`;` or a balanced `}`) and recorded
//! in [`ParsedFile::recovered`]. The workspace gate demands zero
//! recoveries, so the accepted subset provably covers the real tree.

use crate::lexer::{scan, Comment, Token, TokenKind};

/// Half-open token-index range `[lo, hi)` into [`ParsedFile::tokens`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First token index.
    pub lo: u32,
    /// One past the last token index.
    pub hi: u32,
}

impl Span {
    /// An empty span at a position.
    #[must_use]
    pub fn empty(at: u32) -> Span {
        Span { lo: at, hi: at }
    }
}

/// One parsed source file: the token stream, the comments, and the item
/// tree over it.
#[derive(Debug)]
pub struct ParsedFile {
    /// The lexer's token stream; all AST spans index into this.
    pub tokens: Vec<Token>,
    /// The lexer's comments (for waiver annotations).
    pub comments: Vec<Comment>,
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// 1-based lines where statement/item recovery consumed raw tokens.
    /// Empty means the whole file parsed structurally.
    pub recovered: Vec<u32>,
}

/// A top-level or nested item.
#[derive(Debug)]
pub enum Item {
    /// A function (free, method, or trait default).
    Fn(FnItem),
    /// An `impl` block with its contained items.
    Impl(ImplItem),
    /// An inline module with its contained items.
    Mod(ModItem),
    /// A struct definition with field names and raw type spans.
    Struct(StructItem),
    /// A trait definition with its contained items (sig-only fns allowed).
    Trait(TraitItem),
    /// A `const` or `static` item with a parsed initializer.
    Const(ConstItem),
    /// Anything structurally opaque: `use`, `type`, `enum`, `extern`,
    /// `macro_rules!`, inner attributes. Consumed as a balanced raw span.
    Raw(RawItem),
}

impl Item {
    /// The item's token span.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            Item::Fn(f) => f.span,
            Item::Impl(i) => i.span,
            Item::Mod(m) => m.span,
            Item::Struct(s) => s.span,
            Item::Trait(t) => t.span,
            Item::Const(c) => c.span,
            Item::Raw(r) => r.span,
        }
    }
}

/// A function item.
#[derive(Debug)]
pub struct FnItem {
    /// Whole item span (attributes through body/semicolon).
    pub span: Span,
    /// 1-based line of the `fn` name.
    pub line: u32,
    /// Declared `pub` (any visibility qualifier counts).
    pub is_pub: bool,
    /// Function name.
    pub name: String,
    /// Parameters, excluding any `self` receiver.
    pub params: Vec<Param>,
    /// Whether the parameter list had a `self` receiver.
    pub has_self: bool,
    /// Raw return-type span (empty when none).
    pub ret: Span,
    /// Body, absent for trait method signatures.
    pub body: Option<Block>,
}

/// One non-`self` function parameter.
#[derive(Debug)]
pub struct Param {
    /// Binding name (first binding of the pattern; `_` patterns yield `_`).
    pub name: String,
    /// Raw type span.
    pub ty: Span,
    /// 1-based line.
    pub line: u32,
}

/// An `impl` block.
#[derive(Debug)]
pub struct ImplItem {
    /// Whole block span.
    pub span: Span,
    /// Last path segment of the implemented type (`Foo` in
    /// `impl<T> Foo<T> for Bar`? no — the *self* type, `Bar`).
    pub ty_name: String,
    /// Last path segment of the trait when this is a trait impl.
    pub trait_name: Option<String>,
    /// Contained items.
    pub items: Vec<Item>,
}

/// An inline or out-of-line module.
#[derive(Debug)]
pub struct ModItem {
    /// Whole item span.
    pub span: Span,
    /// Module name.
    pub name: String,
    /// Contained items (`None` for `mod name;`).
    pub items: Option<Vec<Item>>,
    /// Whether the module is `#[cfg(test)]`-gated.
    pub cfg_test: bool,
}

/// A struct definition.
#[derive(Debug)]
pub struct StructItem {
    /// Whole item span.
    pub span: Span,
    /// Struct name.
    pub name: String,
    /// Declared `pub`.
    pub is_pub: bool,
    /// Fields; tuple structs use `"0"`, `"1"`, ... as names.
    pub fields: Vec<FieldDef>,
    /// Whether this is a tuple struct (`struct Hpa(u64);`).
    pub tuple: bool,
}

/// One struct field.
#[derive(Debug)]
pub struct FieldDef {
    /// Field name (tuple index rendered as a decimal string).
    pub name: String,
    /// Raw type span.
    pub ty: Span,
}

/// A trait definition.
#[derive(Debug)]
pub struct TraitItem {
    /// Whole item span.
    pub span: Span,
    /// Trait name.
    pub name: String,
    /// Contained items.
    pub items: Vec<Item>,
}

/// A `const` or `static` item.
#[derive(Debug)]
pub struct ConstItem {
    /// Whole item span.
    pub span: Span,
    /// Item name.
    pub name: String,
    /// Parsed initializer (absent in trait bodies / opaque forms).
    pub init: Option<Expr>,
}

/// A structurally opaque item.
#[derive(Debug)]
pub struct RawItem {
    /// Raw token span.
    pub span: Span,
    /// Leading keyword, for diagnostics (`"use"`, `"enum"`, ...).
    pub kind: String,
}

/// A brace-delimited block.
#[derive(Debug)]
pub struct Block {
    /// Span including the braces.
    pub span: Span,
    /// Statements; a trailing expression is the last statement with
    /// `semi == false`.
    pub stmts: Vec<Stmt>,
}

/// A statement.
#[derive(Debug)]
pub enum Stmt {
    /// A `let` binding.
    Let(LetStmt),
    /// An expression statement (`semi` distinguishes tail expressions).
    Expr {
        /// The expression.
        expr: Expr,
        /// Whether a `;` followed.
        semi: bool,
    },
    /// A nested item.
    Item(Box<Item>),
    /// Recovered raw tokens (counted by the gate; must be zero).
    Raw(Span),
}

impl Stmt {
    /// The statement's token span.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            Stmt::Let(l) => l.span,
            Stmt::Expr { expr, semi } => {
                let mut s = expr.span;
                if *semi {
                    s.hi += 1;
                }
                s
            }
            Stmt::Item(i) => i.span(),
            Stmt::Raw(s) => *s,
        }
    }
}

/// A `let` statement.
#[derive(Debug)]
pub struct LetStmt {
    /// Whole statement span including `;`.
    pub span: Span,
    /// 1-based line of the `let`.
    pub line: u32,
    /// Names bound by the pattern.
    pub names: Vec<String>,
    /// Raw pattern span.
    pub pat: Span,
    /// Raw type-annotation span (empty when none).
    pub ty: Span,
    /// Initializer.
    pub init: Option<Expr>,
    /// Diverging `else` block of a `let ... else`.
    pub else_block: Option<Block>,
}

/// A match arm.
#[derive(Debug)]
pub struct Arm {
    /// Raw pattern span (up to the guard or `=>`).
    pub pat: Span,
    /// Names bound by the pattern.
    pub names: Vec<String>,
    /// Guard expression (`if` guard), when present.
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
}

/// An expression with its span and 1-based starting line.
#[derive(Debug)]
pub struct Expr {
    /// Token span.
    pub span: Span,
    /// 1-based line of the first token.
    pub line: u32,
    /// Shape.
    pub kind: ExprKind,
}

/// Expression shapes. Structure is kept exactly where the dataflow passes
/// consume it; everything else (types, patterns) stays as raw spans.
#[derive(Debug)]
pub enum ExprKind {
    /// A (possibly qualified) path: `x`, `Foo::bar`, `Vec::<u64>::new`.
    /// Turbofish segments are dropped from `segs` but covered by the span.
    Path {
        /// Path segments.
        segs: Vec<String>,
    },
    /// A literal token (number, string, or char).
    Lit,
    /// A unary operation (`!`, `-`, `*`).
    Unary {
        /// Operator text.
        op: &'static str,
        /// Operand.
        inner: Box<Expr>,
    },
    /// A reference (`&x`, `&mut x`).
    Ref {
        /// Whether `mut` was present.
        mutable: bool,
        /// Referent.
        inner: Box<Expr>,
    },
    /// A binary operation.
    Binary {
        /// Operator text (`"+"`, `"<<"`, `"=="`, ...).
        op: &'static str,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// An assignment or compound assignment.
    Assign {
        /// Operator text (`"="`, `"+="`, ...).
        op: &'static str,
        /// Assignment target.
        target: Box<Expr>,
        /// Assigned value.
        value: Box<Expr>,
    },
    /// A cast: `expr as Type`.
    Cast {
        /// Operand.
        inner: Box<Expr>,
        /// Raw target-type span.
        ty: Span,
    },
    /// A call: `callee(args)`.
    Call {
        /// Callee expression (usually a path).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// A method call: `recv.name(args)`.
    Method {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// A field access: `base.name` (tuple index rendered as decimal).
    Field {
        /// Base expression.
        base: Box<Expr>,
        /// Field name.
        name: String,
    },
    /// An index: `base[index]`.
    Index {
        /// Base expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// A struct literal: `Path { field: expr, .. }`.
    StructLit {
        /// Path segments of the struct.
        segs: Vec<String>,
        /// `(name, value)` pairs; shorthand fields have `None` values
        /// (the field reads the same-named binding).
        fields: Vec<(String, Option<Expr>)>,
        /// Functional-update base (`..base`).
        rest: Option<Box<Expr>>,
    },
    /// A tuple or parenthesized expression (1-tuples are parens).
    Tuple {
        /// Elements.
        items: Vec<Expr>,
        /// Whether this was `(e)` rather than `(e,)`/`(a, b)`.
        paren: bool,
    },
    /// An array literal `[a, b]` or repeat `[e; n]` (both elements kept).
    Array {
        /// Elements (for repeats: the element then the length).
        items: Vec<Expr>,
    },
    /// A macro invocation `name!(args)`. When the interior parses as
    /// `,`/`;`-separated expressions they are kept; otherwise the span
    /// alone covers them (`raw == true`).
    MacroCall {
        /// Macro path segments.
        segs: Vec<String>,
        /// Parsed arguments (empty when raw).
        args: Vec<Expr>,
        /// Whether the interior was left unparsed.
        raw: bool,
    },
    /// A block expression.
    BlockExpr(Block),
    /// An `if` (or `if let`) expression.
    If {
        /// Raw `let` pattern span for `if let` (empty otherwise).
        pat: Span,
        /// Names bound by an `if let` pattern.
        names: Vec<String>,
        /// Condition (scrutinee for `if let`).
        cond: Box<Expr>,
        /// Then block.
        then: Block,
        /// Else branch: a block or another `if`.
        els: Option<Box<Expr>>,
    },
    /// A `match` expression.
    Match {
        /// Scrutinee.
        scrut: Box<Expr>,
        /// Arms.
        arms: Vec<Arm>,
    },
    /// A `while` (or `while let`) loop.
    While {
        /// Raw `let` pattern span for `while let` (empty otherwise).
        pat: Span,
        /// Names bound by a `while let` pattern.
        names: Vec<String>,
        /// Condition (scrutinee for `while let`).
        cond: Box<Expr>,
        /// Body.
        body: Block,
    },
    /// A `for` loop.
    For {
        /// Raw pattern span.
        pat: Span,
        /// Names bound by the pattern.
        names: Vec<String>,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Body.
        body: Block,
    },
    /// A `loop`.
    Loop {
        /// Body.
        body: Block,
    },
    /// A closure.
    Closure {
        /// Raw parameter-list span (between the pipes).
        params: Span,
        /// Parameter binding names.
        names: Vec<String>,
        /// Body expression.
        body: Box<Expr>,
    },
    /// The `?` operator.
    Try {
        /// Operand.
        inner: Box<Expr>,
    },
    /// A range expression (`a..b`, `..=b`, `a..`, `..`).
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
    },
    /// `return expr?`.
    Return {
        /// Returned value.
        value: Option<Box<Expr>>,
    },
    /// `break expr?`.
    Break {
        /// Break value.
        value: Option<Box<Expr>>,
    },
    /// `continue`.
    Continue,
}

/// Parses a source file. Never fails: unparseable regions are consumed as
/// raw spans and recorded in [`ParsedFile::recovered`].
#[must_use]
pub fn parse_file(source: &str) -> ParsedFile {
    let s = scan(source);
    let mut p = Parser {
        toks: &s.tokens,
        i: 0,
        recovered: Vec::new(),
    };
    let items = p.parse_items(None);
    let recovered = p.recovered;
    ParsedFile {
        tokens: s.tokens,
        comments: s.comments,
        items,
        recovered,
    }
}

type PResult<T> = Result<T, u32>;

struct Parser<'t> {
    toks: &'t [Token],
    i: usize,
    recovered: Vec<u32>,
}

const ITEM_KEYWORDS: [&str; 13] = [
    "fn",
    "pub",
    "use",
    "struct",
    "enum",
    "impl",
    "mod",
    "trait",
    "type",
    "static",
    "const",
    "extern",
    "macro_rules",
];

impl<'t> Parser<'t> {
    fn tok(&self, ahead: usize) -> Option<&'t Token> {
        self.toks.get(self.i + ahead)
    }

    fn line(&self) -> u32 {
        self.tok(0)
            .map_or_else(|| self.toks.last().map_or(1, |t| t.line), |t| t.line)
    }

    fn at_punct(&self, s: &str) -> bool {
        self.peek_punct(0, s)
    }

    fn peek_punct(&self, ahead: usize, s: &str) -> bool {
        self.tok(ahead)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek_ident(0, s)
    }

    fn peek_ident(&self, ahead: usize, s: &str) -> bool {
        self.tok(ahead)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == s)
    }

    fn at_any_ident(&self) -> bool {
        self.tok(0).is_some_and(|t| t.kind == TokenKind::Ident)
    }

    fn expect_punct(&mut self, s: &str) -> PResult<()> {
        if self.at_punct(s) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.line())
        }
    }

    fn pos(&self) -> u32 {
        u32::try_from(self.i).unwrap_or(u32::MAX)
    }

    fn span_from(&self, lo: u32) -> Span {
        Span { lo, hi: self.pos() }
    }

    // ---- raw skipping helpers -------------------------------------------

    /// Consumes a balanced `(`/`[`/`{` group including delimiters.
    fn skip_group(&mut self) -> PResult<()> {
        let open = self.tok(0).ok_or_else(|| self.line())?.text.clone();
        let close = match open.as_str() {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => return Err(self.line()),
        };
        self.i += 1;
        while let Some(t) = self.tok(0) {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => {
                        self.skip_group()?;
                        continue;
                    }
                    s if s == close => {
                        self.i += 1;
                        return Ok(());
                    }
                    ")" | "]" | "}" => return Err(self.line()),
                    _ => {}
                }
            }
            self.i += 1;
        }
        Err(self.line())
    }

    /// Consumes outer attributes (`#[...]`) and inner attributes (`#![...]`).
    fn skip_attrs(&mut self) -> PResult<()> {
        while self.at_punct("#") {
            let mut j = 1;
            if self.peek_punct(1, "!") {
                j = 2;
            }
            if !self.peek_punct(j, "[") {
                return Err(self.line());
            }
            self.i += j;
            self.skip_group()?;
        }
        Ok(())
    }

    /// Consumes a `<...>` generic parameter/argument list (at `<`).
    /// `>>` closes two levels because the lexer emits single-char puncts.
    fn skip_angles(&mut self) -> PResult<()> {
        let mut depth = 0i32;
        while let Some(t) = self.tok(0) {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => {
                        self.skip_group()?;
                        continue;
                    }
                    "<" => depth += 1,
                    "-" if self.peek_punct(1, ">") => {
                        self.i += 2;
                        continue;
                    }
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            self.i += 1;
                            return Ok(());
                        }
                    }
                    _ => {}
                }
            }
            self.i += 1;
        }
        Err(self.line())
    }

    /// Raw-consumes tokens until one of `stops` appears at depth 0, where
    /// depth counts `()`/`[]`/`{}` groups and — when `angles` — `<...>`
    /// pairs (skipping `->`). The stop token is not consumed. `..=` is
    /// consumed atomically so its `=` cannot satisfy an `=` stop.
    fn skip_until(&mut self, stops: &[&str], angles: bool) -> PResult<Span> {
        let lo = self.pos();
        while let Some(t) = self.tok(0) {
            if t.kind == TokenKind::Punct {
                let s = t.text.as_str();
                if s == "." && self.peek_punct(1, ".") && self.peek_punct(2, "=") {
                    self.i += 3;
                    continue;
                }
                if s == "-" && self.peek_punct(1, ">") && !stops.contains(&"->") {
                    self.i += 2;
                    continue;
                }
                if s == ":" && self.peek_punct(1, ":") {
                    self.i += 2;
                    continue;
                }
                if stops.contains(&s) {
                    return Ok(self.span_from(lo));
                }
                if s == "-" && self.peek_punct(1, ">") {
                    // `->` requested as a stop.
                    return Ok(self.span_from(lo));
                }
                match s {
                    "(" | "[" | "{" => {
                        self.skip_group()?;
                        continue;
                    }
                    ")" | "]" | "}" => return Ok(self.span_from(lo)),
                    "<" if angles => {
                        self.skip_angles()?;
                        continue;
                    }
                    _ => {}
                }
            } else if t.kind == TokenKind::Ident && stops.contains(&t.text.as_str()) {
                return Ok(self.span_from(lo));
            }
            self.i += 1;
        }
        Ok(self.span_from(lo))
    }

    /// Consumes a type in annotation position (`let x: T`, parameter and
    /// return types). Stops before `,` `;` `=` `{` `where` and any
    /// unbalanced closer.
    fn skip_type(&mut self) -> PResult<Span> {
        self.skip_until(&[",", ";", "=", "{", "where"], true)
    }

    /// Consumes a cast target type (`expr as T`): `&`-prefixes then either a
    /// balanced group or a path with optional generic arguments. Stricter
    /// than [`Parser::skip_type`] because a binary operator may follow.
    fn skip_cast_type(&mut self) -> PResult<Span> {
        let lo = self.pos();
        while self.at_punct("&") || self.at_punct("*") {
            self.i += 1;
            if self.at_ident("mut") || self.at_ident("const") {
                self.i += 1;
            }
        }
        if self.at_punct("(") || self.at_punct("[") {
            self.skip_group()?;
            return Ok(self.span_from(lo));
        }
        // Fn-pointer type: `fn(args) -> Ret`.
        if self.at_ident("fn") {
            self.i += 1;
            self.expect_punct("(")?;
            self.i -= 1;
            self.skip_group()?;
            if self.at_punct("-") && self.peek_punct(1, ">") {
                self.i += 2;
                self.skip_cast_type()?;
            }
            return Ok(self.span_from(lo));
        }
        if self.at_ident("dyn") || self.at_ident("impl") {
            self.i += 1;
        }
        if !self.at_any_ident() {
            return Err(self.line());
        }
        self.i += 1;
        loop {
            if self.at_punct(":") && self.peek_punct(1, ":") {
                self.i += 2;
                if self.at_punct("<") {
                    self.skip_angles()?;
                } else if self.at_any_ident() {
                    self.i += 1;
                } else {
                    return Err(self.line());
                }
                continue;
            }
            if self.at_punct("<") {
                self.skip_angles()?;
                continue;
            }
            break;
        }
        Ok(self.span_from(lo))
    }

    /// Consumes a pattern until a depth-0 stop, collecting binding names.
    /// Bindings are lowercase/underscore-initial identifiers that are not
    /// keywords, not path segments, not struct-pattern field keys
    /// (`name:`), and not callee-like (`name(`/`name{`/`name!`).
    fn skip_pattern(&mut self, stops: &[&str]) -> PResult<(Span, Vec<String>)> {
        let lo = self.pos();
        let mut names = Vec::new();
        let mut depth = 0i32;
        while let Some(t) = self.tok(0) {
            match t.kind {
                TokenKind::Punct => {
                    let s = t.text.as_str();
                    if s == "." && self.peek_punct(1, ".") && self.peek_punct(2, "=") {
                        self.i += 3;
                        continue;
                    }
                    if s == ":" && self.peek_punct(1, ":") {
                        self.i += 2;
                        continue;
                    }
                    if depth == 0 {
                        if s == "=" && stops.contains(&"=>") && self.peek_punct(1, ">") {
                            break;
                        }
                        if stops.contains(&s) && !(s == "=" && stops.contains(&"=>")) {
                            break;
                        }
                    }
                    match s {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        _ => {}
                    }
                    self.i += 1;
                }
                TokenKind::Ident => {
                    if depth == 0 && stops.contains(&t.text.as_str()) {
                        break;
                    }
                    let text = t.text.as_str();
                    // A lone `name:` is a struct-pattern field key only
                    // inside a group; at depth 0 a `:` is the annotation
                    // (or a stop) and the ident is the binding itself.
                    let field_key =
                        depth > 0 && self.peek_punct(1, ":") && !self.peek_punct(2, ":");
                    let path_sep = self.peek_punct(1, ":") && self.peek_punct(2, ":");
                    let binding = !matches!(
                        text,
                        "mut" | "ref" | "box" | "true" | "false" | "_" | "self" | "crate" | "super"
                    ) && text
                        .chars()
                        .find(|c| *c != '_')
                        .is_some_and(|c| c.is_ascii_lowercase())
                        && !self.peek_punct(1, "(")
                        && !self.peek_punct(1, "{")
                        && !self.peek_punct(1, "!")
                        && !path_sep
                        && !field_key;
                    if binding {
                        names.push(t.text.clone());
                    }
                    // Skip a whole path segment chain so `m::variant` segs
                    // are never taken as bindings.
                    self.i += 1;
                    while self.at_punct(":") && self.peek_punct(1, ":") {
                        self.i += 2;
                        if self.at_any_ident() {
                            self.i += 1;
                        }
                    }
                }
                _ => {
                    self.i += 1;
                }
            }
        }
        Ok((self.span_from(lo), names))
    }

    // ---- items -----------------------------------------------------------

    /// Parses items until EOF (`stop == None`) or a closing `}`.
    fn parse_items(&mut self, stop: Option<&str>) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            if self.tok(0).is_none() {
                break;
            }
            if let Some(s) = stop {
                if self.at_punct(s) {
                    break;
                }
            }
            let lo = self.pos();
            match self.parse_item() {
                Ok(item) => items.push(item),
                Err(line) => {
                    self.i = lo as usize;
                    self.recover_item(line);
                    items.push(Item::Raw(RawItem {
                        span: self.span_from(lo),
                        kind: "recovered".into(),
                    }));
                }
            }
        }
        items
    }

    /// Consumes tokens to an item-level synchronization point.
    fn recover_item(&mut self, line: u32) {
        self.recovered.push(line);
        while let Some(t) = self.tok(0) {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    ";" => {
                        self.i += 1;
                        return;
                    }
                    "{" | "(" | "[" => {
                        if self.skip_group().is_err() {
                            self.i = self.toks.len();
                        }
                        if t.text == "{" {
                            return;
                        }
                        continue;
                    }
                    "}" => return,
                    _ => {}
                }
            }
            self.i += 1;
        }
    }

    fn parse_item(&mut self) -> PResult<Item> {
        let lo = self.pos();
        let cfg_test = self.peek_cfg_test();
        self.skip_attrs()?;
        let mut is_pub = false;
        if self.at_ident("pub") {
            is_pub = true;
            self.i += 1;
            if self.at_punct("(") {
                self.skip_group()?;
            }
        }
        let Some(kw) = self.tok(0) else {
            return Err(self.line());
        };
        if kw.kind != TokenKind::Ident {
            return Err(kw.line);
        }
        match kw.text.as_str() {
            "fn" => Ok(Item::Fn(self.parse_fn(lo, is_pub)?)),
            // `const fn` / `unsafe fn` / `extern "C" fn` prefixes.
            "const" if self.peek_ident(1, "fn") => {
                self.i += 1;
                Ok(Item::Fn(self.parse_fn(lo, is_pub)?))
            }
            "struct" => Ok(Item::Struct(self.parse_struct(lo, is_pub)?)),
            "impl" => Ok(Item::Impl(self.parse_impl(lo)?)),
            "mod" => Ok(Item::Mod(self.parse_mod(lo, cfg_test)?)),
            "trait" => Ok(Item::Trait(self.parse_trait(lo)?)),
            "const" | "static" => self.parse_const(lo),
            "use" | "type" => {
                let kind = kw.text.clone();
                self.skip_until(&[";"], false)?;
                self.expect_punct(";")?;
                Ok(Item::Raw(RawItem {
                    span: self.span_from(lo),
                    kind,
                }))
            }
            "enum" => {
                self.i += 1;
                if !self.at_any_ident() {
                    return Err(self.line());
                }
                self.i += 1;
                if self.at_punct("<") {
                    self.skip_angles()?;
                }
                self.skip_until(&["{"], true)?;
                self.skip_group()?;
                Ok(Item::Raw(RawItem {
                    span: self.span_from(lo),
                    kind: "enum".into(),
                }))
            }
            "macro_rules" => {
                self.i += 1;
                self.expect_punct("!")?;
                if !self.at_any_ident() {
                    return Err(self.line());
                }
                self.i += 1;
                self.skip_group()?;
                Ok(Item::Raw(RawItem {
                    span: self.span_from(lo),
                    kind: "macro_rules".into(),
                }))
            }
            "extern" => {
                self.skip_until(&[";", "{"], false)?;
                if self.at_punct("{") {
                    self.skip_group()?;
                } else {
                    self.expect_punct(";")?;
                }
                Ok(Item::Raw(RawItem {
                    span: self.span_from(lo),
                    kind: "extern".into(),
                }))
            }
            // Item-level macro invocation: `thread_local!(...)`,
            // `proptest! { ... }`. Consumed raw (their interiors are
            // generated items, mostly test-only).
            name if self.peek_punct(1, "!") => {
                let kind = format!("{name}!");
                self.i += 2;
                if self.at_any_ident() {
                    self.i += 1;
                }
                self.skip_group()?;
                if self.at_punct(";") {
                    self.i += 1;
                }
                Ok(Item::Raw(RawItem {
                    span: self.span_from(lo),
                    kind,
                }))
            }
            _ => Err(kw.line),
        }
    }

    /// Whether the upcoming attribute block contains `cfg(test)`.
    fn peek_cfg_test(&self) -> bool {
        let mut j = 0;
        while self.peek_punct(j, "#") && self.peek_punct(j + 1, "[") {
            let mut depth = 0i32;
            let mut k = j + 1;
            while let Some(t) = self.tok(k) {
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "[" | "(" | "{" => depth += 1,
                        "]" | ")" | "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                } else if t.kind == TokenKind::Ident
                    && t.text == "cfg"
                    && self
                        .tok(k + 1)
                        .is_some_and(|p| p.kind == TokenKind::Punct && p.text == "(")
                    && self
                        .tok(k + 2)
                        .is_some_and(|p| p.kind == TokenKind::Ident && p.text == "test")
                {
                    return true;
                }
                k += 1;
            }
            j = k + 1;
        }
        false
    }

    fn parse_fn(&mut self, lo: u32, is_pub: bool) -> PResult<FnItem> {
        self.i += 1; // fn
        let name_tok = self.tok(0).ok_or_else(|| self.line())?;
        if name_tok.kind != TokenKind::Ident {
            return Err(name_tok.line);
        }
        let name = name_tok.text.clone();
        let line = name_tok.line;
        self.i += 1;
        if self.at_punct("<") {
            self.skip_angles()?;
        }
        self.expect_punct("(")?;
        let mut params = Vec::new();
        let mut has_self = false;
        while !self.at_punct(")") {
            if self.tok(0).is_none() {
                return Err(self.line());
            }
            self.skip_attrs()?;
            let p_line = self.line();
            let (pat, names) = self.skip_pattern(&[":", ",", ")"])?;
            let pat_has_self = (pat.lo..pat.hi).any(|k| {
                let t = &self.toks[k as usize];
                t.kind == TokenKind::Ident && t.text == "self"
            });
            if self.at_punct(":") {
                self.i += 1;
                let ty = self.skip_until(&[",", ")"], true)?;
                if pat_has_self {
                    has_self = true;
                } else {
                    params.push(Param {
                        name: names.first().cloned().unwrap_or_else(|| "_".into()),
                        ty,
                        line: p_line,
                    });
                }
            } else if pat_has_self {
                has_self = true;
            } else if pat.lo == pat.hi {
                return Err(self.line());
            }
            if self.at_punct(",") {
                self.i += 1;
            }
        }
        self.expect_punct(")")?;
        let ret = if self.at_punct("-") && self.peek_punct(1, ">") {
            self.i += 2;
            self.skip_until(&["{", ";", "where"], true)?
        } else {
            Span::empty(self.pos())
        };
        if self.at_ident("where") {
            self.skip_until(&["{", ";"], true)?;
        }
        let body = if self.at_punct(";") {
            self.i += 1;
            None
        } else {
            Some(self.parse_block()?)
        };
        Ok(FnItem {
            span: self.span_from(lo),
            line,
            is_pub,
            name,
            params,
            has_self,
            ret,
            body,
        })
    }

    fn parse_struct(&mut self, lo: u32, is_pub: bool) -> PResult<StructItem> {
        self.i += 1; // struct
        let name = self.ident_text()?;
        if self.at_punct("<") {
            self.skip_angles()?;
        }
        if self.at_ident("where") {
            self.skip_until(&["{", ";", "("], true)?;
        }
        let mut fields = Vec::new();
        let mut tuple = false;
        if self.at_punct("(") {
            tuple = true;
            self.i += 1;
            let mut idx = 0usize;
            while !self.at_punct(")") {
                if self.tok(0).is_none() {
                    return Err(self.line());
                }
                self.skip_attrs()?;
                if self.at_ident("pub") {
                    self.i += 1;
                    if self.at_punct("(") {
                        self.skip_group()?;
                    }
                }
                let ty = self.skip_until(&[",", ")"], true)?;
                fields.push(FieldDef {
                    name: idx.to_string(),
                    ty,
                });
                idx += 1;
                if self.at_punct(",") {
                    self.i += 1;
                }
            }
            self.expect_punct(")")?;
            self.expect_punct(";")?;
        } else if self.at_punct("{") {
            self.i += 1;
            while !self.at_punct("}") {
                if self.tok(0).is_none() {
                    return Err(self.line());
                }
                self.skip_attrs()?;
                if self.at_ident("pub") {
                    self.i += 1;
                    if self.at_punct("(") {
                        self.skip_group()?;
                    }
                }
                let fname = self.ident_text()?;
                self.expect_punct(":")?;
                let ty = self.skip_until(&[",", "}"], true)?;
                fields.push(FieldDef { name: fname, ty });
                if self.at_punct(",") {
                    self.i += 1;
                }
            }
            self.expect_punct("}")?;
        } else {
            self.expect_punct(";")?;
        }
        Ok(StructItem {
            span: self.span_from(lo),
            name,
            is_pub,
            fields,
            tuple,
        })
    }

    fn parse_impl(&mut self, lo: u32) -> PResult<ImplItem> {
        self.i += 1; // impl
        if self.at_punct("<") {
            self.skip_angles()?;
        }
        let first = self.skip_until(&["for", "{", "where"], true)?;
        let mut ty_span = first;
        let mut trait_name = None;
        if self.at_ident("for") {
            self.i += 1;
            trait_name = Some(last_path_ident(self.toks, first));
            ty_span = self.skip_until(&["{", "where"], true)?;
        }
        if self.at_ident("where") {
            self.skip_until(&["{"], true)?;
        }
        let ty_name = last_path_ident(self.toks, ty_span);
        self.expect_punct("{")?;
        let items = self.parse_items(Some("}"));
        self.expect_punct("}")?;
        Ok(ImplItem {
            span: self.span_from(lo),
            ty_name,
            trait_name,
            items,
        })
    }

    fn parse_mod(&mut self, lo: u32, cfg_test: bool) -> PResult<ModItem> {
        self.i += 1; // mod
        let name = self.ident_text()?;
        let items = if self.at_punct(";") {
            self.i += 1;
            None
        } else {
            self.expect_punct("{")?;
            let items = self.parse_items(Some("}"));
            self.expect_punct("}")?;
            Some(items)
        };
        Ok(ModItem {
            span: self.span_from(lo),
            name,
            items,
            cfg_test,
        })
    }

    fn parse_trait(&mut self, lo: u32) -> PResult<TraitItem> {
        self.i += 1; // trait
        let name = self.ident_text()?;
        if self.at_punct("<") {
            self.skip_angles()?;
        }
        self.skip_until(&["{"], true)?;
        self.expect_punct("{")?;
        let items = self.parse_items(Some("}"));
        self.expect_punct("}")?;
        Ok(TraitItem {
            span: self.span_from(lo),
            name,
            items,
        })
    }

    fn parse_const(&mut self, lo: u32) -> PResult<Item> {
        self.i += 1; // const | static
        if self.at_ident("mut") {
            self.i += 1;
        }
        let name = self.ident_text()?;
        self.expect_punct(":")?;
        self.skip_type()?;
        let init = if self.at_punct("=") {
            self.i += 1;
            Some(self.parse_expr(false)?)
        } else {
            None
        };
        self.expect_punct(";")?;
        Ok(Item::Const(ConstItem {
            span: self.span_from(lo),
            name,
            init,
        }))
    }

    fn ident_text(&mut self) -> PResult<String> {
        let t = self.tok(0).ok_or_else(|| self.line())?;
        if t.kind != TokenKind::Ident {
            return Err(t.line);
        }
        let s = t.text.clone();
        self.i += 1;
        Ok(s)
    }

    // ---- statements ------------------------------------------------------

    fn parse_block(&mut self) -> PResult<Block> {
        let lo = self.pos();
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        loop {
            while self.at_punct(";") {
                self.i += 1;
            }
            if self.at_punct("}") {
                self.i += 1;
                break;
            }
            if self.tok(0).is_none() {
                return Err(self.line());
            }
            let stmt_lo = self.pos();
            match self.parse_stmt() {
                Ok(stmt) => stmts.push(stmt),
                Err(line) => {
                    self.i = stmt_lo as usize;
                    self.recover_stmt(line);
                    stmts.push(Stmt::Raw(self.span_from(stmt_lo)));
                }
            }
        }
        Ok(Block {
            span: self.span_from(lo),
            stmts,
        })
    }

    /// Consumes tokens to a statement-level synchronization point.
    fn recover_stmt(&mut self, line: u32) {
        self.recovered.push(line);
        while let Some(t) = self.tok(0) {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    ";" => {
                        self.i += 1;
                        return;
                    }
                    "{" | "(" | "[" => {
                        if self.skip_group().is_err() {
                            self.i = self.toks.len();
                        }
                        continue;
                    }
                    "}" => return,
                    _ => {}
                }
            }
            self.i += 1;
        }
    }

    fn parse_stmt(&mut self) -> PResult<Stmt> {
        let lo = self.pos();
        // Attributes may precede statements (`#[allow]`, `#[cfg]`) and
        // nested items alike.
        self.skip_attrs()?;
        if self.at_ident("let") {
            return self.parse_let(lo);
        }
        // `extern` opens an item only as `extern crate`; bare `extern` in
        // statement position is an expression-adjacent oddity we skip.
        let extern_non_item = self.at_ident("extern") && !self.peek_ident(1, "crate");
        let is_item = self.tok(0).is_some_and(|t| {
            t.kind == TokenKind::Ident && ITEM_KEYWORDS.contains(&t.text.as_str())
        }) && !extern_non_item;
        if is_item && self.item_lookahead() {
            let item = self.parse_item()?;
            return Ok(Stmt::Item(Box::new(item)));
        }
        let expr = self.parse_expr(false)?;
        let semi = if self.at_punct(";") {
            self.i += 1;
            true
        } else {
            false
        };
        Ok(Stmt::Expr { expr, semi })
    }

    /// Distinguishes item-keyword statements from expressions. All item
    /// keywords except `impl`/`extern` unambiguously start items in
    /// statement position for this workspace's subset.
    fn item_lookahead(&self) -> bool {
        self.tok(0).is_some_and(|t| {
            matches!(
                t.text.as_str(),
                "fn" | "pub"
                    | "use"
                    | "struct"
                    | "enum"
                    | "mod"
                    | "trait"
                    | "type"
                    | "static"
                    | "const"
                    | "macro_rules"
            ) || (t.text == "impl" && self.tok(1).is_some_and(|n| n.kind == TokenKind::Ident))
        })
    }

    fn parse_let(&mut self, lo: u32) -> PResult<Stmt> {
        let line = self.line();
        self.i += 1; // let
        let (pat, names) = self.skip_pattern(&["=", ":", ";"])?;
        let ty = if self.at_punct(":") {
            self.i += 1;
            self.skip_until(&["=", ";"], true)?
        } else {
            Span::empty(self.pos())
        };
        let mut init = None;
        let mut else_block = None;
        if self.at_punct("=") {
            self.i += 1;
            init = Some(self.parse_expr(false)?);
            if self.at_ident("else") {
                self.i += 1;
                else_block = Some(self.parse_block()?);
            }
        }
        self.expect_punct(";")?;
        Ok(Stmt::Let(LetStmt {
            span: self.span_from(lo),
            line,
            names,
            pat,
            ty,
            init,
            else_block,
        }))
    }

    // ---- expressions -----------------------------------------------------

    /// Entry: assignment level, right-associative.
    fn parse_expr(&mut self, no_struct: bool) -> PResult<Expr> {
        let lo = self.pos();
        let line = self.line();
        let lhs = self.parse_range(no_struct)?;
        for (op, len) in [
            ("=", 1),
            ("+=", 2),
            ("-=", 2),
            ("*=", 2),
            ("/=", 2),
            ("%=", 2),
            ("^=", 2),
            ("&=", 2),
            ("|=", 2),
            ("<<=", 3),
            (">>=", 3),
        ] {
            if self.punct_run_is(op, len) {
                self.i += len;
                let value = self.parse_expr(no_struct)?;
                return Ok(Expr {
                    span: self.span_from(lo),
                    line,
                    kind: ExprKind::Assign {
                        op,
                        target: Box::new(lhs),
                        value: Box::new(value),
                    },
                });
            }
        }
        Ok(lhs)
    }

    /// Whether the next `len` tokens are the single-char puncts spelling
    /// `op` — and, for `=`-leading ops, not a longer operator (`==`, `=>`).
    fn punct_run_is(&self, op: &str, len: usize) -> bool {
        let chars: Vec<char> = op.chars().collect();
        debug_assert_eq!(chars.len(), len);
        for (k, c) in chars.iter().enumerate() {
            if !self.peek_punct(k, &c.to_string()) {
                return false;
            }
        }
        // Reject a longer operator: `==` must not match `=`, `>>=` must
        // not match `>>`, `..` must not match `.`, etc.
        if let Some(t) = self.tok(len) {
            if t.kind == TokenKind::Punct {
                let next = t.text.as_str();
                let longer = matches!(
                    (op, next),
                    ("=", "=")
                        | ("=", ">")
                        | (">", ">")
                        | (">", "=")
                        | ("<", "<")
                        | ("<", "=")
                        | ("&", "&")
                        | ("|", "|")
                        | (".", ".")
                        | ("<<", "=")
                        | (">>", "=")
                        | ("+", "=")
                        | ("-", "=")
                        | ("*", "=")
                        | ("/", "=")
                        | ("%", "=")
                        | ("^", "=")
                        | ("&", "=")
                        | ("|", "=")
                        | ("..", "=")
                        | ("!", "=")
                        | ("&&", "=")
                        | ("||", "=")
                        | ("==", "=")
                );
                if longer {
                    return false;
                }
            }
        }
        true
    }

    fn parse_range(&mut self, no_struct: bool) -> PResult<Expr> {
        let lo = self.pos();
        let line = self.line();
        let lhs = if self.punct_run_is("..", 2) || self.punct_run_is("..=", 3) {
            None
        } else {
            Some(self.parse_or(no_struct)?)
        };
        if self.punct_run_is("..=", 3) || self.punct_run_is("..", 2) {
            let len = if self.punct_run_is("..=", 3) { 3 } else { 2 };
            self.i += len;
            let hi = if self.range_rhs_follows() {
                Some(Box::new(self.parse_or(no_struct)?))
            } else {
                None
            };
            return Ok(Expr {
                span: self.span_from(lo),
                line,
                kind: ExprKind::Range {
                    lo: lhs.map(Box::new),
                    hi,
                },
            });
        }
        lhs.ok_or(line)
    }

    /// Whether a range upper bound follows (anything that can start an
    /// expression, i.e. not a closer/comma/semicolon/brace).
    fn range_rhs_follows(&self) -> bool {
        match self.tok(0) {
            None => false,
            Some(t) => {
                let closer = t.kind == TokenKind::Punct
                    && matches!(t.text.as_str(), ")" | "]" | "}" | "," | ";" | "{");
                let else_kw = t.kind == TokenKind::Ident && t.text == "else";
                !closer && !else_kw
            }
        }
    }

    fn parse_or(&mut self, no_struct: bool) -> PResult<Expr> {
        self.parse_binary_level(no_struct, 0)
    }

    /// Binary operator tiers, loosest first.
    fn parse_binary_level(&mut self, no_struct: bool, level: usize) -> PResult<Expr> {
        const TIERS: [&[(&str, usize)]; 9] = [
            &[("||", 2)],
            &[("&&", 2)],
            &[
                ("==", 2),
                ("!=", 2),
                ("<=", 2),
                (">=", 2),
                ("<", 1),
                (">", 1),
            ],
            &[("|", 1)],
            &[("^", 1)],
            &[("&", 1)],
            &[("<<", 2), (">>", 2)],
            &[("+", 1), ("-", 1)],
            &[("*", 1), ("/", 1), ("%", 1)],
        ];
        if level == TIERS.len() {
            return self.parse_cast(no_struct);
        }
        let lo = self.pos();
        let line = self.line();
        let mut lhs = self.parse_binary_level(no_struct, level + 1)?;
        'outer: loop {
            for (op, len) in TIERS[level] {
                if self.punct_run_is(op, *len) {
                    self.i += len;
                    let rhs = self.parse_binary_level(no_struct, level + 1)?;
                    lhs = Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::Binary {
                            op,
                            lhs: Box::new(lhs),
                            rhs: Box::new(rhs),
                        },
                    };
                    // Comparison operators do not chain.
                    if level == 2 {
                        break 'outer;
                    }
                    continue 'outer;
                }
            }
            break;
        }
        Ok(lhs)
    }

    fn parse_cast(&mut self, no_struct: bool) -> PResult<Expr> {
        let lo = self.pos();
        let line = self.line();
        let mut e = self.parse_unary(no_struct)?;
        while self.at_ident("as") {
            self.i += 1;
            let ty = self.skip_cast_type()?;
            e = Expr {
                span: self.span_from(lo),
                line,
                kind: ExprKind::Cast {
                    inner: Box::new(e),
                    ty,
                },
            };
        }
        Ok(e)
    }

    fn parse_unary(&mut self, no_struct: bool) -> PResult<Expr> {
        let lo = self.pos();
        let line = self.line();
        if self.at_punct("&") && !self.peek_punct(1, "&") {
            self.i += 1;
            let mutable = self.at_ident("mut");
            if mutable {
                self.i += 1;
            }
            let inner = self.parse_unary(no_struct)?;
            return Ok(Expr {
                span: self.span_from(lo),
                line,
                kind: ExprKind::Ref {
                    mutable,
                    inner: Box::new(inner),
                },
            });
        }
        if self.at_punct("&") && self.peek_punct(1, "&") {
            // `&&x`: two reference levels.
            self.i += 1;
            let inner = self.parse_unary(no_struct)?;
            return Ok(Expr {
                span: self.span_from(lo),
                line,
                kind: ExprKind::Ref {
                    mutable: false,
                    inner: Box::new(inner),
                },
            });
        }
        for op in ["!", "-", "*"] {
            if self.at_punct(op) && !self.peek_punct(1, "=") {
                self.i += 1;
                let inner = self.parse_unary(no_struct)?;
                let op: &'static str = match op {
                    "!" => "!",
                    "-" => "-",
                    _ => "*",
                };
                return Ok(Expr {
                    span: self.span_from(lo),
                    line,
                    kind: ExprKind::Unary {
                        op,
                        inner: Box::new(inner),
                    },
                });
            }
        }
        self.parse_postfix(no_struct)
    }

    fn parse_postfix(&mut self, no_struct: bool) -> PResult<Expr> {
        let lo = self.pos();
        let line = self.line();
        let mut e = self.parse_primary(no_struct)?;
        loop {
            if self.at_punct("?") {
                self.i += 1;
                e = Expr {
                    span: self.span_from(lo),
                    line,
                    kind: ExprKind::Try { inner: Box::new(e) },
                };
                continue;
            }
            if self.at_punct("(") {
                let args = self.parse_paren_args()?;
                e = Expr {
                    span: self.span_from(lo),
                    line,
                    kind: ExprKind::Call {
                        callee: Box::new(e),
                        args,
                    },
                };
                continue;
            }
            if self.at_punct("[") {
                self.i += 1;
                let index = self.parse_expr(false)?;
                self.expect_punct("]")?;
                e = Expr {
                    span: self.span_from(lo),
                    line,
                    kind: ExprKind::Index {
                        base: Box::new(e),
                        index: Box::new(index),
                    },
                };
                continue;
            }
            if self.at_punct(".") && !self.peek_punct(1, ".") {
                self.i += 1;
                let t = self.tok(0).ok_or_else(|| self.line())?;
                match t.kind {
                    TokenKind::Num => {
                        let name = t.text.clone();
                        self.i += 1;
                        e = Expr {
                            span: self.span_from(lo),
                            line,
                            kind: ExprKind::Field {
                                base: Box::new(e),
                                name,
                            },
                        };
                    }
                    TokenKind::Ident => {
                        let name = t.text.clone();
                        self.i += 1;
                        // Optional turbofish before a call.
                        if self.at_punct(":") && self.peek_punct(1, ":") && self.peek_punct(2, "<")
                        {
                            self.i += 2;
                            self.skip_angles()?;
                        }
                        if self.at_punct("(") {
                            let args = self.parse_paren_args()?;
                            e = Expr {
                                span: self.span_from(lo),
                                line,
                                kind: ExprKind::Method {
                                    recv: Box::new(e),
                                    name,
                                    args,
                                },
                            };
                        } else {
                            e = Expr {
                                span: self.span_from(lo),
                                line,
                                kind: ExprKind::Field {
                                    base: Box::new(e),
                                    name,
                                },
                            };
                        }
                    }
                    _ => return Err(t.line),
                }
                continue;
            }
            break;
        }
        Ok(e)
    }

    fn parse_paren_args(&mut self) -> PResult<Vec<Expr>> {
        self.expect_punct("(")?;
        let mut args = Vec::new();
        while !self.at_punct(")") {
            if self.tok(0).is_none() {
                return Err(self.line());
            }
            args.push(self.parse_expr(false)?);
            if self.at_punct(",") {
                self.i += 1;
            } else {
                break;
            }
        }
        self.expect_punct(")")?;
        Ok(args)
    }

    fn parse_primary(&mut self, no_struct: bool) -> PResult<Expr> {
        let lo = self.pos();
        let line = self.line();
        let Some(t) = self.tok(0) else {
            return Err(self.line());
        };
        match t.kind {
            TokenKind::Num | TokenKind::Str => {
                self.i += 1;
                Ok(Expr {
                    span: self.span_from(lo),
                    line,
                    kind: ExprKind::Lit,
                })
            }
            TokenKind::Punct => match t.text.as_str() {
                // A loop label: `'name: loop/while/for`. The label is
                // trivia to the dataflow passes; the loop keeps its shape.
                s if s.starts_with('\'') && s.len() > 1 && self.peek_punct(1, ":") => {
                    self.i += 2;
                    let inner = self.parse_primary(no_struct)?;
                    Ok(Expr {
                        span: self.span_from(lo),
                        line,
                        kind: inner.kind,
                    })
                }
                // The lexer collapses char literals to a `'` punct and
                // lifetimes to `'name`; both are literal-like here
                // (including a bare label after `break`/`continue`).
                s if s.starts_with('\'') => {
                    self.i += 1;
                    Ok(Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::Lit,
                    })
                }
                "(" => {
                    self.i += 1;
                    let mut items = Vec::new();
                    let mut saw_comma = false;
                    while !self.at_punct(")") {
                        if self.tok(0).is_none() {
                            return Err(self.line());
                        }
                        items.push(self.parse_expr(false)?);
                        if self.at_punct(",") {
                            saw_comma = true;
                            self.i += 1;
                        } else {
                            break;
                        }
                    }
                    self.expect_punct(")")?;
                    Ok(Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::Tuple {
                            paren: items.len() == 1 && !saw_comma,
                            items,
                        },
                    })
                }
                "[" => {
                    self.i += 1;
                    let mut items = Vec::new();
                    if !self.at_punct("]") {
                        items.push(self.parse_expr(false)?);
                        if self.at_punct(";") {
                            self.i += 1;
                            items.push(self.parse_expr(false)?);
                        } else {
                            while self.at_punct(",") {
                                self.i += 1;
                                if self.at_punct("]") {
                                    break;
                                }
                                items.push(self.parse_expr(false)?);
                            }
                        }
                    }
                    self.expect_punct("]")?;
                    Ok(Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::Array { items },
                    })
                }
                "{" => {
                    let block = self.parse_block()?;
                    Ok(Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::BlockExpr(block),
                    })
                }
                "|" => self.parse_closure(lo, line),
                "#" => {
                    // Expression-position attribute (e.g. on a closure or
                    // literal argument); attach to the following expression.
                    self.skip_attrs()?;
                    let inner = self.parse_expr(no_struct)?;
                    Ok(Expr {
                        span: self.span_from(lo),
                        line,
                        kind: inner.kind,
                    })
                }
                _ => Err(t.line),
            },
            TokenKind::Ident => match t.text.as_str() {
                "if" => self.parse_if(lo, line),
                "match" => self.parse_match(lo, line),
                "while" => {
                    self.i += 1;
                    let (pat, names, cond) = self.parse_cond()?;
                    let body = self.parse_block()?;
                    Ok(Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::While {
                            pat,
                            names,
                            cond: Box::new(cond),
                            body,
                        },
                    })
                }
                "for" => {
                    self.i += 1;
                    let (pat, names) = self.skip_pattern(&["in"])?;
                    if !self.at_ident("in") {
                        return Err(self.line());
                    }
                    self.i += 1;
                    let iter = self.parse_expr(true)?;
                    let body = self.parse_block()?;
                    Ok(Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::For {
                            pat,
                            names,
                            iter: Box::new(iter),
                            body,
                        },
                    })
                }
                "loop" => {
                    self.i += 1;
                    let body = self.parse_block()?;
                    Ok(Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::Loop { body },
                    })
                }
                "return" => {
                    self.i += 1;
                    let value = if self.range_rhs_follows() {
                        Some(Box::new(self.parse_expr(no_struct)?))
                    } else {
                        None
                    };
                    Ok(Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::Return { value },
                    })
                }
                "break" => {
                    self.i += 1;
                    let value = if self.range_rhs_follows() {
                        Some(Box::new(self.parse_expr(no_struct)?))
                    } else {
                        None
                    };
                    Ok(Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::Break { value },
                    })
                }
                "continue" => {
                    self.i += 1;
                    Ok(Expr {
                        span: self.span_from(lo),
                        line,
                        kind: ExprKind::Continue,
                    })
                }
                "move" => {
                    self.i += 1;
                    if !self.at_punct("|") {
                        return Err(self.line());
                    }
                    self.parse_closure(lo, line)
                }
                _ => self.parse_path_expr(lo, line, no_struct),
            },
        }
    }

    /// Parses `if`/`if let` with `else if` chains.
    fn parse_if(&mut self, lo: u32, line: u32) -> PResult<Expr> {
        self.i += 1; // if
        let (pat, names, cond) = self.parse_cond()?;
        let then = self.parse_block()?;
        let els = if self.at_ident("else") {
            self.i += 1;
            if self.at_ident("if") {
                let e_lo = self.pos();
                let e_line = self.line();
                Some(Box::new(self.parse_if(e_lo, e_line)?))
            } else {
                let b_lo = self.pos();
                let b_line = self.line();
                let block = self.parse_block()?;
                Some(Box::new(Expr {
                    span: self.span_from(b_lo),
                    line: b_line,
                    kind: ExprKind::BlockExpr(block),
                }))
            }
        } else {
            None
        };
        Ok(Expr {
            span: self.span_from(lo),
            line,
            kind: ExprKind::If {
                pat,
                names,
                cond: Box::new(cond),
                then,
                els,
            },
        })
    }

    /// Parses an `if`/`while` condition, handling the `let` form. Returns
    /// `(pattern span, bound names, condition/scrutinee)`.
    fn parse_cond(&mut self) -> PResult<(Span, Vec<String>, Expr)> {
        if self.at_ident("let") {
            self.i += 1;
            let (pat, names) = self.skip_pattern(&["="])?;
            self.expect_punct("=")?;
            let scrut = self.parse_expr(true)?;
            Ok((pat, names, scrut))
        } else {
            let cond = self.parse_expr(true)?;
            Ok((Span::empty(self.pos()), Vec::new(), cond))
        }
    }

    fn parse_match(&mut self, lo: u32, line: u32) -> PResult<Expr> {
        self.i += 1; // match
        let scrut = self.parse_expr(true)?;
        self.expect_punct("{")?;
        let mut arms = Vec::new();
        while !self.at_punct("}") {
            if self.tok(0).is_none() {
                return Err(self.line());
            }
            self.skip_attrs()?;
            let (pat, names) = self.skip_pattern(&["=>", "if"])?;
            let guard = if self.at_ident("if") {
                self.i += 1;
                Some(self.parse_expr(true)?)
            } else {
                None
            };
            if !(self.at_punct("=") && self.peek_punct(1, ">")) {
                return Err(self.line());
            }
            self.i += 2;
            // A block-bodied arm ends at its `}` — the next token starts a
            // new arm, never a postfix continuation (`{..}(..)` is two arms,
            // not a call). Mirrors Rust's match-arm grammar.
            let body = if self.at_punct("{") {
                let b_lo = self.pos();
                let b_line = self.line();
                let block = self.parse_block()?;
                Expr {
                    span: self.span_from(b_lo),
                    line: b_line,
                    kind: ExprKind::BlockExpr(block),
                }
            } else {
                self.parse_expr(false)?
            };
            if self.at_punct(",") {
                self.i += 1;
            }
            arms.push(Arm {
                pat,
                names,
                guard,
                body,
            });
        }
        self.expect_punct("}")?;
        Ok(Expr {
            span: self.span_from(lo),
            line,
            kind: ExprKind::Match {
                scrut: Box::new(scrut),
                arms,
            },
        })
    }

    fn parse_closure(&mut self, lo: u32, line: u32) -> PResult<Expr> {
        // Params: `||` or `|pat, pat|`.
        let params_lo;
        if self.at_punct("|") && self.peek_punct(1, "|") {
            self.i += 1;
            params_lo = self.pos();
            self.i += 1;
        } else {
            self.expect_punct("|")?;
            params_lo = self.pos();
            // Scan to the closing `|` at depth 0 (params may contain
            // annotated types with generics but never `||` or closures).
            let mut depth = 0i32;
            loop {
                let Some(t) = self.tok(0) else {
                    return Err(self.line());
                };
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" => {
                            self.skip_group()?;
                            continue;
                        }
                        "<" => depth += 1,
                        ">" => depth -= 1,
                        "|" if depth == 0 => break,
                        _ => {}
                    }
                }
                self.i += 1;
            }
        }
        let params = Span {
            lo: params_lo,
            hi: self
                .pos()
                .saturating_sub(if self.peek_punct(0, "|") { 0 } else { 1 }),
        };
        // Re-derive names from the param span.
        let names = closure_param_names(self.toks, params);
        if self.at_punct("|") {
            self.i += 1;
        }
        // Optional return type forces a block body.
        let body = if self.at_punct("-") && self.peek_punct(1, ">") {
            self.i += 2;
            self.skip_until(&["{"], true)?;
            let b_lo = self.pos();
            let b_line = self.line();
            let block = self.parse_block()?;
            Expr {
                span: self.span_from(b_lo),
                line: b_line,
                kind: ExprKind::BlockExpr(block),
            }
        } else {
            self.parse_expr(false)?
        };
        Ok(Expr {
            span: self.span_from(lo),
            line,
            kind: ExprKind::Closure {
                params,
                names,
                body: Box::new(body),
            },
        })
    }

    /// Path expressions and what they lead into: macro calls, struct
    /// literals, or plain paths (calls/indexing are postfix).
    fn parse_path_expr(&mut self, lo: u32, line: u32, no_struct: bool) -> PResult<Expr> {
        let mut segs = Vec::new();
        segs.push(self.ident_text()?);
        loop {
            if self.at_punct(":") && self.peek_punct(1, ":") {
                if self.peek_punct(2, "<") {
                    self.i += 2;
                    self.skip_angles()?;
                    continue;
                }
                if self.tok(2).is_some_and(|t| t.kind == TokenKind::Ident) {
                    self.i += 2;
                    segs.push(self.ident_text()?);
                    continue;
                }
            }
            break;
        }
        if self.at_punct("!") && !self.peek_punct(1, "=") {
            self.i += 1;
            return self.parse_macro_call(lo, line, segs);
        }
        if self.at_punct("{") && !no_struct && struct_lit_ahead(self, &segs) {
            return self.parse_struct_lit(lo, line, segs);
        }
        Ok(Expr {
            span: self.span_from(lo),
            line,
            kind: ExprKind::Path { segs },
        })
    }

    fn parse_struct_lit(&mut self, lo: u32, line: u32, segs: Vec<String>) -> PResult<Expr> {
        self.expect_punct("{")?;
        let mut fields = Vec::new();
        let mut rest = None;
        while !self.at_punct("}") {
            if self.tok(0).is_none() {
                return Err(self.line());
            }
            if self.punct_run_is("..", 2) {
                self.i += 2;
                rest = Some(Box::new(self.parse_expr(false)?));
                break;
            }
            let name = self.ident_text()?;
            if self.at_punct(":") && !self.peek_punct(1, ":") {
                self.i += 1;
                let value = self.parse_expr(false)?;
                fields.push((name, Some(value)));
            } else {
                fields.push((name, None));
            }
            if self.at_punct(",") {
                self.i += 1;
            } else {
                break;
            }
        }
        self.expect_punct("}")?;
        Ok(Expr {
            span: self.span_from(lo),
            line,
            kind: ExprKind::StructLit { segs, fields, rest },
        })
    }

    /// Parses a macro invocation's delimited arguments. The interior is
    /// parsed as `,`/`;`-separated expressions when possible (covering
    /// `format!`, `assert*!`, `vec!`, `write!`); otherwise it is consumed
    /// raw (e.g. `matches!` patterns).
    fn parse_macro_call(&mut self, lo: u32, line: u32, segs: Vec<String>) -> PResult<Expr> {
        let close = match self.tok(0).map(|t| t.text.as_str()) {
            Some("(") => ")",
            Some("[") => "]",
            Some("{") => "}",
            _ => return Err(self.line()),
        };
        let open_at = self.i;
        self.i += 1;
        let mut args = Vec::new();
        let mut ok = true;
        while !self.at_punct(close) {
            if self.tok(0).is_none() {
                return Err(self.line());
            }
            match self.parse_expr(false) {
                Ok(e) => args.push(e),
                Err(_) => {
                    ok = false;
                    break;
                }
            }
            if self.at_punct(",") || self.at_punct(";") {
                self.i += 1;
            } else if !self.at_punct(close) {
                ok = false;
                break;
            }
        }
        if ok {
            self.expect_punct(close)?;
        } else {
            // Raw fallback: rewind to the delimiter and skip it balanced.
            self.i = open_at;
            self.skip_group()?;
            args.clear();
        }
        Ok(Expr {
            span: self.span_from(lo),
            line,
            kind: ExprKind::MacroCall {
                segs,
                args,
                raw: !ok,
            },
        })
    }
}

/// Heuristic for `Path {`: a struct literal's brace interior starts with
/// `}`, `ident:`, `ident,`, `ident}`, or `..`. Everything else (e.g. a
/// trailing block after a path in unambiguous positions) is not a literal.
/// With `no_struct` handled by the caller, this only disambiguates
/// pathological cases; plain `S { .. }` literals all match.
fn struct_lit_ahead(p: &Parser<'_>, segs: &[String]) -> bool {
    // Macro/keyword paths never precede struct literals here.
    if segs.last().is_some_and(|s| s == "self") {
        return false;
    }
    if p.tok(1)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == "}")
    {
        return true;
    }
    if p.peek_punct(1, ".") && p.peek_punct(2, ".") {
        return true;
    }
    if p.tok(1).is_some_and(|t| t.kind == TokenKind::Ident) {
        return p.peek_punct(2, ":") && !p.peek_punct(3, ":")
            || p.peek_punct(2, ",")
            || p.peek_punct(2, "}");
    }
    false
}

/// The last identifier of a path-shaped raw span (for `impl` type names).
fn last_path_ident(toks: &[Token], span: Span) -> String {
    let mut name = String::new();
    for k in span.lo..span.hi {
        let t = &toks[k as usize];
        if t.kind == TokenKind::Punct && t.text == "<" {
            break;
        }
        if t.kind == TokenKind::Ident && t.text != "for" && t.text != "dyn" {
            name = t.text.clone();
        }
    }
    name
}

/// Extracts parameter binding names from a closure parameter span:
/// identifiers outside type annotations, per the same binding heuristic as
/// patterns.
fn closure_param_names(toks: &[Token], span: Span) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_type = false;
    let mut depth = 0i32;
    let mut k = span.lo as usize;
    while k < span.hi as usize {
        let t = &toks[k];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                ":" => {
                    if toks.get(k + 1).is_some_and(|n| n.text == ":") {
                        k += 2;
                        continue;
                    }
                    in_type = true;
                }
                "," if depth == 0 => in_type = false,
                _ => {}
            }
        } else if t.kind == TokenKind::Ident
            && !in_type
            && !matches!(t.text.as_str(), "mut" | "ref" | "_")
            && t.text
                .chars()
                .find(|c| *c != '_')
                .is_some_and(|c| c.is_ascii_lowercase())
        {
            names.push(t.text.clone());
        }
        k += 1;
    }
    names
}

// ---- round-trip reconstruction ------------------------------------------

impl ParsedFile {
    /// Reconstructs the token stream by an in-order walk of the item tree:
    /// each node emits the tokens of its span not covered by a child, then
    /// recurses. Returns token indices; equality with `0..tokens.len()`
    /// proves the spans tile the file (nothing dropped, duplicated, or
    /// reordered).
    #[must_use]
    pub fn emit_tokens(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.tokens.len());
        let file_span = Span {
            lo: 0,
            hi: u32::try_from(self.tokens.len()).unwrap_or(u32::MAX),
        };
        let children: Vec<Node<'_>> = self.items.iter().map(Node::Item).collect();
        emit_node(file_span, &children, &mut out);
        out
    }
}

/// A uniform view of AST nodes for the reconstruction walk.
enum Node<'a> {
    Item(&'a Item),
    Block(&'a Block),
    Stmt(&'a Stmt),
    Expr(&'a Expr),
}

impl<'a> Node<'a> {
    fn span(&self) -> Span {
        match self {
            Node::Item(i) => i.span(),
            Node::Block(b) => b.span,
            Node::Stmt(s) => s.span(),
            Node::Expr(e) => e.span,
        }
    }

    fn children(&self) -> Vec<Node<'a>> {
        match self {
            Node::Item(item) => match item {
                Item::Fn(f) => f.body.iter().map(Node::Block).collect(),
                Item::Impl(i) => i.items.iter().map(Node::Item).collect(),
                Item::Mod(m) => m
                    .items
                    .iter()
                    .flat_map(|v| v.iter().map(Node::Item))
                    .collect(),
                Item::Trait(t) => t.items.iter().map(Node::Item).collect(),
                Item::Const(c) => c.init.iter().map(Node::Expr).collect(),
                Item::Struct(_) | Item::Raw(_) => Vec::new(),
            },
            Node::Block(b) => b.stmts.iter().map(Node::Stmt).collect(),
            Node::Stmt(stmt) => match stmt {
                Stmt::Let(l) => {
                    let mut v: Vec<Node<'a>> = l.init.iter().map(Node::Expr).collect();
                    v.extend(l.else_block.iter().map(Node::Block));
                    v
                }
                Stmt::Expr { expr, .. } => vec![Node::Expr(expr)],
                Stmt::Item(i) => vec![Node::Item(i)],
                Stmt::Raw(_) => Vec::new(),
            },
            Node::Expr(expr) => expr_children(expr),
        }
    }
}

fn expr_children<'a>(e: &'a Expr) -> Vec<Node<'a>> {
    match &e.kind {
        ExprKind::Path { .. } | ExprKind::Lit | ExprKind::Continue => Vec::new(),
        ExprKind::Unary { inner, .. }
        | ExprKind::Ref { inner, .. }
        | ExprKind::Try { inner }
        | ExprKind::Cast { inner, .. } => vec![Node::Expr(inner)],
        ExprKind::Binary { lhs, rhs, .. } => vec![Node::Expr(lhs), Node::Expr(rhs)],
        ExprKind::Assign { target, value, .. } => vec![Node::Expr(target), Node::Expr(value)],
        ExprKind::Call { callee, args } => {
            let mut v = vec![Node::Expr(callee)];
            v.extend(args.iter().map(Node::Expr));
            v
        }
        ExprKind::Method { recv, args, .. } => {
            let mut v = vec![Node::Expr(recv)];
            v.extend(args.iter().map(Node::Expr));
            v
        }
        ExprKind::Field { base, .. } => vec![Node::Expr(base)],
        ExprKind::Index { base, index } => vec![Node::Expr(base), Node::Expr(index)],
        ExprKind::StructLit { fields, rest, .. } => {
            let mut v: Vec<Node<'a>> = fields
                .iter()
                .filter_map(|(_, e)| e.as_ref().map(Node::Expr))
                .collect();
            v.extend(rest.iter().map(|b| Node::Expr(b)));
            v
        }
        ExprKind::Tuple { items, .. }
        | ExprKind::Array { items }
        | ExprKind::MacroCall { args: items, .. } => items.iter().map(Node::Expr).collect(),
        ExprKind::BlockExpr(b) => vec![Node::Block(b)],
        ExprKind::If {
            cond, then, els, ..
        } => {
            let mut v = vec![Node::Expr(cond), Node::Block(then)];
            v.extend(els.iter().map(|b| Node::Expr(b)));
            v
        }
        ExprKind::Match { scrut, arms } => {
            let mut v = vec![Node::Expr(scrut)];
            for a in arms {
                v.extend(a.guard.iter().map(Node::Expr));
                v.push(Node::Expr(&a.body));
            }
            v
        }
        ExprKind::While { cond, body, .. } => vec![Node::Expr(cond), Node::Block(body)],
        ExprKind::For { iter, body, .. } => vec![Node::Expr(iter), Node::Block(body)],
        ExprKind::Loop { body } => vec![Node::Block(body)],
        ExprKind::Closure { body, .. } => vec![Node::Expr(body)],
        ExprKind::Range { lo, hi } => {
            let mut v = Vec::new();
            v.extend(lo.iter().map(|b| Node::Expr(b)));
            v.extend(hi.iter().map(|b| Node::Expr(b)));
            v
        }
        ExprKind::Return { value } | ExprKind::Break { value } => {
            value.iter().map(|b| Node::Expr(b)).collect()
        }
    }
}

/// Emits `span`'s tokens: gaps owned by this node interleaved with child
/// subtrees, in order. Out-of-order or overlapping children would emit a
/// stream that fails the round-trip equality check rather than panicking.
fn emit_node(span: Span, children: &[Node<'_>], out: &mut Vec<u32>) {
    let mut pos = span.lo;
    for child in children {
        let cs = child.span();
        if cs.lo >= pos && cs.hi <= span.hi {
            out.extend(pos..cs.lo);
            emit_node(cs, &child.children(), out);
            pos = cs.hi;
        } else {
            // Child escapes the parent: emit it anyway so the equality
            // check reports the defect.
            emit_node(cs, &child.children(), out);
        }
    }
    out.extend(pos..span.hi);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> ParsedFile {
        let f = parse_file(src);
        assert!(
            f.recovered.is_empty(),
            "recovery at lines {:?} parsing:\n{src}",
            f.recovered
        );
        f
    }

    fn roundtrips(src: &str) {
        let f = parse_ok(src);
        let emitted = f.emit_tokens();
        let want: Vec<u32> = (0..u32::try_from(f.tokens.len()).unwrap()).collect();
        assert_eq!(emitted, want, "round-trip mismatch for:\n{src}");
    }

    #[test]
    fn fn_signature_and_body_shapes() {
        let f = parse_ok(
            "pub fn decode(gpa: u64, cfg: &Config) -> u64 {\n\
             let hpa = gpa + cfg.base;\n hpa\n }\n",
        );
        let Item::Fn(func) = &f.items[0] else {
            panic!("not a fn")
        };
        assert_eq!(func.name, "decode");
        assert!(func.is_pub);
        assert_eq!(func.params.len(), 2);
        assert_eq!(func.params[0].name, "gpa");
        assert!(!func.has_self);
        let body = func.body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 2);
        let Stmt::Let(l) = &body.stmts[0] else {
            panic!("not let")
        };
        assert_eq!(l.names, vec!["hpa"]);
    }

    #[test]
    fn method_calls_casts_and_paths() {
        let f = parse_ok(
            "fn f(x: u64) -> usize { (x.wrapping_mul(3) as usize).min(Vec::<u64>::new().len()) }\n",
        );
        roundtrips(
            "fn f(x: u64) -> usize { (x.wrapping_mul(3) as usize).min(Vec::<u64>::new().len()) }\n",
        );
        let Item::Fn(func) = &f.items[0] else {
            panic!()
        };
        let Some(Stmt::Expr { expr, semi: false }) = func.body.as_ref().unwrap().stmts.last()
        else {
            panic!("no tail expr")
        };
        assert!(matches!(expr.kind, ExprKind::Method { .. }));
    }

    #[test]
    fn control_flow_round_trips() {
        roundtrips(
            "fn f(v: &[u64]) -> u64 {\n\
             let mut acc = 0u64;\n\
             for (i, x) in v.iter().enumerate() {\n\
             if *x > 2 && i % 2 == 0 { acc += *x; } else { acc -= 1; }\n\
             }\n\
             match acc { 0 => 1, n if n > 10 => n, _ => 0 }\n\
             }\n",
        );
    }

    #[test]
    fn closures_structs_macros_round_trip() {
        roundtrips(
            "struct S { a: u64, b: Vec<u64> }\n\
             impl S {\n\
             fn new(a: u64) -> Self { Self { a, b: vec![0; 4] } }\n\
             fn go(&self) -> u64 { self.b.iter().map(|x| x + self.a).sum() }\n\
             }\n\
             fn main() { let s = S::new(3); assert_eq!(s.go(), 3); }\n",
        );
    }

    #[test]
    fn if_let_while_let_ranges() {
        roundtrips(
            "fn f(o: Option<u64>) -> u64 {\n\
             if let Some(x) = o { return x; }\n\
             let mut it = 0..10u64;\n\
             while let Some(v) = it.next() { if v == 3 { break; } }\n\
             0\n\
             }\n",
        );
    }

    #[test]
    fn generics_where_clauses_trait_impls() {
        roundtrips(
            "pub trait Policy {\n fn place(&mut self, req: u64) -> Option<u64>;\n }\n\
             impl<T: Clone + Default> Policy for Vec<T>\n where T: Send {\n\
             fn place(&mut self, req: u64) -> Option<u64> { Some(req) }\n\
             }\n",
        );
    }

    #[test]
    fn struct_literals_vs_blocks() {
        // In condition position `Foo {` must not parse as a struct literal.
        roundtrips("fn f(c: bool) -> u64 { if c { 1 } else { 2 } }\n");
        roundtrips("struct P { x: u64 }\nfn g() -> P { P { x: 1 } }\n");
        roundtrips("struct P { x: u64 }\nfn h(p: P) -> P { P { ..p } }\n");
    }

    #[test]
    fn shifts_and_comparisons_disambiguate() {
        roundtrips("fn f(a: u64, b: u64) -> bool { (a << 2) > (b >> 1) && a < b }\n");
        roundtrips("fn g(a: u64) -> u64 { a >> 3 << 1 }\n");
    }

    #[test]
    fn recovery_reports_lines_and_resynchronizes() {
        let f = parse_file("fn ok() {}\nfn bad() { let = ; }\nfn also_ok() {}\n");
        assert!(!f.recovered.is_empty());
        // Both well-formed fns still parse.
        let fns: Vec<&str> = f
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Fn(f) => Some(f.name.as_str()),
                _ => None,
            })
            .collect();
        assert!(fns.contains(&"ok") && fns.contains(&"also_ok"));
    }

    #[test]
    fn tuple_struct_fields_are_indexed() {
        let f = parse_ok("pub struct Hpa(pub u64);\n");
        let Item::Struct(s) = &f.items[0] else {
            panic!()
        };
        assert!(s.tuple);
        assert_eq!(s.fields.len(), 1);
        assert_eq!(s.fields[0].name, "0");
    }
}
