//! A hand-rolled recursive-descent parser for the Rust subset this
//! workspace uses.
//!
//! Built directly on [`crate::lexer`]'s token stream (no new dependencies),
//! it keeps exactly what the dataflow passes read: `fn` items with their
//! parameter names and bodies, the `impl`/`trait`/`mod` nesting that gives
//! a function its scope, and the full statement and expression grammar
//! (calls, method calls, casts, field accesses, bindings, control flow).
//! Everything else — `struct`, `enum`, `const`, `use` and the other items,
//! generic parameter lists, `where` clauses, types, attributes, and
//! patterns beyond the names they bind — is consumed as a balanced token
//! skip and leaves nothing in the tree but the names a pass reads.
//!
//! Error handling is recovery-based: an unparseable statement or item is
//! consumed to a synchronization point (`;` or a balanced `}`) and recorded
//! in [`ParsedFile::recovered`]. A skip is balanced too, so an unbalanced
//! or unknown token sequence anywhere is a recovery. The workspace gate
//! demands zero recoveries, so the accepted subset provably covers the
//! real tree.

use crate::lexer::{scan, Comment, Token, TokenKind};

/// One parsed source file: the token stream, the comments, and the item
/// tree over it.
#[derive(Debug)]
pub struct ParsedFile {
    /// The lexer's token stream (what the token rules read).
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
    /// A trait definition with its contained items (sig-only fns allowed).
    Trait(TraitItem),
    /// An item no pass reads: `use`, `type`, `struct`, `enum`, `const`,
    /// `static`, `extern`, `macro_rules!`, item-level macro calls.
    /// Consumed as a balanced token skip.
    Raw,
}

/// A function item.
#[derive(Debug)]
pub struct FnItem {
    /// 1-based line of the `fn` name.
    pub line: u32,
    /// Function name.
    pub name: String,
    /// Parameter binding names, excluding any `self` receiver (the first
    /// binding of each pattern; `_` patterns yield `_`).
    pub params: Vec<String>,
    /// Whether the parameter list had a `self` receiver.
    pub has_self: bool,
    /// Body, absent for trait method signatures.
    pub body: Option<Block>,
}

/// An `impl` block.
#[derive(Debug)]
pub struct ImplItem {
    /// Last path segment of the self type: `Bar` in both `impl Bar` and
    /// `impl<T> Foo<T> for Bar`.
    pub ty_name: String,
    /// Last path segment of the trait when this is a trait impl.
    pub trait_name: Option<String>,
    /// Contained items.
    pub items: Vec<Item>,
}

/// An inline or out-of-line module.
#[derive(Debug)]
pub struct ModItem {
    /// Contained items (`None` for `mod name;`).
    pub items: Option<Vec<Item>>,
    /// Whether the module is `#[cfg(test)]`-gated.
    pub cfg_test: bool,
}

/// A trait definition.
#[derive(Debug)]
pub struct TraitItem {
    /// Trait name.
    pub name: String,
    /// Contained items.
    pub items: Vec<Item>,
}

/// A brace-delimited block.
#[derive(Debug)]
pub struct Block {
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
    /// A nested item (its fns are not in the fn table) or a recovered
    /// region (counted in [`ParsedFile::recovered`]).
    Raw,
}

/// A `let` statement.
#[derive(Debug)]
pub struct LetStmt {
    /// Names bound by the pattern.
    pub names: Vec<String>,
    /// Initializer.
    pub init: Option<Expr>,
    /// Diverging `else` block of a `let ... else`.
    pub else_block: Option<Block>,
}

/// A match arm.
#[derive(Debug)]
pub struct Arm {
    /// Names bound by the pattern.
    pub names: Vec<String>,
    /// Guard expression (`if` guard), when present.
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
}

/// An expression with its 1-based starting line.
#[derive(Debug)]
pub struct Expr {
    /// 1-based line of the first token.
    pub line: u32,
    /// Shape.
    pub kind: ExprKind,
}

/// Expression shapes. Structure is kept exactly where the dataflow passes
/// consume it; types and patterns are skipped.
#[derive(Debug)]
pub enum ExprKind {
    /// A (possibly qualified) path: `x`, `Foo::bar`, `Vec::<u64>::new`.
    /// Turbofish segments are dropped from `segs`.
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
    /// `,`/`;`-separated expressions they are kept; otherwise it is
    /// skipped and `args` is empty.
    MacroCall {
        /// Parsed arguments (empty when skipped).
        args: Vec<Expr>,
    },
    /// A block expression.
    BlockExpr(Block),
    /// An `if` (or `if let`) expression.
    If {
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
        /// Names bound by a `while let` pattern.
        names: Vec<String>,
        /// Condition (scrutinee for `while let`).
        cond: Box<Expr>,
        /// Body.
        body: Block,
    },
    /// A `for` loop.
    For {
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

/// Parses a source file. Never fails: unparseable regions are skipped and
/// recorded in [`ParsedFile::recovered`].
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
    /// pairs. The stop token is not consumed. `->`, `::` and `..=` are
    /// consumed atomically, so their `>`, `:` or `=` cannot satisfy a stop.
    fn skip_until(&mut self, stops: &[&str], angles: bool) -> PResult<()> {
        while let Some(t) = self.tok(0) {
            if t.kind == TokenKind::Punct {
                let s = t.text.as_str();
                if s == "." && self.peek_punct(1, ".") && self.peek_punct(2, "=") {
                    self.i += 3;
                    continue;
                }
                if (s == "-" && self.peek_punct(1, ">")) || (s == ":" && self.peek_punct(1, ":")) {
                    self.i += 2;
                    continue;
                }
                if stops.contains(&s) {
                    return Ok(());
                }
                match s {
                    "(" | "[" | "{" => {
                        self.skip_group()?;
                        continue;
                    }
                    ")" | "]" | "}" => return Ok(()),
                    "<" if angles => {
                        self.skip_angles()?;
                        continue;
                    }
                    _ => {}
                }
            } else if t.kind == TokenKind::Ident && stops.contains(&t.text.as_str()) {
                return Ok(());
            }
            self.i += 1;
        }
        Ok(())
    }

    /// Consumes a cast target type (`expr as T`): `&`-prefixes then either a
    /// balanced group or a path with optional generic arguments. Stricter
    /// than [`Parser::skip_until`] because a binary operator may follow; a
    /// `<` followed by `=` is that operator (`x as u64 <= y`), not generic
    /// arguments.
    fn skip_cast_type(&mut self) -> PResult<()> {
        while self.at_punct("&") || self.at_punct("*") {
            self.i += 1;
            if self.at_ident("mut") || self.at_ident("const") {
                self.i += 1;
            }
        }
        if self.at_punct("(") || self.at_punct("[") {
            return self.skip_group();
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
            return Ok(());
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
                if self.at_generic_open() {
                    self.skip_angles()?;
                } else if self.at_any_ident() {
                    self.i += 1;
                } else {
                    return Err(self.line());
                }
                continue;
            }
            if self.at_generic_open() {
                self.skip_angles()?;
                continue;
            }
            break;
        }
        Ok(())
    }

    /// Whether the next token opens generic arguments of a cast type: a
    /// `<` that is not the first half of `<=`.
    fn at_generic_open(&self) -> bool {
        self.at_punct("<") && !self.peek_punct(1, "=")
    }

    /// Consumes a pattern until a depth-0 stop, collecting binding names.
    /// Bindings are lowercase/underscore-initial identifiers that are not
    /// keywords, not path segments, not struct-pattern field keys
    /// (`name:`), and not callee-like (`name(`/`name{`/`name!`).
    fn skip_pattern(&mut self, stops: &[&str]) -> PResult<Vec<String>> {
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
        Ok(names)
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
            let lo = self.i;
            match self.parse_item() {
                Ok(item) => items.push(item),
                Err(line) => {
                    self.i = lo;
                    self.recover_item(line);
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
        let cfg_test = self.peek_cfg_test();
        self.skip_attrs()?;
        if self.at_ident("pub") {
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
            "fn" => Ok(Item::Fn(self.parse_fn()?)),
            // `const fn` prefix.
            "const" if self.peek_ident(1, "fn") => {
                self.i += 1;
                Ok(Item::Fn(self.parse_fn()?))
            }
            "impl" => Ok(Item::Impl(self.parse_impl()?)),
            "mod" => Ok(Item::Mod(self.parse_mod(cfg_test)?)),
            "trait" => Ok(Item::Trait(self.parse_trait()?)),
            "use" | "type" | "const" | "static" => {
                self.skip_until(&[";"], false)?;
                self.expect_punct(";")?;
                Ok(Item::Raw)
            }
            // A braced body, or a `;` after a unit/tuple struct or an
            // `extern crate`.
            "struct" | "enum" | "extern" => {
                self.skip_until(&[";", "{"], false)?;
                if self.at_punct("{") {
                    self.skip_group()?;
                } else {
                    self.expect_punct(";")?;
                }
                Ok(Item::Raw)
            }
            "macro_rules" => {
                self.i += 1;
                self.expect_punct("!")?;
                if !self.at_any_ident() {
                    return Err(self.line());
                }
                self.i += 1;
                self.skip_group()?;
                Ok(Item::Raw)
            }
            // Item-level macro invocation, its path maybe qualified:
            // `thread_local!(...)`, `proptest::proptest! { ... }`. Skipped
            // (their interiors are generated items, mostly test-only).
            _ => {
                self.i += self.item_macro_bang().ok_or(kw.line)? + 1;
                if self.at_any_ident() {
                    self.i += 1;
                }
                self.skip_group()?;
                if self.at_punct(";") {
                    self.i += 1;
                }
                Ok(Item::Raw)
            }
        }
    }

    /// The offset of the `!` when a macro path — `name` or `a::b::name` —
    /// starts here.
    fn item_macro_bang(&self) -> Option<usize> {
        let mut j = 0;
        while self.peek_punct(j + 1, ":")
            && self.peek_punct(j + 2, ":")
            && self.tok(j + 3).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            j += 3;
        }
        self.peek_punct(j + 1, "!").then_some(j + 1)
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

    fn parse_fn(&mut self) -> PResult<FnItem> {
        self.i += 1; // fn
        let line = self.line();
        let name = self.ident_text()?;
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
            let pat_lo = self.i;
            let names = self.skip_pattern(&[":", ",", ")"])?;
            let pat_has_self = self.toks[pat_lo..self.i]
                .iter()
                .any(|t| t.kind == TokenKind::Ident && t.text == "self");
            if self.at_punct(":") {
                self.i += 1;
                self.skip_until(&[",", ")"], true)?;
                if pat_has_self {
                    has_self = true;
                } else {
                    params.push(names.first().cloned().unwrap_or_else(|| "_".into()));
                }
            } else if pat_has_self {
                has_self = true;
            } else if pat_lo == self.i {
                return Err(self.line());
            }
            if self.at_punct(",") {
                self.i += 1;
            }
        }
        self.expect_punct(")")?;
        if self.at_punct("-") && self.peek_punct(1, ">") {
            self.i += 2;
            self.skip_until(&["{", ";", "where"], true)?;
        }
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
            line,
            name,
            params,
            has_self,
            body,
        })
    }

    fn parse_impl(&mut self) -> PResult<ImplItem> {
        self.i += 1; // impl
        if self.at_punct("<") {
            self.skip_angles()?;
        }
        let mut ty_lo = self.i;
        self.skip_until(&["for", "{", "where"], true)?;
        let mut trait_name = None;
        if self.at_ident("for") {
            trait_name = Some(last_path_ident(&self.toks[ty_lo..self.i]));
            self.i += 1;
            ty_lo = self.i;
            self.skip_until(&["{", "where"], true)?;
        }
        let ty_name = last_path_ident(&self.toks[ty_lo..self.i]);
        if self.at_ident("where") {
            self.skip_until(&["{"], true)?;
        }
        self.expect_punct("{")?;
        let items = self.parse_items(Some("}"));
        self.expect_punct("}")?;
        Ok(ImplItem {
            ty_name,
            trait_name,
            items,
        })
    }

    fn parse_mod(&mut self, cfg_test: bool) -> PResult<ModItem> {
        self.i += 1; // mod
        self.ident_text()?;
        let items = if self.at_punct(";") {
            self.i += 1;
            None
        } else {
            self.expect_punct("{")?;
            let items = self.parse_items(Some("}"));
            self.expect_punct("}")?;
            Some(items)
        };
        Ok(ModItem { items, cfg_test })
    }

    fn parse_trait(&mut self) -> PResult<TraitItem> {
        self.i += 1; // trait
        let name = self.ident_text()?;
        if self.at_punct("<") {
            self.skip_angles()?;
        }
        self.skip_until(&["{"], true)?;
        self.expect_punct("{")?;
        let items = self.parse_items(Some("}"));
        self.expect_punct("}")?;
        Ok(TraitItem { name, items })
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
            let lo = self.i;
            match self.parse_stmt() {
                Ok(stmt) => stmts.push(stmt),
                Err(line) => {
                    self.i = lo;
                    self.recover_stmt(line);
                    stmts.push(Stmt::Raw);
                }
            }
        }
        Ok(Block { stmts })
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
        // Attributes may precede statements (`#[allow]`, `#[cfg]`) and
        // nested items alike.
        self.skip_attrs()?;
        if self.at_ident("let") {
            return self.parse_let();
        }
        // `extern` opens an item only as `extern crate`; bare `extern` in
        // statement position is an expression-adjacent oddity we skip.
        let extern_non_item = self.at_ident("extern") && !self.peek_ident(1, "crate");
        let is_item = self.tok(0).is_some_and(|t| {
            t.kind == TokenKind::Ident && ITEM_KEYWORDS.contains(&t.text.as_str())
        }) && !extern_non_item;
        if is_item && self.item_lookahead() {
            self.parse_item()?;
            return Ok(Stmt::Raw);
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

    fn parse_let(&mut self) -> PResult<Stmt> {
        self.i += 1; // let
        let names = self.skip_pattern(&["=", ":", ";"])?;
        if self.at_punct(":") {
            self.i += 1;
            self.skip_until(&["=", ";"], true)?;
        }
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
            names,
            init,
            else_block,
        }))
    }

    // ---- expressions -----------------------------------------------------

    /// Entry: assignment level, right-associative.
    fn parse_expr(&mut self, no_struct: bool) -> PResult<Expr> {
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
        let line = self.line();
        let mut lhs = self.parse_binary_level(no_struct, level + 1)?;
        'outer: loop {
            for (op, len) in TIERS[level] {
                if self.punct_run_is(op, *len) {
                    self.i += len;
                    let rhs = self.parse_binary_level(no_struct, level + 1)?;
                    lhs = Expr {
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
        let line = self.line();
        let mut e = self.parse_unary(no_struct)?;
        while self.at_ident("as") {
            self.i += 1;
            self.skip_cast_type()?;
            e = Expr {
                line,
                kind: ExprKind::Cast { inner: Box::new(e) },
            };
        }
        Ok(e)
    }

    fn parse_unary(&mut self, no_struct: bool) -> PResult<Expr> {
        let line = self.line();
        if self.at_punct("&") {
            // `&&x` is two reference levels: the second `&` parses as an
            // inner `Ref`.
            self.i += 1;
            if self.at_ident("mut") {
                self.i += 1;
            }
            let inner = self.parse_unary(no_struct)?;
            return Ok(Expr {
                line,
                kind: ExprKind::Ref {
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
        let line = self.line();
        let mut e = self.parse_primary(no_struct)?;
        loop {
            if self.at_punct("?") {
                self.i += 1;
                e = Expr {
                    line,
                    kind: ExprKind::Try { inner: Box::new(e) },
                };
                continue;
            }
            if self.at_punct("(") {
                let args = self.parse_paren_args()?;
                e = Expr {
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
                        let kind = if self.at_punct("(") {
                            let args = self.parse_paren_args()?;
                            ExprKind::Method {
                                recv: Box::new(e),
                                name,
                                args,
                            }
                        } else {
                            ExprKind::Field {
                                base: Box::new(e),
                                name,
                            }
                        };
                        e = Expr { line, kind };
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
        let line = self.line();
        let Some(t) = self.tok(0) else {
            return Err(self.line());
        };
        match t.kind {
            TokenKind::Num | TokenKind::Str => {
                self.i += 1;
                Ok(Expr {
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
                        line,
                        kind: ExprKind::Array { items },
                    })
                }
                "{" => self.parse_block_expr(),
                "|" => self.parse_closure(line),
                "#" => {
                    // Expression-position attribute (e.g. on a closure or
                    // literal argument); attach to the following expression.
                    self.skip_attrs()?;
                    let inner = self.parse_expr(no_struct)?;
                    Ok(Expr {
                        line,
                        kind: inner.kind,
                    })
                }
                _ => Err(t.line),
            },
            TokenKind::Ident => match t.text.as_str() {
                "if" => self.parse_if(line),
                "match" => self.parse_match(line),
                "while" => {
                    self.i += 1;
                    let (names, cond) = self.parse_cond()?;
                    let body = self.parse_block()?;
                    Ok(Expr {
                        line,
                        kind: ExprKind::While {
                            names,
                            cond: Box::new(cond),
                            body,
                        },
                    })
                }
                "for" => {
                    self.i += 1;
                    let names = self.skip_pattern(&["in"])?;
                    if !self.at_ident("in") {
                        return Err(self.line());
                    }
                    self.i += 1;
                    let iter = self.parse_expr(true)?;
                    let body = self.parse_block()?;
                    Ok(Expr {
                        line,
                        kind: ExprKind::For {
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
                        line,
                        kind: ExprKind::Loop { body },
                    })
                }
                "return" => {
                    self.i += 1;
                    let value = self.parse_opt_value(no_struct)?;
                    Ok(Expr {
                        line,
                        kind: ExprKind::Return { value },
                    })
                }
                "break" => {
                    self.i += 1;
                    let value = self.parse_opt_value(no_struct)?;
                    Ok(Expr {
                        line,
                        kind: ExprKind::Break { value },
                    })
                }
                "continue" => {
                    self.i += 1;
                    Ok(Expr {
                        line,
                        kind: ExprKind::Continue,
                    })
                }
                "move" => {
                    self.i += 1;
                    if !self.at_punct("|") {
                        return Err(self.line());
                    }
                    self.parse_closure(line)
                }
                _ => self.parse_path_expr(line, no_struct),
            },
        }
    }

    /// The optional operand of `return`/`break`.
    fn parse_opt_value(&mut self, no_struct: bool) -> PResult<Option<Box<Expr>>> {
        if self.range_rhs_follows() {
            Ok(Some(Box::new(self.parse_expr(no_struct)?)))
        } else {
            Ok(None)
        }
    }

    /// A `{ ... }` block as an expression.
    fn parse_block_expr(&mut self) -> PResult<Expr> {
        let line = self.line();
        let block = self.parse_block()?;
        Ok(Expr {
            line,
            kind: ExprKind::BlockExpr(block),
        })
    }

    /// Parses `if`/`if let` with `else if` chains.
    fn parse_if(&mut self, line: u32) -> PResult<Expr> {
        self.i += 1; // if
        let (names, cond) = self.parse_cond()?;
        let then = self.parse_block()?;
        let els = if self.at_ident("else") {
            self.i += 1;
            if self.at_ident("if") {
                let e_line = self.line();
                Some(Box::new(self.parse_if(e_line)?))
            } else {
                Some(Box::new(self.parse_block_expr()?))
            }
        } else {
            None
        };
        Ok(Expr {
            line,
            kind: ExprKind::If {
                names,
                cond: Box::new(cond),
                then,
                els,
            },
        })
    }

    /// Parses an `if`/`while` condition, handling the `let` form. Returns
    /// `(bound names, condition/scrutinee)`.
    fn parse_cond(&mut self) -> PResult<(Vec<String>, Expr)> {
        if self.at_ident("let") {
            self.i += 1;
            let names = self.skip_pattern(&["="])?;
            self.expect_punct("=")?;
            let scrut = self.parse_expr(true)?;
            Ok((names, scrut))
        } else {
            let cond = self.parse_expr(true)?;
            Ok((Vec::new(), cond))
        }
    }

    fn parse_match(&mut self, line: u32) -> PResult<Expr> {
        self.i += 1; // match
        let scrut = self.parse_expr(true)?;
        self.expect_punct("{")?;
        let mut arms = Vec::new();
        while !self.at_punct("}") {
            if self.tok(0).is_none() {
                return Err(self.line());
            }
            self.skip_attrs()?;
            let names = self.skip_pattern(&["=>", "if"])?;
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
                self.parse_block_expr()?
            } else {
                self.parse_expr(false)?
            };
            if self.at_punct(",") {
                self.i += 1;
            }
            arms.push(Arm { names, guard, body });
        }
        self.expect_punct("}")?;
        Ok(Expr {
            line,
            kind: ExprKind::Match {
                scrut: Box::new(scrut),
                arms,
            },
        })
    }

    fn parse_closure(&mut self, line: u32) -> PResult<Expr> {
        // Params: `||` or `|pat, pat|`.
        let names = if self.at_punct("|") && self.peek_punct(1, "|") {
            self.i += 2;
            Vec::new()
        } else {
            self.expect_punct("|")?;
            let lo = self.i;
            // Scan to the closing `|` at depth 0 (params may contain
            // annotated types with generics or a fn-trait's `->`, but never
            // `||` or closures).
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
                        "-" if self.peek_punct(1, ">") => {
                            self.i += 2;
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
            let names = closure_param_names(&self.toks[lo..self.i]);
            self.i += 1; // closing `|`
            names
        };
        // Optional return type forces a block body.
        let body = if self.at_punct("-") && self.peek_punct(1, ">") {
            self.i += 2;
            self.skip_until(&["{"], true)?;
            self.parse_block_expr()?
        } else {
            self.parse_expr(false)?
        };
        Ok(Expr {
            line,
            kind: ExprKind::Closure {
                names,
                body: Box::new(body),
            },
        })
    }

    /// Path expressions and what they lead into: macro calls, struct
    /// literals, or plain paths (calls/indexing are postfix).
    fn parse_path_expr(&mut self, line: u32, no_struct: bool) -> PResult<Expr> {
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
            return self.parse_macro_call(line);
        }
        if self.at_punct("{") && !no_struct && struct_lit_ahead(self, &segs) {
            return self.parse_struct_lit(line);
        }
        Ok(Expr {
            line,
            kind: ExprKind::Path { segs },
        })
    }

    fn parse_struct_lit(&mut self, line: u32) -> PResult<Expr> {
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
            self.skip_attrs()?;
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
            line,
            kind: ExprKind::StructLit { fields, rest },
        })
    }

    /// Parses a macro invocation's delimited arguments. The interior is
    /// parsed as `,`/`;`-separated expressions when possible (covering
    /// `format!`, `assert*!`, `vec!`, `write!`); otherwise it is skipped
    /// as a balanced group (e.g. `matches!` patterns).
    fn parse_macro_call(&mut self, line: u32) -> PResult<Expr> {
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
            // Fallback: rewind to the delimiter and skip it balanced.
            self.i = open_at;
            self.skip_group()?;
            args.clear();
        }
        Ok(Expr {
            line,
            kind: ExprKind::MacroCall { args },
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
    // `{ ..base }`, or a first field under an attribute.
    if (p.peek_punct(1, ".") && p.peek_punct(2, ".")) || p.peek_punct(1, "#") {
        return true;
    }
    if p.tok(1).is_some_and(|t| t.kind == TokenKind::Ident) {
        return p.peek_punct(2, ":") && !p.peek_punct(3, ":")
            || p.peek_punct(2, ",")
            || p.peek_punct(2, "}");
    }
    false
}

/// The last identifier of a path-shaped token run (for `impl` type names).
fn last_path_ident(toks: &[Token]) -> String {
    let mut name = String::new();
    for t in toks {
        if t.kind == TokenKind::Punct && t.text == "<" {
            break;
        }
        if t.kind == TokenKind::Ident && t.text != "for" && t.text != "dyn" {
            name = t.text.clone();
        }
    }
    name
}

/// Extracts parameter binding names from the tokens between a closure's
/// pipes: identifiers outside type annotations, per the same binding
/// heuristic as patterns.
fn closure_param_names(toks: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_type = false;
    let mut depth = 0i32;
    let mut k = 0;
    while k < toks.len() {
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
        assert_eq!(func.params, vec!["gpa", "cfg"]);
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
    fn control_flow_parses() {
        parse_ok(
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
    fn closures_structs_macros_parse() {
        parse_ok(
            "struct S { a: u64, b: Vec<u64> }\n\
             impl S {\n\
             fn new(a: u64) -> Self { Self { a, b: vec![0; 4] } }\n\
             fn go(&self) -> u64 { self.b.iter().map(|x| x + self.a).sum() }\n\
             }\n\
             fn main() { let s = S::new(3); assert_eq!(s.go(), 3); }\n",
        );
    }

    #[test]
    fn closure_params_may_name_fn_trait_types() {
        // The `>` of a param type's `->` closes no generic.
        parse_ok(
            "fn f() -> u64 {\n\
             let apply = |g: &dyn Fn(u64) -> u64, x: u64| g(x);\n\
             let boxed = |g: Box<dyn Fn(u8) -> Vec<u8>>| g(1).len();\n\
             apply(&|x| x + 1, 2) + boxed(Box::new(|b| vec![b])) as u64\n\
             }\n",
        );
    }

    #[test]
    fn if_let_while_let_ranges() {
        parse_ok(
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
        let f = parse_ok(
            "pub trait Policy {\n fn place(&mut self, req: u64) -> Option<u64>;\n }\n\
             impl<T: Clone + Default> Policy for Vec<T>\n where T: Send {\n\
             fn place(&mut self, req: u64) -> Option<u64> { Some(req) }\n\
             }\n",
        );
        let Item::Impl(imp) = &f.items[1] else {
            panic!("not an impl")
        };
        assert_eq!(imp.ty_name, "Vec");
        assert_eq!(imp.trait_name.as_deref(), Some("Policy"));
    }

    #[test]
    fn struct_literals_vs_blocks() {
        // In condition position `Foo {` must not parse as a struct literal.
        parse_ok("fn f(c: bool) -> u64 { if c { 1 } else { 2 } }\n");
        parse_ok("struct P { x: u64 }\nfn g() -> P { P { x: 1 } }\n");
        parse_ok("struct P { x: u64 }\nfn h(p: P) -> P { P { ..p } }\n");
    }

    #[test]
    fn shifts_and_comparisons_disambiguate() {
        parse_ok("fn f(a: u64, b: u64) -> bool { (a << 2) > (b >> 1) && a < b }\n");
        parse_ok("fn g(a: u64) -> u64 { a >> 3 << 1 }\n");
    }

    #[test]
    fn cast_before_less_or_equal_is_a_comparison() {
        let f = parse_ok(
            "fn f(v: &[u64], n: u32) -> bool { v.len() as u64 <= 4 && n as usize <= v.len() }\n\
             fn after() {}\n",
        );
        let fns: Vec<&str> = f
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Fn(f) => Some(f.name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(fns, ["f", "after"]);
        let Item::Fn(func) = &f.items[0] else {
            panic!("not a fn")
        };
        let Some(Stmt::Expr { expr, semi: false }) = func.body.as_ref().unwrap().stmts.last()
        else {
            panic!("no tail expr")
        };
        let ExprKind::Binary { op: "&&", lhs, .. } = &expr.kind else {
            panic!("not a conjunction: {:?}", expr.kind)
        };
        assert!(
            matches!(lhs.kind, ExprKind::Binary { op: "<=", .. }),
            "{:?}",
            lhs.kind
        );
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
    fn unread_items_are_skipped_whole() {
        let f = parse_ok(
            "pub struct Hpa(pub u64);\n\
             struct W<T> where T: Fn(u64) -> u64 { f: T }\n\
             const N: [u8; 2] = [0; 2];\n\
             static S: u64 = { 1 + 2 };\n\
             fn after() {}\n",
        );
        assert!(matches!(
            f.items[..4],
            [Item::Raw, Item::Raw, Item::Raw, Item::Raw]
        ));
        assert!(matches!(&f.items[4], Item::Fn(func) if func.name == "after"));
        // An unbalanced skip is still a recovery.
        assert!(!parse_file("const N: u64 = (1;\n").recovered.is_empty());
    }
}
