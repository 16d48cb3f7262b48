//! A comment/string/raw-string-aware Rust lexer.
//!
//! The rules match token *sequences*, never raw text, so rule-triggering
//! words inside string literals, doc examples, and comments can never
//! produce findings. The lexer is deliberately small: it does not need to
//! be a full Rust grammar, only to split source into identifiers,
//! numbers, and punctuation while skipping every kind of literal and
//! comment Rust has (line, block — nested — doc, `"…"`, `r#"…"#`,
//! `b"…"`, `'c'`, `b'c'`) and while telling lifetimes (`'a`) apart from
//! character literals (`'a'`).
//!
//! Comments are not discarded entirely: any comment whose text contains
//! a `simlint:` directive is surfaced to the suppression parser with its
//! line number.

/// What kind of token this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`foo`, `fn`, `HashMap`).
    Ident,
    /// A numeric literal (`42`, `0xff`, `1u32`).
    Num,
    /// A single punctuation character (`:`, `=`, `{`, …). Multi-char
    /// operators arrive as consecutive tokens (`::` is `:` `:`).
    Punct,
    /// A lifetime (`'a`), kept distinct so it can never be confused with
    /// an identifier in a path match.
    Lifetime,
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// The token's text (for `Punct`, a single character).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Tok {
    /// Returns `true` when the token is an identifier with this exact text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// Returns `true` when the token is this punctuation character.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == ch.len_utf8() && self.text.starts_with(ch)
    }
}

/// A comment that mentions `simlint:`, handed to the suppression parser.
#[derive(Clone, Debug)]
pub struct LintComment {
    /// The comment body with the leading `//`/`/*` markers stripped.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, comments and literals removed.
    pub toks: Vec<Tok>,
    /// Comments containing `simlint:` directives.
    pub lint_comments: Vec<LintComment>,
}

/// Lexes `src` into tokens, skipping comments and every literal form.
pub fn tokenize(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_whitespace() => self.pos += 1,
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(),
                '\'' => self.quote(),
                c if c.is_ascii_digit() => self.number(),
                c if is_ident_start(c) => self.ident_or_prefixed_literal(),
                c => {
                    self.pos += 1;
                    self.push_tok(TokKind::Punct, c.to_string());
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn push_tok(&mut self, kind: TokKind, text: String) {
        self.out.toks.push(Tok {
            kind,
            text,
            line: self.line,
        });
    }

    fn note_comment(&mut self, text: String, line: u32) {
        if text.contains("simlint:") {
            self.out.lint_comments.push(LintComment { text, line });
        }
    }

    fn line_comment(&mut self) {
        let start_line = self.line;
        let mut text = String::new();
        self.pos += 2; // "//"
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.pos += 1;
        }
        self.note_comment(text, start_line);
    }

    fn block_comment(&mut self) {
        let start_line = self.line;
        let mut text = String::new();
        self.pos += 2; // "/*"
        let mut depth = 1usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.pos += 2;
                text.push_str("/*");
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.pos += 2;
                if depth == 0 {
                    break;
                }
                text.push_str("*/");
            } else {
                if c == '\n' {
                    self.line += 1;
                }
                text.push(c);
                self.pos += 1;
            }
        }
        self.note_comment(text, start_line);
    }

    /// A plain `"…"` string with escapes.
    fn string_literal(&mut self) {
        self.pos += 1; // opening quote
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    // A `\` escape consumes the next char, which may be a
                    // line-continuation newline.
                    if self.peek(1) == Some('\n') {
                        self.line += 1;
                    }
                    self.pos += 2;
                }
                '"' => {
                    self.pos += 1;
                    return;
                }
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// `r"…"` / `r##"…"##` raw strings: no escapes, terminated by a quote
    /// followed by the same number of hashes.
    fn raw_string(&mut self, hashes: usize) {
        // Caller consumed `r`/`br` and the hashes; we sit on the quote.
        self.pos += 1;
        while let Some(c) = self.peek(0) {
            if c == '"' && (1..=hashes).all(|i| self.peek(i) == Some('#')) {
                self.pos += 1 + hashes;
                return;
            }
            if c == '\n' {
                self.line += 1;
            }
            self.pos += 1;
        }
    }

    /// A `'` is either a lifetime or a character literal.
    fn quote(&mut self) {
        match self.peek(1) {
            Some('\\') => {
                // Escaped char literal. The char after the backslash is
                // consumed unconditionally — it may itself be a quote
                // (`'\''`) or a backslash (`'\\'`), neither of which
                // closes the literal — then we scan to the real closing
                // quote (covers multi-char escapes like `'\u{1F600}'`).
                self.pos += 3;
                while let Some(c) = self.peek(0) {
                    self.pos += 1;
                    if c == '\'' {
                        break;
                    }
                }
            }
            Some(c) if is_ident_start(c) => {
                // `'a'` is a char literal; `'a` (no closing quote after
                // the identifier run) is a lifetime.
                let mut end = 2;
                while self.peek(end).is_some_and(is_ident_continue) {
                    end += 1;
                }
                if self.peek(end) == Some('\'') {
                    self.pos += end + 1; // char literal
                } else {
                    let name: String = (1..end).filter_map(|i| self.peek(i)).collect();
                    self.pos += end;
                    self.push_tok(TokKind::Lifetime, name);
                }
            }
            Some(_) => {
                // `'('` and friends: quote, one char, quote.
                self.pos += 3;
            }
            None => self.pos += 1,
        }
    }

    fn number(&mut self) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        self.push_tok(TokKind::Num, text);
    }

    /// An identifier — unless it is the `r`/`b`/`br` prefix of a raw or
    /// byte literal, in which case the literal is skipped instead.
    fn ident_or_prefixed_literal(&mut self) {
        let mut end = 0;
        while self.peek(end).is_some_and(is_ident_continue) {
            end += 1;
        }
        let text: String = (0..end).filter_map(|i| self.peek(i)).collect();

        // Raw / byte string prefixes.
        if text == "r" || text == "b" || text == "br" {
            let mut hashes = 0;
            while self.peek(end + hashes) == Some('#') {
                hashes += 1;
            }
            if self.peek(end + hashes) == Some('"') {
                if hashes == 0 && text == "b" {
                    // b"…": plain escape rules.
                    self.pos += end;
                    self.string_literal();
                } else if text == "b" && hashes > 0 {
                    // `b#` is not a literal prefix; fall through to ident.
                    self.pos += end;
                    self.push_tok(TokKind::Ident, text);
                } else {
                    self.pos += end + hashes;
                    if hashes == 0 {
                        // r"…" has no escapes.
                        self.raw_string(0);
                    } else {
                        self.raw_string(hashes);
                    }
                }
                return;
            }
            if text == "b" && self.peek(end) == Some('\'') {
                // b'x' byte literal.
                self.pos += end;
                self.quote();
                return;
            }
            if text == "r" && hashes == 1 && self.peek(end + 1).is_some_and(is_ident_start) {
                // r#ident raw identifier: emit the identifier itself.
                self.pos += end + 1;
                self.ident_or_prefixed_literal();
                return;
            }
        }

        self.pos += end;
        self.push_tok(TokKind::Ident, text);
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn skips_line_and_block_comments() {
        let src = "// Instant::now()\n/* HashMap */ fn main() {}\n/* outer /* nested */ still */ let x = 1;";
        assert_eq!(idents(src), vec!["fn", "main", "let", "x"]);
    }

    #[test]
    fn skips_string_contents() {
        let src = r#"let s = "Instant::now() HashMap unwrap()"; let t = 'u';"#;
        assert_eq!(idents(src), vec!["let", "s", "let", "t"]);
    }

    #[test]
    fn skips_raw_strings_with_hashes() {
        let src = "let s = r#\"unwrap() \" still in string \"# ; done";
        assert_eq!(idents(src), vec!["let", "s", "done"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let lexed = tokenize(src);
        let lifetimes: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        assert!(!lexed.toks.iter().any(|t| t.is_ident("x") && t.line != 1));
    }

    #[test]
    fn escaped_char_literals() {
        let src = r"let a = '\''; let b = '\n'; end";
        assert_eq!(idents(src), vec!["let", "a", "let", "b", "end"]);
    }

    #[test]
    fn line_numbers_advance() {
        let src = "a\nb\n\nc";
        let lexed = tokenize(src);
        let lines: Vec<u32> = lexed.toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn collects_simlint_comments_only() {
        let src = "// simlint: allow(unit-discipline): fixture\n// plain comment\nfn f() {}";
        let lexed = tokenize(src);
        assert_eq!(lexed.lint_comments.len(), 1);
        assert_eq!(lexed.lint_comments[0].line, 1);
        assert!(lexed.lint_comments[0]
            .text
            .contains("allow(unit-discipline)"));
    }

    #[test]
    fn byte_strings_and_raw_idents() {
        let src = r##"let a = b"unwrap()"; let r#fn = 1; let c = b'x';"##;
        assert_eq!(idents(src), vec!["let", "a", "let", "fn", "let", "c"]);
    }

    #[test]
    fn multiline_strings_track_lines() {
        let src = "let s = \"line\nbreak\";\nnext";
        let lexed = tokenize(src);
        let next = lexed.toks.iter().find(|t| t.is_ident("next")).unwrap();
        assert_eq!(next.line, 3);
    }

    #[test]
    fn escaped_quote_char_literal_does_not_desync() {
        // Regression: `'\''` used to end at the *escaped* quote, leaving
        // the closing quote to be re-lexed as a new char literal that
        // swallowed the following tokens.
        let src = r"let q = '\''; marker(); let b = '\\'; after();";
        assert_eq!(
            idents(src),
            vec!["let", "q", "marker", "let", "b", "after"]
        );
    }

    #[test]
    fn multichar_escapes_in_char_literals() {
        let src = r"let e = '\u{1F600}'; let h = '\x41'; done";
        assert_eq!(idents(src), vec!["let", "e", "let", "h", "done"]);
    }

    #[test]
    fn lifetimes_chars_and_labels_mixed_on_one_line() {
        // The full ambiguity zoo: generic lifetimes, `'static`, an
        // anonymous lifetime, loop labels, and char literals that look
        // like lifetimes — all disambiguated on the same line.
        let src = "fn f<'a, 'b>(x: &'a str, y: &'_ [u8], s: &'static str) -> char { 'l: loop { break 'l; } if true { 'b' } else { 'a' } }";
        let lexed = tokenize(src);
        let lifetimes: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["a", "b", "a", "_", "static", "l", "l"]);
        // The char literals never become Idents or Lifetimes.
        assert!(!lexed.toks.iter().any(|t| t.is_ident("b") || t.is_ident("a")));
    }

    #[test]
    fn nested_block_comments_to_depth_three() {
        let src = "before /* 1 /* 2 /* 3 */ 2 */ 1 */ after\n/* unterminated /* nest";
        assert_eq!(idents(src), vec!["before", "after"]);
        // `/**/` and `/***/` terminate immediately.
        assert_eq!(idents("a /**/ b /***/ c"), vec!["a", "b", "c"]);
    }
}
