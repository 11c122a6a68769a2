//! Byte spans and rendered diagnostics for the KF1 front end.
//!
//! Every token and tree node carries a [`Span`] — a half-open byte range
//! into the original source text. Front-end errors surface as
//! [`Diagnostic`]s: a stable error code, a primary message, an optional
//! note, and the span, from which a caret-underlined source excerpt can
//! be rendered with [`Diagnostic::render`].
//!
//! Code ranges are stable (tests and the `kf1_check` lint pin them):
//! `L0xx` lexer, `P0xx` parser, `A0xx` semantic analysis.

/// A half-open byte range `[lo, hi)` into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first byte.
    pub lo: u32,
    /// Byte offset one past the last byte.
    pub hi: u32,
}

impl Span {
    pub fn new(lo: u32, hi: u32) -> Span {
        Span { lo, hi }
    }

    /// A zero-width span at `at` (end-of-line / end-of-file positions).
    pub fn point(at: u32) -> Span {
        Span { lo: at, hi: at }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn join(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    pub fn len(self) -> usize {
        (self.hi.saturating_sub(self.lo)) as usize
    }

    pub fn is_empty(self) -> bool {
        self.hi <= self.lo
    }

    /// The spanned source text (clamped to `src`).
    pub fn slice(self, src: &str) -> &str {
        let lo = (self.lo as usize).min(src.len());
        let hi = (self.hi as usize).min(src.len()).max(lo);
        &src[lo..hi]
    }

    /// 1-based `(line, column)` of the span start in `src` (byte columns).
    pub fn line_col(self, src: &str) -> (usize, usize) {
        let lo = (self.lo as usize).min(src.len());
        let before = &src[..lo];
        let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
        let col = lo - before.rfind('\n').map(|p| p + 1).unwrap_or(0) + 1;
        (line, col)
    }
}

/// A front-end error: stable code, message, optional note, and the span
/// of the offending source. `line`/`col` are 1-based and precomputed at
/// construction so consumers without the source text (and older tests
/// that match on `err.line`) still get positions.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub span: Span,
    /// Stable error code: `L0xx` lexer, `P0xx` parser, `A0xx` analysis.
    pub code: &'static str,
    pub message: String,
    pub note: Option<String>,
    /// 1-based source line of the span start.
    pub line: usize,
    /// 1-based byte column of the span start.
    pub col: usize,
}

impl Diagnostic {
    /// Build a diagnostic, computing `line`/`col` from `src`.
    pub fn new(code: &'static str, span: Span, message: impl Into<String>, src: &str) -> Self {
        let (line, col) = span.line_col(src);
        Diagnostic {
            span,
            code,
            message: message.into(),
            note: None,
            line,
            col,
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = Some(note.into());
        self
    }

    /// Render a caret-underlined excerpt:
    ///
    /// ```text
    /// error[A005]: write to non-owned element of `a`
    ///  --> line 6, col 5
    ///   |
    /// 6 |     a(i + 1) = 1.0
    ///   |     ^^^^^^
    ///   = note: iterations run on procs(1) but `a` is block-distributed
    /// ```
    pub fn render(&self, src: &str) -> String {
        let lo = (self.span.lo as usize).min(src.len());
        let line_start = src[..lo].rfind('\n').map(|p| p + 1).unwrap_or(0);
        let line_end = src[lo..].find('\n').map(|p| lo + p).unwrap_or(src.len());
        let line_text = &src[line_start..line_end];
        let gutter = self.line.to_string();
        let pad = " ".repeat(gutter.len());
        let caret_pad = " ".repeat(lo - line_start);
        let width = ((self.span.hi as usize).min(line_end).max(lo + 1)) - lo;
        let carets = "^".repeat(width);
        let mut out = format!(
            "error[{code}]: {msg}\n{pad} --> line {line}, col {col}\n{pad}  |\n{gutter} | {text}\n{pad}  | {cpad}{carets}\n",
            code = self.code,
            msg = self.message,
            line = self.line,
            col = self.col,
            text = line_text,
            cpad = caret_pad,
        );
        if let Some(note) = &self.note {
            out.push_str(&format!("{pad}  = note: {note}\n"));
        }
        out
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {}, col {}: [{}] {}",
            self.line, self.col, self.code, self.message
        )
    }
}

impl std::error::Error for Diagnostic {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_is_one_based() {
        let src = "abc\ndef\nghi";
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
        assert_eq!(Span::new(4, 5).line_col(src), (2, 1));
        assert_eq!(Span::new(6, 7).line_col(src), (2, 3));
        assert_eq!(Span::point(src.len() as u32).line_col(src), (3, 4));
    }

    #[test]
    fn join_covers_both() {
        let a = Span::new(3, 5);
        let b = Span::new(8, 12);
        assert_eq!(a.join(b), Span::new(3, 12));
        assert_eq!(b.join(a), Span::new(3, 12));
    }

    #[test]
    fn render_has_caret_under_the_span() {
        let src = "  x = 1\n  yy = zz + 1\n";
        let d = Diagnostic::new("A001", Span::new(15, 17), "undefined `zz`", src)
            .with_note("declare it first");
        let r = d.render(src);
        assert!(r.contains("error[A001]: undefined `zz`"), "{r}");
        assert!(r.contains("--> line 2, col 8"), "{r}");
        assert!(r.contains("2 |   yy = zz + 1"), "{r}");
        assert!(r.contains("  |        ^^"), "{r}");
        assert!(r.contains("= note: declare it first"), "{r}");
    }

    #[test]
    fn render_clamps_zero_width_and_eof_spans() {
        let src = "x = 1";
        let d = Diagnostic::new("P001", Span::point(5), "unexpected end of file", src);
        let r = d.render(src);
        assert!(r.contains("^"), "{r}");
        assert_eq!((d.line, d.col), (1, 6));
    }
}
