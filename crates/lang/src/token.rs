//! Lexer for the KF1 subset: Fortran-flavoured, line-oriented,
//! case-insensitive, with `c`/`!` comments and `&` continuations.
//!
//! One pass over the source, lower-cased once: ASCII lower-casing keeps
//! every byte offset, so every token's [`Span`] is its own byte range in
//! the original source, and diagnostics underline the real source text.
//! Comment lines and `!` tails are skipped, and a trailing `&` carries
//! the statement on into the next line that holds code.

use crate::diag::{Diagnostic, Span};

#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (lower-cased).
    Ident(String),
    Int(i64),
    Real(f64),
    /// Punctuation / operators: ( ) , ; : * + - / = < > == /= <= >= %
    Punct(&'static str),
    /// Statement label at the start of a line.
    Label(u32),
    /// End of statement (newline).
    Eol,
    Eof,
}

#[derive(Debug, Clone)]
pub struct SpannedTok {
    pub tok: Tok,
    /// Byte range of the token in the original source text.
    pub span: Span,
}

/// Every operator spelling and the punctuation it lexes to. A spelling
/// comes before its own prefixes, so the longest match wins (`<=` is one
/// token, not `<` then `=`); otherwise the most frequent come first.
const OPS: &[(&str, &str)] = &[
    ("(", "("),
    (")", ")"),
    (",", ","),
    ("+", "+"),
    ("-", "-"),
    ("*", "*"),
    ("==", "=="),
    ("=", "="),
    ("/=", "/="),
    ("/", "/"),
    ("<=", "<="),
    ("<", "<"),
    (">=", ">="),
    (">", ">"),
    (";", ";"),
    (":", ":"),
    ("%", "%"),
    ("[", "["),
    ("]", "]"),
    (".and.", "&&"),
    (".not.", "!"),
    (".eq.", "=="),
    (".ne.", "/="),
    (".lt.", "<"),
    (".le.", "<="),
    (".gt.", ">"),
    (".ge.", ">="),
    (".or.", "||"),
];

/// The operator spelled at the start of `rest`, if any.
fn op(rest: &[u8]) -> Option<&'static (&'static str, &'static str)> {
    let c = *rest.first()?;
    OPS.iter()
        .find(|(s, _)| s.as_bytes()[0] == c && rest.starts_with(s.as_bytes()))
}

/// Tokenize KF1 source. Comment lines start with `c`/`C`/`*` in column 1
/// or `!` anywhere; a trailing `&` joins the next line.
pub fn lex(src: &str) -> Result<Vec<SpannedTok>, Diagnostic> {
    let lower = src.to_ascii_lowercase();
    let err = |code, lo: usize, hi: usize, msg| {
        Diagnostic::new(code, Span::new(lo as u32, hi as u32), msg, src)
    };
    let spanned = |tok, lo: usize, hi: usize| SpannedTok {
        tok,
        span: Span::new(lo as u32, hi as u32),
    };
    // The listings hold a token per 3 to 6 bytes; room for one per 2 is
    // reserved once, so the vector does not grow by doubling as it fills.
    let mut out = Vec::with_capacity(src.len() / 2);
    // The statement being read: whether an `&` carries it on, whether its
    // first token (a label, if a number) is still to come, and where its
    // `Eol` goes — one past its last byte of code, or 0 if it has none.
    let (mut carried, mut first_tok, mut eol) = (false, true, 0);
    let mut next_line = 0;
    for raw in lower.split('\n') {
        let line = next_line;
        next_line += raw.len() + 1;
        let raw = raw.strip_suffix('\r').unwrap_or(raw);
        let mut chars = raw.chars();
        let comment = match (chars.next(), chars.next()) {
            (Some('c'), None) => true,
            (Some('c' | '*'), Some(w)) => w.is_whitespace(),
            _ => false,
        };
        let code = raw[..raw.find('!').unwrap_or(raw.len())].trim_end();
        if comment || code.trim_start().is_empty() {
            continue;
        }
        let (code, carries) = match code.strip_suffix('&') {
            Some(code) => (code, true),
            None => (code, false),
        };
        let end = line + code.len();
        let mut i = end - code.trim_start().len();
        // A statement's first line counts as code from column 1, blanks
        // before an `&` included; a carried-on line from its first
        // non-blank byte.
        if i < end || !carried && line < end {
            eol = end;
        }
        let text = &lower[..end];
        let b = text.as_bytes();
        while i < end {
            let (start, ch) = (i, b[i] as char);
            if ch.is_whitespace() {
                i += 1;
                continue;
            }
            let tok = if ch.is_ascii_digit()
                || ch == '.' && b.get(i + 1).is_some_and(u8::is_ascii_digit)
            {
                // A number: an integer, a real, or a label if first.
                let (mut dot, mut exp) = (false, false);
                while i < end {
                    match b[i] {
                        b'0'..=b'9' => i += 1,
                        // Not the start of a dotted operator, as in `1.eq.`.
                        b'.' if !dot && !exp && op(&b[i..]).is_none() => {
                            dot = true;
                            i += 1;
                        }
                        b'e' | b'd'
                            if !exp && matches!(b.get(i + 1), Some(b'0'..=b'9' | b'+' | b'-')) =>
                        {
                            (dot, exp) = (true, true);
                            i += 1 + usize::from(matches!(b[i + 1], b'+' | b'-'));
                        }
                        _ => break,
                    }
                }
                let t = &text[start..i];
                let bad = |code, what| err(code, start, i, format!("bad {what} {t:?}"));
                if dot {
                    let v = t.replace('d', "e").parse();
                    Tok::Real(v.map_err(|_| bad("L001", "real literal"))?)
                } else if first_tok {
                    Tok::Label(t.parse().map_err(|_| bad("L002", "label"))?)
                } else {
                    Tok::Int(t.parse().map_err(|_| bad("L001", "integer"))?)
                }
            } else if ch.is_ascii_alphabetic() || ch == '_' {
                while i < end && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                Tok::Ident(text[start..i].to_string())
            } else if let Some((s, p)) = op(&b[i..]) {
                i += s.len();
                Tok::Punct(p)
            } else if ch == '.' {
                let msg = format!("unexpected '.' in {:?}", &text[i..]);
                return Err(err("L003", i, i + 1, msg));
            } else {
                // The whole character, however many bytes it takes.
                let ch = text[i..].chars().next().unwrap_or(ch);
                let msg = format!("unexpected character {ch:?}");
                return Err(err("L004", i, i + ch.len_utf8(), msg));
            };
            out.push(spanned(tok, start, i));
            first_tok = false;
        }
        carried = carries;
        if !carries {
            out.push(spanned(Tok::Eol, eol, eol));
            (first_tok, eol) = (true, 0);
        }
    }
    if carried {
        out.push(spanned(Tok::Eol, eol, eol));
    }
    out.push(spanned(Tok::Eof, src.len(), src.len()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_and_idents_lowercased() {
        assert_eq!(
            toks("PARSUB Jacobi(X)"),
            vec![
                Tok::Ident("parsub".into()),
                Tok::Ident("jacobi".into()),
                Tok::Punct("("),
                Tok::Ident("x".into()),
                Tok::Punct(")"),
                Tok::Eol,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn labels_only_at_line_start() {
        let t = toks("100 continue\n  x = 100");
        assert_eq!(t[0], Tok::Label(100));
        assert!(t.contains(&Tok::Int(100)));
    }

    #[test]
    fn dotted_operators() {
        assert_eq!(
            toks("if (i .eq. 1 .and. j .ge. 2)"),
            vec![
                Tok::Ident("if".into()),
                Tok::Punct("("),
                Tok::Ident("i".into()),
                Tok::Punct("=="),
                Tok::Int(1),
                Tok::Punct("&&"),
                Tok::Ident("j".into()),
                Tok::Punct(">="),
                Tok::Int(2),
                Tok::Punct(")"),
                Tok::Eol,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_and_continuations() {
        let src = "c this is a comment\n  x = 1 + &\n      2\n! another\n  y = 3";
        let t = toks(src);
        assert_eq!(
            t,
            vec![
                Tok::Ident("x".into()),
                Tok::Punct("="),
                Tok::Int(1),
                Tok::Punct("+"),
                Tok::Int(2),
                Tok::Eol,
                Tok::Ident("y".into()),
                Tok::Punct("="),
                Tok::Int(3),
                Tok::Eol,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn reals_and_integers() {
        let t = toks("x = 0.25*(a + 1e-3) - 2");
        assert!(t.contains(&Tok::Real(0.25)));
        assert!(t.contains(&Tok::Real(1e-3)));
        assert!(t.contains(&Tok::Int(2)));
    }

    #[test]
    fn integer_followed_by_dotted_op() {
        let t = toks("if (i .eq. 1) x = 1");
        assert!(t.contains(&Tok::Int(1)));
        assert!(t.contains(&Tok::Punct("==")));
    }

    #[test]
    fn label_then_number_distinction() {
        let t = toks("200 x = 5.0");
        assert_eq!(t[0], Tok::Label(200));
        assert_eq!(t[3], Tok::Real(5.0));
    }

    #[test]
    fn spans_point_at_original_source_bytes() {
        let src = "PARSUB Jacobi(X)\n  x = 0.25";
        let toks = lex(src).unwrap();
        // Every non-Eol/Eof token's span slices back to its own text.
        for st in &toks {
            match &st.tok {
                Tok::Ident(name) => {
                    assert_eq!(st.span.slice(src).to_ascii_lowercase(), *name, "{st:?}")
                }
                Tok::Real(_) => assert_eq!(st.span.slice(src), "0.25"),
                Tok::Punct(p) if *p != "==" => assert_eq!(st.span.slice(src), *p),
                _ => {}
            }
        }
    }

    #[test]
    fn spans_survive_comments_and_continuations() {
        let src = "c comment line\n  x = 1 + &\n      2   ! tail\n";
        let toks = lex(src).unwrap();
        let two = toks
            .iter()
            .find(|t| t.tok == Tok::Int(2))
            .expect("int 2 token");
        assert_eq!(two.span.slice(src), "2");
        assert_eq!(two.span.line_col(src), (3, 7));
        let one = toks.iter().find(|t| t.tok == Tok::Int(1)).unwrap();
        assert_eq!(one.span.line_col(src), (2, 7));
    }

    #[test]
    fn dotted_operator_spans_cover_the_dots() {
        let src = "  if (i .eq. 1) x = 1";
        let toks = lex(src).unwrap();
        let eq = toks.iter().find(|t| t.tok == Tok::Punct("==")).unwrap();
        assert_eq!(eq.span.slice(src), ".eq.");
    }

    #[test]
    fn lex_errors_carry_spans_and_codes() {
        let err = lex("  x = 1\n  y = @").unwrap_err();
        assert_eq!(err.code, "L004");
        assert_eq!((err.line, err.col), (2, 7));
        assert_eq!(err.span.slice("  x = 1\n  y = @"), "@");
    }

    /// A character outside ASCII is one lex error spanning all its bytes,
    /// whatever their number — never a slice through its middle.
    #[test]
    fn multibyte_characters_are_lex_errors() {
        for (src, ch) in [("x = 1 € 2", "€"), ("x = ä", "ä"), ("y = 𝑥", "𝑥")] {
            let err = lex(src).unwrap_err();
            assert_eq!(err.code, "L004", "{src}");
            assert_eq!(err.span.slice(src), ch);
            assert_eq!(
                err.message,
                format!("unexpected character {:?}", ch.chars().next().unwrap())
            );
        }
    }

    /// The longest spelling wins because a spelling is listed before
    /// every spelling that is its prefix.
    #[test]
    fn operator_spellings_precede_their_prefixes() {
        for (k, (s, _)) in OPS.iter().enumerate() {
            for (t, _) in &OPS[..k] {
                assert!(!s.starts_with(t), "{t:?} shadows {s:?}");
            }
        }
        assert_eq!(toks("a<=b")[1], Tok::Punct("<="));
        assert_eq!(toks("a/ =b")[1], Tok::Punct("/"));
    }

    /// `Eol` sits one past the statement's last byte of code, after
    /// continuations, trailing blanks and `!` comments.
    #[test]
    fn eol_follows_the_last_code_byte() {
        let src = "  x = 1 + &\nc comment\n      2   ! tail\n  y = 3\n";
        let toks = lex(src).unwrap();
        let eols: Vec<_> = toks.iter().filter(|t| t.tok == Tok::Eol).collect();
        assert_eq!(eols.len(), 2);
        assert_eq!(
            eols[0].span,
            Span::point(src.find("2 ").unwrap() as u32 + 1)
        );
        assert_eq!(eols[1].span, Span::point(src.len() as u32 - 1));
    }
}
