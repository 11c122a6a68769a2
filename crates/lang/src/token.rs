//! Lexer for the KF1 subset: Fortran-flavoured, line-oriented,
//! case-insensitive, with `c`/`!` comments and `&` continuations.
//!
//! Every token carries a byte [`Span`] into the *original* source, even
//! though lexing happens on comment-stripped, continuation-joined logical
//! lines: phase 1 keeps a per-byte offset map alongside each logical
//! line's text, so spans survive lower-casing, comment stripping and
//! `&` joins, and diagnostics can underline the real source text.

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
    pub line: usize,
    /// Byte range of the token in the original source text.
    pub span: Span,
}

/// Dotted Fortran operators mapped to punctuation.
const DOT_OPS: &[(&str, &str)] = &[
    (".eq.", "=="),
    (".ne.", "/="),
    (".lt.", "<"),
    (".le.", "<="),
    (".gt.", ">"),
    (".ge.", ">="),
    (".and.", "&&"),
    (".or.", "||"),
    (".not.", "!"),
];

/// One comment-stripped, continuation-joined line. `offs[i]` is the byte
/// offset in the original source of `text.as_bytes()[i]` (synthetic join
/// spaces borrow a neighbouring offset; tokens never span whitespace, so
/// they never leak into a span).
struct Logical {
    line: usize,
    text: String,
    offs: Vec<u32>,
}

/// Tokenize KF1 source. Comment lines start with `c`/`C`/`*` in column 1
/// or `!` anywhere; a trailing `&` joins the next line.
pub fn lex(src: &str) -> Result<Vec<SpannedTok>, Diagnostic> {
    // Phase 1: logical lines (strip comments, apply continuations),
    // tracking the original byte offset of every surviving byte.
    let mut logical: Vec<Logical> = Vec::new();
    let mut pending: Option<Logical> = None;
    let mut line_start = 0usize;
    for (lineno, raw_nl) in src.split('\n').enumerate() {
        let line = lineno + 1;
        let start = line_start;
        line_start += raw_nl.len() + 1;
        let raw = raw_nl.strip_suffix('\r').unwrap_or(raw_nl);
        // Fortran-style full-line comments.
        let first = raw.chars().next();
        if matches!(first, Some('c') | Some('C') | Some('*'))
            && raw.len() > 1
            && raw.chars().nth(1).is_some_and(|ch| ch.is_whitespace())
        {
            continue;
        }
        if (first == Some('c') || first == Some('C')) && (raw.trim() == "c" || raw.trim() == "C") {
            continue;
        }
        // Inline `!` comments.
        let no_comment = match raw.find('!') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        if no_comment.trim().is_empty() {
            // Comment-only or blank line: contributes nothing.
            continue;
        }
        let content = no_comment.trim_end();
        let mut text = content.to_string();
        let mut offs: Vec<u32> = (0..content.len()).map(|i| (start + i) as u32).collect();
        let continued = text.ends_with('&');
        if continued {
            text.pop();
            offs.pop();
        }
        let joined = match pending.take() {
            Some(mut acc) => {
                let trimmed_len = text.trim_start().len();
                let skip = text.len() - trimmed_len;
                if trimmed_len > 0 {
                    acc.text.push(' ');
                    acc.offs.push(offs[skip]);
                    acc.text.push_str(&text[skip..]);
                    acc.offs.extend_from_slice(&offs[skip..]);
                }
                acc
            }
            None => Logical { line, text, offs },
        };
        if continued {
            pending = Some(joined);
        } else {
            logical.push(joined);
        }
    }
    if let Some(acc) = pending {
        logical.push(acc);
    }

    // Phase 2: tokens within each logical line. Lower-casing is
    // byte-for-byte, so `offs` still lines up with `lower`.
    let mut out = Vec::new();
    for Logical { line, text, offs } in logical {
        let mut lower = text;
        lower.make_ascii_lowercase();
        let b = lower.as_bytes();
        let span_of =
            |start: usize, end: usize| -> Span { Span::new(offs[start], offs[end - 1] + 1) };
        let mut i = 0usize;
        // Optional numeric label at line start.
        let start_ws = lower.len() - lower.trim_start().len();
        i += start_ws;
        let mut first_tok = true;
        while i < b.len() {
            let ch = b[i] as char;
            if ch.is_whitespace() {
                i += 1;
                continue;
            }
            if ch.is_ascii_digit()
                || (ch == '.' && i + 1 < b.len() && (b[i + 1] as char).is_ascii_digit())
            {
                // Number (integer, real, or statement label if first).
                let start = i;
                let mut seen_dot = false;
                let mut seen_exp = false;
                while i < b.len() {
                    let c = b[i] as char;
                    if c.is_ascii_digit() {
                        i += 1;
                    } else if c == '.' && !seen_dot && !seen_exp {
                        // Don't swallow dotted operators like `1.eq.`:
                        let rest = &lower[i..];
                        if DOT_OPS.iter().any(|(d, _)| rest.starts_with(d)) {
                            break;
                        }
                        seen_dot = true;
                        i += 1;
                    } else if (c == 'e' || c == 'd') && !seen_exp && i > start {
                        let nxt = b.get(i + 1).map(|&x| x as char);
                        if matches!(nxt, Some(d2) if d2.is_ascii_digit() || d2 == '+' || d2 == '-')
                        {
                            seen_exp = true;
                            seen_dot = true;
                            i += 1;
                            if matches!(b.get(i).map(|&x| x as char), Some('+') | Some('-')) {
                                i += 1;
                            }
                        } else {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                let textn = &lower[start..i];
                let span = span_of(start, i);
                let tok = if seen_dot {
                    let v: f64 = textn.replace('d', "e").parse().map_err(|_| {
                        Diagnostic::new("L001", span, format!("bad real literal {textn:?}"), src)
                    })?;
                    Tok::Real(v)
                } else if first_tok {
                    let v: u32 = textn.parse().map_err(|_| {
                        Diagnostic::new("L002", span, format!("bad label {textn:?}"), src)
                    })?;
                    Tok::Label(v)
                } else {
                    let v: i64 = textn.parse().map_err(|_| {
                        Diagnostic::new("L001", span, format!("bad integer {textn:?}"), src)
                    })?;
                    Tok::Int(v)
                };
                out.push(SpannedTok { tok, line, span });
                first_tok = false;
                continue;
            }
            if ch.is_ascii_alphabetic() || ch == '_' {
                let start = i;
                while i < b.len() {
                    let c = b[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(SpannedTok {
                    tok: Tok::Ident(lower[start..i].to_string()),
                    line,
                    span: span_of(start, i),
                });
                first_tok = false;
                continue;
            }
            if ch == '.' {
                // Dotted operator.
                let rest = &lower[i..];
                if let Some((d, p)) = DOT_OPS.iter().find(|(d, _)| rest.starts_with(d)) {
                    out.push(SpannedTok {
                        tok: Tok::Punct(p),
                        line,
                        span: span_of(i, i + d.len()),
                    });
                    i += d.len();
                    first_tok = false;
                    continue;
                }
                return Err(Diagnostic::new(
                    "L003",
                    span_of(i, i + 1),
                    format!("unexpected '.' in {rest:?}"),
                    src,
                ));
            }
            // Multi-char operators first.
            let two = lower.get(i..(i + 2).min(lower.len())).unwrap_or("");
            let punct2: Option<&'static str> = match two {
                "==" => Some("=="),
                "/=" => Some("/="),
                "<=" => Some("<="),
                ">=" => Some(">="),
                _ => None,
            };
            if let Some(p) = punct2 {
                out.push(SpannedTok {
                    tok: Tok::Punct(p),
                    line,
                    span: span_of(i, i + 2),
                });
                i += 2;
                first_tok = false;
                continue;
            }
            let punct1: Option<&'static str> = match ch {
                '(' => Some("("),
                ')' => Some(")"),
                ',' => Some(","),
                ';' => Some(";"),
                ':' => Some(":"),
                '*' => Some("*"),
                '+' => Some("+"),
                '-' => Some("-"),
                '/' => Some("/"),
                '=' => Some("="),
                '<' => Some("<"),
                '>' => Some(">"),
                '%' => Some("%"),
                '[' => Some("["),
                ']' => Some("]"),
                _ => None,
            };
            match punct1 {
                Some(p) => {
                    out.push(SpannedTok {
                        tok: Tok::Punct(p),
                        line,
                        span: span_of(i, i + 1),
                    });
                    i += 1;
                    first_tok = false;
                }
                None => {
                    // The whole character, however many bytes it takes.
                    let ch = lower[i..].chars().next().unwrap_or(ch);
                    return Err(Diagnostic::new(
                        "L004",
                        span_of(i, i + ch.len_utf8()),
                        format!("unexpected character {ch:?}"),
                        src,
                    ));
                }
            }
        }
        let end = offs.last().map(|&o| o + 1).unwrap_or(0);
        out.push(SpannedTok {
            tok: Tok::Eol,
            line,
            span: Span::point(end),
        });
    }
    out.push(SpannedTok {
        tok: Tok::Eof,
        line: usize::MAX,
        span: Span::point(src.len() as u32),
    });
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
}
