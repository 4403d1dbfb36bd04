//! Zero-dependency JSON helpers: string escaping for the hand-rolled
//! serializers, and a small validating parser used by the `obsreport`
//! `validate` subcommand and the trace-smoke tests.
//!
//! The writer side never emits anything fancier than objects, arrays,
//! strings, integers, floats, booleans and `null`; the validator accepts
//! exactly RFC 8259 JSON so it doubles as an honesty check on the
//! serializers.

/// Appends `s` to `out` as a JSON string literal (including the quotes),
/// escaping quotes, backslashes and control characters.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    // State names and most notes need no escape: copy them in one go.
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[c as usize >> 4]));
                out.push(char::from(HEX[c as usize & 0xf]));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal.
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// One parsed-and-validated JSONL line: syntactic validity plus the values
/// of the top-level `"cycle"` and `"meta"` keys, which is all the trace
/// tooling needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidLine {
    /// The top-level `"cycle"` field, when present and a non-negative
    /// integer.
    pub cycle: Option<u64>,
    /// Whether the line carries a top-level `"meta"` key (the run header).
    pub is_meta: bool,
}

/// Validates that `line` is exactly one JSON value (an object, for trace
/// lines) and extracts the fields the tooling cares about.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with a
/// byte offset.
pub fn validate_line(line: &str) -> Result<ValidLine, String> {
    let mut p = Parser {
        text: line,
        bytes: line.as_bytes(),
        pos: 0,
        cycle: None,
        is_meta: false,
        depth: 0,
    };
    p.skip_ws();
    p.value(true)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(ValidLine { cycle: p.cycle, is_meta: p.is_meta })
}

const MAX_DEPTH: u32 = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    cycle: Option<u64>,
    is_meta: bool,
    depth: u32,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    /// Parses one JSON value. `top` marks the outermost value, whose object
    /// keys feed [`ValidLine`].
    fn value(&mut self, top: bool) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let r = match self.peek() {
            Some(b'{') => self.object(top),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(|_| ()),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number().map(|_| ()),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        };
        self.depth -= 1;
        r
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn object(&mut self, top: bool) -> Result<(), String> {
        self.pos += 1; // {
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            if top && key == "meta" {
                self.is_meta = true;
            }
            if top && key == "cycle" {
                let start = self.pos;
                self.value(false)?;
                let text = &self.bytes[start..self.pos];
                if let Ok(s) = std::str::from_utf8(text) {
                    self.cycle = s.parse::<u64>().ok().or(self.cycle);
                }
            } else {
                self.value(false)?;
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.pos += 1; // [
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value(false)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Parses a string literal, returning its unescaped contents.
    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are accepted as lone escapes and
                            // replaced; the writers never emit them.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar. The input is a &str and
                    // `pos` only ever moves by whole scalars, so it sits on
                    // a char boundary.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let first_digit = self.pos;
        let int_digits = self.digits()?;
        if int_digits > 1 && self.bytes[first_digit] == b'0' {
            return Err(self.err("leading zero"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        Ok(())
    }

    fn digits(&mut self) -> Result<usize, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            Err(self.err("expected digit"))
        } else {
            Ok(self.pos - start)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escaped("plain"), "\"plain\"");
        assert_eq!(escaped("a\"b"), "\"a\\\"b\"");
        assert_eq!(escaped("a\\b"), "\"a\\\\b\"");
        assert_eq!(escaped("a\nb\tc\rd"), "\"a\\nb\\tc\\rd\"");
        assert_eq!(escaped("\u{08}\u{0c}"), "\"\\b\\f\"");
        assert_eq!(escaped("\u{01}\u{1f}"), "\"\\u0001\\u001f\"");
        assert_eq!(escaped("ünïcode 🚌"), "\"ünïcode 🚌\"");
    }

    #[test]
    fn escaped_strings_round_trip_through_validator() {
        for s in ["", "a\"b\\c", "tab\there\nnewline", "\u{0}\u{1}\u{1f}", "émoji 🚌🔒"] {
            let line = format!("{{\"note\":{}}}", escaped(s));
            validate_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn validates_values_and_rejects_garbage() {
        for good in [
            "{}",
            "[]",
            "null",
            "true",
            "-12",
            "0",
            "3.25",
            "1e9",
            "-2.5E-3",
            "\"s\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}",
            " { \"a\" : 1 } ",
        ] {
            validate_line(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1,]",
            "[1 2]",
            "01",
            "1.",
            "1e",
            "+1",
            "nul",
            "\"unterminated",
            "\"bad\\escape\"",
            "\"ctrl\u{01}\"",
            "{} trailing",
            "\"\\u12\"",
        ] {
            assert!(validate_line(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn extracts_cycle_and_meta() {
        let v = validate_line("{\"cycle\":42,\"type\":\"note\"}").unwrap();
        assert_eq!(v.cycle, Some(42));
        assert!(!v.is_meta);
        let v = validate_line("{\"meta\":{\"protocol\":\"goodman\"}}").unwrap();
        assert_eq!(v.cycle, None);
        assert!(v.is_meta);
        // A non-integer cycle is syntactically fine but not extracted.
        let v = validate_line("{\"cycle\":\"x\"}").unwrap();
        assert_eq!(v.cycle, None);
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(validate_line(&deep).is_err());
        let ok = format!("{}1{}", "[".repeat(50), "]".repeat(50));
        assert!(validate_line(&ok).is_ok());
    }
}
