//! A minimal JSON value, parser and writer.
//!
//! The vendored `serde` is a trait skeleton with no data format behind
//! it, and the daemon's wire protocol and journal are newline-delimited
//! JSON — so the format lives here, hand-rolled and dependency-free.
//! Objects preserve insertion order, which makes every encoding
//! deterministic: the recovery tests compare responses *byte for byte*,
//! and the journal replays through the same writer that produced it.

use std::fmt;

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers ride as `f64` (the protocol never needs more than 53
    /// bits: state counts, sample counts, milliseconds).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs; duplicate keys are rejected at
    /// parse time.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor used all over the protocol layer.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Field lookup on an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integer view of a number (rejects fractions and
    /// negatives — every count in the protocol is a `usize`).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 2f64.powi(53) => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_usize().map(|n| n as u64)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// String field of an object — the most common protocol accessor.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_fmt(format_args!("{c}"))?,
        }
    }
    f.write_str("\"")
}

/// Parses one JSON document (RFC 8259), rejecting trailing garbage.
/// Errors are typed strings, with a byte offset wherever one applies —
/// the journal reader depends on a clean `Err` (never a panic) for torn
/// trailing lines.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        src,
        b: src.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

/// Nesting ceiling, in arrays and objects: the protocol is ~2 levels
/// deep; 64 keeps a hostile `[[[[…` line from blowing the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    /// The input as text, for slicing out runs of plain characters;
    /// `b` is the same input as bytes, for the structural tokens.
    src: &'a str,
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", c as char, self.i))
        }
    }

    /// One value inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.i
            )),
            None => Err("unexpected end of input".into()),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(format!(
                "unexpected byte {:?} at offset {}",
                *c as char, self.i
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    /// Consumes one or more ASCII digits, or names the offset where a
    /// digit was required.
    fn digits(&mut self) -> Result<(), String> {
        if !self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
            return Err(format!("expected a digit at offset {}", self.i));
        }
        while self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        Ok(())
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?` — the RFC 8259
    /// grammar, checked here because `f64::from_str` also accepts
    /// `01`, `1.` and `.5`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        if self.b.get(self.i) == Some(&b'0') {
            self.i += 1;
            if self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
                return Err(format!("leading zero in number at offset {start}"));
            }
        } else {
            self.digits()?;
        }
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            self.digits()?;
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits()?;
        }
        let text = &self.src[start..self.i];
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number {text:?} at offset {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number at offset {start}"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = self.i;
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4(esc)?;
                            // Surrogate pairs: the writer never emits
                            // them, but foreign clients may.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                if !self.b[self.i + 1..].starts_with(b"\\u") {
                                    return Err(format!("lone high surrogate at offset {esc}"));
                                }
                                let lo_esc = self.i + 1;
                                self.i += 2;
                                let lo = self.hex4(lo_esc)?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(format!("bad low surrogate at offset {lo_esc}"));
                                }
                                0x10000 + ((code - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                code
                            };
                            let c = char::from_u32(c)
                                .ok_or_else(|| format!("bad \\u codepoint at offset {esc}"))?;
                            out.push(c);
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(&c) if c < 0x20 => {
                    return Err(format!("raw control byte at offset {}", self.i));
                }
                Some(_) => {
                    // Copy the whole run of plain characters up to the
                    // next quote, backslash or control byte. Those are
                    // all ASCII, so the run ends on a char boundary and
                    // the input is only ever scanned once.
                    let start = self.i;
                    while let Some(&c) = self.b.get(self.i) {
                        if c == b'"' || c == b'\\' || c < 0x20 {
                            break;
                        }
                        self.i += 1;
                    }
                    out.push_str(self.src.get(start..self.i).ok_or("bad utf8")?);
                }
            }
        }
    }

    /// The four hex digits after the `u` at `self.i`, consumed so that
    /// `self.i` ends on the last of them. `esc` is the offset of the
    /// escape's backslash, for the error.
    fn hex4(&mut self, esc: usize) -> Result<u32, String> {
        let hex = self
            .b
            .get(self.i + 1..self.i + 5)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| format!("bad \\u escape at offset {esc}"))?;
        let code = hex
            .iter()
            .fold(0, |n, &h| n * 16 + (h as char).to_digit(16).unwrap_or(0));
        self.i += 4;
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            if fields.iter().any(|(existing, _)| *existing == k) {
                return Err(format!("duplicate key {k:?}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((k, v));
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_protocol_shaped_documents() {
        let doc = Json::obj(vec![
            ("op", Json::str("check")),
            ("id", Json::str("j-1")),
            ("n", Json::num(42.0)),
            ("p", Json::num(0.5)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "arr",
                Json::Arr(vec![Json::num(1.0), Json::str("x\n\"y\""), Json::Null]),
            ),
        ]);
        let text = doc.to_string();
        assert_eq!(parse(&text).unwrap(), doc);
        // Deterministic: encoding is stable across round-trips.
        assert_eq!(parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn rejects_malformed_input_with_typed_errors() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,2",
            "\"unterminated",
            "{\"a\":1}{",
            "nul",
            "1e999",
            "{\"a\":1,\"a\":2}",
            "\"\\u12\"",
            "\"\\ud800\"",
            "[1]]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Torn journal line: a prefix of a valid record must error.
        let full = "{\"rec\":\"done\",\"id\":\"a\",\"resp\":{\"status\":\"ok\"}}";
        for cut in 1..full.len() {
            let _ = parse(&full[..cut]); // must not panic
        }
    }

    #[test]
    fn deep_nesting_is_a_typed_error() {
        let mut s = String::new();
        for _ in 0..10_000 {
            s.push('[');
        }
        assert!(parse(&s).is_err());
    }

    #[test]
    fn long_strings_roundtrip_exactly() {
        // ~1 MB mixing ASCII, 2-, 3- and 4-byte characters and escapes.
        let unit = "plain ascii ñ é ⟨τ⟩ → 🦀 \"q\" \\ tab\t nl\n ";
        let big = unit.repeat(1_000_000 / unit.len() + 1);
        assert!(big.len() >= 1_000_000);
        let doc = Json::obj(vec![("s", Json::str(big.clone()))]);
        let text = doc.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back.str_field("s"), Some(big.as_str()));
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn a_failing_checks_explanation_roundtrips_exactly() {
        // The explanation of a 2-component τ-cycle product against its
        // 1-step cycles under strong step bisimilarity: a long string
        // full of multi-byte characters, as check responses carry it.
        use bpi_equiv::{Checker, SliceOutcome, Variant};
        let cycle =
            |k: usize, i: usize| format!("rec X(){{ {}X<> + ka{i}<>.kb{i}<> }}", "tau.".repeat(k));
        let left = format!("{} | ({})", cycle(3, 0), cycle(3, 1));
        let right = format!("({}) | ({})", cycle(1, 1), cycle(1, 0));
        let p = bpi_core::parse_process(&left).unwrap();
        let q = bpi_core::parse_process(&right).unwrap();
        let defs = bpi_core::syntax::Defs::new();
        let why = match Checker::new(&defs).run_slice(Variant::StrongStep, &p, &q, None, usize::MAX)
        {
            Ok(SliceOutcome::Done {
                holds: false,
                explanation: Some(why),
            }) => why,
            other => panic!("expected a failing verdict with an explanation, got {other:?}"),
        };
        assert!(why.len() > 10_000, "explanation only {} bytes", why.len());
        let doc = Json::obj(vec![("explanation", Json::str(why.clone()))]);
        let text = doc.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back.str_field("explanation"), Some(why.as_str()));
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn string_errors_stay_typed() {
        assert!(parse("\"a\u{1}b\"")
            .unwrap_err()
            .contains("raw control byte at offset 2"));
        assert!(parse("\"ab\\q\"")
            .unwrap_err()
            .contains("bad escape at offset 4"));
        assert_eq!(
            parse("\"\\ud800\"").unwrap_err(),
            "lone high surrogate at offset 1"
        );
        assert_eq!(
            parse("\"\\ud800\\u0041\"").unwrap_err(),
            "bad low surrogate at offset 7"
        );
        assert_eq!(
            parse("\"ñ\\u12é\"").unwrap_err(),
            "bad \\u escape at offset 3"
        );
        assert_eq!(parse("\"\\ud83e\\udd80\"").unwrap(), Json::str("\u{1f980}"));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        let err = |s: &str| parse(s).unwrap_err();
        // `u32::from_str_radix` would take a sign; RFC 8259 does not.
        assert_eq!(err(r#""\u+041""#), "bad \\u escape at offset 1");
        assert_eq!(err(r#""\u-041""#), "bad \\u escape at offset 1");
        assert_eq!(err(r#""\u 041""#), "bad \\u escape at offset 1");
        assert_eq!(err(r#""\u12""#), "bad \\u escape at offset 1");
        assert_eq!(err(r#"["\u004g"]"#), "bad \\u escape at offset 2");
        // The low half of a pair obeys the same rule.
        assert_eq!(err(r#""\ud83e\u+d80""#), "bad \\u escape at offset 7");
        assert_eq!(err(r#""\ud83e\udd8""#), "bad \\u escape at offset 7");
        assert_eq!(err(r#""\udc00""#), "bad \\u codepoint at offset 1");
        assert_eq!(parse(r#""\u0041\u00e9""#).unwrap(), Json::str("Aé"));
        assert_eq!(parse(r#""\uD83E\uDD80""#).unwrap(), Json::str("\u{1f980}"));
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for (bad, why) in [
            ("01", "leading zero in number at offset 0"),
            ("-01", "leading zero in number at offset 0"),
            ("[1,00]", "leading zero in number at offset 3"),
            ("1.", "expected a digit at offset 2"),
            ("1.e5", "expected a digit at offset 2"),
            ("-", "expected a digit at offset 1"),
            ("-x", "expected a digit at offset 1"),
            ("1e", "expected a digit at offset 2"),
            ("1e+", "expected a digit at offset 3"),
            ("2E-x", "expected a digit at offset 3"),
        ] {
            assert_eq!(parse(bad).unwrap_err(), why, "{bad:?}");
        }
        for bad in [".5", "+1", "1..2", "0x10", "1e5.0", "Infinity", "NaN"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        for (good, n) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("0.5", 0.5),
            ("10", 10.0),
            ("1e5", 1e5),
            ("1E+5", 1e5),
            ("-1.25e-3", -1.25e-3),
            ("0e0", 0.0),
        ] {
            assert_eq!(parse(good).unwrap(), Json::Num(n), "{good:?}");
        }
    }

    /// splitmix64: one proptest-drawn seed drives a whole document.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Characters that stress the writer's escapes and the parser's
    /// plain-run copy: quotes, backslashes, control bytes, multi-byte
    /// characters and the `\u` look-alikes.
    const CHARS: [char; 16] = [
        'a', 'Z', '0', ' ', '"', '\\', '/', 'u', '\n', '\t', '\u{1}', '\u{1f}', 'ñ', '⟨', '🦀',
        '\u{7f}',
    ];

    fn random_string(rng: &mut Rng) -> String {
        (0..rng.below(8))
            .map(|_| CHARS[rng.below(16) as usize])
            .collect()
    }

    fn random_number(rng: &mut Rng) -> f64 {
        let n = rng.below(1 << 20) as f64;
        match rng.below(6) {
            0 => n,
            1 => -n,
            2 => n / 1024.0,
            3 => -n * 1e-9,
            4 => n * 1e20,
            _ => 0.0,
        }
    }

    /// A random document at most `depth` containers deep. Object keys
    /// carry their index, so they never collide.
    fn random_json(rng: &mut Rng, depth: usize) -> Json {
        let leaf = depth == 0 || rng.below(3) == 0;
        match rng.below(if leaf { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 0),
            2 => Json::Num(random_number(rng)),
            3 => Json::Str(random_string(rng)),
            4 => Json::Arr(
                (0..rng.below(4))
                    .map(|_| random_json(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(4))
                    .map(|i| {
                        let k = format!("{i}{}", random_string(rng));
                        (k, random_json(rng, depth - 1))
                    })
                    .collect(),
            ),
        }
    }

    /// `depth` arrays and objects nested around `null`.
    fn nested(rng: &mut Rng, depth: usize) -> String {
        let mut s = String::from("null");
        for _ in 0..depth {
            s = if rng.below(2) == 0 {
                format!("[{s}]")
            } else {
                format!("{{\"k\":{s}}}")
            };
        }
        s
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn hostile_input_never_panics(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let v = random_json(&mut rng, 5);
            let text = v.to_string();
            proptest::prop_assert_eq!(parse(&text), Ok(v));
            // Every prefix, cut at a char boundary, parses or errors.
            for (cut, _) in text.char_indices() {
                let _ = parse(&text[..cut]);
            }
            // One byte replaced at every position (invalid UTF-8 is
            // repaired lossily, since the parser takes text).
            for at in 0..text.len() {
                let mut bytes = text.clone().into_bytes();
                bytes[at] = rng.below(256) as u8;
                let _ = parse(&String::from_utf8_lossy(&bytes));
            }
            // 64 levels of nesting are fine; one more is the typed error.
            let depth = 65 + rng.below(64) as usize;
            let err = parse(&nested(&mut rng, depth)).unwrap_err();
            proptest::prop_assert!(err.starts_with("nesting deeper than 64 at offset"), "{}", err);
            proptest::prop_assert!(parse(&nested(&mut rng, 64)).is_ok());
        }
    }

    #[test]
    fn numbers_keep_integer_precision() {
        assert_eq!(parse("9007199254740992").unwrap().as_usize(), None);
        assert_eq!(parse("12345").unwrap().as_usize(), Some(12345));
        assert_eq!(parse("-1").unwrap().as_usize(), None);
        assert_eq!(parse("1.5").unwrap().as_usize(), None);
        assert_eq!(Json::num(1e6).to_string(), "1000000");
    }
}
