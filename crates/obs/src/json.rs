//! A minimal JSON value model, writer and parser.
//!
//! The build environment has no access to crates.io, so the observability
//! layer carries its own JSON support instead of depending on `serde`. The
//! writer is deterministic — object keys keep insertion order and no
//! whitespace is emitted — which is what makes two identical seeded runs
//! produce byte-identical trace files.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value.
///
/// An array of unsigned integers has two forms: [`Json::Arr`] of
/// [`Json::U64`] items and the packed [`Json::U64s`]. They render to the
/// same bytes and compare equal, so which one a tree holds is never
/// visible on the wire or to `==`. [`Json::items`] reads either form;
/// [`Json::as_array`] only the unpacked one.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer, written without a decimal point.
    U64(u64),
    /// Negative integer, written without a decimal point.
    I64(i64),
    /// Floating-point number. Non-finite values serialize as `null`.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Array of unsigned integers, packed: one `u64` per item instead of
    /// one `Json` value. The parser yields it for an array it reads as
    /// plain integers separated by bare commas, such as a matrix row, and
    /// `CommMatrix::to_json` builds its rows with it. Neither makes an
    /// empty one; an empty one still reads and renders as `[]`.
    U64s(Vec<u64>),
    /// Object; keys keep insertion order for deterministic output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one (or a non-negative
    /// signed / integral float).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            Json::F64(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice. `None` for a packed array, whose
    /// items are not stored as `Json` values: a reader of an array that
    /// may hold plain integers uses [`Json::items`].
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            Json::U64s(values) if values.is_empty() => Some(&[]),
            _ => None,
        }
    }

    /// The items of an array in either form.
    pub fn items(&self) -> Option<Items<'_>> {
        match self {
            Json::Arr(items) => Some(Items::Values(items)),
            Json::U64s(values) => Some(Items::Packed(values)),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialize without whitespace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serialize into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(v) => write_u64(*v, out),
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    // Matrix rows: no recursive call per cell.
                    match item {
                        Json::U64(v) => write_u64(*v, out),
                        _ => item.write(out),
                    }
                }
                out.push(']');
            }
            Json::U64s(values) => {
                out.push('[');
                for (i, &v) in values.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_u64(v, out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Rejects trailing non-whitespace input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            ints: Vec::new(),
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

impl PartialEq for Json {
    /// Structural equality, except that a packed array equals the
    /// [`Json::Arr`] of the same [`Json::U64`] items.
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::U64(a), Json::U64(b)) => a == b,
            (Json::I64(a), Json::I64(b)) => a == b,
            (Json::F64(a), Json::F64(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::U64s(a), Json::U64s(b)) => a == b,
            (Json::U64s(packed), Json::Arr(items)) | (Json::Arr(items), Json::U64s(packed)) => {
                packed.len() == items.len()
                    && packed
                        .iter()
                        .zip(items)
                        .all(|(&v, item)| matches!(item, Json::U64(w) if *w == v))
            }
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => false,
        }
    }
}

/// The items of an array, read the same whichever form it is stored in
/// ([`Json::items`]).
#[derive(Debug, Clone, Copy)]
pub enum Items<'a> {
    /// The values of a [`Json::Arr`].
    Values(&'a [Json]),
    /// The integers of a [`Json::U64s`]; each reads as a [`Json::U64`].
    Packed(&'a [u64]),
}

impl Default for Items<'_> {
    /// No items.
    fn default() -> Self {
        Items::Values(&[])
    }
}

impl<'a> Items<'a> {
    /// The number of items.
    pub fn len(self) -> usize {
        match self {
            Items::Values(items) => items.len(),
            Items::Packed(values) => values.len(),
        }
    }

    /// Whether there are no items.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Each item as a value: borrowed from an unpacked array, a
    /// [`Json::U64`] made on the fly from a packed one.
    pub fn iter(self) -> impl Iterator<Item = Cow<'a, Json>> {
        let (items, packed): (&[Json], &[u64]) = match self {
            Items::Values(items) => (items, &[]),
            Items::Packed(values) => (&[], values),
        };
        items
            .iter()
            .map(Cow::Borrowed)
            .chain(packed.iter().map(|&v| Cow::Owned(Json::U64(v))))
    }

    /// Every item as an unsigned integer ([`Json::as_u64`]), or `None` if
    /// one is not. A packed array lends its integers without a copy.
    pub fn u64s(self) -> Option<Cow<'a, [u64]>> {
        match self {
            Items::Values(items) => items
                .iter()
                .map(Json::as_u64)
                .collect::<Option<_>>()
                .map(Cow::Owned),
            Items::Packed(values) => Some(Cow::Borrowed(values)),
        }
    }
}

/// Decimal digits of `v`, byte-identical to `write!(out, "{v}")` without
/// going through `fmt`: matrix frames are thousands of small integers,
/// most of them `0`.
#[inline(always)]
fn write_u64(v: u64, out: &mut String) {
    if v < 10 {
        out.push(char::from(b'0' + v as u8));
        return;
    }
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = v;
    while rest > 0 {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("digits are ASCII"));
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure with a byte offset into the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the failure.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, and it runs on the serve event-loop thread, so
/// an unbounded document (half a megabyte of `[`) would overflow the stack.
/// The deepest document this project writes — a metrics document — nests 6
/// levels and a protocol frame at most 4.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// The leading run of plain unsigned integers of the array being read.
    ints: Vec<u64>,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(Vec::new()));
        }
        // Plain unsigned integers separated by bare commas (a matrix row)
        // gather in `ints` and become one exactly sized packed array.
        self.ints.clear();
        let mut after_item = false;
        while let Some(v) = self.plain_u64() {
            // Not `push`: a `Vec<u64>::push` instantiated in this crate
            // changed how the engine's run-queue heap (a `Vec<u64>` in
            // tlbmap-sim) compiled under thin LTO, and cost npb-pipeline
            // about 2 %.
            self.ints.extend_from_slice(&[v]);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::U64s(self.ints.to_vec()));
                }
                _ => {
                    after_item = true;
                    break;
                }
            }
        }
        // Anything else (whitespace, another kind of value, a sign, a
        // fraction, an overflow, an error) continues on the general path.
        let mut items: Vec<Json> = self.ints.iter().map(|&v| Json::U64(v)).collect();
        loop {
            if !after_item {
                self.skip_ws();
                items.push(self.value()?);
            }
            after_item = false;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// An unsigned integer token not followed by `.`, `e` or `E`, read in
    /// one pass. `None`, with `pos` unmoved, when the token starts with
    /// `-`, continues as a float or overflows `u64`: [`Parser::number`]
    /// then reads it the general way.
    #[inline]
    fn plain_u64(&mut self) -> Option<u64> {
        let mut pos = self.pos;
        let mut value = 0u64;
        while let Some(digit) = self.bytes.get(pos).map(|b| b.wrapping_sub(b'0')) {
            if digit > 9 {
                break;
            }
            value = value.checked_mul(10)?.checked_add(u64::from(digit))?;
            pos += 1;
        }
        if pos == self.pos || matches!(self.bytes.get(pos), Some(b'.' | b'e' | b'E')) {
            return None;
        }
        self.pos = pos;
        Some(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        if let Some(v) = self.plain_u64() {
            return Ok(Json::U64(v));
        }
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::I64(-7).render(), "-7");
        assert_eq!(Json::F64(0.5).render(), "0.5");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::Str("a\"b\n".into()).render(), "\"a\\\"b\\n\"");
    }

    #[test]
    fn renders_compound_deterministically() {
        let v = Json::obj(vec![
            ("b", Json::U64(1)),
            ("a", Json::Arr(vec![Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(v.render(), "{\"b\":1,\"a\":[null,false]}");
    }

    #[test]
    fn parses_what_it_writes() {
        let v = Json::obj(vec![
            ("counters", Json::obj(vec![("x", Json::U64(u64::MAX))])),
            ("rate", Json::F64(0.015)),
            ("name", Json::Str("CG — run/1".into())),
            ("neg", Json::I64(-3)),
            ("list", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"k\" : [ 1 , \"a\\u0041\\t\" ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("k").unwrap().as_array().unwrap()[1].as_str(),
            Some("aA\t")
        );
    }

    #[test]
    fn rejects_malformed() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_without_recursing_into_the_rest() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        // Half a megabyte of `[` or `{"k":` fails at the cap instead of
        // overflowing the stack.
        assert_eq!(
            Json::parse(&"[".repeat(500_000)).unwrap_err().offset,
            MAX_DEPTH
        );
        let objects = "{\"k\":".repeat(100_000);
        assert_eq!(Json::parse(&objects).unwrap_err().offset, 5 * MAX_DEPTH);
    }

    #[test]
    fn numbers_keep_integer_precision() {
        let big = u64::MAX - 1;
        let parsed = Json::parse(&big.to_string()).unwrap();
        assert_eq!(parsed.as_u64(), Some(big));
        assert_eq!(
            Json::parse("-9007199254740993").unwrap(),
            Json::I64(-9007199254740993)
        );
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn integer_digits_match_fmt() {
        let mut values: Vec<u64> = (0..=10_000).collect();
        for power in 1..=19 {
            let p = 10u64.pow(power);
            values.extend([p - 1, p, p + 1]);
        }
        values.extend([u64::MAX - 1, u64::MAX, 1 << 63, u32::MAX as u64]);
        let mut rng = SmallRng::seed_from_u64(7);
        values.extend((0..10_000).map(|_| rng.next_u64() >> rng.gen_range(0..64)));
        for v in values {
            assert_eq!(Json::U64(v).render(), format!("{v}"));
        }
    }

    /// Today's number grammar read the way it was before the unsigned
    /// fast path: scan the token, then try `u64`, `i64` and `f64` in turn.
    /// Returns the value or error message, and where the token ended.
    fn reference_number(bytes: &[u8]) -> (Result<Json, String>, usize) {
        let digits = |mut pos: usize| {
            while bytes.get(pos).is_some_and(u8::is_ascii_digit) {
                pos += 1;
            }
            pos
        };
        let mut pos = usize::from(bytes.first() == Some(&b'-'));
        pos = digits(pos);
        let mut float = false;
        if bytes.get(pos) == Some(&b'.') {
            float = true;
            pos = digits(pos + 1);
        }
        if matches!(bytes.get(pos), Some(b'e' | b'E')) {
            float = true;
            pos += 1;
            if matches!(bytes.get(pos), Some(b'+' | b'-')) {
                pos += 1;
            }
            pos = digits(pos);
        }
        let text = std::str::from_utf8(&bytes[..pos]).unwrap();
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return (Ok(Json::U64(v)), pos);
            }
            if let Ok(v) = text.parse::<i64>() {
                return (Ok(Json::I64(v)), pos);
            }
        }
        let value = text.parse::<f64>().map(Json::F64);
        (value.map_err(|_| "invalid number".to_string()), pos)
    }

    /// A random number-like token: sign, leading zeros, up to 25 digits
    /// (past `u64::MAX`), fraction, exponent and a trailing byte, each
    /// optional.
    fn number_token(rng: &mut SmallRng) -> String {
        let mut token = String::new();
        let digits = |rng: &mut SmallRng, token: &mut String, max: usize| {
            for _ in 0..rng.gen_range(0..=max) {
                token.push(char::from(b'0' + rng.gen_range(0..10u8)));
            }
        };
        if rng.gen_bool(0.3) {
            token.push('-');
        }
        if rng.gen_bool(0.2) {
            token.push_str(&"0".repeat(rng.gen_range(1..4)));
        }
        match rng.gen_range(0..4) {
            0 => token.push_str(
                &(u128::from(u64::MAX) + 1 - u128::from(rng.gen_range(0..3u64))).to_string(),
            ),
            1 => token.push_str(&(i64::MIN + rng.gen_range(0..2i64)).to_string()[1..]),
            _ => digits(rng, &mut token, 25),
        }
        if rng.gen_bool(0.2) {
            token.push('.');
            digits(rng, &mut token, 3);
        }
        if rng.gen_bool(0.2) {
            token.push(if rng.gen_bool(0.5) { 'e' } else { 'E' });
            if rng.gen_bool(0.5) {
                token.push(if rng.gen_bool(0.5) { '+' } else { '-' });
            }
            digits(rng, &mut token, 3);
        }
        if rng.gen_bool(0.2) {
            token.push(*[',', ']', ' ', 'x', '.'].get(rng.gen_range(0..5)).unwrap());
        }
        token
    }

    /// A random value tree at most `depth` levels deep.
    fn random_tree(rng: &mut SmallRng, depth: usize) -> Json {
        let leaf = if depth == 0 { 7 } else { 10 };
        match rng.gen_range(0..leaf) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => Json::U64(rng.next_u64() >> rng.gen_range(0..64)),
            3 => Json::U64(rng.gen_range(0..10)),
            4 => Json::I64(-((rng.next_u64() >> rng.gen_range(1..64)) as i64) - 1),
            5 => Json::F64(rng.gen_range(-1e6..1e6)),
            6 => Json::Str(
                (0..rng.gen_range(0..6))
                    .map(|_| {
                        *['a', '"', '\\', '\n', '\u{1}', 'é', '—']
                            .get(rng.gen_range(0..7))
                            .unwrap()
                    })
                    .collect(),
            ),
            7 => Json::Arr(
                (0..rng.gen_range(0..5))
                    .map(|_| random_tree(rng, depth - 1))
                    .collect(),
            ),
            // A matrix row: unsigned integers only, often `0`.
            8 => Json::Arr(
                (0..rng.gen_range(0..6))
                    .map(|_| match rng.gen_bool(0.5) {
                        true => Json::U64(0),
                        false => Json::U64(rng.next_u64() >> rng.gen_range(0..64)),
                    })
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.gen_range(0..4))
                    .map(|k| (format!("k{k}"), random_tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// `tree` with every non-empty array of [`Json::U64`] items packed.
    fn pack_all(tree: &Json) -> Json {
        match tree {
            Json::Arr(items) if !items.is_empty() => {
                match items
                    .iter()
                    .map(|v| match v {
                        Json::U64(v) => Some(*v),
                        _ => None,
                    })
                    .collect::<Option<Vec<u64>>>()
                {
                    Some(values) => Json::U64s(values),
                    None => Json::Arr(items.iter().map(pack_all).collect()),
                }
            }
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), pack_all(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    /// Every accessor answers the same on `a` and on `b`, recursively:
    /// arrays through [`Json::items`], since `as_array` cannot lend a
    /// packed array's items.
    fn same_answers(a: &Json, b: &Json) -> Result<(), String> {
        prop_assert_eq!(a.as_u64(), b.as_u64());
        prop_assert_eq!(a.as_f64().map(f64::to_bits), b.as_f64().map(f64::to_bits));
        prop_assert_eq!(a.as_str(), b.as_str());
        prop_assert_eq!(a.as_bool(), b.as_bool());
        prop_assert_eq!(a.get("k0").is_some(), b.get("k0").is_some());
        prop_assert_eq!(a.get("k9"), b.get("k9"));
        match (a.items(), b.items()) {
            (Some(x), Some(y)) => {
                prop_assert_eq!(x.len(), y.len());
                prop_assert_eq!(x.is_empty(), y.is_empty());
                prop_assert_eq!(x.u64s(), y.u64s());
                for (p, q) in x.iter().zip(y.iter()) {
                    same_answers(&p, &q)?;
                }
            }
            (x, y) => prop_assert!(x.is_none() && y.is_none()),
        }
        if let (Json::Obj(x), Json::Obj(y)) = (a, b) {
            prop_assert_eq!(x.len(), y.len());
            for ((kx, vx), (ky, vy)) in x.iter().zip(y) {
                prop_assert_eq!(kx, ky);
                same_answers(vx, vy)?;
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn render_then_parse_is_identity(seed in any::<u64>()) {
            let tree = random_tree(&mut SmallRng::seed_from_u64(seed), 4);
            let text = tree.render();
            prop_assert_eq!(Json::parse(&text), Ok(tree.clone()), "{}", text);
        }

        #[test]
        fn packing_is_invisible(seed in any::<u64>()) {
            let tree = random_tree(&mut SmallRng::seed_from_u64(seed), 4);
            let packed = pack_all(&tree);
            prop_assert_eq!(&packed, &tree);
            prop_assert_eq!(&tree, &packed);
            prop_assert_eq!(packed.render(), tree.render());
            same_answers(&tree, &packed)?;
            // The parser packs exactly the eligible arrays of the compact
            // text, and whitespace keeps every array unpacked.
            let parsed = Json::parse(&tree.render()).unwrap();
            prop_assert_eq!(format!("{parsed:?}"), format!("{packed:?}"));
            let spaced = Json::parse(&tree.render().replace(']', " ]")).unwrap();
            prop_assert_eq!(format!("{spaced:?}"), format!("{tree:?}"));
        }

        #[test]
        fn numbers_classify_as_the_parse_chain_did(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..16 {
                let token = number_token(&mut rng);
                if !token.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
                    continue;
                }
                let (expected, end) = reference_number(token.as_bytes());
                let mut parser = Parser {
                    bytes: token.as_bytes(),
                    pos: 0,
                    depth: 0,
                    ints: Vec::new(),
                };
                let got = parser.number().map_err(|e| e.message);
                prop_assert_eq!(&got, &expected, "token {:?}", token);
                prop_assert_eq!(parser.pos, end, "token {:?}", token);
                // Inside an array the fast loop reads the same token.
                let in_array = Json::parse(&format!("[{token}]"));
                match expected {
                    Ok(v) if token[end..].trim().is_empty() => {
                        prop_assert_eq!(in_array, Ok(Json::Arr(vec![v])));
                    }
                    _ => prop_assert!(in_array.is_err(), "token {:?}", token),
                }
            }
        }
    }

    #[test]
    fn accessors_reject_wrong_types() {
        assert_eq!(Json::Str("x".into()).as_u64(), None);
        assert_eq!(Json::U64(1).as_str(), None);
        assert_eq!(Json::Null.get("k"), None);
        assert_eq!(Json::F64(1.5).as_u64(), None);
        assert_eq!(Json::F64(3.0).as_u64(), Some(3));
    }
}
