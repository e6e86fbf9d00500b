//! The workspace's one JSON module: every document the tool writes is
//! built with [`object`] / [`array()`], and every document it reads goes
//! through [`parse`]. Std-only: the workspace has no serialization
//! dependency.
//!
//! **Writer.** An [`Obj`] collects fields in call order and places the
//! commas; strings are escaped, integers print exactly, and a float
//! prints at the fixed precision its call site passes ([`Fixed`]).
//! Fields that exist only under faults or hints use [`Obj::opt`], so a
//! healthy run's document has none of them.
//!
//! **Reader.** [`parse`] builds a [`Json`] tree and reports malformed
//! input with its 1-based line. A number keeps its source text and is
//! converted when it is read: a `u64` read is exact over the whole range
//! (event times are `u64` nanoseconds, which an `f64` holds exactly only
//! up to 2⁵³ ns, about 104 days), and an `f64` read serves rates.

use std::fmt::Write as _;

/// A value the writer can render.
pub trait Value {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! integer_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
integer_values!(u32, u64, usize);

impl Value for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Value for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
}

impl Value for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: Value + ?Sized> Value for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// `None` renders as `null`; see [`Obj::opt`] to leave the field out.
impl<T: Value> Value for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// A float at a fixed number of decimals: `Fixed(x, 4)` renders as
/// `format!("{x:.4}")`.
pub struct Fixed(pub f64, pub usize);

impl Value for Fixed {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{:.*}", self.1, self.0);
    }
}

/// An already rendered JSON document (a nested value's `to_json`),
/// spliced in as it is.
pub struct Raw(pub String);

impl Value for Raw {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

/// A JSON object under construction; start one with [`object`].
pub struct Obj(String);

/// An empty object.
pub fn object() -> Obj {
    Obj(String::from("{"))
}

impl Obj {
    fn key(&mut self, key: &str) {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        key.write_json(&mut self.0);
        self.0.push(':');
    }

    /// Appends `"key":value`.
    pub fn field(mut self, key: &str, value: impl Value) -> Obj {
        self.key(key);
        value.write_json(&mut self.0);
        self
    }

    /// Appends `"key":value` when `value` is `Some`, nothing otherwise.
    pub fn opt(self, key: &str, value: Option<impl Value>) -> Obj {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// Appends `"key":[items]`.
    pub fn array<V: Value>(mut self, key: &str, items: impl IntoIterator<Item = V>) -> Obj {
        self.key(key);
        write_array(&mut self.0, items, "");
        self
    }

    /// Appends `"key":[items]` with a newline before each item and
    /// before the closing bracket, so every item sits on its own line.
    pub fn lines<V: Value>(mut self, key: &str, items: impl IntoIterator<Item = V>) -> Obj {
        self.key(key);
        write_array(&mut self.0, items, "\n");
        self
    }

    /// The finished object's text.
    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

impl Value for Obj {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
        out.push('}');
    }
}

/// `items` as a JSON array.
pub fn array<V: Value>(items: impl IntoIterator<Item = V>) -> String {
    let mut out = String::new();
    write_array(&mut out, items, "");
    out
}

fn write_array<V: Value>(out: &mut String, items: impl IntoIterator<Item = V>, sep: &str) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(sep);
        item.write_json(out);
    }
    out.push_str(sep);
    out.push(']');
}

/// `Some(n)` unless `n` is zero: for [`Obj::opt`] counters that appear
/// only once something happened.
pub(crate) fn nonzero(n: u64) -> Option<u64> {
    (n > 0).then_some(n)
}

/// A parsed JSON value. Objects keep their fields in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its source text (see the module docs).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's `(key, value)` fields.
    Obj(Vec<(String, Json)>),
}

/// Malformed JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The 1-based line the reader stopped on.
    pub line: usize,
    /// What it expected or found.
    pub msg: String,
}

/// Well-formed JSON of the wrong shape: a missing or mistyped field,
/// named in the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

/// A type a [`Json`] value converts to when read.
pub trait FromJson<'a>: Sized {
    /// What the type is called in a [`SchemaError`].
    const WANTED: &'static str;
    /// The converted value; `None` when `v` is of another type or out of
    /// range.
    fn from_json(v: &'a Json) -> Option<Self>;
}

macro_rules! from_json {
    ($($t:ty: $wanted:literal, $v:ident => $read:expr;)*) => {$(
        impl<'a> FromJson<'a> for $t {
            const WANTED: &'static str = $wanted;
            fn from_json($v: &'a Json) -> Option<Self> {
                $read
            }
        }
    )*};
}

// Integers parse a number's source text exactly; `&Json` reads an
// object, to look its fields up in.
from_json! {
    &'a str: "a string", v => if let Json::Str(s) = v { Some(s) } else { None };
    bool: "a boolean", v => if let Json::Bool(b) = v { Some(*b) } else { None };
    u32: "a non-negative integer", v => v.number()?.parse().ok();
    u64: "a non-negative integer", v => v.number()?.parse().ok();
    usize: "a non-negative integer", v => v.number()?.parse().ok();
    f64: "a number", v => v.number()?.parse().ok();
    &'a [Json]: "an array", v => if let Json::Arr(items) = v { Some(items) } else { None };
    &'a Json: "an object", v => matches!(v, Json::Obj(_)).then_some(v);
}

impl Json {
    fn number(&self) -> Option<&str> {
        if let Json::Num(text) = self {
            Some(text)
        } else {
            None
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "a boolean",
            Json::Num(_) => "a number",
            Json::Str(_) => "a string",
            Json::Arr(_) => "an array",
            Json::Obj(_) => "an object",
        }
    }

    /// Field `key` of this object, whatever its type; `None` when this
    /// is not an object or has no such field.
    pub fn member(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Field `key` of this object as a `T`; `None` when this is not an
    /// object, the field is missing, or it does not convert.
    pub fn get<'a, T: FromJson<'a>>(&'a self, key: &str) -> Option<T> {
        self.member(key).and_then(T::from_json)
    }

    /// Field `key` of this object as a `T`, or a [`SchemaError`] naming
    /// the field.
    pub fn field<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<T, SchemaError> {
        self.member(key)
            .ok_or_else(|| SchemaError(format!("{key}: missing field")))?
            .expect(key)
    }

    /// This value as a `T`, or a [`SchemaError`] calling it `what`.
    pub fn expect<'a, T: FromJson<'a>>(&'a self, what: &str) -> Result<T, SchemaError> {
        T::from_json(self).ok_or_else(|| {
            SchemaError(format!(
                "{what}: expected {}, got {}",
                T::WANTED,
                self.type_name()
            ))
        })
    }
}

/// Parses `text` as exactly one JSON value (trailing characters other
/// than whitespace are an error).
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text,
        pos: 0,
        line: 1,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos < text.len() {
        return p.err("trailing characters after the document");
    }
    Ok(value)
}

/// Recursive-descent reader, tracking the current line for diagnostics.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line,
            msg: msg.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b'\n' => self.line += 1,
                b' ' | b'\t' | b'\r' => {}
                _ => break,
            }
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ParseError> {
        if self.peek() != Some(b) {
            return self.err(format!("expected {what}"));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if !self.text[self.pos..].starts_with(word) {
            return self.err(format!("expected {word:?}"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'{') => Ok(Json::Obj(self.items(b'}', "object", |p| {
                p.skip_ws();
                let key = p.string()?;
                p.skip_ws();
                p.eat(b':', "':' after object key")?;
                Ok((key, p.value()?))
            })?)),
            Some(b'[') => Ok(Json::Arr(self.items(b']', "array", Self::value)?)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => {
                let c = self.text[self.pos..].chars().next().expect("peeked a byte");
                self.err(format!("unexpected character {c:?}"))
            }
        }
    }

    /// The items of the object or array opening at the cursor, each read
    /// by `item`, up to its `close`.
    fn items<T>(
        &mut self,
        close: u8,
        what: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                items.push(item(self)?);
                self.skip_ws();
                if self.peek() != Some(b',') {
                    break;
                }
                self.pos += 1;
            }
        }
        self.eat(close, &format!("',' or '{}' in {what}", close as char))?;
        Ok(items)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            let Some(c) = self.text[self.pos..].chars().next() else {
                return self.err("unterminated string");
            };
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\n' => return self.err("unterminated string"),
                '\\' => {
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        // Surrogate pairs never appear: the writer only
                        // \u-escapes control characters.
                        Some(b'u') => match self
                            .text
                            .get(self.pos + 1..self.pos + 5)
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                        {
                            Some(c) => {
                                self.pos += 4;
                                c
                            }
                            None => return self.err("bad \\u escape"),
                        },
                        _ => return self.err("bad escape sequence"),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        self.pos += 1;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(_) => Ok(Json::Num(text.to_string())),
            Err(_) => self.err(format!("bad number {text:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        let escape = |s: &str| {
            let mut out = String::new();
            s.write_json(&mut out);
            out
        };
        assert_eq!(escape(r#"a"b\c"#), r#""a\"b\\c""#);
        assert_eq!(escape("x\ny"), r#""x\ny""#);
        assert_eq!(escape("\u{1}"), r#""\u0001""#);
        assert_eq!(escape("plain"), r#""plain""#);
    }

    #[test]
    fn writer_places_commas_and_omits_absent_fields() {
        let inner = object().field("n", 1u64).opt("gone", None::<u64>);
        let doc = object()
            .field("s", "x")
            .field("b", true)
            .field("f", Fixed(2.0 / 3.0, 3))
            .field("null", None::<Fixed>)
            .opt("zero", nonzero(0))
            .opt("one", nonzero(1))
            .field("inner", inner)
            .array("empty", Vec::<u64>::new())
            .array("xs", [1u32, 2])
            .field("raw", Raw("[true]".into()))
            .finish();
        assert_eq!(
            doc,
            r#"{"s":"x","b":true,"f":0.667,"null":null,"one":1,"inner":{"n":1},"empty":[],"xs":[1,2],"raw":[true]}"#
        );
        assert_eq!(object().finish(), "{}");
        assert_eq!(array([object(), object()]), "[{},{}]");
        assert_eq!(
            object()
                .lines("a", [1u64, 2])
                .lines("e", [0u64; 0])
                .finish(),
            "{\"a\":[\n1,\n2\n],\"e\":[\n]}"
        );
    }

    #[test]
    fn reader_round_trips_the_writer() {
        let text = object()
            .field("s", "q\"uote\\ and\nline\u{1}é")
            .field("big", u64::MAX)
            .field("rate", Fixed(12.5, 3))
            .array("xs", [object().field("k", false)])
            .finish();
        let doc = parse(&text).unwrap();
        assert_eq!(doc.get::<&str>("s"), Some("q\"uote\\ and\nline\u{1}é"));
        assert_eq!(doc.get::<u64>("big"), Some(u64::MAX));
        assert_eq!(doc.get::<f64>("rate"), Some(12.5));
        assert_eq!(doc.get::<u64>("rate"), None);
        let xs: &[Json] = doc.get("xs").unwrap();
        assert_eq!(xs[0].get::<bool>("k"), Some(false));
        assert_eq!(doc.get::<bool>("missing"), None);
    }

    #[test]
    fn u64_reads_are_exact_past_two_to_the_53() {
        let n = (1u64 << 53) + 1;
        let doc = parse(&object().field("t_ns", n).finish()).unwrap();
        assert_eq!(doc.get::<u64>("t_ns"), Some(n));
        assert_ne!(doc.get::<f64>("t_ns").unwrap() as u64, n);
    }

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        let doc = parse(r#"{"a":"\"q\"\/\té","b":[1,-2.5e3,null]}"#).unwrap();
        assert_eq!(doc.get::<&str>("a"), Some("\"q\"/\té"));
        let b: &[Json] = doc.get("b").unwrap();
        assert_eq!(b[1].expect::<f64>("b[1]"), Ok(-2500.0));
        assert_eq!(b[2], Json::Null);
        for bad in [
            "",
            "{",
            "nul",
            r#"{"a" 1}"#,
            "{}trailing",
            "[1,]",
            "{\"a\":1",
            "-",
            r#""\x""#,
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn errors_name_the_line_and_the_field() {
        assert_eq!(parse("{\n\"a\":\n}").unwrap_err().line, 3);
        let doc = parse(r#"{"n":"seven"}"#).unwrap();
        assert_eq!(
            doc.field::<u64>("n"),
            Err(SchemaError(
                "n: expected a non-negative integer, got a string".into()
            ))
        );
        assert_eq!(
            doc.field::<u64>("m"),
            Err(SchemaError("m: missing field".into()))
        );
        assert_eq!(
            parse("[]").unwrap().expect::<&Json>("root"),
            Err(SchemaError("root: expected an object, got an array".into()))
        );
    }
}
