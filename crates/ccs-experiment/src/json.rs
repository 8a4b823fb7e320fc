//! A small, self-contained JSON layer: a value tree, a single-pass writer
//! and a borrowing pull reader.
//!
//! The build environment cannot fetch `serde`/`serde_json` (see
//! `shims/README.md`), so report serialisation is implemented over this
//! module instead.  [`Report::to_json`](crate::Report::to_json) produces the
//! same document shape a `serde_json` derive would, which keeps a later
//! migration mechanical.
//!
//! There are two ways through the module:
//!
//! * **The tree** — [`Json`], [`parse`], [`Json::to_string_pretty`] /
//!   [`Json::to_string_compact`].  Convenient for documents of arbitrary
//!   shape (the bench harness, [`Report::from_json`](crate::Report::from_json)).
//! * **The codec** — [`ValueWriter`] renders a typed value straight into
//!   one `String` (no tree, no per-key allocation), compact or pretty from
//!   the same calls; [`Reader`] pulls a document apart in one pass, keys
//!   and unescaped strings borrowed from the input, numbers scanned in
//!   place, unwanted members validated and skipped.  The hot paths — run
//!   records, `ccs-serve` frames, store entries — use this, and their
//!   output is byte-identical to the tree rendering of the same members
//!   (property-tested against it).
//!
//! Numbers are kept in three variants ([`Json::UInt`], [`Json::Int`],
//! [`Json::Float`]) so `u64` counters round-trip exactly; the accessors
//! ([`Json::as_u64`], [`Json::as_f64`], …) coerce between them the way JSON
//! consumers expect, and [`Value`]'s accessors apply the same rules.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (u64 counters round-trip exactly).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved when writing.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, coercing exact floats.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Int(v) => u64::try_from(v).ok(),
            Json::Float(v) => float_as_u64(v),
            _ => None,
        }
    }

    /// The value as a float, coercing integers.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(v) => Some(v as f64),
            Json::Int(v) => Some(v as f64),
            Json::Float(v) => Some(v),
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

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serialise with two-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialise onto a single line with no whitespace and no trailing
    /// newline — the JSON-lines form the `ccs-serve` wire protocol frames
    /// use (string escaping keeps embedded newlines out of the output).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push(']');
            }
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push('}');
            }
        }
    }
}

/// The exact-float rule of [`Json::as_u64`] and [`Value::as_u64`].
fn float_as_u64(v: f64) -> Option<u64> {
    // Strict upper bound: `u64::MAX as f64` rounds up to 2^64, which does
    // not fit — accepting it would silently saturate.
    (v >= 0.0 && v.fract() == 0.0 && v < u64::MAX as f64).then_some(v as u64)
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Append `v` in decimal, without a temporary allocation.
pub(crate) fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest-round-trip formatting; force a decimal point so the
        // value parses back as a float.
        let start = out.len();
        let _ = write!(out, "{v}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Fast path: nothing to escape (keys, names, specs — nearly always).
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_string_pretty())
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        match v {
            Some(v) => v.into(),
            None => Json::Null,
        }
    }
}

/// Writes one JSON value straight into a `String`: the slot a document,
/// an object key or an array item opened.
///
/// Compact and pretty output come from the same calls — a type writes its
/// field list once and gets both forms, byte-identical to
/// [`Json::to_string_compact`] / [`Json::to_string_pretty`] (minus the
/// trailing newline) of the same members:
///
/// ```
/// use ccs_experiment::json::ValueWriter;
///
/// let mut line = String::new();
/// ValueWriter::compact(&mut line).object(|o| {
///     o.key("cores").u64(8);
///     o.key("mpki").f64(7.5);
///     o.key("seed").opt_u64(None);
/// });
/// assert_eq!(line, r#"{"cores":8,"mpki":7.5,"seed":null}"#);
/// ```
pub struct ValueWriter<'a> {
    out: &'a mut String,
    /// `None` renders compact; `Some(depth)` pretty, at nesting `depth`.
    indent: Option<usize>,
}

impl<'a> ValueWriter<'a> {
    /// A single-line value appended to `out`.
    pub fn compact(out: &'a mut String) -> ValueWriter<'a> {
        ValueWriter { out, indent: None }
    }

    /// A two-space-indented value appended to `out`, as if nested `depth`
    /// levels deep.
    pub fn pretty(out: &'a mut String, depth: usize) -> ValueWriter<'a> {
        ValueWriter {
            out,
            indent: Some(depth),
        }
    }

    /// `null`.
    pub fn null(self) {
        self.out.push_str("null");
    }

    /// `true` / `false`.
    pub fn bool(self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// An unsigned integer.
    pub fn u64(self, v: u64) {
        write_u64(self.out, v);
    }

    /// A float: shortest round-trip digits with a forced decimal point;
    /// NaN and ±inf (which JSON lacks) render as `null`.
    pub fn f64(self, v: f64) {
        write_f64(self.out, v);
    }

    /// An escaped string.
    pub fn str(self, v: &str) {
        write_escaped(self.out, v);
    }

    /// An unsigned integer, or `null` for `None`.
    pub fn opt_u64(self, v: Option<u64>) {
        match v {
            Some(v) => self.u64(v),
            None => self.null(),
        }
    }

    /// A float, or `null` for `None`.
    pub fn opt_f64(self, v: Option<f64>) {
        match v {
            Some(v) => self.f64(v),
            None => self.null(),
        }
    }

    /// A string, or `null` for `None`.
    pub fn opt_str(self, v: Option<&str>) {
        match v {
            Some(v) => self.str(v),
            None => self.null(),
        }
    }

    /// Pre-rendered JSON text, copied verbatim — the splice that lets a
    /// stored value (a result-store record) leave without a decode and
    /// re-encode.  The caller vouches that `json` is one well-formed value
    /// rendered as this writer would render it; the text keeps its own
    /// layout, so splice compact text into compact writers only.
    pub fn raw(self, json: &str) {
        self.out.push_str(json);
    }

    /// An object whose members `body` writes.
    pub fn object(self, body: impl FnOnce(&mut ObjectWriter<'_>)) {
        let mut object = ObjectWriter(Members::open(self, '{'));
        body(&mut object);
        object.0.close('}');
    }

    /// An array whose items `body` writes.
    pub fn array(self, body: impl FnOnce(&mut ArrayWriter<'_>)) {
        let mut array = ArrayWriter(Members::open(self, '['));
        body(&mut array);
        array.0.close(']');
    }
}

/// The members of an object being written (see [`ValueWriter::object`]).
pub struct ObjectWriter<'a>(Members<'a>);

impl ObjectWriter<'_> {
    /// Start the member `key`; write its value with the returned writer.
    pub fn key(&mut self, key: &str) -> ValueWriter<'_> {
        let members = &mut self.0;
        members.separate();
        write_escaped(members.out, key);
        members
            .out
            .push_str(if members.indent.is_some() { ": " } else { ":" });
        members.value()
    }
}

/// The items of an array being written (see [`ValueWriter::array`]).
pub struct ArrayWriter<'a>(Members<'a>);

impl ArrayWriter<'_> {
    /// Start the next item; write it with the returned writer.
    pub fn item(&mut self) -> ValueWriter<'_> {
        self.0.separate();
        self.0.value()
    }
}

/// Shared state of an open object or array: separators and indentation.
struct Members<'a> {
    out: &'a mut String,
    indent: Option<usize>,
    empty: bool,
}

impl<'a> Members<'a> {
    fn open(value: ValueWriter<'a>, bracket: char) -> Members<'a> {
        value.out.push(bracket);
        Members {
            out: value.out,
            indent: value.indent,
            empty: true,
        }
    }

    /// The comma and (pretty) line break before every member but the first.
    fn separate(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        if let Some(depth) = self.indent {
            newline_indent(self.out, depth + 1);
        }
    }

    fn value(&mut self) -> ValueWriter<'_> {
        ValueWriter {
            out: self.out,
            indent: self.indent.map(|depth| depth + 1),
        }
    }

    fn close(self, bracket: char) {
        if let (Some(depth), false) = (self.indent, self.empty) {
            newline_indent(self.out, depth);
        }
        self.out.push(bracket);
    }
}

/// A parse error, with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the error in the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting depth [`parse`] and [`Reader`] accept.  Real
/// report and frame documents nest a handful of levels; the cap turns
/// adversarial `[[[[…` input into a parse error instead of a stack
/// overflow (which would abort the process, uncatchably).
pub const MAX_PARSE_DEPTH: usize = 128;

/// Parse a JSON document into a tree.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut reader = Reader::new(input);
    let value = reader.tree()?;
    reader.finish()?;
    Ok(value)
}

/// One member value read by [`Reader::object_fields`]: scalars decoded,
/// arrays item by item, objects validated and skipped.
#[derive(Clone, Debug, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string, borrowed from the input unless it contained escapes.
    Str(Cow<'a, str>),
    /// An array.
    Array(Vec<Value<'a>>),
    /// An object (validated and skipped: pick members out of objects with
    /// [`Reader::object_fields`]).
    Object,
}

impl<'a> Value<'a> {
    /// The value as an unsigned integer, coercing exact floats (the
    /// [`Json::as_u64`] rule).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(v) => Some(v),
            Value::Int(v) => u64::try_from(v).ok(),
            Value::Float(v) => float_as_u64(v),
            _ => None,
        }
    }

    /// The value as a float, coercing integers.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(v) => Some(v as f64),
            Value::Int(v) => Some(v as f64),
            Value::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an owned string (no copy when it already owns one).
    pub fn into_string(self) -> Option<String> {
        match self {
            Value::Str(s) => Some(s.into_owned()),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// A borrowing, single-pass pull reader over one JSON document.
///
/// The reader walks the text once.
/// [`object_fields`](Reader::object_fields) picks named members out of the
/// object at the cursor, decoding their values (see [`Value`]);
/// [`object_fields_with`](Reader::object_fields_with) also hands the
/// other members to a hook that can decode a nested object in place;
/// [`skip_value`](Reader::skip_value) validates a value and steps over it.
/// The reader enforces everything [`parse`] does — the grammar,
/// [`MAX_PARSE_DEPTH`], trailing garbage (via [`finish`](Reader::finish))
/// — and never panics on any input.
///
/// ```
/// use ccs_experiment::json::Reader;
///
/// let mut reader = Reader::new(r#"{"seq": 3, "extra": [1, {"x": null}], "id": "r1"}"#);
/// let [id, seq] = reader.object_fields(&["id", "seq"]).unwrap();
/// reader.finish().unwrap();
/// assert_eq!(id.unwrap().as_str(), Some("r1"));
/// assert_eq!(seq.unwrap().as_u64(), Some(3));
/// ```
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Current container nesting depth, capped at [`MAX_PARSE_DEPTH`].
    depth: usize,
    /// Whether the innermost open container has yielded no element yet.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// If the next value is an object, enter it and return `true`;
    /// otherwise consume nothing and return `false`.
    fn begin_object(&mut self) -> Result<bool, JsonError> {
        self.open(b'{')
    }

    /// The next member key of the object entered last, leaving the cursor
    /// on its value — or `None` once the closing `}` is consumed.
    fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.advance(b'}', "object")? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// If the next value is an array, enter it and return `true`;
    /// otherwise consume nothing and return `false`.
    fn begin_array(&mut self) -> Result<bool, JsonError> {
        self.open(b'[')
    }

    /// Whether the array entered last has another item (the cursor is then
    /// on it); `false` once the closing `]` is consumed.
    fn next_item(&mut self) -> Result<bool, JsonError> {
        self.advance(b']', "array")
    }

    /// Decode the value at the cursor (see [`Value`]).
    fn value(&mut self) -> Result<Value<'a>, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => {
                self.open(b'[')?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                self.skip_value()?;
                Ok(Value::Object)
            }
            _ => self.scalar(),
        }
    }

    /// Validate the value at the cursor and step over it.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => {
                self.open(b'[')?;
                while self.next_item()? {
                    self.skip_value()?;
                }
            }
            Some(b'{') => {
                self.open(b'{')?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Some(b'-' | b'0'..=b'9') => {
                // Any integer with a digit converts (as u64, i64 or,
                // failing both, f64): only fractions and exponents need
                // the conversion to be validated.
                let start = self.pos;
                let is_float = self.scan_number();
                let digits = self.text.as_bytes()[start..self.pos]
                    .iter()
                    .any(u8::is_ascii_digit);
                if is_float || !digits {
                    self.pos = start;
                    self.number()?;
                }
            }
            _ => {
                self.scalar()?;
            }
        }
        Ok(())
    }

    /// Read the object at the cursor, returning the value of each member
    /// named in `names` (slot `i` for `names[i]`).  Other members are
    /// validated and skipped; of duplicate keys the first wins, and a
    /// non-object value leaves every slot empty — both as with
    /// [`Json::get`].  Members in `names` order are found without a search.
    pub fn object_fields<const N: usize>(
        &mut self,
        names: &[&str; N],
    ) -> Result<[Option<Value<'a>>; N], JsonError> {
        self.object_fields_with(names, |_, reader| reader.skip_value())
    }

    /// [`Reader::object_fields`], handing every member *not* in `names` to
    /// `other` with the cursor on its value, which `other` must consume —
    /// the hook for decoding a nested object in place instead of skipping
    /// it.
    pub fn object_fields_with<const N: usize>(
        &mut self,
        names: &[&str; N],
        mut other: impl FnMut(&str, &mut Reader<'a>) -> Result<(), JsonError>,
    ) -> Result<[Option<Value<'a>>; N], JsonError> {
        let mut slots: [Option<Value<'a>>; N] = std::array::from_fn(|_| None);
        if !self.begin_object()? {
            self.skip_value()?;
            return Ok(slots);
        }
        let mut expected = 0;
        while let Some(key) = self.next_key()? {
            let index = if names.get(expected) == Some(&&*key) {
                Some(expected)
            } else {
                names.iter().position(|&name| name == key)
            };
            match index {
                Some(i) if slots[i].is_none() => {
                    slots[i] = Some(self.value()?);
                    expected = i + 1;
                }
                Some(_) => self.skip_value()?,
                None => other(&key, self)?,
            }
        }
        Ok(slots)
    }

    /// Require the rest of the input to be whitespace.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.error("trailing characters after document"));
        }
        Ok(())
    }

    /// The value at the cursor as a [`Json`] tree (what [`parse`] builds).
    fn tree(&mut self) -> Result<Json, JsonError> {
        if self.begin_object()? {
            let mut pairs = Vec::new();
            while let Some(key) = self.next_key()? {
                pairs.push((key.into_owned(), self.tree()?));
            }
            return Ok(Json::Object(pairs));
        }
        if self.begin_array()? {
            let mut items = Vec::new();
            while self.next_item()? {
                items.push(self.tree()?);
            }
            return Ok(Json::Array(items));
        }
        Ok(match self.scalar()? {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(b),
            Value::UInt(v) => Json::UInt(v),
            Value::Int(v) => Json::Int(v),
            Value::Float(v) => Json::Float(v),
            Value::Str(s) => Json::Str(s.into_owned()),
            // `scalar` yields neither; containers were handled above.
            Value::Array(_) | Value::Object => Json::Null,
        })
    }

    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    /// Enter a container opened by `bracket`, if one is next, enforcing
    /// the depth cap.
    fn open(&mut self, bracket: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.peek() != Some(bracket) {
            return Ok(false);
        }
        if self.depth == MAX_PARSE_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_PARSE_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        self.fresh = true;
        Ok(true)
    }

    /// Step to the next element of the innermost container: `true` when
    /// one follows, `false` when its `close` bracket was consumed.
    fn advance(&mut self, close: u8, what: &str) -> Result<bool, JsonError> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.fresh, false);
        match self.peek() {
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            _ if first => Ok(true),
            _ => Err(self.error(format!("expected ',' or '{}' in {what}", close as char))),
        }
    }

    fn literal(&mut self, lit: &str, value: Value<'a>) -> Result<Value<'a>, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {lit:?}")))
        }
    }

    /// A non-container value at the cursor.
    fn scalar(&mut self) -> Result<Value<'a>, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character {:?}", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// A string at the cursor: borrowed from the input when it holds no
    /// escapes, decoded into an owned copy otherwise.  (Every slice bound
    /// below sits next to an ASCII byte, so it is a char boundary.)
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        let special = self.text.as_bytes()[start..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20);
        match special.map(|n| (start + n, self.text.as_bytes()[start + n])) {
            Some((end, b'"')) => {
                self.pos = end + 1;
                return Ok(Cow::Borrowed(&self.text[start..end]));
            }
            Some((at, b'\\')) => self.pos = at,
            Some((at, _)) => {
                self.pos = at;
                return Err(self.error("control character in string"));
            }
            None => {
                self.pos = self.text.len();
                return Err(self.error("unterminated string"));
            }
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(c) if c < 0x20 => return Err(self.error("control character in string")),
                Some(_) => {
                    let run = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[run..self.pos]);
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Decode one escape sequence (the cursor is past the backslash).
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(esc) = self.peek() else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let code = self.hex4()?;
                // Surrogate pairs for astral-plane characters.
                let ch = if (0xD800..0xDC00).contains(&code) {
                    if self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let low = self.hex4()?;
                        if (0xDC00..0xE000).contains(&low) {
                            char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                        } else {
                            None
                        }
                    } else {
                        None
                    }
                } else {
                    char::from_u32(code)
                };
                match ch {
                    Some(ch) => out.push(ch),
                    None => return Err(self.error("invalid \\u escape")),
                }
            }
            other => return Err(self.error(format!("invalid escape \\{}", other as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Step over the number grammar at the cursor (sign, digits, fraction,
    /// exponent); returns whether it had a fraction or an exponent.
    fn scan_number(&mut self) -> bool {
        let digits = |this: &mut Self| {
            this.pos += this.text.as_bytes()[this.pos..]
                .iter()
                .take_while(|c| c.is_ascii_digit())
                .count();
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            digits(self);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        is_float
    }

    /// A number at the cursor, scanned in place: integers stay exact
    /// ([`Value::UInt`] / [`Value::Int`]) when they fit.
    fn number(&mut self) -> Result<Value<'a>, JsonError> {
        let start = self.pos;
        let is_float = self.scan_number();
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| JsonError {
                message: format!("invalid number {text:?}"),
                offset: start,
            })
    }
}

/// Order-insensitive structural comparison helper used by tests: objects are
/// compared as maps, numbers through `as_f64`.
pub fn structurally_equal(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Array(xs), Json::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| structurally_equal(x, y))
        }
        (Json::Object(xs), Json::Object(ys)) => {
            let xm: BTreeMap<_, _> = xs.iter().map(|(k, v)| (k, v)).collect();
            let ym: BTreeMap<_, _> = ys.iter().map(|(k, v)| (k, v)).collect();
            xm.len() == ym.len()
                && xm
                    .iter()
                    .all(|(k, x)| ym.get(k).is_some_and(|y| structurally_equal(x, y)))
        }
        (Json::Str(x), Json::Str(y)) => x == y,
        (Json::Bool(x), Json::Bool(y)) => x == y,
        (Json::Null, Json::Null) => true,
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_typical_document() {
        let doc = Json::object([
            ("name", "fig2".into()),
            ("scale", 32u64.into()),
            ("ok", true.into()),
            ("seed", Json::Null),
            (
                "records",
                Json::Array(vec![Json::object([
                    ("cycles", u64::MAX.into()),
                    ("mpki", 0.125f64.into()),
                    ("label", "ws-rand@7".into()),
                ])]),
            ),
        ]);
        let text = doc.to_string_pretty();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn u64_counters_round_trip_exactly() {
        for v in [0u64, 1, 1 << 53, u64::MAX - 1, u64::MAX] {
            let text = Json::UInt(v).to_string_pretty();
            assert_eq!(parse(&text).unwrap().as_u64(), Some(v), "{v}");
        }
    }

    #[test]
    fn floats_round_trip() {
        for v in [0.0f64, -1.5, 1e-9, 123456.789, f64::MAX] {
            let text = Json::Float(v).to_string_pretty();
            let parsed = parse(&text).unwrap();
            assert_eq!(parsed.as_f64(), Some(v), "{v}");
        }
        // Whole-number floats come back as integers but coerce cleanly.
        assert_eq!(parse("3").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn string_escapes() {
        let s = "tab\t quote\" back\\ newline\n unicode→ nul\u{1}";
        let text = Json::Str(s.to_string()).to_string_pretty();
        assert_eq!(parse(&text).unwrap().as_str(), Some(s));
        assert_eq!(parse(r#""Aé😀""#).unwrap().as_str(), Some("Aé😀"));
        // A valid surrogate pair decodes; a high surrogate followed by
        // anything but a low surrogate is rejected, not silently mangled.
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert!(parse(r#""\uD800A""#).is_err(), "unpaired high surrogate");
        assert!(
            parse(r#""\uD800\u0041""#).is_err(),
            "high surrogate + BMP escape"
        );
        assert_eq!(parse(r#""\uD83D\uDE00""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn negative_and_float_numbers() {
        assert_eq!(parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(parse("-0.5").unwrap(), Json::Float(-0.5));
        assert_eq!(parse("2e3").unwrap(), Json::Float(2000.0));
    }

    #[test]
    fn nesting_is_capped_not_crashing() {
        // Under the cap: parses fine.
        let deep_ok = format!("{}0{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&deep_ok).is_ok());
        // Past the cap (including pathological megabyte-scale `[[[[…`):
        // a typed error, not a stack overflow.
        for n in [MAX_PARSE_DEPTH + 1, 100_000] {
            let deep = "[".repeat(n);
            let err = parse(&deep).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
        let mixed = "[{\"k\":".repeat(MAX_PARSE_DEPTH);
        assert!(parse(&mixed).unwrap_err().message.contains("nesting"));
    }

    #[test]
    fn errors_carry_offsets() {
        for bad in ["{", "[1,]", "\"abc", "tru", "{\"a\" 1}", "1 2", ""] {
            let err = parse(bad).unwrap_err();
            assert!(err.offset <= bad.len(), "{bad:?}: {err}");
        }
    }

    #[test]
    fn get_and_accessors() {
        let doc = parse(r#"{"a": 1, "b": [true, null], "c": "x"}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            doc.get("b").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(
            doc.get("b").unwrap().as_array().unwrap()[0].as_bool(),
            Some(true)
        );
        assert!(doc.get("b").unwrap().as_array().unwrap()[1].is_null());
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("missing"), None);
    }

    /// The float rendering rule spelled with `format!`, as a reference.
    fn reference_f64(v: f64) -> String {
        if !v.is_finite() {
            return "null".to_string();
        }
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            s + ".0"
        }
    }

    #[test]
    fn number_writers_match_std_formatting() {
        for v in [0u64, 1, 9, 10, 99, 100, 1 << 53, u64::MAX - 1, u64::MAX] {
            let mut out = String::new();
            write_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            1e-9,
            1e300,
            123456.789,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let mut out = String::from("prefix.");
            write_f64(&mut out, v);
            assert_eq!(out, format!("prefix.{}", reference_f64(v)), "{v}");
        }
    }

    #[test]
    fn writer_matches_the_tree_compact_and_pretty() {
        let tree = Json::object([
            ("name", "q\"u\\o\nte\u{1}→".into()),
            ("n", 7u64.into()),
            ("x", 0.5f64.into()),
            ("nan", f64::NAN.into()),
            ("none", Json::Null),
            ("ok", false.into()),
            ("empty_obj", Json::Object(Vec::new())),
            ("empty_arr", Json::Array(Vec::new())),
            (
                "items",
                Json::Array(vec![
                    Json::object([("a", 1u64.into())]),
                    Json::Array(vec!["s".into()]),
                ]),
            ),
        ]);
        let write = |value: ValueWriter<'_>| {
            value.object(|o| {
                o.key("name").str("q\"u\\o\nte\u{1}→");
                o.key("n").u64(7);
                o.key("x").opt_f64(Some(0.5));
                o.key("nan").f64(f64::NAN);
                o.key("none").opt_str(None);
                o.key("ok").bool(false);
                o.key("empty_obj").object(|_| {});
                o.key("empty_arr").array(|_| {});
                o.key("items").array(|a| {
                    a.item().object(|o| o.key("a").u64(1));
                    a.item().array(|a| a.item().str("s"));
                });
            })
        };
        let mut compact = String::new();
        write(ValueWriter::compact(&mut compact));
        assert_eq!(compact, tree.to_string_compact());
        let mut pretty = String::new();
        write(ValueWriter::pretty(&mut pretty, 0));
        pretty.push('\n');
        assert_eq!(pretty, tree.to_string_pretty());
    }

    #[test]
    fn reader_picks_fields_like_get() {
        let text = r#" { "b" : [1, -2, 2.5, "s", null, {"deep": [true]}],
            "\u0061": "first", "a": "dup", "skip": {"x": [1, {"y": "\n"}]},
            "o": {"k": 1} } "#;
        let mut reader = Reader::new(text);
        let [a, b, o, missing] = reader.object_fields(&["a", "b", "o", "missing"]).unwrap();
        reader.finish().unwrap();
        let tree = parse(text).unwrap();
        // An escaped key matches, and the first duplicate wins.
        assert_eq!(a.unwrap().as_str(), tree.get("a").and_then(Json::as_str));
        let Some(Value::Array(items)) = b else {
            panic!("array")
        };
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1], Value::Int(-2));
        assert_eq!(items[2].as_f64(), Some(2.5));
        assert_eq!(items[3].as_str(), Some("s"));
        assert_eq!(items[4], Value::Null);
        assert_eq!(items[5], Value::Object);
        assert_eq!(o, Some(Value::Object));
        assert_eq!(missing, None);

        // A non-object leaves every slot empty; trailing garbage and
        // malformed members are errors, not panics.
        let mut reader = Reader::new("[1, 2]");
        assert_eq!(reader.object_fields(&["a"]).unwrap(), [None]);
        reader.finish().unwrap();
        let mut reader = Reader::new(r#"{"a": 1} x"#);
        reader.object_fields(&["a"]).unwrap();
        assert!(reader.finish().is_err());
        for bad in [
            r#"{"a" 1}"#,
            r#"{"a": 1,}"#,
            r#"{"a": [1 2]}"#,
            r#"{"a": "\q"}"#,
            "{",
        ] {
            assert!(Reader::new(bad).object_fields(&["a"]).is_err(), "{bad}");
        }
    }

    #[test]
    fn reader_borrows_unescaped_strings() {
        let mut reader = Reader::new(r#"["plain", "esc\"aped"]"#);
        let Value::Array(items) = reader.value().unwrap() else {
            panic!("array")
        };
        assert!(matches!(&items[0], Value::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&items[1], Value::Str(Cow::Owned(s)) if s == "esc\"aped"));
    }

    #[test]
    fn reader_caps_nesting_in_skipped_members() {
        let deep = format!(r#"{{"x": {}0{}}}"#, "[".repeat(200), "]".repeat(200));
        let err = Reader::new(&deep).object_fields(&["a"]).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn structural_equality_ignores_key_order() {
        let a = parse(r#"{"x": 1, "y": 2.0}"#).unwrap();
        let b = parse(r#"{"y": 2, "x": 1}"#).unwrap();
        assert!(structurally_equal(&a, &b));
    }
}
