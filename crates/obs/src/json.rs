//! The workspace's one JSON layer: a [`Value`] tree, a depth-capped
//! [`parse`], typed accessors, one string escaper
//! ([`push_str_value`]) and one writer with the two layouts the on-disk
//! documents use. Every file workers and the coordinator leave for each
//! other (`manifest.json`, `part-*.json`, `ledger.json`, heartbeats,
//! metrics and trace documents) is a struct converted to and from a
//! `Value`; nothing outside this module assembles or scans JSON text.
//! It lives in `kagen_obs` because this crate writes JSON itself and
//! sits below every other first-party crate.
//!
//! The subset is deliberate: objects (ordered key/value pairs), arrays,
//! strings, **unsigned 64-bit integers** and booleans. There are no
//! floats, no negative numbers and no `null` — wall times are integer
//! microseconds, absent data is an absent key — so every document
//! round-trips exactly and a reader never meets a value it has to
//! round. The `throughput` bench harness reports ratios and Meps as
//! floats and is therefore deliberately not a client: it formats its
//! own `BENCH_*.json`, which the product never reads.
//!
//! Input is untrusted: [`parse`] returns `Err` on anything malformed,
//! never panics, and refuses nesting deeper than [`MAX_DEPTH`] so a
//! hostile file cannot overflow the stack.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Deepest container nesting [`parse`] accepts. The deepest product
/// documents nest 4 levels: a run-metrics rank's `counters` (document →
/// `ranks` → rank → `counters`) and a federated trace's metadata `args`.
pub const MAX_DEPTH: usize = 32;

/// A JSON value of the supported subset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// Object as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
    /// Array.
    Arr(Vec<Value>),
    /// String.
    Str(String),
    /// Unsigned integer (the only number form).
    Num(u64),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(x: u64) -> Value {
        Value::Num(x)
    }
}

impl From<usize> for Value {
    fn from(x: usize) -> Value {
        Value::Num(x as u64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

/// Build an object from `(key, value)` pairs, in order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// How [`Value::render`] lays a document out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// No whitespace at all (`{"k":1,"a":[2]}`): heartbeats, metrics
    /// and trace documents.
    Compact,
    /// The `manifest.json` / `part-*.json` / `ledger.json` layout: the
    /// root object and the arrays directly inside it break one item per
    /// line (two-space indent), everything deeper stays on its line as
    /// `{"k": v, "k": v}`; the text ends in a newline.
    Pretty,
}

impl Value {
    /// Serialize in the given layout.
    pub fn render(&self, layout: Layout) -> String {
        let mut out = String::new();
        self.write(&mut out, layout, 0);
        if layout == Layout::Pretty {
            out.push('\n');
        }
        out
    }

    fn write(&self, out: &mut String, layout: Layout, depth: usize) {
        match self {
            Value::Num(x) => {
                let _ = write!(out, "{x}");
            }
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Str(s) => push_str_value(out, s),
            Value::Arr(items) => {
                let items = items.iter().map(|v| (None, v));
                write_container(out, layout, depth, ['[', ']'], items);
            }
            Value::Obj(fields) => {
                let items = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_container(out, layout, depth, ['{', '}'], items);
            }
        }
    }

    /// View as object.
    pub fn as_obj(&self, what: &str) -> Result<Obj<'_>, String> {
        match self {
            Value::Obj(fields) => Ok(Obj(fields)),
            _ => Err(format!("{what} is not an object")),
        }
    }

    /// View as array.
    pub fn as_arr(&self, what: &str) -> Result<&[Value], String> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => Err(format!("{what} is not an array")),
        }
    }

    /// View as string.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(format!("{what} is not a string")),
        }
    }

    /// View as unsigned integer.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Value::Num(x) => Ok(*x),
            _ => Err(format!("{what} is not an integer")),
        }
    }

    /// View as boolean.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("{what} is not a boolean")),
        }
    }
}

fn write_container<'a>(
    out: &mut String,
    layout: Layout,
    depth: usize,
    [open, close]: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Value)>,
) {
    let broken = layout == Layout::Pretty && depth < 2;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    out.push(open);
    for (i, (key, value)) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if broken {
            newline(out, depth + 1);
        } else if i > 0 && layout == Layout::Pretty {
            out.push(' ');
        }
        if let Some(key) = key {
            push_str_value(out, key);
            out.push_str(if layout == Layout::Pretty { ": " } else { ":" });
        }
        value.write(out, layout, depth + 1);
    }
    if broken {
        newline(out, depth);
    }
    out.push(close);
}

/// Append `s` as a JSON string literal, quotes and escapes included —
/// the one escaper of the workspace.
pub fn push_str_value(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Typed view of an object's fields.
#[derive(Clone, Copy, Debug)]
pub struct Obj<'a>(&'a [(String, Value)]);

impl<'a> Obj<'a> {
    /// The `(key, value)` pairs in document order.
    pub fn fields(&self) -> &'a [(String, Value)] {
        self.0
    }

    /// Look up a required key.
    pub fn get(&self, key: &str) -> Result<&'a Value, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key '{key}'"))
    }

    /// Required unsigned-integer field.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)?.as_u64(key)
    }

    /// Required string field.
    pub fn str(&self, key: &str) -> Result<&'a str, String> {
        self.get(key)?.as_str(key)
    }

    /// Required boolean field.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.get(key)?.as_bool(key)
    }

    /// Required array field.
    pub fn arr(&self, key: &str) -> Result<&'a [Value], String> {
        self.get(key)?.as_arr(key)
    }

    /// Required string field that must equal `tag` — the schema gate of
    /// every tagged document.
    pub fn expect_schema(&self, tag: &str) -> Result<(), String> {
        match self.str("schema")? {
            found if found == tag => Ok(()),
            found => Err(format!("unsupported schema '{found}' (expected '{tag}')")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parse a JSON document of the supported subset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// `depth` counts the containers already open around this value.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek()? {
            b'{' | b'[' if depth >= MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            b'{' => self.object(depth + 1),
            b'[' => self.array(depth + 1),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' | b'f' => self.boolean(),
            b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value(depth)?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                c => return Err(format!("expected ',' or '}}', got '{}'", c as char)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                c => return Err(format!("expected ',' or ']', got '{}'", c as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                }
                b => {
                    // Re-assemble UTF-8 multibyte sequences verbatim.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let slice = self
                        .bytes
                        .get(start..start + len)
                        .ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(slice).map_err(|e| e.to_string())?);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        // The digits are ASCII, so the slice is valid UTF-8.
        String::from_utf8_lossy(&self.bytes[start..self.pos])
            .parse::<u64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn boolean(&mut self) -> Result<Value, String> {
        let rest = &self.bytes[self.pos..];
        if rest.starts_with(b"true") {
            self.pos += 4;
            Ok(Value::Bool(true))
        } else if rest.starts_with(b"false") {
            self.pos += 5;
            Ok(Value::Bool(false))
        } else {
            Err(format!("expected boolean at byte {}", self.pos))
        }
    }
}

/// An [`io::ErrorKind::InvalidData`] error — what every reader of an
/// on-disk format returns for bytes that do not parse.
pub fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Read `path` and parse it with `from_json`; a parse failure becomes
/// an [`invalid`] error naming the file.
pub fn load<T>(path: &Path, from_json: impl FnOnce(&str) -> Result<T, String>) -> io::Result<T> {
    let text = std::fs::read_to_string(path)?;
    from_json(&text).map_err(|e| invalid(format!("{}: {e}", path.display())))
}

/// [`load`], with a missing file reported as `Ok(None)`.
pub fn load_optional<T>(
    path: &Path,
    from_json: impl FnOnce(&str) -> Result<T, String>,
) -> io::Result<Option<T>> {
    match load(path, from_json) {
        Ok(doc) => Ok(Some(doc)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Staged;

    fn sample() -> Value {
        obj([
            ("name", "tab\there \"quoted\" \\ \u{1} é".into()),
            ("n", u64::MAX.into()),
            ("ok", true.into()),
            ("empty", Value::Arr(vec![])),
            (
                "items",
                Value::Arr(vec![
                    obj([("pe", 0u64.into()), ("file", "a".into())]),
                    obj([("pe", 1u64.into()), ("nested", obj([("k", false.into())]))]),
                ]),
            ),
        ])
    }

    #[test]
    fn both_layouts_are_pinned_and_parse_back() {
        let v = sample();
        assert_eq!(
            v.render(Layout::Compact),
            "{\"name\":\"tab\\there \\\"quoted\\\" \\\\ \\u0001 é\",\"n\":18446744073709551615,\
             \"ok\":true,\"empty\":[],\"items\":[{\"pe\":0,\"file\":\"a\"},\
             {\"pe\":1,\"nested\":{\"k\":false}}]}"
        );
        assert_eq!(
            v.render(Layout::Pretty),
            "{\n  \"name\": \"tab\\there \\\"quoted\\\" \\\\ \\u0001 é\",\n  \
             \"n\": 18446744073709551615,\n  \"ok\": true,\n  \"empty\": [\n  ],\n  \
             \"items\": [\n    {\"pe\": 0, \"file\": \"a\"},\n    \
             {\"pe\": 1, \"nested\": {\"k\": false}}\n  ]\n}\n"
        );
        for layout in [Layout::Compact, Layout::Pretty] {
            assert_eq!(parse(&v.render(layout)).unwrap(), v);
        }
    }

    #[test]
    fn escape_handles_specials() {
        let mut s = String::new();
        push_str_value(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn typed_accessors_name_the_field() {
        let v = sample();
        let o = v.as_obj("doc").unwrap();
        assert_eq!(o.u64("n").unwrap(), u64::MAX);
        assert!(o.bool("ok").unwrap());
        assert_eq!(o.arr("items").unwrap().len(), 2);
        assert_eq!(o.u64("name").unwrap_err(), "name is not an integer");
        assert_eq!(o.str("absent").unwrap_err(), "missing key 'absent'");
        assert_eq!(v.as_arr("doc").unwrap_err(), "doc is not an array");
        assert!(o.expect_schema("x/v1").unwrap_err().contains("schema"));
    }

    #[test]
    fn malformed_input_is_an_error() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\": 1} x",
            "{\"a\" 1}",
            "{a: 1}",
            "[1 2]",
            "-1",
            "1.5",
            "null",
            "tru",
            "\"abc",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "99999999999999999999",
            "{\"a\": 1,}",
            "[,]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn nesting_is_capped_not_recursed() {
        // Unbounded recursion overflowed the stack on ~100 KB of `[`.
        let started = std::time::Instant::now();
        for open in ["[", "{\"a\":"] {
            let err = parse(&open.repeat(1 << 20)).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
        assert!(started.elapsed().as_secs() < 1);
        // The cap itself is inclusive.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn file_helpers_report_missing_bad_and_leave_no_tmp() {
        let dir = std::env::temp_dir().join("kagen_obs_json_files");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        std::fs::remove_file(&path).ok();
        assert!(load_optional(&path, parse).unwrap().is_none());
        assert_eq!(
            load(&path, parse).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        Staged::save_atomic(&path, "[1]").unwrap();
        assert!(!dir.join("doc.json.kagen-tmp").exists());
        assert_eq!(
            load_optional(&path, parse).unwrap(),
            Some(Value::Arr(vec![1u64.into()]))
        );
        Staged::save_atomic(&path, "[1").unwrap();
        let err = load(&path, parse).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("doc.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
