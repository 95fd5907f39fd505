//! A JSON writer for the benchmark's documents. The product's own
//! writers and parser know unsigned integers only; results hold
//! fractions.

use std::fmt::Write as _;

/// A JSON value; objects keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

/// Build an object from `(key, value)` pairs.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Append `s` as a JSON string literal (the product's one escaper).
pub fn push_str(out: &mut String, s: &str) {
    kagen_pipeline::manifest::push_str_value(out, s);
}

impl Json {
    /// Serialize on one line.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Serialize indented by two spaces per level, newline-terminated.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        let newline = |out: &mut String, level: usize| {
            if indent.is_some() {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', 2 * level));
            }
        };
        let level = indent.unwrap_or(0);
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // `{}` prints the shortest digits that read back to the same
            // f64, never an exponent; JSON has no NaN or infinity.
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => push_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, level + 1);
                    item.write(out, indent.map(|l| l + 1));
                }
                if !items.is_empty() {
                    newline(out, level);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, level + 1);
                    push_str(out, key);
                    out.push_str(": ");
                    value.write(out, indent.map(|l| l + 1));
                }
                if !fields.is_empty() {
                    newline(out, level);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kagen_pipeline::manifest::json as product;

    #[test]
    fn integer_documents_read_back_through_the_products_parser() {
        let doc = obj([
            ("name", "tab\there \"quoted\" \\ \u{1} é".into()),
            ("edges", Json::Int(u64::MAX)),
            ("ok", Json::Bool(true)),
            ("empty", Json::Arr(vec![])),
            (
                "shards",
                Json::Arr(vec![
                    obj([("pe", Json::Int(0))]),
                    obj([("pe", Json::Int(1))]),
                ]),
            ),
        ]);
        for text in [doc.to_line(), doc.to_pretty()] {
            let parsed = product::parse(&text).unwrap();
            let o = parsed.as_obj("doc").unwrap();
            assert_eq!(
                o.get("name").unwrap().as_str("name").unwrap(),
                "tab\there \"quoted\" \\ \u{1} é"
            );
            assert_eq!(o.get("edges").unwrap().as_u64("edges").unwrap(), u64::MAX);
            assert!(o.get("ok").unwrap().as_bool("ok").unwrap());
            assert!(o.get("empty").unwrap().as_arr("empty").unwrap().is_empty());
            let shards = o.get("shards").unwrap().as_arr("shards").unwrap();
            let pe1 = shards[1].as_obj("shard").unwrap().get("pe").unwrap();
            assert_eq!(pe1.as_u64("pe").unwrap(), 1);
        }
    }

    #[test]
    fn numbers_keep_all_their_digits_and_stay_json() {
        assert_eq!(Json::Num(1.2034512345).to_line(), "1.2034512345");
        assert_eq!(Json::Num(0.000000125).to_line(), "0.000000125");
        assert_eq!(Json::Num(3.0).to_line(), "3");
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
        assert_eq!(
            obj([("a", Json::Num(0.5)), ("b", Json::Arr(vec![Json::Int(1)]))]).to_line(),
            "{\"a\": 0.5,\"b\": [1]}"
        );
        assert_eq!(
            obj([("a", Json::Arr(vec![Json::Int(1)]))]).to_pretty(),
            "{\n  \"a\": [\n    1\n  ]\n}\n"
        );
    }
}
