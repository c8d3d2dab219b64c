//! The workspace's one JSON layer. `BENCH_*.json` reports and
//! `merrimac-lint --json` build a [`Json`] value ([`ToJson`]) and write it
//! with [`render`]; readers [`parse`] it and take it apart with
//! [`Json::field`] ([`FromJson`]), every field required. A non-finite
//! float is written as `null` and read back as `0.0`; a count is an
//! integer literal, and [`Json::as_u64`] takes only those up to 2^53, the
//! range an `f64` holds exactly. [`parse`] never panics: bad input,
//! duplicate keys and nesting deeper than 128 are errors at a byte offset.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// An integer literal that fits a `u64`.
    Int(u64),
    /// Any other number.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in document order; keys are unique.
    Obj(Vec<(String, Json)>),
}

/// Deepest array / object nesting [`parse`] accepts.
const MAX_DEPTH: usize = 128;

impl Json {
    /// An object with `members` in the given order.
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(members.map(|(k, v)| (k.to_string(), v)).into())
    }

    /// This object with `value` appended under `key`; other values are
    /// returned unchanged.
    pub fn with(mut self, key: &str, value: Json) -> Json {
        if let Json::Obj(members) = &mut self {
            members.push((key.to_string(), value));
        }
        self
    }

    /// Object member lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The member `key`, or an error naming it.
    pub fn member(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing key `{key}`"))
    }

    /// The member `key` read as a `T`; the error names the key.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, String> {
        T::from_json(self.member(key)?).map_err(|e| format!("`{key}`: {e}"))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// A non-negative integer literal no larger than 2^53.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n <= 1 << 53 => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// A value written as JSON: every report record, and the scalars and
/// containers its fields are made of.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

/// A type read back from the [`Json`] its writer built. Every field is
/// required; an error names the missing or mistyped key.
pub trait FromJson: Sized {
    fn from_json(v: &Json) -> Result<Self, String>;
}

macro_rules! scalars {
    ($($t:ty: |$x:ident| $to:expr, $what:literal => $from:expr;)*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let $x = self;
                $to
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, String> {
                let from: fn(&Json) -> Option<$t> = $from;
                from(v).ok_or_else(|| format!("expected {}", $what))
            }
        }
    )*};
}

scalars! {
    u64: |n| Json::Int(*n), "an integer in 0..=2^53" => Json::as_u64;
    u32: |n| Json::Int(u64::from(*n)), "a 32-bit count" => |v| v.as_u64()?.try_into().ok();
    usize: |n| Json::Int(*n as u64), "a count" => |v| v.as_u64()?.try_into().ok();
    // `null` is how `render` writes a non-finite value.
    f64: |x| Json::Num(*x), "a number" => |v| if *v == Json::Null { Some(0.0) } else { v.as_f64() };
    bool: |b| Json::Bool(*b), "a boolean" => |v| match v { Json::Bool(b) => Some(*b), _ => None };
    String: |s| Json::Str(s.clone()), "a string" => |v| v.as_str().map(str::to_string);
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        let items = v.as_arr().ok_or("expected an array")?.iter().enumerate();
        items
            .map(|(i, item)| T::from_json(item).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

/// An object literal, `obj! { "key": value, ... }`, each value written
/// with [`ToJson`].
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Json::obj([$(($key, $crate::json::ToJson::to_json(&$value))),*])
    };
}

/// [`ToJson`] and [`FromJson`] for a struct written as an object with
/// one member per listed field, named after the field.
macro_rules! json_record {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let members = [$((stringify!($field), $crate::json::ToJson::to_json(&self.$field))),*];
                $crate::json::Json::obj(members)
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, String> {
                Ok(Self { $($field: v.field(stringify!($field))?),* })
            }
        }
    };
}

pub(crate) use {json_record, obj};

/// Render `v` as a document ending in a newline. An object or array
/// whose members are all scalars goes on one line; any other puts one
/// member per line, indented two spaces per level.
pub fn render(v: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, v, 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, v: &Json, indent: usize) {
    let (brackets, members): (_, Vec<(Option<&str>, &Json)>) = match v {
        Json::Arr(items) => ("[]", items.iter().map(|v| (None, v)).collect()),
        Json::Obj(m) => ("{}", m.iter().map(|(k, v)| (Some(k.as_str()), v)).collect()),
        Json::Str(s) => return write_str(out, s),
        Json::Bool(b) => return out.push_str(&b.to_string()),
        Json::Int(n) => return out.push_str(&n.to_string()),
        Json::Num(x) if x.is_finite() => return out.push_str(&x.to_string()),
        Json::Null | Json::Num(_) => return out.push_str("null"),
    };
    let flat = members
        .iter()
        .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
    let newline = |out: &mut String, indent| out.push_str(&format!("\n{:indent$}", ""));
    out.push_str(&brackets[..1]);
    for (i, (key, v)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push_str(if flat { ", " } else { "," });
        }
        if !flat {
            newline(out, indent + 2);
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        write_value(out, v, indent + 2);
    }
    if !flat {
        newline(out, indent);
    }
    out.push_str(&brackets[1..]);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a complete JSON document (surrounding whitespace allowed). An
/// error names the byte offset where reading stopped.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut rest = text;
    let doc = value(&mut rest, 0).and_then(|v| {
        skip_ws(&mut rest);
        rest.is_empty()
            .then_some(v)
            .ok_or_else(|| "trailing garbage".into())
    });
    doc.map_err(|e| format!("{e} at byte {}", text.len() - rest.len()))
}

// Each reader below takes the unread input and advances it past what it
// read; on an error it is left where reading stopped.

fn skip_ws(s: &mut &str) {
    *s = s.trim_start_matches([' ', '\t', '\n', '\r']);
}

fn value(s: &mut &str, depth: usize) -> Result<Json, String> {
    skip_ws(s);
    match s.bytes().next() {
        None => Err("unexpected end of input".into()),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!("nesting deeper than {MAX_DEPTH}")),
        Some(b'[') => list(s, ']', |s, _| value(s, depth + 1)).map(Json::Arr),
        Some(b'{') => list(s, '}', |s, seen: &[(String, Json)]| {
            skip_ws(s);
            if !s.starts_with('"') {
                return Err("expected an object key".into());
            }
            let key = string(s)?;
            if seen.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key `{key}`"));
            }
            skip_ws(s);
            *s = s.strip_prefix(':').ok_or("expected `:`")?;
            Ok((key, value(s, depth + 1)?))
        })
        .map(Json::Obj),
        Some(b'"') => string(s).map(Json::Str),
        Some(b't') => literal(s, "true", Json::Bool(true)),
        Some(b'f') => literal(s, "false", Json::Bool(false)),
        Some(b'n') => literal(s, "null", Json::Null),
        Some(_) => number(s),
    }
}

fn literal(s: &mut &str, lit: &str, value: Json) -> Result<Json, String> {
    *s = s.strip_prefix(lit).ok_or(format!("expected `{lit}`"))?;
    Ok(value)
}

/// The comma-separated items of an array or object, from the opening
/// bracket through `close`; `item` reads one, given those before it.
fn list<T>(
    s: &mut &str,
    close: char,
    mut item: impl FnMut(&mut &str, &[T]) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    *s = &s[1..];
    let mut items = Vec::new();
    loop {
        skip_ws(s);
        if let Some(after) = s.strip_prefix(close) {
            *s = after;
            return Ok(items);
        }
        if !items.is_empty() {
            *s = s
                .strip_prefix(',')
                .ok_or(format!("expected `,` or `{close}`"))?;
        }
        let next = item(s, &items)?;
        items.push(next);
    }
}

/// A number: an unsigned integer literal that fits a `u64` is
/// [`Json::Int`], anything else what `f64`'s own parse makes of it.
fn number(s: &mut &str) -> Result<Json, String> {
    let end = s
        .find(|c| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(s.len());
    let lexeme = &s[..end];
    let invalid = |_| format!("invalid number `{lexeme}`");
    let value = match lexeme.parse() {
        Ok(n) if lexeme.bytes().all(|b| b.is_ascii_digit()) => Json::Int(n),
        _ => Json::Num(lexeme.parse().map_err(invalid)?),
    };
    *s = &s[end..];
    Ok(value)
}

fn string(s: &mut &str) -> Result<String, String> {
    *s = &s[1..];
    let mut out = String::new();
    loop {
        let run = s.find(['"', '\\']).ok_or("unterminated string")?;
        out.push_str(&s[..run]);
        let quote = s.as_bytes()[run] == b'"';
        *s = &s[run + 1..];
        if quote {
            return Ok(out);
        }
        let escape = s.chars().next().ok_or("unterminated string")?;
        out.push(match escape {
            '"' | '\\' | '/' => escape,
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            'b' => '\u{8}',
            'f' => '\u{c}',
            'u' => {
                let hex = s
                    .get(1..5)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                let code = u32::from_str_radix(hex.ok_or("bad \\u escape")?, 16).unwrap_or(0);
                *s = &s[4..];
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err("bad escape".into()),
        });
        *s = &s[1..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_report_shape() {
        let doc = r#"{
  "label": "t",
  "schema_version": 2,
  "variants": [
    {"variant": "fixed", "gflops": 12.5, "error": null, "ok": true},
    {"variant": "q\"uoted\n", "gflops": -1e-3, "ok": false}
  ]
}"#;
        let v = parse(doc).expect("parses");
        assert_eq!(v.get("schema_version").unwrap().as_u64(), Some(2));
        let variants = v.get("variants").unwrap().as_arr().unwrap();
        assert_eq!(variants.len(), 2);
        assert_eq!(variants[0].get("variant").unwrap().as_str(), Some("fixed"));
        assert_eq!(variants[0].get("error"), Some(&Json::Null));
        assert_eq!(
            variants[1].get("variant").unwrap().as_str(),
            Some("q\"uoted\n")
        );
        assert_eq!(variants[1].get("gflops").unwrap().as_f64(), Some(-1e-3));
        assert_eq!(variants[1].get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "{\"a\" 1}",
            "12..5",
            "\"unterminated",
            "{} extra",
            "\"bad \\u12\"",
            "\"bad \\é\"",
            "é",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-2").unwrap().as_u64(), None);
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
    }

    #[test]
    fn as_u64_is_exact_up_to_2_pow_53_and_none_beyond() {
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        // 2^53 + 1 is the first integer an f64 rounds; 2^64 overflows u64.
        for past in [
            "9007199254740993",
            "18446744073709551615",
            "18446744073709551616",
        ] {
            assert_eq!(parse(past).unwrap().as_u64(), None, "{past}");
        }
        // Still numbers: `as_f64` reads them as before.
        assert_eq!(
            parse("18446744073709551616").unwrap().as_f64(),
            Some(18446744073709551616.0)
        );
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn duplicate_keys_are_rejected_and_order_is_kept() {
        let err = parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap_err();
        assert!(err.contains("duplicate key `a`"), "{err}");
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let Json::Obj(members) = v else {
            panic!("an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn render_puts_flat_members_on_one_line_and_nested_ones_on_many() {
        let v = obj! {
            "name": "q\"\\\n\t\u{1}é".to_string(), "n": 7u64, "x": 1.5, "nan": f64::NAN,
            "inf": f64::NEG_INFINITY, "none": None::<u64>,
            "flat": obj! { "a": true, "b": 2u64 }, "empty": Vec::<u64>::new(),
            "deep": vec![obj! {}],
        };
        let text = render(&v);
        assert_eq!(
            text,
            "{\n  \"name\": \"q\\\"\\\\\\n\\t\\u0001é\",\n  \"n\": 7,\n  \"x\": 1.5,\n  \
             \"nan\": null,\n  \"inf\": null,\n  \"none\": null,\n  \
             \"flat\": {\"a\": true, \"b\": 2},\n  \"empty\": [],\n  \"deep\": [\n    {}\n  ]\n}\n"
        );
        let back = parse(&text).unwrap();
        assert_eq!(back.get("name"), v.get("name"));
        assert_eq!(back.get("nan"), Some(&Json::Null));
        assert_eq!(back.field::<f64>("inf"), Ok(0.0));
    }
}
