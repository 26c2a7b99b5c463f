//! The workspace's one hand-rolled JSON layer: a minimal reader, typed
//! member accessors, an ordered-object writer, and the [`ImplReport`]
//! codec that store documents, synth replies and the Table V exports
//! share.
//!
//! This workspace builds with zero registry access, so no serde. The
//! reader serves the daemon's line protocol, the artifact store's
//! on-disk documents and the `validate` bin. The writer ([`Obj`])
//! renders every document the workspace emits, **byte-deterministic**:
//! members keep insertion order, each scalar's text is chosen by the
//! caller (`{:.4}`, shortest round-trip `Display`, u64 hashes and
//! seeds as strings), and there are no timestamps.

use std::fmt;

use rgf2m_fpga::ImplReport;

/// A parsed JSON value (minimal reader; objects keep insertion order).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Required member `key` of an object.
    pub fn field(&self, key: &str) -> Result<&JsonValue, String> {
        self.get(key).ok_or_else(|| format!("missing \"{key}\""))
    }

    /// Required string member `key`.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("missing \"{key}\""))
    }

    /// Required numeric member `key`.
    pub fn num_field(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing numeric \"{key}\""))
    }

    /// Required boolean member `key`.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.get(key)
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| format!("missing boolean \"{key}\""))
    }

    /// Required array member `key`.
    pub fn array_field(&self, key: &str) -> Result<&[JsonValue], String> {
        self.get(key)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("missing \"{key}\" array"))
    }

    /// Required count member `key`: a non-negative integer that fits
    /// in `T`.
    pub fn count_field<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let v = self.num_field(key)?;
        let whole = v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64;
        whole
            .then(|| T::try_from(v as u64).ok())
            .flatten()
            .ok_or_else(|| format!("\"{key}\" = {v} is not a count"))
    }
}

/// A value for the writer: a scalar whose text the caller has chosen,
/// an array, or an ordered object.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A scalar's final text (`12`, `9.7000`, `"x"`, `true`, `null`).
    Raw(String),
    /// An array.
    Arr(Vec<Json>),
    /// An ordered object.
    Obj(Obj),
}

impl Json {
    /// A number in its `Display` text: integers as they are, floats in
    /// Rust's shortest round-trip form.
    pub fn num(v: impl fmt::Display) -> Json {
        Json::Raw(v.to_string())
    }

    /// A float with `digits` decimals.
    pub fn fixed(v: f64, digits: usize) -> Json {
        Json::Raw(format!("{v:.digits$}"))
    }

    /// Renders this value into `out`. `indent` is `None` for the inline
    /// form, or the indentation of the line the value starts on in the
    /// document form, where an array holding an object puts each
    /// element on its own line.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Raw(text) => out.push_str(text),
            Json::Obj(obj) => {
                out.push('{');
                for (i, (key, value, _)) in obj.members.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { ", " });
                    out.push_str(&format!("{}: ", json_string(key)));
                    value.write(out, indent);
                }
                out.push('}');
            }
            Json::Arr(items) => match indent {
                Some(indent) if items.iter().any(|v| matches!(v, Json::Obj(_))) => {
                    write_lines(out, items, indent)
                }
                _ => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(if i == 0 { "" } else { ", " });
                        item.write(out, indent);
                    }
                    out.push(']');
                }
            },
        }
    }
}

/// Writes `items` one per line, indented one level deeper than
/// `indent`, with the closing bracket back at `indent`.
fn write_lines(out: &mut String, items: &[Json], indent: usize) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        out.push_str(&format!("{comma}\n{:1$}", "", indent + 2));
        item.write(out, Some(indent + 2));
    }
    out.push_str(&format!("\n{:1$}]", "", indent));
}

impl fmt::Display for Json {
    /// The inline form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

impl From<Obj> for Json {
    fn from(obj: Obj) -> Json {
        Json::Obj(obj)
    }
}

/// An ordered JSON object under construction: members render in the
/// order they were added, either [inline](Obj::inline) as
/// `{"k": v, ...}` or as a [document](Obj::document).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Obj {
    /// Key, value, and whether the document form prints the member on
    /// the previous member's line.
    members: Vec<(String, Json, bool)>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Appends member `key`.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Obj {
        self.members.push((key.to_string(), value.into(), false));
        self
    }

    /// Appends `key` with `v`'s `Display` text (see [`Json::num`]).
    pub fn num(self, key: &str, v: impl fmt::Display) -> Obj {
        self.set(key, Json::num(v))
    }

    /// Appends `key` as `true` or `false`.
    pub fn bool(self, key: &str, b: bool) -> Obj {
        self.num(key, b)
    }

    /// Appends `key` as a float with `digits` decimals.
    pub fn fixed(self, key: &str, v: f64, digits: usize) -> Obj {
        self.set(key, Json::fixed(v, digits))
    }

    /// Appends `key` as a quoted string.
    pub fn str(self, key: &str, s: &str) -> Obj {
        self.set(key, Json::Raw(json_string(s)))
    }

    /// Appends `key` as an array.
    pub fn arr<T: Into<Json>>(self, key: &str, items: impl IntoIterator<Item = T>) -> Obj {
        self.set(key, Json::Arr(items.into_iter().map(Into::into).collect()))
    }

    /// Appends every `(key, value)` pair, in order.
    pub fn extend(self, members: impl IntoIterator<Item = (&'static str, Json)>) -> Obj {
        members
            .into_iter()
            .fold(self, |obj, (key, value)| obj.set(key, value))
    }

    /// Puts the last member on the previous member's line in the
    /// document form (`"m": 8, "n": 2`).
    pub fn same_line(mut self) -> Obj {
        if let Some(last) = self.members.last_mut() {
            last.2 = true;
        }
        self
    }

    /// The one-line form, with no trailing newline: a wire line.
    pub fn inline(self) -> String {
        Json::Obj(self).to_string()
    }

    /// The document form, ending in a newline: root members one per
    /// line, every root array and every array holding an object one
    /// element per line.
    pub fn document(self) -> String {
        let mut out = String::from("{");
        for (i, (key, value, same_line)) in self.members.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let gap = if *same_line { " " } else { "\n  " };
            out.push_str(&format!("{comma}{gap}{}: ", json_string(key)));
            match value {
                Json::Arr(items) => write_lines(&mut out, items, 2),
                value => value.write(&mut out, Some(2)),
            }
        }
        out.push_str("\n}\n");
        out
    }
}

/// The deepest array/object nesting [`parse_json`] accepts. The reader
/// recurses once per level, so a cap keeps hostile input (say, one
/// line of 100 000 `[`) an `Err` instead of a stack overflow.
pub const MAX_NESTING: usize = 128;

/// Parses a JSON document (UTF-8 input; `\uXXXX` escapes including
/// UTF-16 surrogate pairs are decoded, malformed ones rejected; arrays
/// and objects nested deeper than [`MAX_NESTING`] are rejected).
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

/// Quotes and escapes a string for JSON output.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The measured members of `report`, in the order the Table V exports
/// and synth replies list them (the report's `name` travels
/// separately; `area_time` is the derived LUTs × ns product). Floats
/// are written by `float`: [`Json::num`] where [`decode_report`] must
/// get the same bits back, [`Json::fixed`] for the exports.
pub fn report_members(report: &ImplReport, float: fn(f64) -> Json) -> [(&'static str, Json); 13] {
    let r = report;
    [
        ("luts", Json::num(r.luts)),
        ("slices", Json::num(r.slices)),
        ("depth", Json::num(r.depth)),
        ("time_ns", float(r.time_ns)),
        ("area_time", float(r.area_time())),
        ("dup_gates", Json::num(r.dup_gates)),
        ("dead_nodes", Json::num(r.dead_nodes)),
        ("and_depth", Json::num(r.and_depth)),
        ("xor_depth", Json::num(r.xor_depth)),
        ("and_gates", Json::num(r.and_gates)),
        ("xor_gates", Json::num(r.xor_gates)),
        ("dedup_saved", Json::num(r.dedup_saved)),
        ("worst_slack_ns", float(r.worst_slack_ns)),
    ]
}

/// Reads an [`ImplReport`] back out of an object holding `name` and
/// the members [`report_members`] lists, in any order (`area_time` and
/// other extra members are ignored).
pub fn decode_report(obj: &JsonValue) -> Result<ImplReport, String> {
    Ok(ImplReport {
        name: obj.str_field("name")?.to_string(),
        luts: obj.count_field("luts")?,
        slices: obj.count_field("slices")?,
        depth: obj.count_field("depth")?,
        time_ns: obj.num_field("time_ns")?,
        dup_gates: obj.count_field("dup_gates")?,
        dead_nodes: obj.count_field("dead_nodes")?,
        worst_slack_ns: obj.num_field("worst_slack_ns")?,
        and_depth: obj.count_field("and_depth")?,
        xor_depth: obj.count_field("xor_depth")?,
        and_gates: obj.count_field("and_gates")?,
        xor_gates: obj.count_field("xor_gates")?,
        dedup_saved: obj.count_field("dedup_saved")?,
    })
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

/// Parses one value opened inside `depth` arrays/objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_NESTING => Err(format!(
            "nesting deeper than {MAX_NESTING} levels at byte {pos}"
        )),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                pairs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(pairs));
                    }
                    other => return Err(format!("expected ',' or '}}', found {other:?}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    other => return Err(format!("expected ',' or ']', found {other:?}")),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos:?}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
}

/// Reads the four hex digits of a `\uXXXX` escape starting at `at`.
fn parse_hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let hex = b
        .get(at..at + 4)
        .ok_or("truncated \\u escape".to_string())?;
    u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
        .map_err(|e| e.to_string())
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = Vec::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'u') => {
                        let mut code = parse_hex4(b, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..=0xDBFF).contains(&code) {
                            // High surrogate: must pair with a \uXXXX
                            // low surrogate to form one scalar value.
                            if b.get(*pos + 1..*pos + 3) != Some(br"\u".as_slice()) {
                                return Err("high surrogate without \\u pair".into());
                            }
                            let low = parse_hex4(b, *pos + 3)?;
                            if !(0xDC00..=0xDFFF).contains(&low) {
                                return Err(format!("invalid low surrogate {low:#06x}"));
                            }
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            *pos += 6;
                        }
                        let c = char::from_u32(code).ok_or("bad \\u escape".to_string())?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            c => {
                out.push(c);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_scalars_and_nesting() {
        let v = parse_json(r#"{"a": [1, -2.5, "x\n\"y\"", true, false, null], "b": {}}"#).unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_str(), Some("x\n\"y\""));
        assert_eq!(arr[3].as_bool(), Some(true));
        assert_eq!(arr[4].as_bool(), Some(false));
        assert_eq!(arr[5], JsonValue::Null);
        assert_eq!(v.get("b"), Some(&JsonValue::Obj(vec![])));
    }

    #[test]
    fn json_rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "{} x",
            "\"unterminated",
            r#""\ud83d alone""#, // high surrogate without its pair
            r#""\ud83dA""#,      // high surrogate + non-surrogate
            r#""\udE00""#,       // bare low surrogate
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn json_nesting_is_capped_without_recursing_to_overflow() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nest(MAX_NESTING)).is_ok());
        let err = parse_json(&nest(MAX_NESTING + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(parse_json(&"[".repeat(100_000)).is_err());
        assert!(parse_json(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn json_decodes_unicode_escapes_including_surrogate_pairs() {
        // é = é (BMP), 😀 = U+1F600 (surrogate pair).
        let v = parse_json("\"caf\\u00e9 \\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("café \u{1F600}"));
        // Raw UTF-8 passes through untouched too.
        let raw = parse_json("\"café \u{1F600}\"").unwrap();
        assert_eq!(raw.as_str(), Some("café \u{1F600}"));
    }

    #[test]
    fn json_string_escaping_roundtrips() {
        let nasty = "line\nbreak \"quoted\" back\\slash \t tab \u{1} ctrl";
        let doc = format!("{{\"s\": {}}}", json_string(nasty));
        let parsed = parse_json(&doc).unwrap();
        assert_eq!(parsed.get("s").and_then(JsonValue::as_str), Some(nasty));
    }

    #[test]
    fn floats_written_with_display_roundtrip_exactly() {
        // The artifact store and the line protocol serialize f64 with
        // Rust's shortest round-trip `Display`; the reader must get the
        // identical bits back. Probe a spread of awkward values.
        for v in [
            0.0,
            9.7,
            1.0 / 3.0,
            8.654_321_012_345,
            f64::MIN_POSITIVE,
            123_456_789.987_654_32,
            -0.000_001_234_567_890_1,
        ] {
            let doc = format!("{{\"v\": {v}}}");
            let parsed = parse_json(&doc).unwrap();
            let back = parsed.get("v").and_then(JsonValue::as_f64).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} did not roundtrip");
        }
    }

    fn sample() -> Obj {
        let check = |name: &str| Obj::new().str("check", name).bool("ok", true);
        Obj::new()
            .str("schema", "x/1")
            .num("m", 8)
            .num("n", 2)
            .same_line()
            .set(
                "field",
                Obj::new().fixed("t", 1.0 / 3.0, 4).arr("e", [Json::num(1)]),
            )
            .arr(
                "cells",
                [
                    Obj::new()
                        .str("a", "q\"uote")
                        .arr("checks", [check("lint"), check("area")]),
                    Obj::new().arr("checks", Vec::<Obj>::new()),
                ],
            )
            .arr("rows", Vec::<Obj>::new())
    }

    #[test]
    fn document_form_puts_object_arrays_one_element_per_line() {
        assert_eq!(
            sample().document(),
            r#"{
  "schema": "x/1",
  "m": 8, "n": 2,
  "field": {"t": 0.3333, "e": [1]},
  "cells": [
    {"a": "q\"uote", "checks": [
      {"check": "lint", "ok": true},
      {"check": "area", "ok": true}
    ]},
    {"checks": []}
  ],
  "rows": [
  ]
}
"#
        );
    }

    #[test]
    fn inline_form_is_one_line_and_reads_back() {
        let line = sample().inline();
        assert!(!line.contains('\n'), "{line}");
        let doc = parse_json(&line).unwrap();
        assert_eq!(doc, parse_json(&sample().document()).unwrap());
        assert_eq!(doc.str_field("schema"), Ok("x/1"));
        assert_eq!(doc.count_field::<u32>("m"), Ok(8));
        let cells = doc.array_field("cells").unwrap();
        assert_eq!(cells[0].str_field("a"), Ok("q\"uote"));
        assert_eq!(cells[0].array_field("checks").unwrap().len(), 2);
        assert_eq!(doc.get("field").unwrap().num_field("t"), Ok(0.3333));
    }

    #[test]
    fn typed_accessors_name_the_missing_or_mistyped_member() {
        let doc = parse_json(r#"{"s": "x", "n": -1.5, "b": true}"#).unwrap();
        assert_eq!(doc.num_field("s").unwrap_err(), "missing numeric \"s\"");
        assert_eq!(doc.str_field("n").unwrap_err(), "missing \"n\"");
        assert_eq!(doc.bool_field("x").unwrap_err(), "missing boolean \"x\"");
        assert_eq!(doc.array_field("b").unwrap_err(), "missing \"b\" array");
        assert_eq!(
            doc.count_field::<usize>("n").unwrap_err(),
            "\"n\" = -1.5 is not a count"
        );
        assert_eq!(doc.bool_field("b"), Ok(true));
        assert!(doc.field("nope").is_err());
        // A count must fit its type: 2^32 is a u64 but not a u32.
        let wide = parse_json(r#"{"d": 4294967296}"#).unwrap();
        assert_eq!(wide.count_field::<u64>("d"), Ok(1 << 32));
        assert!(wide.count_field::<u32>("d").is_err());
    }
}
