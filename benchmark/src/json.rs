//! Serializer for `qsim_telemetry::json::Json` (the workspace has no
//! serde; the telemetry crate ships the parser, this is its inverse) plus
//! small builders, so every file the harness writes round-trips through
//! the same parser the tests use.

pub use qsim_telemetry::json::{parse, Json};

pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn s(v: impl Into<String>) -> Json {
    Json::Str(v.into())
}

/// A JSON number. Non-finite values have no JSON spelling and would make
/// the whole result unparseable; they become 0 (every producer checks
/// its inputs, this is the last line of defence).
pub fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { 0.0 })
}

pub fn write(j: &Json) -> String {
    let mut out = String::new();
    write_into(j, &mut out);
    out
}

fn write_into(j: &Json, out: &mut String) {
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // `{}` prints the shortest decimal that round-trips, never an
        // exponent-less "inf"/"NaN" (filtered by `num`).
        Json::Num(n) => out.push_str(&format!("{n}")),
        Json::Str(s) => write_str(s, out),
        Json::Array(a) => {
            out.push('[');
            for (i, v) in a.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_into(v, out);
            }
            out.push(']');
        }
        Json::Object(o) => {
            out.push('{');
            for (i, (k, v)) in o.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(k, out);
                out.push_str(": ");
                write_into(v, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_the_telemetry_parser() {
        let j = obj(vec![
            ("name", s("a \"quoted\"\nline")),
            ("value", num(1.25e-7)),
            ("big", num(4294967296.0)),
            ("nan", num(f64::NAN)),
            ("list", Json::Array(vec![Json::Bool(true), Json::Null])),
        ]);
        let back = parse(&write(&j)).expect("parses");
        assert_eq!(back.get("name"), j.get("name"));
        assert_eq!(back.get("value").and_then(Json::as_f64), Some(1.25e-7));
        assert_eq!(back.get("big").and_then(Json::as_f64), Some(4294967296.0));
        assert_eq!(back.get("nan").and_then(Json::as_f64), Some(0.0));
    }
}
