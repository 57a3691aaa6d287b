//! The writing half of the result files: serialises a
//! [`nitro_metrics::Json`] tree, so every file the harness writes parses
//! back with the repository's own reader (`compare` relies on that).

use nitro_metrics::json::write_json_string;
use nitro_metrics::Json;

/// Shorthand for an object from `(key, value)` pairs.
pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Shorthand for a number.
pub fn num(v: f64) -> Json {
    Json::Num(v)
}

/// Shorthand for a string.
pub fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// Shorthand for an array of numbers.
pub fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::Num).collect())
}

/// Serialise on one line. Numbers keep every digit `f64` needs to round-trip
/// (Rust's shortest-exact formatting); JSON has no NaN or infinity, so
/// non-finite numbers are written as `null`.
pub fn to_line(value: &Json) -> String {
    let mut out = String::new();
    write(&mut out, value, None, 0);
    out
}

/// Serialise indented by two spaces per level (arrays of scalars stay on one
/// line so per-pass vectors remain readable).
pub fn to_pretty(value: &Json) -> String {
    let mut out = String::new();
    write(&mut out, value, Some(2), 0);
    out.push('\n');
    out
}

fn is_scalar(v: &Json) -> bool {
    !matches!(v, Json::Arr(_) | Json::Obj(_))
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
}

fn write(out: &mut String, value: &Json, indent: Option<usize>, depth: usize) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_json_string(out, s),
        Json::Arr(items) => {
            let inline = indent.is_none() || items.iter().all(is_scalar);
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(if inline && indent.is_some() {
                        ", "
                    } else {
                        ","
                    });
                }
                if !inline {
                    newline(out, indent, depth + 1);
                }
                write(out, item, indent, depth + 1);
            }
            if !inline && !items.is_empty() {
                newline(out, indent, depth);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_json_string(out, k);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write(out, v, indent, depth + 1);
            }
            if !members.is_empty() {
                newline(out, indent, depth);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        obj([
            ("workload", text("fleet \"saturated\"\n")),
            ("seed", num(2.0)),
            ("correct", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "passes",
                nums(&[4.123456789012345, 1e-9, 8_000_000.0, -0.5]),
            ),
            ("empty", Json::Arr(vec![])),
            (
                "metrics",
                obj([(
                    "throughput_mpps",
                    obj([("value", num(0.1 + 0.2)), ("unit", text("Mpps"))]),
                )]),
            ),
            (
                "spans",
                Json::Arr(vec![obj([("name", text("pass"))]), obj([])]),
            ),
        ])
    }

    #[test]
    fn both_layouts_round_trip_through_the_repository_parser() {
        let doc = sample();
        assert_eq!(Json::parse(&to_line(&doc)).unwrap(), doc);
        assert_eq!(Json::parse(&to_pretty(&doc)).unwrap(), doc);
        assert!(!to_line(&doc).contains('\n'));
    }

    #[test]
    fn numbers_keep_all_their_digits_and_integers_stay_integers() {
        assert_eq!(to_line(&num(0.1 + 0.2)), "0.30000000000000004");
        assert_eq!(to_line(&num(8_000_000.0)), "8000000");
        assert_eq!(to_line(&num(1.2034)), "1.2034");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(
            to_line(&nums(&[f64::NAN, f64::INFINITY, 1.0])),
            "[null,null,1]"
        );
    }
}
