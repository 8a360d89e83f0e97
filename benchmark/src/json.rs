//! JSON text for trees built or inspected at run time. The vendored
//! `serde_json` converts `Serialize`/`Deserialize` types only, so a bare
//! `Value` goes through a one-field wrapper each way.

use serde::value::Value;
use serde::Serialize;
#[cfg(test)]
use serde::{DeError, Deserialize};

struct Tree<'a>(&'a Value);

impl Serialize for Tree<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Compact JSON text of `value`.
pub fn to_text(value: &Value) -> String {
    serde_json::to_string(&Tree(value)).expect("the vendored writer cannot fail")
}

/// Any JSON text as a `Value` tree.
#[cfg(test)]
pub struct Parsed(pub Value);

#[cfg(test)]
impl Deserialize for Parsed {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Parsed(v.clone()))
    }
}

/// Re-indent compact JSON text, one member per line — for the files a
/// person reviews in a diff.
pub fn pretty(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    for c in compact.chars() {
        if in_string {
            out.push(c);
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                depth += 1;
                out.push(c);
                newline(&mut out, depth);
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_text_parses_back_to_the_same_tree() {
        let tree = Value::Map(vec![
            ("a".into(), Value::Seq(vec![Value::U64(1), Value::F64(2.5)])),
            (
                "quote \" , { ] \\".into(),
                Value::Str("x: [y, \"z\"] \\".into()),
            ),
            ("nested".into(), Value::Map(vec![("k".into(), Value::Null)])),
        ]);
        let pretty = pretty(&to_text(&tree));
        assert!(pretty.lines().count() > 5, "{pretty}");
        let back: Parsed = serde_json::from_str(&pretty).unwrap();
        assert_eq!(back.0, tree);
    }
}
