//! The two writers, in the shapes `serde_json` wrote: a compact form
//! (`{"a":1,"b":[2,3]}`) and a 2-space pretty form (`"key": value`, one
//! element per line, `[]` and `{}` for empty containers, no trailing
//! newline). Checkpoints and manifests written before this crate existed
//! are byte-identical to what it writes now.

use std::fmt::Write as _;

use crate::value::Value;

/// Appends `s` as a JSON string literal — the one string escape in the
/// workspace, private to the two writers below.
fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
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

impl Value {
    /// The compact form.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// The pretty form.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// `indent` is the nesting level of the pretty form, `None` for the
    /// compact one.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // The shortest digits that read back as the same float, always
            // with a fraction or an exponent; JSON has no NaN or infinity.
            Value::Float(f) if f.is_finite() => {
                let _ = write!(out, "{f:?}");
            }
            Value::Float(_) => out.push_str("null"),
            Value::String(s) => escape(s, out),
            Value::Array(items) => {
                write_seq(out, indent, b"[]", items.len(), |out, i, inner| {
                    items[i].write(out, inner);
                });
            }
            Value::Object(members) => {
                write_seq(out, indent, b"{}", members.len(), |out, i, inner| {
                    escape(&members[i].0, out);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    members[i].1.write(out, inner);
                });
            }
        }
    }
}

/// The brackets, commas and line breaks around `len` elements; `element`
/// writes the `i`-th one at the inner nesting level.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    brackets: &[u8; 2],
    len: usize,
    element: impl Fn(&mut String, usize, Option<usize>),
) {
    out.push(char::from(brackets[0]));
    let inner = indent.map(|level| level + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        element(out, i, inner);
    }
    if len > 0 {
        newline(out, indent);
    }
    out.push(char::from(brackets[1]));
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(level) = indent {
        out.push('\n');
        for _ in 0..level {
            out.push_str("  ");
        }
    }
}
