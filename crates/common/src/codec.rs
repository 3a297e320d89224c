//! String escaping for line- and `|`-delimited text.
//!
//! [`crate::Value::to_text`] embeds strings through [`escape`], so a value's
//! text never spans lines or contains the separator.

/// Escape a string for embedding in a line- and `|`-delimited record:
/// backslash, newline, carriage return and the pipe separator.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '|' => out.push_str("\\p"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaped_form_is_single_line_and_pipe_free() {
        let e = escape("a|b\nc");
        assert!(!e.contains('\n') && !e.contains('|'), "{e:?}");
    }
}
