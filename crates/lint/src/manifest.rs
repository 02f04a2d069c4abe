//! The ordering-audit manifest (`crates/lint/ordering_audit.toml`) and a
//! TOML-subset parser for it (std-only; array-of-tables with string and
//! integer values is all the format needs).
//!
//! Manifest shape:
//!
//! ```toml
//! [[site]]
//! file = "crates/core/src/sharded.rs"
//! func = "snapshot_cached"
//! ordering = "Acquire"
//! count = 1
//! invariant = "stamp read before any shard read-lock; staleness only rebuilds"
//! ```
//!
//! A site is keyed by `(file, func, ordering)`; `count` is the number of
//! `Ordering::<variant>` tokens with that key, so adding or removing a
//! use site inside an already-blessed function still trips the audit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One blessed `(file, func, ordering)` group of use sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteEntry {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// Enclosing function name (`<file>` for module-level sites).
    pub func: String,
    /// Ordering variant: Relaxed | Acquire | Release | AcqRel | SeqCst.
    pub ordering: String,
    /// Number of use sites with this key.
    pub count: u32,
    /// Why this ordering is sufficient — quoted from DESIGN.md §4e.
    pub invariant: String,
    /// Line in the manifest where the entry starts (for diagnostics).
    pub line: u32,
}

impl SiteEntry {
    /// The `(file, func, ordering)` lookup key.
    pub fn key(&self) -> (String, String, String) {
        (self.file.clone(), self.func.clone(), self.ordering.clone())
    }
}

/// Parses the manifest text. Returns entries or a `(line, message)` error.
pub fn parse(text: &str) -> Result<Vec<SiteEntry>, (u32, String)> {
    let mut entries: Vec<SiteEntry> = Vec::new();
    let mut current: Option<(u32, BTreeMap<String, Value>)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line == "[[site]]" {
            if let Some(entry) = current.take() {
                entries.push(finish(entry)?);
            }
            current = Some((lineno, BTreeMap::new()));
            continue;
        }
        if line.starts_with('[') {
            return Err((lineno, format!("unexpected table header `{line}`")));
        }
        let Some(eq) = line.find('=') else {
            return Err((lineno, format!("expected `key = value`, got `{line}`")));
        };
        let key = line[..eq].trim().to_string();
        let value = parse_value(line[eq + 1..].trim())
            .ok_or_else(|| (lineno, format!("bad value for `{key}`")))?;
        match &mut current {
            Some((_, map)) => {
                if map.insert(key.clone(), value).is_some() {
                    return Err((lineno, format!("duplicate key `{key}`")));
                }
            }
            None => return Err((lineno, format!("`{key}` outside any [[site]] table"))),
        }
    }
    if let Some(entry) = current.take() {
        entries.push(finish(entry)?);
    }
    Ok(entries)
}

/// Renders entries back to manifest text (used by `--emit-ordering-manifest`).
pub fn render(entries: &[SiteEntry]) -> String {
    let mut out = String::from(
        "# Memory-ordering audit manifest — every `Ordering::` use site in\n\
         # production source must be blessed here. Keyed by (file, func,\n\
         # ordering); `count` pins the number of sites in that group.\n\
         # See DESIGN.md §4e for the invariant table and §4j for how to\n\
         # bless a new site.\n",
    );
    for e in entries {
        let _ = write!(
            out,
            "\n[[site]]\nfile = \"{}\"\nfunc = \"{}\"\nordering = \"{}\"\ncount = {}\ninvariant = \"{}\"\n",
            escape(&e.file),
            escape(&e.func),
            escape(&e.ordering),
            e.count,
            escape(&e.invariant)
        );
    }
    out
}

#[derive(Debug)]
enum Value {
    Str(String),
    Int(u32),
}

fn finish((line, map): (u32, BTreeMap<String, Value>)) -> Result<SiteEntry, (u32, String)> {
    let get_str = |k: &str| -> Result<String, (u32, String)> {
        match map.get(k) {
            Some(Value::Str(s)) => Ok(s.clone()),
            Some(Value::Int(_)) => Err((line, format!("`{k}` must be a string"))),
            None => Err((line, format!("missing key `{k}` in [[site]]"))),
        }
    };
    let count = match map.get("count") {
        Some(Value::Int(n)) => *n,
        Some(Value::Str(_)) => return Err((line, "`count` must be an integer".into())),
        None => return Err((line, "missing key `count` in [[site]]".into())),
    };
    Ok(SiteEntry {
        file: get_str("file")?,
        func: get_str("func")?,
        ordering: get_str("ordering")?,
        count,
        invariant: get_str("invariant")?,
        line,
    })
}

/// Drops a `#` comment, respecting double-quoted strings on the line.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

fn parse_value(s: &str) -> Option<Value> {
    if let Some(rest) = s.strip_prefix('"') {
        let mut out = String::new();
        let bytes = rest.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'"' => {
                    // Anything after the closing quote must be blank.
                    return rest[i + 1..].trim().is_empty().then_some(Value::Str(out));
                }
                b'\\' if i + 1 < bytes.len() => {
                    match bytes[i + 1] {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        c => {
                            out.push('\\');
                            out.push(c as char);
                        }
                    }
                    i += 2;
                    continue;
                }
                c => out.push(c as char),
            }
            i += 1;
        }
        None // unterminated string
    } else {
        s.parse::<u32>().ok().map(Value::Int)
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_render_and_parse() {
        let entries = vec![SiteEntry {
            file: "crates/core/src/sharded.rs".into(),
            func: "snapshot_cached".into(),
            ordering: "Acquire".into(),
            count: 2,
            invariant: "stamp read before any shard read-lock".into(),
            line: 0,
        }];
        let text = render(&entries);
        let back = parse(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].file, entries[0].file);
        assert_eq!(back[0].count, 2);
        assert_eq!(back[0].invariant, entries[0].invariant);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = r##"
# header comment
[[site]]
file = "a.rs"   # trailing comment
func = "f"
ordering = "SeqCst"
count = 1
invariant = "has a # inside a string"
"##;
        let entries = parse(text).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].invariant, "has a # inside a string");
    }

    #[test]
    fn missing_keys_are_errors() {
        let text = "[[site]]\nfile = \"a.rs\"\n";
        let err = parse(text).unwrap_err();
        assert!(err.1.contains("missing key"));
    }

    #[test]
    fn duplicate_keys_are_errors() {
        let text = "[[site]]\nfile = \"a\"\nfile = \"b\"\n";
        assert!(parse(text).is_err());
    }
}
