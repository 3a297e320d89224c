//! CSV serialization of property graphs.
//!
//! Section 2.2 lists *"non-graph-like models that are frequently used to
//! serialize graphs, such as the relational data model, plain CSV files"*
//! among the KG models the super-model subsumes. This module provides the
//! CSV serialization: a long-format pair of documents (one for nodes, one
//! for edges) with full round-tripping of labels, properties and topology.
//!
//! Format (RFC-4180-style quoting):
//!
//! ```text
//! nodes:  oid,labels,key,type,value
//! edges:  oid,label,from,to,key,type,value
//! ```
//!
//! One row per property; elements without properties produce a single row
//! with empty `key`/`type`/`value`.

#![allow(clippy::type_complexity)] // long accumulator tuples are local plumbing

use crate::graph::{NodeId, PropertyGraph};
use kgm_common::{FxHashMap, KgmError, Oid, Result, Value, ValueType};

fn quote(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Per-field parser state for [`parse_document`].
enum FieldState {
    /// Nothing consumed yet — a `"` here opens a quoted field.
    Start,
    /// Inside an unquoted field — a bare `"` here is malformed (RFC 4180).
    Unquoted,
    /// Inside a quoted field — commas and newlines are literal.
    Quoted,
    /// A closing `"` was just consumed — only a delimiter may follow.
    QuoteEnd,
}

/// Split a CSV document into records per RFC 4180: quoted fields may contain
/// commas, escaped quotes (`""`) and newlines; blank lines between records
/// are skipped. Rejects a bare `"` inside an unquoted field (`a"b`) and any
/// character other than a delimiter after a closing quote (`"a"b`) — both
/// used to corrupt the row silently by flipping the quote state mid-field.
fn parse_document(text: &str) -> Result<Vec<Vec<String>>> {
    let mut records: Vec<Vec<String>> = Vec::new();
    let mut fields: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut state = FieldState::Start;
    let mut chars = text.chars().peekable();
    let bad =
        |what: String, field: &str| KgmError::parse("CSV", format!("{what} (near `{field}`)"));
    while let Some(c) = chars.next() {
        // Normalize CRLF to a record terminator outside quotes.
        let c = if c == '\r' && chars.peek() == Some(&'\n') && !matches!(state, FieldState::Quoted)
        {
            chars.next();
            '\n'
        } else {
            c
        };
        match state {
            FieldState::Start => match c {
                '"' => state = FieldState::Quoted,
                ',' => fields.push(std::mem::take(&mut field)),
                '\n' => {
                    if !fields.is_empty() || !field.is_empty() {
                        fields.push(std::mem::take(&mut field));
                        records.push(std::mem::take(&mut fields));
                    }
                    // A lone newline is a blank line: skip it.
                }
                _ => {
                    field.push(c);
                    state = FieldState::Unquoted;
                }
            },
            FieldState::Unquoted => match c {
                '"' => {
                    return Err(bad(
                        "bare `\"` inside an unquoted field".to_string(),
                        &field,
                    ))
                }
                ',' => {
                    fields.push(std::mem::take(&mut field));
                    state = FieldState::Start;
                }
                '\n' => {
                    fields.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut fields));
                    state = FieldState::Start;
                }
                _ => field.push(c),
            },
            FieldState::Quoted => {
                if c == '"' {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        state = FieldState::QuoteEnd;
                    }
                } else {
                    field.push(c);
                }
            }
            FieldState::QuoteEnd => match c {
                ',' => {
                    fields.push(std::mem::take(&mut field));
                    state = FieldState::Start;
                }
                '\n' => {
                    fields.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut fields));
                    state = FieldState::Start;
                }
                other => return Err(bad(format!("`{other}` after a closing quote"), &field)),
            },
        }
    }
    match state {
        FieldState::Quoted => {
            return Err(bad("unterminated quote".to_string(), &field));
        }
        FieldState::Unquoted | FieldState::QuoteEnd => {
            fields.push(field);
            records.push(fields);
        }
        FieldState::Start => {
            if !fields.is_empty() || !field.is_empty() {
                fields.push(field);
                records.push(fields);
            }
        }
    }
    Ok(records)
}

/// Parse one record (kept for targeted tests; quoted fields may still embed
/// newlines, but the text must form a single record).
#[cfg(test)]
fn split_line(line: &str) -> Result<Vec<String>> {
    let mut records = parse_document(line)?;
    match records.len() {
        0 => Ok(vec![String::new()]),
        1 => Ok(records.pop().expect("one record")),
        n => Err(KgmError::parse(
            "CSV",
            format!("expected one record, found {n}: {line}"),
        )),
    }
}

fn value_to_fields(v: &Value) -> (String, String) {
    let ty = v.value_type().to_string();
    let s = match v {
        Value::Str(s) => s.to_string(),
        Value::Oid(o) => o.raw().to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Date(d) => d.to_string(),
    };
    (ty, s)
}

fn value_from_fields(ty: &str, s: &str) -> Result<Value> {
    let vt = ValueType::parse(ty)
        .ok_or_else(|| KgmError::parse("CSV", format!("unknown type `{ty}`")))?;
    let bad = || KgmError::parse("CSV", format!("bad {ty} literal `{s}`"));
    Ok(match vt {
        ValueType::Bool => Value::Bool(s.parse().map_err(|_| bad())?),
        ValueType::Int => Value::Int(s.parse().map_err(|_| bad())?),
        ValueType::Float => Value::Float(s.parse().map_err(|_| bad())?),
        ValueType::Str => Value::str(s),
        ValueType::Date => Value::Date(s.parse().map_err(|_| bad())?),
        ValueType::Oid => Value::Oid(Oid::from_raw(s.parse().map_err(|_| bad())?)),
    })
}

/// Serialize a graph to `(nodes_csv, edges_csv)`.
pub fn export(g: &PropertyGraph) -> (String, String) {
    let mut nodes = String::from("oid,labels,key,type,value\n");
    for n in g.nodes() {
        let oid = g.node_oid(n).raw().to_string();
        let labels = g.node_labels(n).join(";");
        let props = g.node_props(n);
        if props.is_empty() {
            nodes.push_str(&format!("{},{},,,\n", quote(&oid), quote(&labels)));
        } else {
            for (k, v) in props {
                let (ty, val) = value_to_fields(&v);
                nodes.push_str(&format!(
                    "{},{},{},{},{}\n",
                    quote(&oid),
                    quote(&labels),
                    quote(&k),
                    ty,
                    quote(&val)
                ));
            }
        }
    }
    let mut edges = String::from("oid,label,from,to,key,type,value\n");
    for e in g.edges() {
        let oid = g.edge_oid(e).raw().to_string();
        let label = g.edge_label(e);
        let (f, t) = g.edge_endpoints(e);
        let from = g.node_oid(f).raw().to_string();
        let to = g.node_oid(t).raw().to_string();
        let props = g.edge_props(e);
        if props.is_empty() {
            edges.push_str(&format!(
                "{},{},{},{},,,\n",
                quote(&oid),
                quote(&label),
                from,
                to
            ));
        } else {
            for (k, v) in props {
                let (ty, val) = value_to_fields(&v);
                edges.push_str(&format!(
                    "{},{},{},{},{},{},{}\n",
                    quote(&oid),
                    quote(&label),
                    from,
                    to,
                    quote(&k),
                    ty,
                    quote(&val)
                ));
            }
        }
    }
    (nodes, edges)
}

/// Deserialize a graph from the two CSV documents produced by [`export`].
///
/// OIDs are re-minted by the target graph; topology, labels and properties
/// are preserved.
pub fn import(nodes_csv: &str, edges_csv: &str) -> Result<PropertyGraph> {
    if let Some(msg) = kgm_runtime::fault::trip("csv.import") {
        return Err(KgmError::Internal(msg));
    }
    let mut g = PropertyGraph::new();
    let mut by_old_oid: FxHashMap<u64, NodeId> = FxHashMap::default();
    // Accumulate node rows: oid → (labels, props)
    let mut node_rows: Vec<(u64, Vec<String>, Vec<(String, Value)>)> = Vec::new();
    let mut node_index: FxHashMap<u64, usize> = FxHashMap::default();
    for (i, f) in parse_document(nodes_csv)?.into_iter().enumerate() {
        if i == 0 {
            continue; // header
        }
        if f.len() != 5 {
            return Err(KgmError::parse(
                "CSV",
                format!("node row must have 5 fields: {f:?}"),
            ));
        }
        let oid: u64 = f[0]
            .parse()
            .map_err(|_| KgmError::parse("CSV", format!("bad oid `{}`", f[0])))?;
        let labels: Vec<String> = if f[1].is_empty() {
            Vec::new()
        } else {
            f[1].split(';').map(str::to_string).collect()
        };
        let slot = *node_index.entry(oid).or_insert_with(|| {
            node_rows.push((oid, labels.clone(), Vec::new()));
            node_rows.len() - 1
        });
        if !f[2].is_empty() {
            let v = value_from_fields(&f[3], &f[4])?;
            node_rows[slot].2.push((f[2].clone(), v));
        }
    }
    for (oid, labels, props) in node_rows {
        let id = g.add_node(labels, props)?;
        by_old_oid.insert(oid, id);
    }

    let mut edge_rows: Vec<(u64, String, u64, u64, Vec<(String, Value)>)> = Vec::new();
    let mut edge_index: FxHashMap<u64, usize> = FxHashMap::default();
    for (i, f) in parse_document(edges_csv)?.into_iter().enumerate() {
        if i == 0 {
            continue; // header
        }
        if f.len() != 7 {
            return Err(KgmError::parse(
                "CSV",
                format!("edge row must have 7 fields: {f:?}"),
            ));
        }
        let parse_u64 = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| KgmError::parse("CSV", format!("bad oid `{s}`")))
        };
        let oid = parse_u64(&f[0])?;
        let slot = *edge_index.entry(oid).or_insert_with(|| {
            edge_rows.push((oid, f[1].clone(), 0, 0, Vec::new()));
            edge_rows.len() - 1
        });
        edge_rows[slot].2 = parse_u64(&f[2])?;
        edge_rows[slot].3 = parse_u64(&f[3])?;
        if !f[4].is_empty() {
            let v = value_from_fields(&f[5], &f[6])?;
            edge_rows[slot].4.push((f[4].clone(), v));
        }
    }
    for (_, label, from, to, props) in edge_rows {
        let f = *by_old_oid
            .get(&from)
            .ok_or_else(|| KgmError::NotFound(format!("edge endpoint oid {from}")))?;
        let t = *by_old_oid
            .get(&to)
            .ok_or_else(|| KgmError::NotFound(format!("edge endpoint oid {to}")))?;
        g.add_edge(f, t, &label, props)?;
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let a = g
            .add_node(
                ["Person", "PhysicalPerson"],
                vec![
                    ("name".to_string(), Value::str("Rossi, \"Mario\"")),
                    ("age".to_string(), Value::Int(44)),
                ],
            )
            .unwrap();
        let b = g
            .add_node(
                ["Business"],
                vec![("capital".to_string(), Value::Float(0.5))],
            )
            .unwrap();
        let c = g.add_node(["Place"], vec![]).unwrap();
        g.add_edge(
            a,
            b,
            "OWNS",
            vec![("percentage".to_string(), Value::Float(0.33))],
        )
        .unwrap();
        g.add_edge(a, c, "RESIDES", vec![]).unwrap();
        g
    }

    #[test]
    fn round_trip_preserves_everything() {
        let g = sample();
        let (n, e) = export(&g);
        let g2 = import(&n, &e).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        // Node with tricky quoted name survived.
        let hits = g2.match_nodes(
            &crate::pattern::NodePattern::label("Person")
                .with_prop("name", Value::str("Rossi, \"Mario\"")),
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(g2.node_prop(hits[0], "age"), Some(&Value::Int(44)));
        // Edge with property survived.
        let owns = g2.edges_with_label("OWNS");
        assert_eq!(owns.len(), 1);
        assert_eq!(
            g2.edge_prop(owns[0], "percentage"),
            Some(&Value::Float(0.33))
        );
    }

    #[test]
    fn quoting_round_trips() {
        for s in [
            "plain",
            "with,comma",
            "with\"quote",
            "with\nnewline",
            "\"leading",
            "trailing\"",
            ",\"\n,mixed,\"\"\n",
            "crlf\r\nline",
        ] {
            let q = quote(s);
            let parsed = split_line(&format!("{q},x")).unwrap();
            assert_eq!(parsed[0], s, "through {q:?}");
            assert_eq!(parsed[1], "x");
        }
    }

    #[test]
    fn bare_quote_in_unquoted_field_is_rejected() {
        // `a"b,c` used to flip the quote state mid-field and swallow the
        // comma, silently merging two fields into `ab,c`.
        let err = split_line("a\"b,c").unwrap_err();
        assert!(err.to_string().contains("bare"), "{err}");
        // Junk after a closing quote is equally malformed (RFC 4180).
        assert!(split_line("\"a\"b,c").is_err());
        // …and both surface through a full document import.
        let nodes = "oid,labels,key,type,value\n1,P\"X,,,\n";
        assert!(import(nodes, "oid,label,from,to,key,type,value\n").is_err());
    }

    #[test]
    fn quoted_newlines_round_trip_through_the_graph() {
        let mut g = PropertyGraph::new();
        g.add_node(
            ["Note"],
            vec![(
                "text".to_string(),
                Value::str("line one\nline two, with comma and \"quotes\""),
            )],
        )
        .unwrap();
        let (n, e) = export(&g);
        let g2 = import(&n, &e).unwrap();
        assert_eq!(g2.node_count(), 1);
        let hits = g2.match_nodes(&crate::pattern::NodePattern::label("Note"));
        assert_eq!(
            g2.node_prop(hits[0], "text"),
            Some(&Value::str("line one\nline two, with comma and \"quotes\""))
        );
    }

    #[test]
    fn blank_lines_and_crlf_are_tolerated() {
        let nodes = "oid,labels,key,type,value\r\n\r\n1,P,,,\r\n\n2,Q,,,\n";
        let g = import(nodes, "oid,label,from,to,key,type,value\n").unwrap();
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn malformed_rows_are_rejected() {
        assert!(import(
            "oid,labels,key,type,value\n1,2\n",
            "oid,label,from,to,key,type,value\n"
        )
        .is_err());
        assert!(import(
            "oid,labels,key,type,value\n",
            "oid,label,from,to,key,type,value\nnope,R,1,2,,,\n"
        )
        .is_err());
    }

    #[test]
    fn dangling_edge_endpoint_is_rejected() {
        let edges = "oid,label,from,to,key,type,value\n9,R,1,2,,,\n";
        assert!(import("oid,labels,key,type,value\n", edges).is_err());
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = PropertyGraph::new();
        let (n, e) = export(&g);
        let g2 = import(&n, &e).unwrap();
        assert_eq!(g2.node_count(), 0);
        assert_eq!(g2.edge_count(), 0);
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(split_line("\"abc").is_err());
    }
}
