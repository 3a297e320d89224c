//! Golden rows of the dictionary's instance level: the three relations the
//! quasi-inverse load of Algorithm 2 (line 4) produces for a seeded
//! registry, one row per construct with its links as columns. The
//! generated input views `V_I` read exactly these tuples, so a load that
//! changed one row, one OID or one row's position would change what Σ
//! sees.
//!
//! The golden holds every row of every relation, in order and with OIDs,
//! for a 30-node registry, then the row count and an order-sensitive digest
//! of each relation at 2,000 nodes.
//!
//! Re-bless after an intentional change with
//! `KGM_BLESS=1 cargo test -p kgm-core --test golden_instances`. CI runs
//! `KGM_GOLDEN_FROZEN=1`.

use kgm_common::Value;
use kgm_core::dictionary::Dictionary;
use kgm_core::instances::load_instance;
use kgm_finance::generator::{generate_shareholding, ShareholdingConfig};
use kgm_finance::schema::simple_ownership_schema;
use kgm_runtime::snapshot::assert_snapshot;
use std::fmt::Write;

/// The instance-level relations, in the order the golden lists them.
const RELATIONS: [&str; 3] = ["i_sm_node", "i_sm_edge", "i_sm_attr"];

/// Load a seeded registry of `nodes` nodes and return each relation's rows.
fn loaded_rows(nodes: usize) -> Vec<(&'static str, Vec<Vec<Value>>)> {
    let schema = simple_ownership_schema().unwrap();
    let data = generate_shareholding(&ShareholdingConfig {
        nodes,
        person_fraction: 0.3,
        cross_ownership: 0.01,
        seed: 1,
        ..Default::default()
    })
    .unwrap();
    let mut dict = Dictionary::new();
    dict.encode(&schema, 1).unwrap();
    load_instance(&mut dict, &schema, 1, 100, &data).unwrap();
    RELATIONS
        .iter()
        .map(|&r| (r, dict.instances.facts(r)))
        .collect()
}

fn render_row(row: &[Value]) -> String {
    let cells: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
    format!("({})", cells.join(", "))
}

/// 64-bit FNV-1a over the rendered rows, one newline after each, so the
/// digest changes when a row changes or moves.
fn digest(rows: &[Vec<Value>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for b in render_row(row).bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn golden_instance_relations() {
    let mut out = String::new();
    let small = loaded_rows(30);
    let total: usize = small.iter().map(|(_, rows)| rows.len()).sum();
    writeln!(out, "# 30-node registry, seed 1: {total} rows").unwrap();
    for (relation, rows) in &small {
        writeln!(out, "{relation} ({} rows)", rows.len()).unwrap();
        for row in rows {
            writeln!(out, "  {}", render_row(row)).unwrap();
        }
    }
    writeln!(out, "# 2000-node registry, seed 1").unwrap();
    for (relation, rows) in &loaded_rows(2_000) {
        writeln!(
            out,
            "{relation} {} rows, digest {:016x}",
            rows.len(),
            digest(rows)
        )
        .unwrap();
    }
    assert_snapshot(
        format!(
            "{}/tests/golden/instance_relations.txt",
            env!("CARGO_MANIFEST_DIR")
        ),
        &out,
    );
}
