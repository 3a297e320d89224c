//! Behavioral tests of the relational substrate's public API, beyond the
//! in-module unit tests: multi-column keys, filter combinations, catalog
//! introspection.

use kgm_common::{Value, ValueType};
use kgm_relstore::{Catalog, Column, ForeignKey, TableSchema};

fn composite_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.create_table(
        TableSchema::new(
            "balance",
            vec![
                Column::new("code", ValueType::Str).not_null(),
                Column::new("year", ValueType::Int).not_null(),
                Column::new("amount", ValueType::Float),
            ],
        )
        .with_pk(["code", "year"]),
    )
    .unwrap();
    c.create_table(
        TableSchema::new(
            "restated",
            vec![
                Column::new("id", ValueType::Int).not_null(),
                Column::new("code", ValueType::Str),
                Column::new("year", ValueType::Int),
            ],
        )
        .with_pk(["id"]),
    )
    .unwrap();
    c.add_foreign_key(ForeignKey {
        name: "fk_restated_balance".into(),
        table: "restated".into(),
        columns: vec!["code".into(), "year".into()],
        ref_table: "balance".into(),
        ref_columns: vec!["code".into(), "year".into()],
    })
    .unwrap();
    c
}

#[test]
fn composite_primary_keys_and_fks() {
    let mut c = composite_catalog();
    c.insert_named(
        "balance",
        &[
            ("code", Value::str("A")),
            ("year", Value::Int(2021)),
            ("amount", Value::Float(10.0)),
        ],
    )
    .unwrap();
    // Same code, different year: fine. Same pair: rejected.
    c.insert_named(
        "balance",
        &[("code", Value::str("A")), ("year", Value::Int(2022))],
    )
    .unwrap();
    assert!(c
        .insert_named(
            "balance",
            &[("code", Value::str("A")), ("year", Value::Int(2021))],
        )
        .is_err());
    // FK requires the full pair.
    assert!(c
        .insert_named(
            "restated",
            &[
                ("id", Value::Int(1)),
                ("code", Value::str("A")),
                ("year", Value::Int(1999)),
            ],
        )
        .is_err());
    c.insert_named(
        "restated",
        &[
            ("id", Value::Int(1)),
            ("code", Value::str("A")),
            ("year", Value::Int(2021)),
        ],
    )
    .unwrap();
    // Partially-NULL FK tuples skip the check (SQL semantics).
    c.insert_named(
        "restated",
        &[("id", Value::Int(2)), ("code", Value::str("Z"))],
    )
    .unwrap();
}

#[test]
fn composite_pk_lookup() {
    let mut c = composite_catalog();
    c.insert_named(
        "balance",
        &[
            ("code", Value::str("A")),
            ("year", Value::Int(2021)),
            ("amount", Value::Float(3.5)),
        ],
    )
    .unwrap();
    let row = c
        .get_by_pk("balance", &[Value::str("A"), Value::Int(2021)])
        .unwrap()
        .unwrap();
    assert_eq!(row[2], Some(Value::Float(3.5)));
    assert!(c
        .get_by_pk("balance", &[Value::str("A"), Value::Int(1900)])
        .unwrap()
        .is_none());
    // Wrong arity key: simply no match.
    assert!(c
        .get_by_pk("balance", &[Value::str("A")])
        .unwrap()
        .is_none());
}

#[test]
fn multi_filter_select() {
    let mut c = composite_catalog();
    for (code, year, amount) in [("A", 2021, 1.0), ("A", 2022, 2.0), ("B", 2021, 3.0)] {
        c.insert_named(
            "balance",
            &[
                ("code", Value::str(code)),
                ("year", Value::Int(year)),
                ("amount", Value::Float(amount)),
            ],
        )
        .unwrap();
    }
    let rows = c
        .select(
            "balance",
            &[("code", Value::str("A")), ("year", Value::Int(2022))],
        )
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][2], Some(Value::Float(2.0)));
    assert_eq!(c.select("balance", &[]).unwrap().len(), 3);
    assert!(c.select("balance", &[("nope", Value::Int(1))]).is_err());
    assert!(c.select("missing_table", &[]).is_err());
}

#[test]
fn catalog_introspection() {
    let c = composite_catalog();
    assert_eq!(c.table_names(), vec!["balance", "restated"]);
    assert_eq!(c.foreign_keys().len(), 1);
    assert_eq!(c.foreign_keys_of("restated").len(), 1);
    assert!(c.foreign_keys_of("balance").is_empty());
    assert_eq!(c.row_count("balance").unwrap(), 0);
    assert!(c.row_count("missing").is_err());
    let s = c.schema("balance").unwrap();
    assert_eq!(s.primary_key, vec!["code", "year"]);
    assert_eq!(s.column_index("amount"), Some(2));
}

#[test]
fn int_values_widen_into_float_columns_through_fk_checks() {
    let mut c = Catalog::new();
    c.create_table(
        TableSchema::new(
            "t",
            vec![
                Column::new("id", ValueType::Int).not_null(),
                Column::new("ratio", ValueType::Float),
            ],
        )
        .with_pk(["id"]),
    )
    .unwrap();
    c.insert_named("t", &[("id", Value::Int(1)), ("ratio", Value::Int(2))])
        .unwrap();
    let rows = c.select("t", &[("ratio", Value::Float(2.0))]).unwrap();
    assert_eq!(rows.len(), 1, "cross-numeric equality applies in filters");
}

#[test]
fn ddl_of_composite_schema_is_deployable_text() {
    let c = composite_catalog();
    let sql = kgm_relstore::ddl::catalog_sql(&c);
    assert!(sql.contains("PRIMARY KEY (\"code\", \"year\")"));
    assert!(sql
        .contains("FOREIGN KEY (\"code\", \"year\") REFERENCES \"balance\" (\"code\", \"year\")"));
}
