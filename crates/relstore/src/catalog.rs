//! The relational catalog: table schemas, foreign keys, constraint-checked
//! data, and simple scans.
//!
//! This is the "target relational system" of Section 5.3: the SSST's
//! `Copy.Store*` programs produce [`TableSchema`]s and [`ForeignKey`]s, which
//! the catalog enforces on every insert — keys, uniqueness, NOT NULL, typed
//! domains and referential integrity.

use crate::table::{Column, Row};
use kgm_common::{FxHashMap, KgmError, Result, Value};

/// Schema of one relation.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    /// Relation name.
    pub name: String,
    /// Ordered columns.
    pub columns: Vec<Column>,
    /// Names of the primary-key columns (possibly empty = keyless staging
    /// table).
    pub primary_key: Vec<String>,
}

impl TableSchema {
    /// Create a schema; the primary key may be set later with [`Self::with_pk`].
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        TableSchema {
            name: name.into(),
            columns,
            primary_key: Vec::new(),
        }
    }

    /// Set the primary key columns.
    pub fn with_pk<I, S>(mut self, pk: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.primary_key = pk.into_iter().map(Into::into).collect();
        self
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    fn validate(&self) -> Result<()> {
        let mut seen = std::collections::BTreeSet::new();
        for c in &self.columns {
            if !seen.insert(&c.name) {
                return Err(KgmError::Schema(format!(
                    "duplicate column `{}` in `{}`",
                    c.name, self.name
                )));
            }
        }
        for k in &self.primary_key {
            if self.column_index(k).is_none() {
                return Err(KgmError::Schema(format!(
                    "primary key column `{k}` missing from `{}`",
                    self.name
                )));
            }
        }
        Ok(())
    }
}

/// A (possibly multi-column) foreign key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Constraint name.
    pub name: String,
    /// Referencing table.
    pub table: String,
    /// Referencing columns, in order.
    pub columns: Vec<String>,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced columns, in order (must be the referenced table's PK or a
    /// unique column set; the catalog checks PK).
    pub ref_columns: Vec<String>,
}

struct TableData {
    schema: TableSchema,
    rows: Vec<Row>,
    /// PK tuple → row index.
    pk_index: FxHashMap<Vec<Value>, usize>,
    /// per-unique-column value → row index.
    unique_indexes: FxHashMap<usize, FxHashMap<Value, usize>>,
}

/// A catalog of tables plus data, with full constraint enforcement.
#[derive(Default)]
pub struct Catalog {
    tables: Vec<TableData>,
    by_name: FxHashMap<String, usize>,
    foreign_keys: Vec<ForeignKey>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Create a table.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        schema.validate()?;
        if self.by_name.contains_key(&schema.name) {
            return Err(KgmError::Schema(format!(
                "table `{}` already exists",
                schema.name
            )));
        }
        let unique_indexes = schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.unique)
            .map(|(i, _)| (i, FxHashMap::default()))
            .collect();
        self.by_name.insert(schema.name.clone(), self.tables.len());
        self.tables.push(TableData {
            schema,
            rows: Vec::new(),
            pk_index: FxHashMap::default(),
            unique_indexes,
        });
        Ok(())
    }

    /// Declare a foreign key. Both tables must exist; the referenced columns
    /// must be the referenced table's primary key; existing data must
    /// satisfy it.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) -> Result<()> {
        let t = self.table(&fk.table)?;
        for c in &fk.columns {
            if t.schema.column_index(c).is_none() {
                return Err(KgmError::Schema(format!(
                    "fk `{}`: column `{c}` missing from `{}`",
                    fk.name, fk.table
                )));
            }
        }
        let rt = self.table(&fk.ref_table)?;
        if rt.schema.primary_key != fk.ref_columns {
            return Err(KgmError::Schema(format!(
                "fk `{}` must reference the primary key of `{}` (pk = {:?}, got {:?})",
                fk.name, fk.ref_table, rt.schema.primary_key, fk.ref_columns
            )));
        }
        if fk.columns.len() != fk.ref_columns.len() {
            return Err(KgmError::Schema(format!(
                "fk `{}`: column count mismatch",
                fk.name
            )));
        }
        // Validate existing data.
        let rows: Vec<Row> = self.table(&fk.table)?.rows.clone();
        for row in &rows {
            self.check_fk_for_row(&fk, row)?;
        }
        self.foreign_keys.push(fk);
        Ok(())
    }

    fn table(&self, name: &str) -> Result<&TableData> {
        self.by_name
            .get(name)
            .map(|&i| &self.tables[i])
            .ok_or_else(|| KgmError::NotFound(format!("table `{name}`")))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut TableData> {
        let i = *self
            .by_name
            .get(name)
            .ok_or_else(|| KgmError::NotFound(format!("table `{name}`")))?;
        Ok(&mut self.tables[i])
    }

    /// The schema of `name`.
    pub fn schema(&self, name: &str) -> Result<&TableSchema> {
        Ok(&self.table(name)?.schema)
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.by_name.keys().cloned().collect();
        v.sort();
        v
    }

    /// All declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Foreign keys declared on `table`.
    pub fn foreign_keys_of(&self, table: &str) -> Vec<&ForeignKey> {
        self.foreign_keys
            .iter()
            .filter(|fk| fk.table == table)
            .collect()
    }

    /// Number of rows in `name`.
    pub fn row_count(&self, name: &str) -> Result<usize> {
        Ok(self.table(name)?.rows.len())
    }

    fn check_fk_for_row(&self, fk: &ForeignKey, row: &Row) -> Result<()> {
        let t = self.table(&fk.table)?;
        let mut key: Vec<Value> = Vec::with_capacity(fk.columns.len());
        for c in &fk.columns {
            let i = t.schema.column_index(c).expect("validated");
            match &row[i] {
                // SQL semantics: any NULL in the FK tuple skips the check.
                None => return Ok(()),
                Some(v) => key.push(v.clone()),
            }
        }
        let rt = self.table(&fk.ref_table)?;
        if rt.pk_index.contains_key(&key) {
            Ok(())
        } else {
            Err(KgmError::Constraint(format!(
                "fk `{}`: {key:?} not present in `{}`",
                fk.name, fk.ref_table
            )))
        }
    }

    /// Insert a full row (one value slot per column, in schema order).
    pub fn insert(&mut self, table: &str, row: Row) -> Result<()> {
        // Phase 1: validations against immutable self.
        {
            let t = self.table(table)?;
            if row.len() != t.schema.columns.len() {
                return Err(KgmError::Schema(format!(
                    "`{table}` expects {} columns, got {}",
                    t.schema.columns.len(),
                    row.len()
                )));
            }
            for (c, v) in t.schema.columns.iter().zip(&row) {
                c.check(v.as_ref())?;
            }
            // PK: all components not null, tuple unique.
            if !t.schema.primary_key.is_empty() {
                let key = pk_of(&t.schema, &row)?;
                if t.pk_index.contains_key(&key) {
                    return Err(KgmError::Constraint(format!(
                        "duplicate primary key {key:?} in `{table}`"
                    )));
                }
            }
            for (&col, index) in &t.unique_indexes {
                if let Some(v) = &row[col] {
                    if index.contains_key(v) {
                        return Err(KgmError::Constraint(format!(
                            "unique column `{}` of `{table}` already contains {v:?}",
                            t.schema.columns[col].name
                        )));
                    }
                }
            }
            for fk in self.foreign_keys_of(table) {
                self.check_fk_for_row(fk, &row)?;
            }
        }
        // Phase 2: commit.
        let t = self.table_mut(table)?;
        let idx = t.rows.len();
        if !t.schema.primary_key.is_empty() {
            let key = pk_of(&t.schema, &row)?;
            t.pk_index.insert(key, idx);
        }
        for (&col, index) in &mut t.unique_indexes {
            if let Some(v) = &row[col] {
                index.insert(v.clone(), idx);
            }
        }
        t.rows.push(row);
        Ok(())
    }

    /// Insert by (column name, value) pairs; unmentioned columns become NULL.
    pub fn insert_named(&mut self, table: &str, values: &[(&str, Value)]) -> Result<()> {
        let schema = self.schema(table)?.clone();
        let mut row: Row = vec![None; schema.columns.len()];
        for (k, v) in values {
            let i = schema
                .column_index(k)
                .ok_or_else(|| KgmError::NotFound(format!("column `{k}` in `{table}`")))?;
            row[i] = Some(v.clone());
        }
        self.insert(table, row)
    }

    /// All rows of a table (cloned snapshot).
    pub fn scan(&self, table: &str) -> Result<Vec<Row>> {
        Ok(self.table(table)?.rows.clone())
    }

    /// Rows where every `(column, value)` filter matches.
    pub fn select(&self, table: &str, filters: &[(&str, Value)]) -> Result<Vec<Row>> {
        let t = self.table(table)?;
        let resolved: Vec<(usize, &Value)> = filters
            .iter()
            .map(|(k, v)| {
                t.schema
                    .column_index(k)
                    .map(|i| (i, v))
                    .ok_or_else(|| KgmError::NotFound(format!("column `{k}` in `{table}`")))
            })
            .collect::<Result<_>>()?;
        Ok(t.rows
            .iter()
            .filter(|row| resolved.iter().all(|(i, v)| row[*i].as_ref() == Some(*v)))
            .cloned()
            .collect())
    }

    /// Look up one row by primary key.
    pub fn get_by_pk(&self, table: &str, key: &[Value]) -> Result<Option<Row>> {
        let t = self.table(table)?;
        Ok(t.pk_index.get(key).map(|&i| t.rows[i].clone()))
    }
}

fn pk_of(schema: &TableSchema, row: &Row) -> Result<Vec<Value>> {
    schema
        .primary_key
        .iter()
        .map(|k| {
            let i = schema.column_index(k).expect("validated");
            row[i].clone().ok_or_else(|| {
                KgmError::Constraint(format!(
                    "primary key column `{k}` of `{}` is NULL",
                    schema.name
                ))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgm_common::ValueType;

    fn person_schema() -> TableSchema {
        TableSchema::new(
            "person",
            vec![
                Column::new("fiscal_code", ValueType::Str).not_null(),
                Column::new("name", ValueType::Str),
                Column::new("age", ValueType::Int),
            ],
        )
        .with_pk(["fiscal_code"])
    }

    #[test]
    fn create_insert_select() {
        let mut c = Catalog::new();
        c.create_table(person_schema()).unwrap();
        c.insert_named(
            "person",
            &[
                ("fiscal_code", Value::str("A")),
                ("name", Value::str("Ada")),
            ],
        )
        .unwrap();
        c.insert_named(
            "person",
            &[("fiscal_code", Value::str("B")), ("age", Value::Int(9))],
        )
        .unwrap();
        assert_eq!(c.row_count("person").unwrap(), 2);
        let rows = c.select("person", &[("name", Value::str("Ada"))]).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            c.get_by_pk("person", &[Value::str("B")]).unwrap().unwrap()[2],
            Some(Value::Int(9))
        );
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = Catalog::new();
        c.create_table(person_schema()).unwrap();
        assert!(c.create_table(person_schema()).is_err());
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut c = Catalog::new();
        c.create_table(person_schema()).unwrap();
        c.insert_named("person", &[("fiscal_code", Value::str("A"))])
            .unwrap();
        let err = c
            .insert_named("person", &[("fiscal_code", Value::str("A"))])
            .unwrap_err();
        assert!(matches!(err, KgmError::Constraint(_)));
    }

    #[test]
    fn null_pk_rejected() {
        let mut c = Catalog::new();
        c.create_table(person_schema()).unwrap();
        assert!(c
            .insert_named("person", &[("name", Value::str("x"))])
            .is_err());
    }

    #[test]
    fn type_checking_on_insert() {
        let mut c = Catalog::new();
        c.create_table(person_schema()).unwrap();
        let err = c
            .insert_named(
                "person",
                &[("fiscal_code", Value::str("A")), ("age", Value::str("old"))],
            )
            .unwrap_err();
        assert!(matches!(err, KgmError::Type(_)));
    }

    #[test]
    fn unique_column_enforced() {
        let mut c = Catalog::new();
        c.create_table(
            TableSchema::new(
                "place",
                vec![
                    Column::new("id", ValueType::Int).not_null(),
                    Column::new("code", ValueType::Str).unique(),
                ],
            )
            .with_pk(["id"]),
        )
        .unwrap();
        c.insert_named("place", &[("id", Value::Int(1)), ("code", Value::str("X"))])
            .unwrap();
        assert!(c
            .insert_named("place", &[("id", Value::Int(2)), ("code", Value::str("X"))])
            .is_err());
        // NULLs never collide.
        c.insert_named("place", &[("id", Value::Int(3))]).unwrap();
        c.insert_named("place", &[("id", Value::Int(4))]).unwrap();
    }

    #[test]
    fn foreign_key_enforced_on_insert() {
        let mut c = Catalog::new();
        c.create_table(person_schema()).unwrap();
        c.create_table(
            TableSchema::new(
                "share",
                vec![
                    Column::new("id", ValueType::Int).not_null(),
                    Column::new("holder", ValueType::Str),
                ],
            )
            .with_pk(["id"]),
        )
        .unwrap();
        c.add_foreign_key(ForeignKey {
            name: "fk_share_holder".into(),
            table: "share".into(),
            columns: vec!["holder".into()],
            ref_table: "person".into(),
            ref_columns: vec!["fiscal_code".into()],
        })
        .unwrap();
        assert!(c
            .insert_named(
                "share",
                &[("id", Value::Int(1)), ("holder", Value::str("A"))]
            )
            .is_err());
        c.insert_named("person", &[("fiscal_code", Value::str("A"))])
            .unwrap();
        c.insert_named(
            "share",
            &[("id", Value::Int(1)), ("holder", Value::str("A"))],
        )
        .unwrap();
        // NULL FK is allowed.
        c.insert_named("share", &[("id", Value::Int(2))]).unwrap();
    }

    #[test]
    fn foreign_key_must_reference_pk() {
        let mut c = Catalog::new();
        c.create_table(person_schema()).unwrap();
        c.create_table(TableSchema::new(
            "t",
            vec![Column::new("x", ValueType::Str)],
        ))
        .unwrap();
        let err = c
            .add_foreign_key(ForeignKey {
                name: "bad".into(),
                table: "t".into(),
                columns: vec!["x".into()],
                ref_table: "person".into(),
                ref_columns: vec!["name".into()],
            })
            .unwrap_err();
        assert!(matches!(err, KgmError::Schema(_)));
    }

    #[test]
    fn foreign_key_validates_existing_data() {
        let mut c = Catalog::new();
        c.create_table(person_schema()).unwrap();
        c.create_table(
            TableSchema::new(
                "share",
                vec![
                    Column::new("id", ValueType::Int).not_null(),
                    Column::new("holder", ValueType::Str),
                ],
            )
            .with_pk(["id"]),
        )
        .unwrap();
        c.insert_named(
            "share",
            &[("id", Value::Int(1)), ("holder", Value::str("Z"))],
        )
        .unwrap();
        assert!(c
            .add_foreign_key(ForeignKey {
                name: "fk".into(),
                table: "share".into(),
                columns: vec!["holder".into()],
                ref_table: "person".into(),
                ref_columns: vec!["fiscal_code".into()],
            })
            .is_err());
    }

    #[test]
    fn schema_validation_rejects_bad_pk_and_dup_columns() {
        let mut c = Catalog::new();
        assert!(c
            .create_table(
                TableSchema::new("t", vec![Column::new("x", ValueType::Int)]).with_pk(["y"]),
            )
            .is_err());
        assert!(c
            .create_table(TableSchema::new(
                "t",
                vec![
                    Column::new("x", ValueType::Int),
                    Column::new("x", ValueType::Str)
                ],
            ))
            .is_err());
    }

    #[test]
    fn wrong_arity_insert_rejected() {
        let mut c = Catalog::new();
        c.create_table(person_schema()).unwrap();
        assert!(c.insert("person", vec![Some(Value::str("A"))]).is_err());
    }
}
