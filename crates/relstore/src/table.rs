//! Columns and rows of the relational substrate.

use kgm_common::{KgmError, Result, Value, ValueType};

/// A typed column with optional NOT NULL / UNIQUE column constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (a `Field` in the §5.3 relational model).
    pub name: String,
    /// Value domain.
    pub ty: ValueType,
    /// Disallow SQL NULL.
    pub not_null: bool,
    /// Enforce per-table uniqueness of non-null values.
    pub unique: bool,
}

impl Column {
    /// A nullable, non-unique column.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        Column {
            name: name.into(),
            ty,
            not_null: false,
            unique: false,
        }
    }

    /// Mark NOT NULL.
    pub fn not_null(mut self) -> Self {
        self.not_null = true;
        self
    }

    /// Mark UNIQUE.
    pub fn unique(mut self) -> Self {
        self.unique = true;
        self
    }

    /// Validate one cell against this column's domain.
    pub fn check(&self, value: Option<&Value>) -> Result<()> {
        match value {
            None => {
                if self.not_null {
                    Err(KgmError::Constraint(format!(
                        "column `{}` is NOT NULL",
                        self.name
                    )))
                } else {
                    Ok(())
                }
            }
            Some(v) => {
                let vt = v.value_type();
                // Ints are acceptable wherever floats are expected (numeric
                // widening), mirroring Value's cross-numeric equality.
                let compatible =
                    vt == self.ty || (self.ty == ValueType::Float && vt == ValueType::Int);
                if compatible {
                    Ok(())
                } else {
                    Err(KgmError::Type(format!(
                        "column `{}` expects {}, got {} ({v:?})",
                        self.name, self.ty, vt
                    )))
                }
            }
        }
    }
}

/// A tuple; `None` is SQL NULL.
pub type Row = Vec<Option<Value>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_accepts_matching_types() {
        let c = Column::new("pct", ValueType::Float);
        assert!(c.check(Some(&Value::Float(0.5))).is_ok());
        assert!(c.check(Some(&Value::Int(1))).is_ok(), "ints widen to float");
        assert!(c.check(None).is_ok());
    }

    #[test]
    fn check_rejects_mismatches_and_nulls() {
        let c = Column::new("name", ValueType::Str).not_null();
        assert!(c.check(Some(&Value::Int(3))).is_err());
        assert!(c.check(None).is_err());
    }

    #[test]
    fn int_column_rejects_float() {
        let c = Column::new("n", ValueType::Int);
        assert!(c.check(Some(&Value::Float(0.5))).is_err());
    }
}
