//! The typed value domain shared by stores, schemas and the reasoner.
//!
//! Values cover the constants `C` of the paper's formal development (Section
//! 4): booleans, integers, floats, strings and dates, plus [`Oid`]s so that
//! labelled nulls (`N`) and linker-Skolem values (`I`) can flow through rule
//! evaluation as first-class terms.

use crate::codec::escape;
use crate::oid::Oid;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Scalar types usable as attribute/property/field domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Calendar date, stored as days since the Unix epoch.
    Date,
    /// An object identifier (ground, null or Skolem).
    Oid,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ValueType::Bool => "bool",
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Str => "string",
            ValueType::Date => "date",
            ValueType::Oid => "oid",
        };
        f.write_str(name)
    }
}

impl ValueType {
    /// Parse a GSL type name.
    pub fn parse(name: &str) -> Option<ValueType> {
        match name {
            "bool" | "boolean" => Some(ValueType::Bool),
            "int" | "integer" | "long" => Some(ValueType::Int),
            "float" | "double" | "decimal" => Some(ValueType::Float),
            "string" | "str" | "text" => Some(ValueType::Str),
            "date" => Some(ValueType::Date),
            "oid" => Some(ValueType::Oid),
            _ => None,
        }
    }
}

/// A runtime value.
///
/// `Float` wraps its bits for `Eq`/`Hash` purposes (NaN never occurs in the
/// engines: every arithmetic producer checks for it).
#[derive(Clone)]
pub enum Value {
    /// Boolean constant.
    Bool(bool),
    /// Integer constant.
    Int(i64),
    /// Float constant. Never NaN by construction.
    Float(f64),
    /// Interned-on-the-heap string constant (cheap to clone).
    Str(Arc<str>),
    /// Date as days since the Unix epoch.
    Date(i32),
    /// An object identifier.
    Oid(Oid),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The runtime type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
            Value::Date(_) => ValueType::Date,
            Value::Oid(_) => ValueType::Oid,
        }
    }

    /// Numeric view (ints widen to floats) used by comparisons and arithmetic.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// OID view.
    pub fn as_oid(&self) -> Option<Oid> {
        match self {
            Value::Oid(o) => Some(*o),
            _ => None,
        }
    }

    /// True if this value is a labelled null.
    pub fn is_labelled_null(&self) -> bool {
        matches!(self, Value::Oid(o) if o.is_null())
    }

    /// Stable single-line text encoding: a type letter, a colon, then the
    /// payload (`B:true`, `I:-3`, `F:0.5`, `S:<escaped>`, `D:18000`,
    /// `O:G7`). Strings are escaped so the output never contains a newline
    /// or a `|`, making values safe to embed in line/pipe-delimited records.
    /// Floats use Rust's shortest round-trip formatting; infinities encode
    /// as `inf`/`-inf` (NaN never occurs by construction).
    pub fn to_text(&self) -> String {
        match self {
            Value::Bool(b) => format!("B:{b}"),
            Value::Int(i) => format!("I:{i}"),
            Value::Float(x) => format!("F:{x}"),
            Value::Str(s) => format!("S:{}", escape(s)),
            Value::Date(d) => format!("D:{d}"),
            Value::Oid(o) => format!("O:{}", o.to_text()),
        }
    }

    /// Total comparison used by conditions and ORDER-style operations.
    ///
    /// Numbers compare numerically across `Int`/`Float`; otherwise values of
    /// different types compare by a fixed type order so sorting is total.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        if let (Some(a), Some(b)) = (self.as_f64(), other.as_f64()) { return a.partial_cmp(&b).unwrap_or(Ordering::Equal) }
        let rank = |v: &Value| match v {
            Value::Bool(_) => 0u8,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Date(_) => 2,
            Value::Str(_) => 3,
            Value::Oid(_) => 4,
        };
        match rank(self).cmp(&rank(other)) {
            Ordering::Equal => match (self, other) {
                (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
                (Value::Date(a), Value::Date(b)) => a.cmp(b),
                (Value::Str(a), Value::Str(b)) => a.cmp(b),
                (Value::Oid(a), Value::Oid(b)) => a.cmp(b),
                _ => Ordering::Equal,
            },
            o => o,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            // Cross numeric equality: 1 == 1.0, as in SQL and Vadalog.
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                *a as f64 == *b
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            (Value::Oid(a), Value::Oid(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Bool(b) => {
                state.write_u8(0);
                b.hash(state);
            }
            // Ints and integral floats must hash identically because they
            // compare equal. Non-integral floats hash by bits.
            Value::Int(i) => {
                state.write_u8(1);
                state.write_i64(*i);
            }
            Value::Float(f) => {
                if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                    state.write_u8(1);
                    state.write_i64(*f as i64);
                } else {
                    state.write_u8(2);
                    state.write_u64(f.to_bits());
                }
            }
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            Value::Date(d) => {
                state.write_u8(4);
                state.write_i32(*d);
            }
            Value::Oid(o) => {
                state.write_u8(5);
                o.hash(state);
            }
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Date(d) => write!(f, "date({d})"),
            Value::Oid(o) => write!(f, "{o:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            other => fmt::Debug::fmt(other, f),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}
impl From<Oid> for Value {
    fn from(o: Oid) -> Self {
        Value::Oid(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fx_hash_one;
    use crate::oid::OidSpace;

    #[test]
    fn cross_numeric_equality_and_hash_agree() {
        let a = Value::Int(3);
        let b = Value::Float(3.0);
        assert_eq!(a, b);
        assert_eq!(fx_hash_one(&a), fx_hash_one(&b));
    }

    #[test]
    fn non_integral_floats_are_distinct() {
        assert_ne!(Value::Float(0.5), Value::Int(0));
        assert_ne!(Value::Float(0.5), Value::Float(0.25));
    }

    #[test]
    fn total_cmp_orders_numbers_numerically() {
        assert_eq!(Value::Int(1).total_cmp(&Value::Float(1.5)), Ordering::Less);
        assert_eq!(Value::Float(2.0).total_cmp(&Value::Int(2)), Ordering::Equal);
    }

    #[test]
    fn total_cmp_is_total_across_types() {
        let vals = [
            Value::Bool(true),
            Value::Int(0),
            Value::str("a"),
            Value::Date(10),
            Value::Oid(Oid::ground(1)),
        ];
        for a in &vals {
            for b in &vals {
                // antisymmetry
                assert_eq!(a.total_cmp(b), b.total_cmp(a).reverse());
            }
        }
    }

    #[test]
    fn labelled_null_detection() {
        assert!(Value::Oid(Oid::new(OidSpace::Null, 9)).is_labelled_null());
        assert!(!Value::Oid(Oid::ground(9)).is_labelled_null());
        assert!(!Value::Int(9).is_labelled_null());
    }

    #[test]
    fn value_type_parse_round_trip() {
        for ty in [
            ValueType::Bool,
            ValueType::Int,
            ValueType::Float,
            ValueType::Str,
            ValueType::Date,
            ValueType::Oid,
        ] {
            assert_eq!(ValueType::parse(&ty.to_string()), Some(ty));
        }
        assert_eq!(ValueType::parse("blob"), None);
    }

    #[test]
    fn display_strings_are_unquoted() {
        assert_eq!(Value::str("abc").to_string(), "abc");
        assert_eq!(format!("{:?}", Value::str("abc")), "\"abc\"");
    }

    #[test]
    fn text_codec_distinguishes_look_alike_variants() {
        // The oracle keys ground facts on `to_text`, so values that compare
        // equal across types or print alike must still get distinct text.
        let vals = [
            Value::Int(3),
            Value::Float(3.0),
            Value::str("3"),
            Value::Date(3),
            Value::Oid(Oid::ground(3)),
            Value::Oid(Oid::new(OidSpace::Null, 3)),
            Value::Oid(Oid::new(OidSpace::Skolem, 3)),
            Value::str("I:3"),
            Value::str("G3"),
            Value::Bool(true),
            Value::str("true"),
            Value::Float(f64::INFINITY),
            Value::str("inf"),
            Value::str(""),
        ];
        let texts: std::collections::BTreeSet<String> = vals.iter().map(Value::to_text).collect();
        assert_eq!(texts.len(), vals.len(), "{texts:?}");
        for s in ["a|b", "line\nbreak", "pipe|newline\nback\\slash\r"] {
            let text = Value::str(s).to_text();
            assert!(!text.contains('\n') && !text.contains('|'), "{text:?}");
        }
    }

    #[test]
    fn value_size_is_small() {
        // Hot type: keep it within three words (Arc<str> is 2 words + tag).
        assert!(std::mem::size_of::<Value>() <= 24);
    }
}
