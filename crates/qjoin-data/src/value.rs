//! Domain constants.

use std::fmt;
use std::sync::Arc;

/// A constant from the database domain `dom`.
///
/// Values are what tuples are made of and what query variables are mapped to by query
/// answers. They need to be cheaply clonable, hashable, and totally ordered so that they
/// can serve as join keys, grouping keys, and lexicographic-order inputs.
///
/// Two variants are supported, and every integer orders before every string:
///
/// * [`Value::Int`] — the common case for identifiers and numeric attributes
///   (e.g. `#likes` in the paper's social-network example).
/// * [`Value::Str`] — interned strings for symbolic identifiers. Stored behind an
///   [`Arc`] so cloning a tuple or a dictionary entry is a reference-count bump.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A 64-bit signed integer constant.
    Int(i64),
    /// An interned string constant.
    Str(Arc<str>),
}

impl Value {
    /// Builds a string value, interning the given text.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Returns the integer payload if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Interprets the value as a numeric weight, following the paper's convention of
    /// "attribute weights equal to their values" used in all worked examples.
    ///
    /// Non-numeric values have no default numeric interpretation and map to `None`;
    /// ranking functions that need weights for such values must supply an explicit
    /// weight function.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::HashSet;

    #[test]
    fn int_roundtrip_and_accessors() {
        let v = Value::from(42);
        assert_eq!(v.as_int(), Some(42));
        assert_eq!(v.as_f64(), Some(42.0));
        assert_eq!(v.as_str(), None);
    }

    #[test]
    fn str_roundtrip_and_accessors() {
        let v = Value::from("alice");
        assert_eq!(v.as_str(), Some("alice"));
        assert_eq!(v.as_int(), None);
        assert_eq!(v.as_f64(), None);
    }

    #[test]
    fn negative_ints_order_below_positive() {
        assert_eq!(Value::from(-5).cmp(&Value::from(3)), Ordering::Less);
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_ne!(Value::from("x"), Value::from("y"));
        assert_ne!(Value::from(1), Value::from("1"));
    }

    #[test]
    fn values_are_hashable_and_deduplicate() {
        let set: HashSet<Value> = [
            Value::from(1),
            Value::from(1),
            Value::from("a"),
            Value::from("a"),
            Value::from("1"),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn display_and_debug_render() {
        assert_eq!(Value::from(7).to_string(), "7");
        assert_eq!(Value::from("ev").to_string(), "ev");
        assert_eq!(format!("{:?}", Value::from("ev")), "\"ev\"");
        assert_eq!(format!("{:?}", Value::from(-7)), "-7");
    }

    #[test]
    fn ordering_is_total_across_variants() {
        let mut vals = vec![
            Value::from("b"),
            Value::from(2),
            Value::from("a"),
            Value::from(1),
        ];
        vals.sort();
        // All ints come before all strings (enum variant order), and each variant is
        // internally ordered.
        assert_eq!(
            vals,
            vec![
                Value::from(1),
                Value::from(2),
                Value::from("a"),
                Value::from("b")
            ]
        );
    }
}
