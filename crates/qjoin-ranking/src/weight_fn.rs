//! Per-variable input-weight functions `w_x : dom → ℝ`.

use qjoin_data::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An input-weight function assigning a real weight to every domain value of one
/// variable (Section 2.2, "Weight aggregation model").
///
/// The worked examples of the paper use "attribute weights equal to their values",
/// which is [`WeightFn::Identity`]; the other variants cover constants, affine
/// re-scaling, explicit lookup tables, and arbitrary user code.
///
/// [`apply`](WeightFn::apply) returns what the function computes, `-0.0` included;
/// a ranking reads it through [`Ranking::var_weight`](crate::Ranking::var_weight),
/// which canonicalises `-0.0` to `+0.0`.
#[derive(Clone, Default)]
pub enum WeightFn {
    /// `w_x(v) = v` for integer values; non-numeric values map to 0.
    #[default]
    Identity,
    /// `w_x(v) = c` for every value.
    Constant(f64),
    /// `w_x(v) = scale · v + offset` for integer values; non-numeric values map to
    /// `offset`.
    Affine {
        /// Multiplicative factor applied to the numeric value.
        scale: f64,
        /// Additive offset.
        offset: f64,
    },
    /// Explicit lookup table with a default for unmapped values.
    Table {
        /// Value-to-weight table.
        table: Arc<HashMap<Value, f64>>,
        /// Weight of values missing from the table.
        default: f64,
    },
    /// Arbitrary user-provided weight function.
    Custom(Arc<dyn Fn(&Value) -> f64 + Send + Sync>),
}

impl WeightFn {
    /// Builds a lookup-table weight function.
    pub fn table(entries: impl IntoIterator<Item = (Value, f64)>, default: f64) -> Self {
        WeightFn::Table {
            table: Arc::new(entries.into_iter().collect()),
            default,
        }
    }

    /// Builds a custom weight function from a closure.
    pub fn custom(f: impl Fn(&Value) -> f64 + Send + Sync + 'static) -> Self {
        WeightFn::Custom(Arc::new(f))
    }

    /// Evaluates the weight of a value.
    pub fn apply(&self, value: &Value) -> f64 {
        match self {
            WeightFn::Identity => value.as_f64().unwrap_or(0.0),
            WeightFn::Constant(c) => *c,
            WeightFn::Affine { scale, offset } => value
                .as_f64()
                .map(|v| scale * v + offset)
                .unwrap_or(*offset),
            WeightFn::Table { table, default } => *table.get(value).unwrap_or(default),
            WeightFn::Custom(f) => f(value),
        }
    }
}

/// Equal when provably the same function: the same variant with bit-identical
/// parameters, a table or custom function only as the same shared object.
impl PartialEq for WeightFn {
    fn eq(&self, other: &WeightFn) -> bool {
        use WeightFn::*;
        let same = |a: &f64, b: &f64| a.to_bits() == b.to_bits();
        match (self, other) {
            (Identity, Identity) => true,
            (Constant(a), Constant(b)) => same(a, b),
            (
                Affine { scale, offset },
                Affine {
                    scale: s,
                    offset: o,
                },
            ) => same(scale, s) && same(offset, o),
            (
                Table { table, default },
                Table {
                    table: t,
                    default: d,
                },
            ) => Arc::ptr_eq(table, t) && same(default, d),
            (Custom(f), Custom(g)) => Arc::ptr_eq(f, g),
            _ => false,
        }
    }
}

impl fmt::Debug for WeightFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightFn::Identity => write!(f, "Identity"),
            WeightFn::Constant(c) => write!(f, "Constant({c})"),
            WeightFn::Affine { scale, offset } => write!(f, "Affine({scale}·v + {offset})"),
            WeightFn::Table { table, default } => {
                write!(f, "Table({} entries, default {default})", table.len())
            }
            WeightFn::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_uses_the_numeric_value() {
        assert_eq!(WeightFn::Identity.apply(&Value::from(7)), 7.0);
        assert_eq!(WeightFn::Identity.apply(&Value::from(-3)), -3.0);
        assert_eq!(WeightFn::Identity.apply(&Value::from("a")), 0.0);
    }

    #[test]
    fn constant_ignores_the_value() {
        let f = WeightFn::Constant(2.5);
        assert_eq!(f.apply(&Value::from(7)), 2.5);
        assert_eq!(f.apply(&Value::from("anything")), 2.5);
    }

    #[test]
    fn affine_rescales_numeric_values() {
        let f = WeightFn::Affine {
            scale: 2.0,
            offset: 1.0,
        };
        assert_eq!(f.apply(&Value::from(3)), 7.0);
        assert_eq!(f.apply(&Value::from("x")), 1.0);
    }

    #[test]
    fn table_lookups_fall_back_to_default() {
        let f = WeightFn::table(
            [(Value::from("gold"), 10.0), (Value::from("silver"), 5.0)],
            1.0,
        );
        assert_eq!(f.apply(&Value::from("gold")), 10.0);
        assert_eq!(f.apply(&Value::from("bronze")), 1.0);
    }

    #[test]
    fn custom_functions_run_user_code() {
        let f = WeightFn::custom(|v| v.as_int().map(|i| (i * i) as f64).unwrap_or(-1.0));
        assert_eq!(f.apply(&Value::from(4)), 16.0);
        assert_eq!(f.apply(&Value::from("x")), -1.0);
    }

    #[test]
    fn debug_output_is_compact() {
        assert_eq!(format!("{:?}", WeightFn::Identity), "Identity");
        assert!(format!("{:?}", WeightFn::table([], 0.0)).contains("0 entries"));
    }
}
