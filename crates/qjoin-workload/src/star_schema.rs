//! A data-warehouse orders/lineitem/part star schema — the scaling experiment's
//! million-tuple workload.
//!
//! The schema mirrors a trimmed TPC-H fragment:
//!
//! ```text
//! Orders(okey, owt), Lineitem(okey, pkey, lwt), Part(pkey, pwt)
//! ```
//!
//! `Lineitem` is the fact table and dominates the database size; `Orders` and
//! `Part` are dimensions roughly 10x and 100x smaller. Every lineitem's `okey`
//! and `pkey` are drawn (Zipf-skewed) from the dimension key ranges, and every
//! dimension key is present, so every lineitem joins exactly one order and one
//! part: `|Q(D)| = lineitems`, i.e. the output is *linear* in the input. That is
//! exactly the regime the scaling experiment needs — a near-linear time/Θ(n)
//! curve is meaningful only when the output itself does not blow up.
//!
//! Two rankings expose both sides of the Theorem 5.6 dichotomy on the same
//! instance: [`StarSchemaConfig::revenue_ranking`] (SUM over `lwt` alone, one
//! atom — exact quantiles are tractable) and
//! [`StarSchemaConfig::total_weight_ranking`] (SUM over `owt + lwt + pwt` —
//! `owt` and `pwt` live in non-adjacent atoms, so exact quantiles are NP-hard
//! and only the approximate paths apply).

use crate::ZipfSampler;
use qjoin_data::{Database, Relation, Value};
use qjoin_query::variable::vars;
use qjoin_query::{Atom, Instance, JoinQuery};
use qjoin_ranking::Ranking;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the orders/lineitem/part instance.
#[derive(Clone, Debug, PartialEq)]
pub struct StarSchemaConfig {
    /// Rows in the `Lineitem` fact table (the scale knob: 10^6–10^7 for the
    /// scaling experiment, smaller for tests).
    pub lineitems: usize,
    /// Rows in the `Orders` dimension (every `okey` in `0..orders` occurs).
    pub orders: usize,
    /// Rows in the `Part` dimension (every `pkey` in `0..parts` occurs).
    pub parts: usize,
    /// Weights are integers in `0..weight_range`.
    pub weight_range: i64,
    /// Zipf skew of the fact table's foreign keys (popular orders/parts).
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StarSchemaConfig {
    fn default() -> Self {
        StarSchemaConfig::with_scale(10_000)
    }
}

impl StarSchemaConfig {
    /// A config with `lineitems` fact rows and the canonical 10:1 / 100:1
    /// dimension ratios (at least one row each).
    pub fn with_scale(lineitems: usize) -> Self {
        StarSchemaConfig {
            lineitems,
            orders: (lineitems / 10).max(1),
            parts: (lineitems / 100).max(1),
            weight_range: 10_000,
            skew: 0.6,
            seed: 2023,
        }
    }

    /// The query `Orders(o, wo), Lineitem(o, p, wl), Part(p, wp)`.
    pub fn query() -> JoinQuery {
        JoinQuery::new(vec![
            Atom::from_names("Orders", &["o", "wo"]),
            Atom::from_names("Lineitem", &["o", "p", "wl"]),
            Atom::from_names("Part", &["p", "wp"]),
        ])
    }

    /// Generates the instance.
    pub fn generate(&self) -> Instance {
        assert!(self.lineitems >= 1 && self.orders >= 1 && self.parts >= 1);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let weight_range = self.weight_range.max(1);
        let order_key = ZipfSampler::new(self.orders, self.skew);
        let part_key = ZipfSampler::new(self.parts, self.skew);

        let mut orders = Relation::new("Orders", 2);
        for okey in 0..self.orders {
            let wo = rng.random_range(0..weight_range);
            orders
                .push(vec![Value::from(okey as i64), Value::from(wo)])
                .expect("arity");
        }
        let mut part = Relation::new("Part", 2);
        for pkey in 0..self.parts {
            let wp = rng.random_range(0..weight_range);
            part.push(vec![Value::from(pkey as i64), Value::from(wp)])
                .expect("arity");
        }
        let mut lineitem = Relation::new("Lineitem", 3);
        for _ in 0..self.lineitems {
            let okey = order_key.sample(&mut rng) as i64;
            let pkey = part_key.sample(&mut rng) as i64;
            let wl = rng.random_range(0..weight_range);
            lineitem
                .push(vec![Value::from(okey), Value::from(pkey), Value::from(wl)])
                .expect("arity");
        }

        Instance::new(
            Self::query(),
            Database::from_relations([orders, lineitem, part]).expect("distinct names"),
        )
        .expect("generated instance is consistent")
    }

    /// SUM over the lineitem weight alone: all weighted variables live in one
    /// atom, so exact quantiles are tractable (Theorem 5.6, tractable side).
    pub fn revenue_ranking(&self) -> Ranking {
        Ranking::sum(vars(&["wl"]))
    }

    /// SUM over all three weights: `wo` (in `Orders`) and `wp` (in `Part`) sit
    /// in non-adjacent join-tree atoms, the intractable side of the dichotomy —
    /// only the ε-approximate and sampling paths serve this ranking.
    pub fn total_weight_ranking(&self) -> Ranking {
        Ranking::sum(vars(&["wo", "wl", "wp"]))
    }

    /// Total number of tuples the generated database will contain.
    pub fn database_size(&self) -> usize {
        self.lineitems + self.orders + self.parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_exec::count::count_answers;

    #[test]
    fn shape_and_determinism() {
        let config = StarSchemaConfig::with_scale(1_000);
        let inst = config.generate();
        assert_eq!(inst.query().num_atoms(), 3);
        assert_eq!(inst.database_size(), config.database_size());
        assert_eq!(config.database_size(), 1_000 + 100 + 10);
        assert_eq!(inst.database(), config.generate().database());
        let reseeded = StarSchemaConfig {
            seed: 1,
            ..config.clone()
        };
        assert_ne!(inst.database(), reseeded.generate().database());
    }

    #[test]
    fn every_lineitem_joins_exactly_once() {
        // Dimension keys cover the foreign-key domains, so the join output is
        // linear in the fact table — the property the scaling curve relies on.
        let config = StarSchemaConfig::with_scale(2_000);
        let inst = config.generate();
        assert_eq!(count_answers(&inst).unwrap(), config.lineitems as u128);
    }

    #[test]
    fn rankings_sit_on_opposite_sides_of_the_dichotomy() {
        let config = StarSchemaConfig::with_scale(500);
        let inst = config.generate();
        let lineitem = inst.query().atom(1);
        // Revenue: the single weighted variable lives in the fact atom.
        for v in config.revenue_ranking().weighted_vars() {
            assert!(lineitem.contains(v));
        }
        // Total weight: wo and wp live in atoms that share no variable, so no
        // single atom (nor adjacent pair) covers the weighted set.
        let ranking = config.total_weight_ranking();
        let weighted = ranking.weighted_vars();
        let orders = inst.query().atom(0);
        let part = inst.query().atom(2);
        assert!(orders.contains(&weighted[0]));
        assert!(part.contains(&weighted[2]));
        assert!(!orders.contains(&weighted[2]));
        assert!(!part.contains(&weighted[0]));
    }
}
