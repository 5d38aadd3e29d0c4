//! k-path join instances.

use crate::ZipfSampler;
use qjoin_data::{Database, Relation, Value};
use qjoin_query::query::path_query;
use qjoin_query::Instance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a k-path instance `R_1(x_1, x_2), ..., R_k(x_k, x_{k+1})`.
///
/// Every relation holds `tuples_per_relation` rows. Interior variables
/// (`x_2, ..., x_k`) are drawn from a domain of `join_domain` values, which controls
/// the join fan-out and therefore how much larger than the input the join result is;
/// endpoint variables carry weights drawn from `0..weight_range`.
#[derive(Clone, Debug, PartialEq)]
pub struct PathConfig {
    /// Number of atoms `k`.
    pub atoms: usize,
    /// Tuples per relation.
    pub tuples_per_relation: usize,
    /// Domain size of the join (interior) variables.
    pub join_domain: usize,
    /// Weights are integers in `0..weight_range`.
    pub weight_range: i64,
    /// Zipf skew of the join-variable distribution (0 = uniform).
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PathConfig {
    fn default() -> Self {
        PathConfig {
            atoms: 3,
            tuples_per_relation: 1000,
            join_domain: 100,
            weight_range: 10_000,
            skew: 0.0,
            seed: 42,
        }
    }
}

impl PathConfig {
    /// Generates the instance.
    pub fn generate(&self) -> Instance {
        assert!(self.atoms >= 1);
        assert!(self.join_domain >= 1);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let join_key = ZipfSampler::new(self.join_domain, self.skew);
        let mut relations = Vec::with_capacity(self.atoms);
        for i in 1..=self.atoms {
            let mut rel = Relation::new(format!("R{i}"), 2);
            for _ in 0..self.tuples_per_relation {
                // The first column is x_i, the second x_{i+1}: endpoints get weight
                // values, interior columns get join-domain values.
                let first = if i == 1 {
                    rng.random_range(0..self.weight_range.max(1))
                } else {
                    join_key.sample(&mut rng) as i64
                };
                let second = if i == self.atoms {
                    rng.random_range(0..self.weight_range.max(1))
                } else {
                    join_key.sample(&mut rng) as i64
                };
                rel.push(vec![Value::from(first), Value::from(second)])
                    .expect("arity is fixed");
            }
            relations.push(rel);
        }
        Instance::new(
            path_query(self.atoms),
            Database::from_relations(relations).expect("distinct relation names"),
        )
        .expect("generated instance is consistent")
    }

    /// Total number of tuples the generated database will contain.
    pub fn database_size(&self) -> usize {
        self.atoms * self.tuples_per_relation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_exec::count::count_answers;

    #[test]
    fn generated_instance_has_requested_shape() {
        let config = PathConfig {
            atoms: 3,
            tuples_per_relation: 200,
            join_domain: 10,
            weight_range: 50,
            skew: 0.0,
            seed: 7,
        };
        let inst = config.generate();
        assert_eq!(inst.query().num_atoms(), 3);
        assert_eq!(inst.database_size(), 600);
        assert_eq!(config.database_size(), 600);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = PathConfig::default();
        let a = config.generate();
        let b = config.generate();
        assert_eq!(a.database(), b.database());
        let different = PathConfig {
            seed: 43,
            ..PathConfig::default()
        }
        .generate();
        assert_ne!(a.database(), different.database());
    }

    #[test]
    fn small_join_domain_produces_many_answers() {
        // With a small join domain the expected output is much larger than the input.
        let inst = PathConfig {
            atoms: 3,
            tuples_per_relation: 300,
            join_domain: 5,
            weight_range: 1000,
            skew: 0.0,
            seed: 1,
        }
        .generate();
        let answers = count_answers(&inst).unwrap();
        assert!(answers > 10 * inst.database_size() as u128);
    }

    #[test]
    fn skewed_instances_still_join() {
        let inst = PathConfig {
            atoms: 2,
            tuples_per_relation: 150,
            join_domain: 30,
            weight_range: 100,
            skew: 1.2,
            seed: 5,
        }
        .generate();
        assert!(count_answers(&inst).unwrap() > 0);
    }
}
