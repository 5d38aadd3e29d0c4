//! Random acyclic queries and databases for property-based testing.
//!
//! Property tests compare the quantile algorithms against brute force on many random
//! instances; for that they need a generator of *acyclic* queries with non-trivial
//! join structure. The construction grows a random join tree directly, which
//! guarantees acyclicity by construction: each new atom shares a random non-empty
//! subset of variables with an existing atom and adds a few fresh ones.

use qjoin_data::{Database, Relation, Value};
use qjoin_query::query::{path_query, social_network_query, star_query};
use qjoin_query::{Atom, Instance, JoinQuery, Variable};
use qjoin_ranking::{AggregateKind, Ranking, WeightFn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the random-instance generator.
#[derive(Clone, Debug)]
pub struct RandomAcyclicConfig {
    /// Number of atoms (at least 1).
    pub atoms: usize,
    /// Maximum arity of each atom.
    pub max_arity: usize,
    /// Tuples per relation.
    pub tuples_per_relation: usize,
    /// Domain size of every variable (small domains create dense joins).
    pub domain: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomAcyclicConfig {
    fn default() -> Self {
        RandomAcyclicConfig {
            atoms: 3,
            max_arity: 3,
            tuples_per_relation: 20,
            domain: 6,
            seed: 0,
        }
    }
}

impl RandomAcyclicConfig {
    /// Generates a random acyclic instance.
    pub fn generate(&self) -> Instance {
        assert!(self.atoms >= 1 && self.max_arity >= 1 && self.domain >= 1);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut atoms: Vec<Atom> = Vec::with_capacity(self.atoms);
        let mut var_counter = 0usize;
        let fresh_var = |counter: &mut usize| {
            let v = Variable::new(format!("x{}", *counter));
            *counter += 1;
            v
        };

        for i in 0..self.atoms {
            let arity = rng.random_range(1..=self.max_arity);
            let mut vars: Vec<Variable> = Vec::with_capacity(arity);
            if i > 0 {
                // Share a random non-empty prefix of variables with a random earlier
                // atom; attaching to an existing atom keeps the query acyclic.
                let parent = &atoms[rng.random_range(0..i)];
                let parent_vars: Vec<Variable> = parent.variable_set().into_iter().collect();
                let shared = rng.random_range(1..=parent_vars.len().min(arity));
                for v in parent_vars.iter().take(shared) {
                    vars.push(v.clone());
                }
            }
            while vars.len() < arity {
                vars.push(fresh_var(&mut var_counter));
            }
            atoms.push(Atom::new(format!("R{i}"), vars));
        }

        let query = JoinQuery::new(atoms);
        let mut db = Database::new();
        for atom in query.atoms() {
            let mut rel = Relation::new(atom.relation(), atom.arity());
            for _ in 0..self.tuples_per_relation {
                let row: Vec<Value> = (0..atom.arity())
                    .map(|_| Value::from(rng.random_range(0..self.domain)))
                    .collect();
                rel.push(row).expect("arity matches");
            }
            // Relations are sets in the paper's model; small domains make duplicate
            // draws likely, so deduplicate before handing the instance out.
            rel.dedup();
            db.add_relation(rel).expect("distinct names");
        }
        Instance::new(query, db).expect("generated instance is consistent")
    }
}

/// A small instance of a named shape, for property tests that must reach shapes a
/// random tree rarely produces: `shape` 0 a 3-path, 1 a 3-star, 2 the social-network
/// query, 3 a self-join `R(a, b), R(b, c)`, 4 an atom repeating a variable that
/// another atom shares `R(a, a, b), S(b, c), T(a, d)` — each over relations of 4–9
/// random rows from a four-value domain (duplicates kept) — and anything else a
/// random acyclic query of one to three atoms.
pub fn shaped_instance(shape: usize, seed: u64) -> Instance {
    let query = match shape {
        0 => path_query(3),
        1 => star_query(3),
        2 => social_network_query(),
        3 => JoinQuery::new(vec![
            Atom::from_names("R", &["a", "b"]),
            Atom::from_names("R", &["b", "c"]),
        ]),
        4 => JoinQuery::new(vec![
            Atom::from_names("R", &["a", "a", "b"]),
            Atom::from_names("S", &["b", "c"]),
            Atom::from_names("T", &["a", "d"]),
        ]),
        _ => {
            let config = RandomAcyclicConfig {
                atoms: 1 + (seed % 3) as usize,
                tuples_per_relation: 12,
                domain: 5,
                seed,
                ..Default::default()
            };
            return config.generate();
        }
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    for atom in query.atoms() {
        if db.relation(atom.relation()).is_ok() {
            continue;
        }
        let mut rel = Relation::new(atom.relation(), atom.arity());
        for _ in 0..rng.random_range(4..=9usize) {
            let row = (0..atom.arity()).map(|_| Value::from(rng.random_range(0..4i64)));
            rel.push(row.collect()).expect("arity matches");
        }
        db.add_relation(rel).expect("distinct names");
    }
    Instance::new(query, db).expect("generated instance is consistent")
}

/// A ranking of the given aggregate over every other variable of the instance whose
/// answers tie heavily: per variable the weights take one value (`domain` 0, so
/// every answer weighs the same), the two zeros `-0.0` / `+0.0` (1, which the ranking
/// reads as one weight), two values (2), three (3), or the values themselves
/// (anything else).
pub fn tie_heavy_ranking(instance: &Instance, kind: AggregateKind, domain: usize) -> Ranking {
    let variables = instance.query().variables();
    let weighted: Vec<Variable> = variables.iter().rev().step_by(2).cloned().collect();
    let modulo = |modulus: i64| {
        WeightFn::custom(move |v| v.as_f64().map_or(0.0, |v| (v as i64 % modulus) as f64))
    };
    let weight_fn = match domain {
        0 => WeightFn::Constant(2.5),
        1 => WeightFn::custom(|v| match v.as_f64() {
            Some(v) if v as i64 % 2 == 0 => -0.0,
            _ => 0.0,
        }),
        2 => modulo(2),
        3 => modulo(3),
        _ => WeightFn::Identity,
    };
    weighted
        .iter()
        .fold(Ranking::new(kind, weighted.clone()), |ranking, var| {
            ranking.with_weight_fn(var.clone(), weight_fn.clone())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjoin_query::acyclicity::is_acyclic;

    #[test]
    fn generated_queries_are_always_acyclic() {
        for seed in 0..50 {
            for atoms in 1..=5 {
                let inst = RandomAcyclicConfig {
                    atoms,
                    seed,
                    ..Default::default()
                }
                .generate();
                assert!(is_acyclic(inst.query()), "seed {seed}, atoms {atoms}");
            }
        }
    }

    #[test]
    fn generated_instances_validate_and_vary_with_seed() {
        let a = RandomAcyclicConfig {
            seed: 1,
            ..Default::default()
        }
        .generate();
        let b = RandomAcyclicConfig {
            seed: 2,
            ..Default::default()
        }
        .generate();
        assert_ne!(a.database(), b.database());
        assert_eq!(a.query().num_atoms(), 3);
    }

    #[test]
    fn many_random_instances_have_answers_sometimes() {
        // With a small domain, joins are dense enough that most instances are
        // non-empty; make sure the generator is not degenerate.
        let mut non_empty = 0;
        for seed in 0..30 {
            let inst = RandomAcyclicConfig {
                atoms: 3,
                domain: 4,
                tuples_per_relation: 15,
                seed,
                ..Default::default()
            }
            .generate();
            if qjoin_exec::count::count_answers(&inst).unwrap() > 0 {
                non_empty += 1;
            }
        }
        assert!(non_empty > 15, "only {non_empty}/30 instances had answers");
    }
}
