//! The six named workloads: what each generates from the seed, which plans it
//! registers, and how its measured seconds are split between request kinds.
//!
//! Every workload answers every request kind, because the benchmark contract
//! reports every end-to-end metric on every workload; what differs is the input
//! (which layer dominates a solve) and the traffic mix (which request kind the
//! run spends its time on). The program under test only ever sees the generated
//! `Database`, the query and the rankings.

use qjoin_engine::Accuracy;
use qjoin_query::variable::vars;
use qjoin_query::Instance;
use qjoin_ranking::Ranking;
use qjoin_workload::path::PathConfig;
use qjoin_workload::social::SocialConfig;
use qjoin_workload::star_schema::StarSchemaConfig;

/// ε of the deterministic `eps=` requests and of the sampled requests.
pub const EPSILON: f64 = 0.05;
/// δ of the sampled requests.
pub const DELTA: f64 = 0.01;
/// RNG seed carried by every sampled request (answers repeat exactly).
pub const SAMPLE_SEED: u64 = 11;
/// Fractions per `batch` request.
pub const BATCH: usize = 8;
/// Distinct fractions the cache-hit requests cycle through at most.
pub const WARM_PHIS: usize = 64;
/// Pause before each replacement in the churn workload, so the reader's
/// throughput reflects a fixed refresh cadence rather than back-to-back writes.
pub const CHURN_PAUSE_MS: u64 = 100;

/// The churn reader's pause between requests. Reading flat out, its median sat
/// on the boundary between two scheduling modes of a two-core host (23 or 33 µs
/// from run to run); paced, every request finds the reactor idle, which is also
/// the one place the benchmark sees that case.
pub const READER_THINK: std::time::Duration = std::time::Duration::from_micros(200);

/// The fixed never-repeating fraction sequence: every request of a run takes the
/// next index, so every cold request is a cache miss and the per-φ work is the
/// same on both sides of a comparison.
pub fn phi(index: usize) -> f64 {
    (0.123456789 + index as f64 * 0.6180339887).fract()
}

/// The seed of the database a refresh swaps in (and back out).
pub fn alternate_seed(seed: u64) -> u64 {
    seed ^ 0x5_dead_beef
}

/// The seed of the churn reader's side database.
pub fn side_seed(seed: u64) -> u64 {
    seed.wrapping_add(7)
}

/// A generator and its scale knob.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Source {
    /// `Admin ⋈ Share ⋈ Attend` on the event; users = rows, events = rows / 10.
    Social { rows: usize },
    /// A 3-path; the fan-out per join value is `tuples / domain`.
    Path { tuples: usize, domain: usize },
    /// Orders / Lineitem / Part with linear output.
    Star { lineitems: usize },
}

impl Source {
    /// Generates the instance for a seed.
    pub fn generate(&self, seed: u64) -> Instance {
        match *self {
            Source::Social { rows } => SocialConfig {
                users: rows,
                events: (rows / 10).max(1),
                rows_per_relation: rows,
                max_likes: 1_000,
                event_skew: 0.9,
                seed,
            }
            .generate(),
            Source::Path { tuples, domain } => PathConfig {
                atoms: 3,
                tuples_per_relation: tuples,
                join_domain: domain.max(1),
                weight_range: 1_000_000,
                skew: 0.2,
                seed,
            }
            .generate(),
            Source::Star { lineitems } => StarSchemaConfig {
                seed,
                ..StarSchemaConfig::with_scale(lineitems)
            }
            .generate(),
        }
    }

    /// The same generator at `1 / divisor` of the size (fan-out preserved).
    pub fn shrunk(&self, divisor: usize) -> Source {
        match *self {
            Source::Social { rows } => Source::Social {
                rows: (rows / divisor).max(20),
            },
            Source::Path { tuples, domain } => Source::Path {
                tuples: (tuples / divisor).max(20),
                domain: (domain / divisor).max(2),
            },
            Source::Star { lineitems } => Source::Star {
                lineitems: (lineitems / divisor).max(2_000),
            },
        }
    }
}

/// Shares of the measured seconds given to each request kind on the driving
/// connection. In the churn workload the cache hits come from a second
/// connection that reads for the whole run, so `warm` is zero there.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub cold: f64,
    pub batch: f64,
    pub sample: f64,
    pub warm: f64,
    pub refresh: f64,
}

/// One named workload.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub source: Source,
    /// Plans registered on the main database; the first one takes the traffic.
    pub plans: Vec<(&'static str, Ranking)>,
    /// Accuracy of the "cold" single and batch requests (`Exact`, or `eps=` where
    /// the exact SUM is intractable).
    pub cold: Accuracy,
    pub mix: Mix,
    /// The warm reader runs on an unrelated small database while a writer
    /// replaces the main one.
    pub churn: bool,
}

/// The unrelated database the churn reader is served from.
pub const SIDE_SOURCE: Source = Source::Social { rows: 300 };

/// The plan registered on the side database.
pub fn side_plan() -> (&'static str, Ranking) {
    ("hot", Ranking::sum(vars(&["l2", "l3"])))
}

/// All workloads, in reporting order.
pub fn all() -> Vec<Spec> {
    let social_sum = Ranking::sum(vars(&["l2", "l3"]));
    let star_rev = Ranking::sum(vars(&["wl"]));
    vec![
        Spec {
            name: "social_sum",
            why: "the paper's motivating query: exact SUM(l2,l3) through the dyadic adjacent-pair trimmer; a solve is mostly trim rounds, no leaf",
            source: Source::Social { rows: 600 },
            plans: vec![("main", social_sum.clone())],
            cold: Accuracy::Exact,
            mix: Mix { cold: 0.35, batch: 0.30, sample: 0.10, warm: 0.10, refresh: 0.15 },
            churn: false,
        },
        Spec {
            name: "path3_lex",
            why: "LEX(x1,x4) on a 3-path: partition-union trims (shared with MIN/MAX), where the pivot scan takes about twice the share it has on social_sum",
            source: Source::Path { tuples: 3_000, domain: 300 },
            plans: vec![("main", Ranking::lex(vars(&["x1", "x4"])))],
            cold: Accuracy::Exact,
            mix: Mix { cold: 0.35, batch: 0.30, sample: 0.10, warm: 0.10, refresh: 0.15 },
            churn: false,
        },
        Spec {
            name: "path3_approx",
            why: "SUM(x1..x4) is intractable exactly: the only workload where the eps-lossy trimmer trims (about six rounds) and where sampled requests are a main share",
            source: Source::Path { tuples: 200, domain: 20 },
            plans: vec![("main", Ranking::sum(vars(&["x1", "x2", "x3", "x4"])))],
            cold: Accuracy::Approximate { epsilon: EPSILON },
            mix: Mix { cold: 0.35, batch: 0.25, sample: 0.15, warm: 0.10, refresh: 0.15 },
            churn: false,
        },
        Spec {
            name: "star_leaf",
            why: "linear-output star schema, zero trim rounds: the leaf (enumerate and select) is the whole steady-state solve, and set-up and memory are largest here",
            source: Source::Star { lineitems: 100_000 },
            plans: vec![("main", star_rev.clone())],
            cold: Accuracy::Exact,
            mix: Mix { cold: 0.35, batch: 0.20, sample: 0.15, warm: 0.10, refresh: 0.20 },
            churn: false,
        },
        Spec {
            name: "serve_hot",
            why: "cache hits on a small database: the solve layers do nothing, all time is protocol, reactor, worker hand-off, cache lookup and span recording",
            source: Source::Social { rows: 300 },
            plans: vec![("main", social_sum)],
            cold: Accuracy::Exact,
            mix: Mix { cold: 0.15, batch: 0.20, sample: 0.10, warm: 0.40, refresh: 0.15 },
            churn: false,
        },
        Spec {
            name: "replace_churn",
            why: "a writer replaces a two-plan star database on a fixed cadence while a paced reader is served cache hits from an unrelated database: what a refresh costs and what it does to other traffic",
            source: Source::Star { lineitems: 60_000 },
            plans: vec![
                ("main", star_rev),
                ("tot", Ranking::sum(vars(&["wo", "wl", "wp"]))),
            ],
            cold: Accuracy::Exact,
            mix: Mix { cold: 0.15, batch: 0.15, sample: 0.15, warm: 0.0, refresh: 0.55 },
            churn: true,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|spec| spec.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_phi_sequence_never_repeats_and_stays_in_range() {
        let mut seen: Vec<u64> = (0..50_000).map(|i| phi(i).to_bits()).collect();
        assert!((0..50_000).all(|i| (0.0..1.0).contains(&phi(i))));
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 50_000);
    }

    #[test]
    fn mixes_use_the_whole_run() {
        for spec in all() {
            let m = spec.mix;
            let total = m.cold + m.batch + m.sample + m.warm + m.refresh;
            assert!((total - 1.0).abs() < 1e-9, "{}: {total}", spec.name);
        }
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let source = Source::Path {
            tuples: 50,
            domain: 5,
        };
        let a = source.generate(5).into_parts().1;
        let b = source.generate(5).into_parts().1;
        let c = source.generate(6).into_parts().1;
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }
}
