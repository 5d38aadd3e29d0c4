//! Concurrent-correctness tests for the thread-safe engine.
//!
//! The contract under test (see the engine module docs):
//!
//! * `Engine: Send + Sync`, and all serving methods take `&self`;
//! * N threads hammering `quantile`/`quantile_batch` against one shared engine get
//!   answers **identical** to a serial run;
//! * interleaved `replace_database` is atomic: every concurrently-served answer
//!   belongs entirely to one database generation (no mixed-generation results), and
//!   the generation recorded on the answer identifies which database produced it;
//! * cache accounting stays exact under concurrency (no lost updates);
//! * writers compile outside the state lock, yet racing `replace_database`,
//!   `register` and `drop_plan` never leave a plan compiled against a generation
//!   other than the catalog's.

use qjoin_engine::{Engine, EngineConfig};
use qjoin_query::query::social_network_query;
use qjoin_query::variable::vars;
use qjoin_ranking::Ranking;
use qjoin_workload::social::SocialConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// `static_assertions`-style compile-time checks: if the engine (or anything it
// embeds) stops being thread-safe, this file fails to build.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<Arc<Engine>>();
    assert_send_sync::<qjoin_engine::EngineStats>();
    assert_send_sync::<qjoin_engine::CacheStats>();
};

fn social_database(rows: usize, seed: u64) -> qjoin_data::Database {
    let config = SocialConfig {
        rows_per_relation: rows,
        seed,
        ..Default::default()
    };
    config.generate().into_parts().1
}

fn engine_with_plan(rows: usize, seed: u64) -> Arc<Engine> {
    let engine = Engine::new();
    engine
        .create_database("social", social_database(rows, seed))
        .unwrap();
    engine
        .register(
            "likes",
            "social",
            social_network_query(),
            Ranking::sum(vars(&["l2", "l3"])),
        )
        .unwrap();
    Arc::new(engine)
}

/// The φ grid shared by the hammer tests.
fn phi_grid() -> Vec<f64> {
    (1..=9).map(|i| i as f64 / 10.0).collect()
}

#[test]
fn n_threads_hammering_quantile_match_serial_answers() {
    let phis = phi_grid();
    // Serial ground truth from an identically-built engine.
    let serial_engine = engine_with_plan(90, 21);
    let serial: Vec<(u128, String)> = phis
        .iter()
        .map(|&phi| {
            let a = serial_engine.quantile("likes", phi).unwrap();
            (a.result.target_index, a.result.weight.to_string())
        })
        .collect();

    let engine = engine_with_plan(90, 21);
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let phis = phis.clone();
            let serial = serial.clone();
            std::thread::spawn(move || {
                // Different threads sweep the grid in different orders, so cache
                // fills race with cold solves in every interleaving.
                for round in 0..4 {
                    for i in 0..phis.len() {
                        let i = (i + t * 3 + round) % phis.len();
                        let a = engine.quantile("likes", phis[i]).unwrap();
                        assert_eq!(
                            (a.result.target_index, a.result.weight.to_string()),
                            serial[i],
                            "thread {t} round {round} phi {}",
                            phis[i]
                        );
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // Cache accounting is exact: one lookup per request, and every miss is either
    // solved directly (a leader's shared batch, counted per φ) or served from
    // another request's in-flight batch (a coalesced waiter). Without coalescing
    // `solved == misses`; with it, waiters replace duplicate solves, so `solved`
    // can only shrink, never exceed the miss count.
    let stats = engine.stats();
    assert_eq!(stats.counters.quantile_requests, 8 * 4 * 9);
    assert_eq!(
        stats.cache.hits + stats.cache.misses,
        stats.counters.quantile_requests
    );
    assert!(stats.counters.solved <= stats.cache.misses);
    assert!(
        stats.counters.solved + stats.counters.coalesced_waiters >= stats.cache.misses,
        "every miss is a solve or a coalesced wait: {stats:?}"
    );
    // Every φ was solved at least once, and never evicted at default capacity.
    assert!(stats.counters.solved >= 9);
    assert_eq!(stats.cache_entries, 9);
}

#[test]
fn concurrent_batches_match_serial_answers() {
    let phis = phi_grid();
    let serial_engine = engine_with_plan(80, 33);
    let serial: Vec<(u128, String)> = serial_engine
        .quantile_batch("likes", &phis)
        .unwrap()
        .iter()
        .map(|a| (a.result.target_index, a.result.weight.to_string()))
        .collect();

    let engine = engine_with_plan(80, 33);
    let threads: Vec<_> = (0..6)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let phis = phis.clone();
            let serial = serial.clone();
            std::thread::spawn(move || {
                // Each thread batches a rotated window of the grid.
                for round in 0..3 {
                    let start = (t + round) % 3;
                    let window: Vec<f64> = phis[start..start + 6].to_vec();
                    let answers = engine.quantile_batch("likes", &window).unwrap();
                    for (k, answer) in answers.iter().enumerate() {
                        let i = start + k;
                        assert_eq!(
                            (answer.result.target_index, answer.result.weight.to_string()),
                            serial[i],
                            "thread {t} round {round} phi {}",
                            phis[i]
                        );
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let stats = engine.stats();
    assert_eq!(stats.counters.batch_requests, 6 * 3);
    assert_eq!(stats.counters.quantile_requests, 6 * 3 * 6);
}

#[test]
fn interleaved_replace_never_mixes_generations() {
    // Two distinguishable databases: different seeds shift both the answer count
    // and the quantile weights.
    let rows = 70;
    let (seed_a, seed_b) = (5, 606);
    let expected = |seed: u64| -> (u128, String) {
        let engine = engine_with_plan(rows, seed);
        let a = engine.quantile("likes", 0.5).unwrap();
        (a.result.total_answers, a.result.weight.to_string())
    };
    let expect_a = expected(seed_a);
    let expect_b = expected(seed_b);
    assert_ne!(expect_a, expect_b, "seeds must produce distinct answers");

    let engine = engine_with_plan(rows, seed_a);
    let stop = Arc::new(AtomicBool::new(false));

    // Writer: flip the database back and forth. Generation g holds seed A when g
    // is odd (gen 1 = the initial A), seed B when even.
    let writer = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for flip in 0..10 {
                let seed = if flip % 2 == 0 { seed_b } else { seed_a };
                engine
                    .replace_database("social", social_database(rows, seed))
                    .unwrap();
            }
            stop.store(true, Ordering::SeqCst);
        })
    };

    // Readers: every answer must be *exactly* the A answer or the B answer, and
    // must agree with the generation stamped on it — a result mixing two
    // generations (old tuples, new count, or vice versa) fails both checks.
    let readers: Vec<_> = (0..6)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let expect_a = expect_a.clone();
            let expect_b = expect_b.clone();
            std::thread::spawn(move || {
                let mut checked = 0u64;
                while !stop.load(Ordering::SeqCst) || checked == 0 {
                    let answer = engine.quantile("likes", 0.5).unwrap();
                    let got = (
                        answer.result.total_answers,
                        answer.result.weight.to_string(),
                    );
                    let want = if answer.generation % 2 == 1 {
                        &expect_a
                    } else {
                        &expect_b
                    };
                    assert_eq!(
                        &got, want,
                        "generation {} must serve its own database's answer",
                        answer.generation
                    );
                    checked += 1;
                }
                checked
            })
        })
        .collect();

    writer.join().unwrap();
    let total_checked: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total_checked > 0);
    // 10 flips recompiled the single dependent plan 10 times (plus 2 initial
    // registrations on the ground-truth engines, not counted here).
    assert_eq!(engine.stats().counters.plan_compilations, 11);
    assert_eq!(engine.catalog().get("social").unwrap().generation, 11);
}

#[test]
fn racing_writers_never_leave_a_plan_behind_its_catalog_generation() {
    // Four writers mix replacements, registrations and drops on one database
    // while four readers solve. Writers compile with no state lock held, so the
    // dangerous interleaving is a plan registered between a replacement's
    // snapshot and its swap: it would survive compiled against the old generation.
    let rows = 120;
    let engine = engine_with_plan(rows, 1);
    let ranking = |w: usize| match w % 2 {
        0 => Ranking::sum(vars(&["l2", "l3"])),
        _ => Ranking::max(social_network_query().variables()),
    };
    let start = Arc::new(std::sync::Barrier::new(8));
    let stop = Arc::new(AtomicBool::new(false));

    // Each writer owns one plan name and cycles register → replace → drop over
    // it, ending registered; odd writers lead with an extra replacement, so
    // registrations and swaps of different writers overlap.
    let replacements = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let writers: Vec<_> = (0..4usize)
        .map(|w| {
            let (engine, start) = (Arc::clone(&engine), Arc::clone(&start));
            let replacements = Arc::clone(&replacements);
            std::thread::spawn(move || {
                let name = format!("p{w}");
                let cycle = ["register", "replace", "drop"].into_iter().cycle().take(13);
                let ops = (w % 2 == 1).then_some("replace").into_iter().chain(cycle);
                start.wait();
                for (step, op) in ops.enumerate() {
                    match op {
                        "register" => {
                            let query = social_network_query();
                            engine.register(&name, "social", query, ranking(w)).unwrap();
                        }
                        "replace" => {
                            let seed = (100 + 10 * step + w) as u64;
                            engine
                                .replace_database("social", social_database(rows, seed))
                                .unwrap();
                            replacements.fetch_add(1, Ordering::SeqCst);
                        }
                        _ => engine.drop_plan(&name).unwrap(),
                    }
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..4usize)
        .map(|r| {
            let (engine, start) = (Arc::clone(&engine), Arc::clone(&start));
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                start.wait();
                let mut served = 0u64;
                while !stop.load(Ordering::SeqCst) || served == 0 {
                    // One read lock sees the plan table and the catalog together:
                    // at every instant, every plan reads the catalog's database.
                    for stats in engine.plan_storage_stats() {
                        assert_eq!(stats.owned_relations, 0, "stale plan {}", stats.plan);
                    }
                    for name in ["likes", "p0", "p1", "p2", "p3"] {
                        let phi = 0.1 + 0.2 * r as f64;
                        match engine.quantile(name, phi) {
                            // An answer belongs to one generation: its count is
                            // that generation's plan's count.
                            Ok(answer) => {
                                served += 1;
                                if let Ok(plan) = engine.plan(name) {
                                    if plan.generation == answer.generation {
                                        assert_eq!(
                                            answer.result.total_answers,
                                            plan.plan.total_answers()
                                        );
                                    }
                                }
                            }
                            Err(qjoin_engine::EngineError::UnknownPlan(_)) => {}
                            Err(e) => panic!("reader {r}, plan {name}: {e}"),
                        }
                    }
                }
                served
            })
        })
        .collect();

    for writer in writers {
        writer.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    for reader in readers {
        assert!(reader.join().unwrap() > 0);
    }

    // Every replacement was applied, and all five plans survive at its generation.
    let entry = engine.catalog().get("social").unwrap().clone();
    assert_eq!(entry.generation, 1 + replacements.load(Ordering::SeqCst));
    let plans = engine.plans();
    assert_eq!(plans.len(), 5, "likes and one plan per writer");
    for plan in plans {
        assert_eq!(plan.generation, entry.generation, "plan {}", plan.name);
        let instance = plan.encoded_instance.as_ref().unwrap();
        for (name, view) in instance.relations() {
            let columns = entry.encoded.relation(name).unwrap();
            assert!(Arc::ptr_eq(view.base(), columns), "plan {}", plan.name);
        }
        let query = instance.query().clone();
        let fresh = qjoin_query::EncodedInstance::from_encoded_database(query, &entry.encoded);
        assert_eq!(
            plan.plan.total_answers(),
            qjoin_exec::encoded::count_answers(&fresh.unwrap()).unwrap(),
            "plan {} must count the catalog's current database",
            plan.name
        );
    }
}

#[test]
fn concurrent_identical_cold_requests_coalesce_into_one_solve() {
    // k threads request the same cold φ at the same time. Scheduling can let some
    // thread finish before another starts (it then hits the cache instead of the
    // gate), so retry with a fresh φ until a round demonstrably coalesced; the
    // correctness assertions hold on every attempt regardless.
    let k = 8;
    let serial_engine = engine_with_plan(150, 77);
    let engine = engine_with_plan(150, 77);
    let mut coalesced = false;
    for attempt in 0..20 {
        let phi = 0.05 + attempt as f64 * 0.017; // fresh (cold) φ per attempt
        let expected = {
            let a = serial_engine.quantile("likes", phi).unwrap();
            (a.result.target_index, a.result.weight.to_string())
        };
        let barrier = Arc::new(std::sync::Barrier::new(k));
        let before = engine.stats().counters;
        let threads: Vec<_> = (0..k)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let a = engine.quantile("likes", phi).unwrap();
                    (a.result.target_index, a.result.weight.to_string())
                })
            })
            .collect();
        for t in threads {
            // Every concurrent answer is bit-identical to the serial solve.
            assert_eq!(t.join().unwrap(), expected, "phi {phi}");
        }
        let after = engine.stats().counters;
        // Identical targets can never multiply solves: the φ is solved at most
        // once per attempt no matter how many threads raced (the rest were cache
        // hits or coalesced waiters).
        assert_eq!(after.solved - before.solved, 1, "phi {phi}");
        if after.coalesced_batches > before.coalesced_batches {
            assert!(after.coalesced_waiters > before.coalesced_waiters);
            coalesced = true;
            break;
        }
    }
    assert!(
        coalesced,
        "20 barrier-started attempts of 8 identical cold requests never coalesced"
    );
}

#[test]
fn racing_replace_cannot_resurrect_a_dead_generation_cache_entry() {
    // Regression: a cold solve that grabbed the old generation's plan handle used
    // to insert its result into the LRU *after* `replace_database` had swept that
    // generation's entries, leaving a dead-generation result resident until
    // eviction. The insert is now guarded on the current catalog generation, so in
    // every interleaving the cache holds no old-generation entry once the replace
    // has completed and the racing solve has finished.
    let rows = 120;
    for attempt in 0..6u64 {
        let engine = engine_with_plan(rows, 40 + attempt);
        let phi = 0.3 + attempt as f64 * 0.1;
        let solver = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.quantile("likes", phi).unwrap())
        };
        // Race the replacement against the in-flight cold solve.
        engine
            .replace_database("social", social_database(rows, 999 + attempt))
            .unwrap();
        let raced = solver.join().unwrap();
        if raced.generation == 1 {
            // The solve ran against the dead generation. Whichever side finished
            // first, its result must not be resident now: either the sweep removed
            // it, or the guarded insert refused it.
            let stats = engine.stats();
            assert_eq!(
                stats.cache_entries, 0,
                "attempt {attempt}: dead-generation entry resurrected: {stats:?}"
            );
            // And a fresh request must actually solve against the new generation.
            let fresh = engine.quantile("likes", phi).unwrap();
            assert!(!fresh.from_cache);
            assert_eq!(fresh.generation, 2);
        } else {
            // The solver lost the race entirely and served the new generation —
            // a legitimately cacheable result.
            assert_eq!(raced.generation, 2);
        }
    }
}

#[test]
fn single_shard_cache_still_correct_under_concurrency() {
    // Degenerate configuration: one shard means every request contends on one
    // cache lock; answers must still be exact.
    let engine = Engine::with_config(EngineConfig {
        cache_capacity: 4, // tiny: forces constant eviction churn
        cache_shards: 1,
        ..Default::default()
    });
    engine
        .create_database("social", social_database(60, 9))
        .unwrap();
    engine
        .register(
            "likes",
            "social",
            social_network_query(),
            Ranking::sum(vars(&["l2", "l3"])),
        )
        .unwrap();
    let engine = Arc::new(engine);
    let phis = phi_grid();
    let serial: Vec<String> = phis
        .iter()
        .map(|&phi| {
            engine
                .quantile("likes", phi)
                .unwrap()
                .result
                .weight
                .to_string()
        })
        .collect();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let phis = phis.clone();
            let serial = serial.clone();
            std::thread::spawn(move || {
                for round in 0..3 {
                    for (i, &phi) in phis.iter().enumerate() {
                        let a = engine.quantile("likes", phi).unwrap();
                        assert_eq!(a.result.weight.to_string(), serial[i], "t{t} r{round}");
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let stats = engine.stats();
    assert_eq!(stats.cache_shards, 1);
    assert!(stats.cache_entries <= 4);
    assert!(
        stats.cache.evictions > 0,
        "capacity 4 must churn: {stats:?}"
    );
}
