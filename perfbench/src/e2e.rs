//! The end-to-end run: client-observed metrics of one workload, tracing off.
//!
//! A closed loop — the client blocks for each reply, as real callers do — over
//! one connection (two in the churn workload: a reader and a writer). The
//! measured seconds are split between request kinds by the workload's mix, the
//! kinds interleaved over the whole run, so a run's length does not depend on
//! the host's speed and a passing disturbance does not land on one metric.

use crate::check::{self, ask, Logged, Reply, Tally};
use crate::host;
use crate::serve::{self, Catalogued, Served};
use crate::stats::{median, summarize, Summary};
use crate::workloads::{
    self, phi, Spec, BATCH, CHURN_PAUSE_MS, READER_THINK, SIDE_SOURCE, WARM_PHIS,
};
use qjoin_engine::Accuracy;
use qjoin_server::Client;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up is repeated at least this often …
const MIN_SETUPS: usize = 3;
/// … and, for small inputs, until this much time has gone into it (or the cap).
const SETUP_BUDGET: Duration = Duration::from_millis(400);
const MAX_SETUPS: usize = 15;
/// Every request kind is asked at least this often, whatever its share.
const MIN_REQUESTS: usize = 3;
/// Cache hits per step of the warm lane.
const WARM_BURST: usize = 200;
/// Freshly set-up engines a run is spread over.
const EPOCHS: usize = 4;
/// Fractions the churn reader cycles through (answered cold at each epoch's start).
const SIDE_PHIS: usize = 16;

/// The two generated main databases (a refresh alternates between them) and,
/// for the churn workload, the reader's side database.
pub struct Inputs {
    pub variants: [Catalogued; 2],
    pub side: Option<Catalogued>,
    pub generate: Duration,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let started = Instant::now();
        let variants = [seed, workloads::alternate_seed(seed)]
            .map(|s| Catalogued::generate("main", spec.source, s, spec.plans.clone()));
        let side = spec.churn.then(|| {
            let seed = workloads::side_seed(seed);
            Catalogued::generate("side", SIDE_SOURCE, seed, vec![workloads::side_plan()])
        });
        Inputs {
            variants,
            side,
            generate: started.elapsed(),
        }
    }

    /// What set-up catalogues: the first main variant and the side database.
    pub fn catalogue(&self) -> Vec<Catalogued> {
        let mut all = vec![self.variants[0].clone()];
        all.extend(self.side.clone());
        all
    }
}

/// What one end-to-end run observed.
pub struct Observed {
    pub metrics: Vec<(&'static str, f64)>,
    pub tally: Tally,
    /// Human-readable context: sample counts, tails, host state.
    pub notes: Vec<String>,
}

/// The request kinds a run is split between.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Cold,
    Batch,
    Sample,
    Warm,
    Refresh,
}

/// One request kind's share of the run, the time it has used, and its samples.
struct Lane {
    kind: Kind,
    share: f64,
    spent: f64,
    steps: usize,
    /// Client-observed latencies in seconds.
    samples: Vec<f64>,
}

/// The connection under measurement, the fraction counter, and the request log.
struct Session<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    served: &'a Served,
    client: Client,
    next_phi: usize,
    /// Index of the main variant currently catalogued.
    variant: usize,
    log: Vec<Logged>,
    /// Cache hits on the main plan: `(command, first answer)` of the cold
    /// single-fraction requests since the last refresh.
    warm: Vec<(String, Reply)>,
    warm_sent: usize,
    tally: Tally,
}

impl Session<'_> {
    fn take_phis(&mut self, n: usize) -> Vec<f64> {
        let phis = (self.next_phi..self.next_phi + n).map(phi).collect();
        self.next_phi += n;
        phis
    }

    /// One cold request on the main plan; returns the round trip in seconds.
    fn cold(&mut self, n: usize, accuracy: Accuracy) -> f64 {
        let phis = self.take_phis(n);
        let (elapsed, logged) = ask(
            &mut self.client,
            "main",
            self.variant,
            &phis,
            accuracy,
            n > 1,
        );
        if let (false, Some(reply)) = (logged.batch, &logged.replies[0]) {
            if self.warm.len() == WARM_PHIS {
                self.warm.remove(0);
            }
            let line = check::command("main", &phis, accuracy, false);
            self.warm.push((line, reply.clone()));
        }
        self.log.push(logged);
        elapsed.as_secs_f64()
    }

    /// Swaps the other main variant in and times the call through to the first
    /// reply served from the new generation.
    fn refresh(&mut self) -> f64 {
        let started = Instant::now();
        self.variant = 1 - self.variant;
        let replacement = Arc::clone(&self.inputs.variants[self.variant].database);
        self.served
            .engine
            .replace_database("main", replacement)
            .expect("the replacement has the same schema");
        // The replacement invalidated every cached answer of the plan.
        self.warm.clear();
        self.cold(1, self.spec.cold);
        started.elapsed().as_secs_f64()
    }

    /// One step of a lane: returns the time it took and its latency samples.
    fn step(&mut self, kind: Kind) -> (f64, Vec<f64>) {
        let single = |latency: f64| (latency, vec![latency]);
        match kind {
            Kind::Cold => single(self.cold(1, self.spec.cold)),
            Kind::Batch => single(self.cold(BATCH, self.spec.cold)),
            Kind::Sample => single(self.cold(1, check::sampled())),
            Kind::Refresh if self.spec.churn => {
                std::thread::sleep(Duration::from_millis(CHURN_PAUSE_MS));
                let latency = self.refresh();
                (latency + CHURN_PAUSE_MS as f64 / 1e3, vec![latency])
            }
            Kind::Refresh => single(self.refresh()),
            Kind::Warm => {
                let started = Instant::now();
                let latencies = (0..WARM_BURST)
                    .map(|_| {
                        let (line, first) = &self.warm[self.warm_sent % self.warm.len()];
                        self.warm_sent += 1;
                        check::hit(&mut self.client, line, Some(first), &mut self.tally)
                    })
                    .collect();
                (started.elapsed().as_secs_f64(), latencies)
            }
        }
    }

    /// Splits `seconds` between the lanes by their shares: each step goes to
    /// the lane furthest behind its share of the time used so far, so every
    /// kind's samples are spread over the whole run and a disturbance of the
    /// host touches all metrics a little instead of one metric a lot.
    fn drive(&mut self, lanes: &mut [Lane], seconds: f64) {
        let started = Instant::now();
        loop {
            let used: f64 = lanes.iter().map(|l| l.spent).sum();
            let done = started.elapsed().as_secs_f64() >= seconds;
            let next = if done {
                // Every kind is asked a few times, whatever its share.
                lanes
                    .iter_mut()
                    .find(|l| l.share > 0.0 && l.steps < MIN_REQUESTS)
            } else {
                lanes.iter_mut().filter(|l| l.share > 0.0).max_by(|a, b| {
                    let behind = |l: &Lane| l.share * used - l.spent;
                    behind(a).total_cmp(&behind(b))
                })
            };
            let Some(lane) = next else { break };
            let (spent, samples) = self.step(lane.kind);
            lane.spent += spent;
            lane.steps += 1;
            lane.samples.extend(samples);
        }
    }
}

fn ms(summary: &Summary) -> String {
    let tail = summary.tail.map_or(String::new(), |(p, v)| {
        format!(" p{}={:.3}", p * 100.0, v * 1e3)
    });
    format!(
        "n={} p50={:.3}{tail} max={:.3} ms",
        summary.samples,
        summary.p50 * 1e3,
        summary.max * 1e3
    )
}

/// Runs one workload end to end for `seconds` measured seconds.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Observed {
    let calibration_before = host::calibration_ms();
    let mut notes = Vec::new();
    let inputs = Inputs::generate(spec, seed);
    let catalogue = inputs.catalogue();

    let mix = spec.mix;
    let mut lanes = [
        (Kind::Cold, mix.cold),
        (Kind::Batch, mix.batch),
        (Kind::Sample, mix.sample),
        (Kind::Warm, mix.warm),
        (Kind::Refresh, mix.refresh),
    ]
    .map(|(kind, share)| Lane {
        kind,
        share,
        spent: 0.0,
        steps: 0,
        samples: Vec::new(),
    });
    let mut setups = Vec::new();
    let mut log = Vec::new();
    let mut tally = Tally::default();
    let mut next_phi = 0;
    // The churn reader's latencies and the time it read for.
    let (mut reads, mut reading) = (Vec::new(), 0.0);
    let mut last_stats = None;

    // The run is cut into epochs, each on a freshly set-up engine and server:
    // hash seeds and heap layout differ from one engine to the next and move a
    // solve by several percent, so one process samples several of them.
    for epoch in 0..EPOCHS {
        let (served, client) = loop {
            let (served, client, elapsed) =
                serve::set_up(&catalogue, serve::default_recorder_capacity());
            setups.push(elapsed.as_secs_f64());
            // Small inputs set up in a millisecond: the first epoch repeats them.
            let spent: f64 = setups.iter().sum();
            let enough = epoch > 0
                || setups.len() >= MAX_SETUPS
                || (setups.len() >= MIN_SETUPS && spent >= SETUP_BUDGET.as_secs_f64());
            if enough {
                break (served, client);
            }
            drop(client);
            served.stop();
        };
        let mut session = Session {
            spec,
            inputs: &inputs,
            served: &served,
            client,
            next_phi,
            variant: 0,
            log: std::mem::take(&mut log),
            warm: Vec::new(),
            warm_sent: 0,
            tally: Tally::default(),
        };
        // One untimed cold request: the plan's lazily built execution context
        // is paid once per database generation, not per request.
        session.cold(1, spec.cold);
        let slice = seconds / EPOCHS as f64;
        if spec.churn {
            // The reader is served cache hits from the side database for the
            // whole epoch, on its own connection, pausing between requests;
            // its fractions are first answered cold, untimed.
            let mut reader = served.connect();
            let side: Vec<Logged> = (0..SIDE_PHIS)
                .map(|_| {
                    let phis = session.take_phis(1);
                    ask(&mut reader, "hot", 0, &phis, Accuracy::Exact, false).1
                })
                .collect();
            let lines: Vec<(String, Reply)> = side
                .iter()
                .filter_map(|l| {
                    let line = check::command("hot", &l.phis, l.accuracy, false);
                    Some((line, l.replies[0].clone()?))
                })
                .collect();
            session.log.extend(side);
            let writing = AtomicBool::new(true);
            let mut reader_tally = Tally::default();
            std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    session.drive(&mut lanes, slice);
                    writing.store(false, Ordering::SeqCst);
                });
                let started = Instant::now();
                while writing.load(Ordering::SeqCst) && !lines.is_empty() {
                    let (line, first) = &lines[reads.len() % lines.len()];
                    reads.push(check::hit(
                        &mut reader,
                        line,
                        Some(first),
                        &mut reader_tally,
                    ));
                    std::thread::sleep(READER_THINK);
                }
                reading += started.elapsed().as_secs_f64();
                writer.join().expect("writer thread");
            });
            session.tally.add(reader_tally);
        } else {
            session.drive(&mut lanes, slice);
        }
        let Session {
            client,
            log: epoch_log,
            tally: epoch_tally,
            next_phi: used,
            ..
        } = session;
        (log, next_phi) = (epoch_log, used);
        tally.add(epoch_tally);
        drop(client);
        last_stats = Some(served.engine.stats());
        served.stop();
    }
    let mut samples_of = |kind: Kind| {
        let lane = lanes.iter_mut().find(|lane| lane.kind == kind);
        let lane = lane.expect("one lane per kind");
        (std::mem::take(&mut lane.samples), lane.spent)
    };
    let (warm_latencies, throughput) = if spec.churn {
        let throughput = reads.len() as f64 / reading;
        (reads, throughput)
    } else {
        let (hits, spent) = samples_of(Kind::Warm);
        let throughput = hits.len() as f64 / spent;
        (hits, throughput)
    };
    let [cold, batch, sample, refresh] = [Kind::Cold, Kind::Batch, Kind::Sample, Kind::Refresh]
        .map(|kind| summarize(&samples_of(kind).0));
    let warm_summary = summarize(&warm_latencies);

    // Memory is read before any checking engine or oracle exists.
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
    let stats = last_stats.expect("at least one epoch");

    // Full-size check: a second engine per database variant, direct calls.
    let cold_cached = log
        .iter()
        .flat_map(|l| &l.replies)
        .filter(|r| r.as_ref().is_some_and(|r| r.cached))
        .count();
    for (variant, main) in inputs.variants.iter().enumerate() {
        let of_variant: Vec<&Logged> = log.iter().filter(|l| l.variant == variant).collect();
        if of_variant.is_empty() {
            continue;
        }
        let mut databases = vec![main.clone()];
        if variant == 0 {
            databases.extend(inputs.side.clone());
        }
        let engine = serve::build_engine(&databases, 0);
        tally.add(check::verify(&engine, &of_variant));
    }
    // A "cold" reply served from the cache would make its latency meaningless.
    tally.failed += cold_cached as u64;

    // Reduced-size check against the materializing oracle.
    let oracle = check::oracle_check(spec, seed);
    notes.push(format!(
        "oracle check at reduced size: {} answers compared, {} wrong",
        oracle.attempted, oracle.failed
    ));
    tally.add(oracle);

    let calibration_after = host::calibration_ms();
    notes.push(format!(
        "set-up: {} repetitions over {EPOCHS} epochs, median {:.4} s",
        setups.len(),
        median(&setups)
    ));
    notes.push(format!("cold quantile: {}", ms(&cold)));
    notes.push(format!("cold batch of {BATCH}: {}", ms(&batch)));
    notes.push(format!("sampled quantile: {}", ms(&sample)));
    notes.push(format!("cache hit: {}", ms(&warm_summary)));
    notes.push(format!("refresh: {}", ms(&refresh)));
    notes.push(format!(
        "engine (last epoch): {} solved, {} cache hits, {} misses, {} coalesced batches, {} plan compilations",
        stats.counters.solved,
        stats.cache.hits,
        stats.cache.misses,
        stats.counters.coalesced_batches,
        stats.counters.plan_compilations
    ));
    notes.push(format!("generate: {:.3} s", inputs.generate.as_secs_f64()));
    notes.push(host::describe(calibration_before, calibration_after));

    Observed {
        metrics: vec![
            ("setup_s", median(&setups)),
            ("cold_p50_ms", cold.p50 * 1e3),
            ("batch_p50_ms", batch.p50 * 1e3),
            ("sample_p50_ms", sample.p50 * 1e3),
            ("warm_p50_us", warm_summary.p50 * 1e6),
            ("throughput_rps", throughput),
            ("refresh_p50_ms", refresh.p50 * 1e3),
            ("peak_rss_mb", peak_rss_mb),
        ],
        tally,
        notes,
    }
}
