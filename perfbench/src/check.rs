//! Answer checking. Two independent checks:
//!
//! * at a reduced size the workload is replayed through the whole stack and
//!   every request kind is compared with the materializing oracle
//!   (`quantile_by_materialization`, `rank_of_weight`);
//! * at full size every reply's `(weight, target rank, |Q(D)|)` must equal what
//!   a second engine, built from the same input, answers to a direct call.
//!
//! Error replies, transport errors and mismatches all count as failed requests.

use crate::serve::{self, Catalogued};
use crate::workloads::{Spec, DELTA, EPSILON, SAMPLE_SEED};
use qjoin_core::baseline::{quantile_by_materialization, BaselineStrategy};
use qjoin_core::quantile::{rank_of_weight, target_rank};
use qjoin_core::sampling::SamplingOptions;
use qjoin_core::QuantileResult;
use qjoin_engine::{Accuracy, Engine};
use qjoin_query::Instance;
use qjoin_ranking::{AggregateKind, Ranking, Weight};
use qjoin_server::Client;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The oracle materializes the join, so it only runs up to this many answers.
const ORACLE_MAX_ANSWERS: u128 = 200_000;

/// Fractions each request kind is checked at against the oracle.
const ORACLE_PHIS: [f64; 4] = [0.0, 0.1, 0.5, 0.93];

/// The sampled accuracy every workload uses.
pub fn sampled() -> Accuracy {
    Accuracy::Bounded {
        epsilon: EPSILON,
        delta: DELTA,
        seed: SAMPLE_SEED,
    }
}

/// Requests attempted and failed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Counts one checked answer.
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The checked part of one answer line.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    pub weight: String,
    pub rank: u128,
    pub total: u128,
    pub cached: bool,
}

impl Reply {
    /// Whether the reply carries the same answer as a direct solve.
    pub fn matches(&self, result: &QuantileResult) -> bool {
        self.weight == result.weight.to_string()
            && self.rank == result.target_index
            && self.total == result.total_answers
    }
}

/// Parses `phi=…: weight=W rank=R/T iterations=I[ (cached)]`. A LEX weight is
/// printed as `(a, b)`, so the weight runs up to the last ` rank=`.
pub fn parse_reply(line: &str) -> Option<Reply> {
    let (_, rest) = line.split_once(": weight=")?;
    let (weight, rest) = rest.rsplit_once(" rank=")?;
    let (position, rest) = rest.split_once(" iterations=")?;
    let (rank, total) = position.split_once('/')?;
    Some(Reply {
        weight: weight.to_string(),
        rank: rank.parse().ok()?,
        total: total.parse().ok()?,
        cached: rest.ends_with("(cached)"),
    })
}

/// Parses a printed weight back: a number, or `(a, b, …)` for LEX.
pub fn parse_weight(text: &str) -> Option<Weight> {
    match text.strip_prefix('(').and_then(|t| t.strip_suffix(')')) {
        Some(parts) => parts
            .split(", ")
            .map(|p| p.parse().ok())
            .collect::<Option<Vec<f64>>>()
            .map(Weight::Vec),
        None => text.parse().ok().map(Weight::num),
    }
}

/// The wire form of a request.
pub fn command(plan: &str, phis: &[f64], accuracy: Accuracy, batch: bool) -> String {
    let mut line = format!("{} {plan}", if batch { "batch" } else { "quantile" });
    for phi in phis {
        line.push_str(&format!(" {phi}"));
    }
    match accuracy {
        Accuracy::Exact => {}
        Accuracy::Approximate { epsilon } => line.push_str(&format!(" eps={epsilon}")),
        Accuracy::Bounded {
            epsilon,
            delta,
            seed,
        } => line.push_str(&format!(" eps={epsilon} delta={delta} seed={seed}")),
    }
    line
}

/// One request as it was sent, with what came back for each fraction (`None`
/// for an error reply, a transport error or an unparsable line).
#[derive(Clone, Debug)]
pub struct Logged {
    pub plan: &'static str,
    /// Which generated database was catalogued when the request was sent.
    pub variant: usize,
    pub accuracy: Accuracy,
    pub batch: bool,
    pub phis: Vec<f64>,
    pub replies: Vec<Option<Reply>>,
}

/// Sends one request and times the round trip (`Client::send` only).
pub fn ask(
    client: &mut Client,
    plan: &'static str,
    variant: usize,
    phis: &[f64],
    accuracy: Accuracy,
    batch: bool,
) -> (Duration, Logged) {
    let line = command(plan, phis, accuracy, batch);
    let started = Instant::now();
    let payload = client.send(&line);
    let elapsed = started.elapsed();
    let replies = match payload {
        // A batch reply ends with one summary line after the answers.
        Ok(lines) if lines.len() >= phis.len() => {
            lines[..phis.len()].iter().map(|l| parse_reply(l)).collect()
        }
        _ => vec![None; phis.len()],
    };
    let logged = Logged {
        plan,
        variant,
        accuracy,
        batch,
        phis: phis.to_vec(),
        replies,
    };
    (elapsed, logged)
}

/// One cache-hit request: the round trip in seconds, tallied as failed unless
/// the reply is tagged `(cached)` and, when the first answer is given, repeats it.
pub fn hit(client: &mut Client, line: &str, first: Option<&Reply>, tally: &mut Tally) -> f64 {
    let started = Instant::now();
    let payload = client.send(line);
    let elapsed = started.elapsed().as_secs_f64();
    let reply = payload.ok().and_then(|lines| parse_reply(lines.first()?));
    tally.note(reply.is_some_and(|reply| {
        reply.cached
            && first.is_none_or(|first| {
                (&reply.weight, reply.rank, reply.total) == (&first.weight, first.rank, first.total)
            })
    }));
    elapsed
}

/// Compares logged requests of one database variant with direct calls on
/// `engine` (which must hold that variant). Exact fractions of a plan are
/// solved together in one batch — the batch driver answers each fraction
/// exactly as an independent solve does — while `eps=` and sampled requests are
/// replayed in the shape they were sent.
pub fn verify(engine: &Engine, logged: &[&Logged]) -> Tally {
    let mut tally = Tally::default();
    let mut plans: Vec<&'static str> = logged.iter().map(|l| l.plan).collect();
    plans.sort_unstable();
    plans.dedup();
    for plan in plans {
        let of_plan = || logged.iter().filter(move |l| l.plan == plan);
        let exact: Vec<(f64, &Option<Reply>)> = of_plan()
            .filter(|l| l.accuracy == Accuracy::Exact)
            .flat_map(|l| l.phis.iter().copied().zip(&l.replies))
            .collect();
        if !exact.is_empty() {
            let phis: Vec<f64> = exact.iter().map(|(phi, _)| *phi).collect();
            let expected = engine.quantile_batch(plan, &phis);
            for (i, (_, reply)) in exact.iter().enumerate() {
                let answer = expected.as_ref().ok().map(|answers| &answers[i]);
                tally.note(matches!((reply, answer), (Some(r), Some(a)) if r.matches(&a.result)));
            }
        }
        for request in of_plan().filter(|l| l.accuracy != Accuracy::Exact) {
            let expected = if request.batch {
                engine.quantile_batch_with(plan, &request.phis, request.accuracy)
            } else {
                engine
                    .quantile_with(plan, request.phis[0], request.accuracy)
                    .map(|answer| vec![answer])
            };
            for (i, reply) in request.replies.iter().enumerate() {
                let answer = expected.as_ref().ok().map(|answers| &answers[i]);
                tally.note(matches!((reply, answer), (Some(r), Some(a)) if r.matches(&a.result)));
            }
        }
    }
    tally
}

/// Whether a returned weight's rank window lies within `slack` ranks of the
/// target (`slack = 0` demands the exact quantile).
fn rank_within(
    instance: &Instance,
    ranking: &Ranking,
    reply: &Reply,
    phi: f64,
    total: u128,
    slack: f64,
) -> bool {
    let Some(weight) = parse_weight(&reply.weight) else {
        return false;
    };
    let Ok((below, equal)) = rank_of_weight(instance, ranking, &weight) else {
        return false;
    };
    if equal == 0 || reply.total != total {
        return false;
    }
    let target = target_rank(phi, reply.total);
    let distance = if target < below {
        below - target
    } else {
        target.saturating_sub(below + equal - 1)
    };
    reply.rank == target && distance as f64 <= slack
}

fn count(instance: &Instance) -> u128 {
    qjoin_exec::count::count_answers(instance).unwrap_or(0)
}

/// The workload's generator at the largest size the oracle can materialize.
pub fn oracle_instance(spec: &Spec, seed: u64) -> Instance {
    let mut divisor = 1;
    loop {
        let instance = spec.source.shrunk(divisor).generate(seed);
        if count(&instance) <= ORACLE_MAX_ANSWERS {
            return instance;
        }
        divisor *= 2;
    }
}

/// Replays every request kind at a reduced size through engine, server and
/// client, and checks each reply against the materializing oracle: exact
/// requests must return the oracle's weight and rank, `eps=` and sampled
/// requests a weight whose rank is within ε·|Q(D)| of the target.
pub fn oracle_check(spec: &Spec, seed: u64) -> Tally {
    let instance = oracle_instance(spec, seed);
    let (plan, ranking) = spec.plans[0].clone();
    let total = count(&instance);
    let catalogued = Catalogued {
        name: "oracle",
        database: Arc::clone(instance.shared_database()),
        query: instance.query().clone(),
        plans: vec![(plan, ranking.clone())],
    };
    let (served, mut client, _) = serve::set_up(&[catalogued], 0);
    let mut tally = Tally::default();

    if spec.cold == Accuracy::Exact {
        let (_, batch) = ask(&mut client, plan, 0, &ORACLE_PHIS, Accuracy::Exact, true);
        for (i, &phi) in ORACLE_PHIS.iter().enumerate() {
            let oracle =
                quantile_by_materialization(&instance, &ranking, phi, BaselineStrategy::Selection);
            let (_, single) = ask(&mut client, plan, 0, &[phi], Accuracy::Exact, false);
            for reply in [&single.replies[0], &batch.replies[i]] {
                tally.note(matches!((reply, &oracle), (Some(r), Ok(o)) if r.matches(o)));
            }
        }
    }
    let slack = EPSILON * total as f64;
    let mut approximate = Vec::new();
    if ranking.kind() == AggregateKind::Sum {
        approximate.push(Accuracy::Approximate { epsilon: EPSILON });
    }
    // The sampler refuses when its budget reaches the answer count.
    let budget = SamplingOptions {
        epsilon: EPSILON,
        delta: DELTA,
        seed: SAMPLE_SEED,
    }
    .sample_count();
    if total > budget as u128 {
        approximate.push(sampled());
    }
    for accuracy in approximate {
        for &phi in &ORACLE_PHIS[1..] {
            let (_, logged) = ask(&mut client, plan, 0, &[phi], accuracy, false);
            tally.note(matches!(&logged.replies[0], Some(reply)
                if rank_within(&instance, &ranking, reply, phi, total, slack)));
        }
    }
    drop(client);
    served.stop();
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_lines_parse_including_lex_weights_and_the_cache_tag() {
        let plain = parse_reply("phi=0.5000: weight=1234 rank=50/101 iterations=3").unwrap();
        assert_eq!(
            plain,
            Reply {
                weight: "1234".to_string(),
                rank: 50,
                total: 101,
                cached: false
            }
        );
        let lex =
            parse_reply("phi=0.1000 eps=0.05: weight=(17, 4.5) rank=7/90 iterations=0 (cached)")
                .unwrap();
        assert_eq!((lex.weight.as_str(), lex.cached), ("(17, 4.5)", true));
        assert_eq!(parse_reply("unknown plan \"x\""), None);
    }

    #[test]
    fn printed_weights_parse_back() {
        assert_eq!(parse_weight("12.5"), Some(Weight::num(12.5)));
        assert_eq!(parse_weight("(1, 2.5)"), Some(Weight::Vec(vec![1.0, 2.5])));
        assert_eq!(parse_weight("(1, x)"), None);
    }

    #[test]
    fn commands_spell_out_the_accuracy() {
        assert_eq!(
            command("p", &[0.5], Accuracy::Exact, false),
            "quantile p 0.5"
        );
        assert_eq!(
            command(
                "p",
                &[0.25, 0.75],
                Accuracy::Approximate { epsilon: 0.05 },
                true
            ),
            "batch p 0.25 0.75 eps=0.05"
        );
        assert_eq!(
            command("p", &[0.1], sampled(), false),
            "quantile p 0.1 eps=0.05 delta=0.01 seed=11"
        );
    }
}
