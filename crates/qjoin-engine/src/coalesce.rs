//! Cross-request coalescing of cold exact solves: flat combining on the plan handle.
//!
//! The paper's §4 batching theorem says one shared recursion answers k quantile
//! targets for far less than k solves. The batch path exploits that within one
//! request; a [`Combiner`] exploits it across requests. Every `PreparedPlan` — one
//! plan at one database generation — carries its own, so different plans or
//! generations never share a round.
//!
//! A request pushes one slot per φ onto `pending`, then takes the `turn`. The turn
//! holder drains `pending`, answers every φ the last solving turn solved from that
//! turn's answers, solves the rest as one sorted, deduplicated batch, fills every
//! drained slot, and releases. A request whose slots are filled by the time it gets
//! the turn returns without solving. Errors fan out to every drained and pending
//! slot (they are deterministic per plan handle). A combiner that panics leaves the
//! slots it drained empty; each of their requests solves its own on its turn.
//! Locks recover from poisoning: nothing they guard is ever left half-written.

use crate::error::EngineError;
use qjoin_core::CoreError;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// One requested φ's answer-to-be, with the tag of the solve that produced it (the
/// engine passes the combiner's trace id; 0 means none).
type Slot<R> = Arc<OnceLock<Result<(R, u64), EngineError>>>;

/// The per-plan combiner (see the module docs).
#[derive(Debug)]
pub(crate) struct Combiner<R> {
    /// Slots pushed by requests and not yet drained by a turn.
    pending: Mutex<Vec<(f64, Slot<R>)>>,
    /// The turn, guarding the answers of the last turn that solved: sorted by φ,
    /// each with that solve's tag.
    turn: Mutex<Vec<(f64, R, u64)>>,
}

// Manual impl: `derive(Default)` would wrongly require `R: Default`.
impl<R> Default for Combiner<R> {
    fn default() -> Self {
        Combiner {
            pending: Mutex::default(),
            turn: Mutex::default(),
        }
    }
}

/// How the combiner served one request (the engine bumps its counters from this).
#[derive(Debug)]
pub(crate) struct Served<R> {
    /// One answer per requested φ, in request order, or the first error among them.
    pub results: Result<Vec<R>, EngineError>,
    /// True when this request ran no solve of its own.
    pub waited: bool,
    /// True when a turn this request held answered at least one other request.
    pub combined: bool,
    /// The first non-zero solve tag among this request's answers.
    pub tag: Option<u64>,
}

impl<R: Clone> Combiner<R> {
    /// Serves a non-empty set of φ targets. `solve` receives a sorted, deduplicated
    /// batch and must return one result per target, in order, plus the tag
    /// published with them. It runs at most once per call, with the turn held.
    pub fn serve(
        &self,
        phis: &[f64],
        solve: impl Fn(&[f64]) -> Result<(Vec<R>, u64), EngineError>,
    ) -> Served<R> {
        let mine: Vec<(f64, Slot<R>)> = phis.iter().map(|&phi| (phi, Slot::default())).collect();
        lock(&self.pending).extend(mine.iter().cloned());
        let mut last = lock(&self.turn);
        let (mut waited, mut combined) = (true, false);
        loop {
            if let Some((results, tag)) = collect(&mine) {
                return Served {
                    results,
                    waited,
                    combined,
                    tag,
                };
            }
            let mut round = std::mem::take(&mut *lock(&self.pending));
            // Ours, empty and no longer pending: a combiner that panicked drained it.
            for (phi, slot) in &mine {
                if slot.get().is_none() && !round.iter().any(|(_, s)| Arc::ptr_eq(s, slot)) {
                    round.push((*phi, Arc::clone(slot)));
                }
            }
            combined |= (round.iter()).any(|(_, s)| !mine.iter().any(|(_, m)| Arc::ptr_eq(m, s)));
            fill(&round, &last);
            let mut wanted: Vec<f64> = (round.iter())
                .filter_map(|(phi, slot)| slot.get().is_none().then_some(*phi))
                .collect();
            if wanted.is_empty() {
                continue;
            }
            wanted.sort_by(f64::total_cmp);
            wanted.dedup_by(|a, b| a.to_bits() == b.to_bits());
            waited = false;
            match solve(&wanted) {
                Ok((results, tag)) if results.len() == wanted.len() => {
                    let answers = wanted.into_iter().zip(results);
                    *last = answers.map(|(phi, result)| (phi, result, tag)).collect();
                    fill(&round, &last);
                }
                outcome => {
                    let error = outcome.err().unwrap_or_else(|| {
                        CoreError::Internal("a batch solve lost a target".into()).into()
                    });
                    round.append(&mut lock(&self.pending));
                    for (_, slot) in &round {
                        let _ = slot.set(Err(error.clone()));
                    }
                }
            }
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Answers every slot whose φ `last` solved.
fn fill<R: Clone>(round: &[(f64, Slot<R>)], last: &[(f64, R, u64)]) {
    for (phi, slot) in round {
        if let Ok(i) = last.binary_search_by(|(p, ..)| p.total_cmp(phi)) {
            let _ = slot.set(Ok((last[i].1.clone(), last[i].2)));
        }
    }
}

/// `Some` once every slot is filled, or any holds an error: the answers in request
/// order plus their first non-zero tag, or the first error (an error fails the
/// whole request, as it would an un-coalesced batch solve).
#[allow(clippy::type_complexity)]
fn collect<R: Clone>(
    mine: &[(f64, Slot<R>)],
) -> Option<(Result<Vec<R>, EngineError>, Option<u64>)> {
    let mut results = Vec::with_capacity(mine.len());
    let mut tag = None;
    for (_, slot) in mine {
        match slot.get()? {
            Ok((result, t)) => {
                tag = tag.or((*t != 0).then_some(*t));
                results.push(result.clone());
            }
            Err(e) => return Some((Err(e.clone()), None)),
        }
    }
    Some((Ok(results), tag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::thread;
    use std::time::{Duration, Instant};

    type TestCombiner = Combiner<f64>;
    type Solved = Result<(Vec<f64>, u64), EngineError>;

    fn boom(message: &str) -> EngineError {
        EngineError::Core(CoreError::Internal(message.to_string()))
    }

    /// Blocks until `n` slots are pending (the requests behind a held turn have
    /// pushed), so a test never relies on a sleep being long enough.
    fn wait_for_pending(combiner: &TestCombiner, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while lock(&combiner.pending).len() < n {
            assert!(Instant::now() < deadline, "never saw {n} pending slots");
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// A combiner whose first turn solves `phi` and blocks inside its solve until
    /// the returned barrier is passed; every later solve runs free. `rounds`
    /// records every batch solved.
    fn blocked_leader(
        combiner: &Arc<TestCombiner>,
        phi: f64,
        rounds: &Arc<Mutex<Vec<Vec<f64>>>>,
    ) -> (thread::JoinHandle<Served<f64>>, Arc<Barrier>) {
        let (in_solve, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let leader = {
            let (combiner, rounds) = (Arc::clone(combiner), Arc::clone(rounds));
            let (in_solve, release) = (Arc::clone(&in_solve), Arc::clone(&release));
            thread::spawn(move || {
                combiner.serve(&[phi], move |round| {
                    rounds.lock().unwrap().push(round.to_vec());
                    in_solve.wait();
                    release.wait();
                    Ok((round.to_vec(), 42))
                })
            })
        };
        in_solve.wait(); // the leader holds the turn, inside its solve
        (leader, release)
    }

    /// A request that records its rounds and answers each φ with itself.
    fn recording(
        combiner: &Arc<TestCombiner>,
        phis: Vec<f64>,
        rounds: &Arc<Mutex<Vec<Vec<f64>>>>,
    ) -> thread::JoinHandle<(Vec<f64>, Served<f64>)> {
        let (combiner, rounds) = (Arc::clone(combiner), Arc::clone(rounds));
        thread::spawn(move || {
            let served = combiner.serve(&phis, move |round| {
                rounds.lock().unwrap().push(round.to_vec());
                Ok((round.to_vec(), 0))
            });
            (phis, served)
        })
    }

    #[test]
    fn uncontended_request_solves_itself() {
        let combiner = TestCombiner::default();
        let calls = AtomicU64::new(0);
        let out = combiner.serve(&[0.5], |phis| {
            calls.fetch_add(1, Ordering::SeqCst);
            assert_eq!(phis, &[0.5]);
            Ok((phis.iter().map(|p| p * 2.0).collect(), 0))
        });
        assert_eq!(out.results.unwrap(), vec![1.0]);
        assert!(!out.waited && !out.combined);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert!(lock(&combiner.pending).is_empty());
    }

    #[test]
    fn identical_concurrent_targets_share_one_solve() {
        let combiner = Arc::new(TestCombiner::default());
        let rounds = Arc::default();
        let (leader, release) = blocked_leader(&combiner, 0.25, &rounds);
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let combiner = Arc::clone(&combiner);
                thread::spawn(move || {
                    combiner.serve(&[0.25], |_| -> Solved {
                        panic!("followers of an identical target must never solve")
                    })
                })
            })
            .collect();
        wait_for_pending(&combiner, 4);
        release.wait();

        let led = leader.join().unwrap();
        assert_eq!(led.results.unwrap(), vec![0.25]);
        assert!(!led.waited);
        let outs: Vec<_> = followers.into_iter().map(|f| f.join().unwrap()).collect();
        for out in &outs {
            assert_eq!(out.results.as_ref().unwrap(), &[0.25]);
            assert!(out.waited);
            assert_eq!(out.tag, Some(42), "followers learn the solving turn's tag");
        }
        // The first follower's turn answered all four from the leader's round.
        assert_eq!(outs.iter().filter(|o| o.combined).count(), 1);
        assert_eq!(
            rounds.lock().unwrap().len(),
            1,
            "one shared solve for all 5"
        );
    }

    #[test]
    fn distinct_targets_merge_into_the_next_round() {
        let combiner = Arc::new(TestCombiner::default());
        let rounds = Arc::default();
        let (leader, release) = blocked_leader(&combiner, 0.5, &rounds);
        // Three distinct targets arrive mid-solve; they must merge into one sorted
        // second round, solved by whichever of them takes the turn first.
        let stragglers: Vec<_> = [0.9, 0.1, 0.7]
            .into_iter()
            .map(|phi| recording(&combiner, vec![phi], &rounds))
            .collect();
        wait_for_pending(&combiner, 3);
        release.wait();

        assert_eq!(leader.join().unwrap().results.unwrap(), vec![0.5]);
        let outs: Vec<_> = stragglers.into_iter().map(|t| t.join().unwrap()).collect();
        for (phis, out) in &outs {
            assert_eq!(out.results.as_ref().unwrap(), phis);
        }
        let rounds = rounds.lock().unwrap();
        assert_eq!(
            *rounds,
            vec![vec![0.5], vec![0.1, 0.7, 0.9]],
            "merged, sorted"
        );
        assert_eq!(outs.iter().filter(|(_, o)| o.waited).count(), 2);
    }

    #[test]
    fn errors_fan_out_to_every_waiter() {
        let combiner = Arc::new(TestCombiner::default());
        let (in_solve, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let leader = {
            let combiner = Arc::clone(&combiner);
            let (in_solve, release) = (Arc::clone(&in_solve), Arc::clone(&release));
            thread::spawn(move || {
                combiner.serve(&[0.5], move |_| -> Solved {
                    in_solve.wait();
                    release.wait();
                    Err(boom("boom"))
                })
            })
        };
        in_solve.wait();
        // A *different* φ pending at error time still gets the error (rerunning
        // would fail identically).
        let waiter = {
            let combiner = Arc::clone(&combiner);
            thread::spawn(move || combiner.serve(&[0.75], |_| Err(boom("later"))))
        };
        wait_for_pending(&combiner, 1);
        release.wait();
        assert_eq!(leader.join().unwrap().results.unwrap_err(), boom("boom"));
        let waited = waiter.join().unwrap();
        assert_eq!(waited.results.unwrap_err(), boom("boom"));
        assert!(waited.waited);
        assert!(lock(&combiner.pending).is_empty());
    }

    #[test]
    fn batch_requests_fold_into_an_in_flight_round() {
        let combiner = Arc::new(TestCombiner::default());
        let rounds = Arc::default();
        let (leader, release) = blocked_leader(&combiner, 0.5, &rounds);
        // Two overlapping batches; their union, minus what the leader's round
        // answers, must come out as ONE merged, sorted, deduplicated round.
        let batches: Vec<_> = [vec![0.1, 0.5, 0.9], vec![0.9, 0.3]]
            .into_iter()
            .map(|phis| recording(&combiner, phis, &rounds))
            .collect();
        wait_for_pending(&combiner, 5);
        release.wait();

        assert_eq!(leader.join().unwrap().results.unwrap(), vec![0.5]);
        let outs: Vec<_> = batches.into_iter().map(|t| t.join().unwrap()).collect();
        for (phis, out) in &outs {
            // Answers come back in the request's own input order.
            assert_eq!(out.results.as_ref().unwrap(), phis);
        }
        assert_eq!(outs.iter().filter(|(_, o)| o.waited).count(), 1);
        assert_eq!(
            *rounds.lock().unwrap(),
            vec![vec![0.5], vec![0.1, 0.3, 0.9]],
            "batch targets merged, deduplicated (0.5, double 0.9), and sorted"
        );
    }

    #[test]
    fn duplicate_targets_come_back_in_order() {
        let combiner = TestCombiner::default();
        let out = combiner.serve(&[0.5, 0.2, 0.5], |phis| {
            assert_eq!(phis, &[0.2, 0.5], "solver sees the deduplicated round");
            Ok((phis.to_vec(), 0))
        });
        assert_eq!(out.results.unwrap(), vec![0.5, 0.2, 0.5]);
        assert!(!out.waited);
    }

    #[test]
    fn two_plan_handles_never_share_a_round() {
        // While `a`'s turn is held inside a solve, a request on `b` takes its own
        // turn and solves its own round: it neither waits on nor joins `a`'s.
        let (a, b) = (Arc::new(TestCombiner::default()), TestCombiner::default());
        let rounds = Arc::default();
        let (leader, release) = blocked_leader(&a, 0.5, &rounds);
        let out = b.serve(&[0.5], |p| Ok((p.iter().map(|x| x + 1.0).collect(), 0)));
        assert_eq!(out.results.unwrap(), vec![1.5]);
        assert!(!out.waited && !out.combined);
        release.wait();
        assert_eq!(leader.join().unwrap().results.unwrap(), vec![0.5]);
    }

    /// Mutation: drop the `last` lookup and the late 0.25 is solved again.
    #[test]
    fn a_target_pushed_mid_solve_is_answered_from_the_last_round() {
        let combiner = Arc::new(TestCombiner::default());
        let rounds = Arc::default();
        let (leader, release) = blocked_leader(&combiner, 0.25, &rounds);
        let late: Vec<_> = [vec![0.25], vec![0.75]]
            .into_iter()
            .map(|phis| recording(&combiner, phis, &rounds))
            .collect();
        wait_for_pending(&combiner, 2);
        release.wait();

        leader.join().unwrap().results.unwrap();
        for (phis, out) in late.into_iter().map(|t| t.join().unwrap()) {
            assert_eq!(out.results.unwrap(), phis);
        }
        assert_eq!(
            *rounds.lock().unwrap(),
            vec![vec![0.25], vec![0.75]],
            "0.25 came from the leader's round, not a second solve"
        );
    }

    /// Mutation: drop the re-add of a request's own unanswered slots and the
    /// survivor spins on an empty round forever (caught by the bounded wait).
    #[test]
    fn a_panicking_combiner_does_not_wedge_a_follower() {
        let combiner = Arc::new(TestCombiner::default());
        let rounds: Arc<Mutex<Vec<Vec<f64>>>> = Arc::default();
        let (done, answers) = mpsc::channel();
        // Hold the turn so both requests push before either can drain.
        let held = lock(&combiner.turn);
        let requests = [0.3, 0.7].map(|phi| {
            let (combiner, rounds, done) =
                (Arc::clone(&combiner), Arc::clone(&rounds), done.clone());
            thread::spawn(move || {
                let served = combiner.serve(&[phi], |round| {
                    let mut rounds = lock(&rounds);
                    rounds.push(round.to_vec());
                    // Whoever combines first drains both targets and panics.
                    let first = rounds.len() == 1;
                    drop(rounds);
                    assert!(!first, "the first combiner panics mid-solve");
                    Ok((round.to_vec(), 0))
                });
                let _ = done.send((phi, served.results));
            })
        });
        wait_for_pending(&combiner, 2);
        drop(held);

        let (phi, results) = answers
            .recv_timeout(Duration::from_secs(10))
            .expect("the follower was wedged by the panicked combiner");
        assert_eq!(results.unwrap(), vec![phi], "it re-solved its own target");
        assert_eq!(*lock(&rounds), vec![vec![0.3, 0.7], vec![phi]]);
        let joined = requests.map(|request| request.join().is_ok());
        assert_eq!(joined.iter().filter(|&&ok| ok).count(), 1, "one panicked");
    }
}
