//! A bounded worker thread pool, std-only.
//!
//! Jobs are fed through an [`mpsc::sync_channel`] holding at most `queue_depth`
//! unstarted jobs. [`WorkerPool::try_submit`] never waits: on a full queue it
//! hands the job back, and the caller (the reactor) sheds it instead of
//! stalling, or piling up without bound. Workers share the receiver
//! behind a mutex and run the (shared) handler on each job. A job that panics
//! unwinds only itself: what it owned (for the server, the request's connection)
//! is dropped, and its worker goes on to the next job.
//!
//! Dropping or [`WorkerPool::join`]ing the pool closes the channel; workers drain
//! whatever is already queued, then exit, and `join` waits for them — this is the
//! mechanism behind the server's graceful shutdown.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;

/// A fixed-size pool of named worker threads consuming jobs from a bounded queue.
pub struct WorkerPool<T: Send + 'static> {
    sender: Option<mpsc::SyncSender<T>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawns `workers` threads (at least 1) named `{name}-{i}`, each running
    /// `handler` on every job it pulls. The queue holds at most `queue_depth`
    /// not-yet-started jobs (at least 1).
    pub fn new(
        name: &str,
        workers: usize,
        queue_depth: usize,
        handler: impl Fn(T) + Send + Sync + 'static,
    ) -> Self {
        let (sender, receiver) = mpsc::sync_channel::<T>(queue_depth.max(1));
        let receiver = Arc::new(Mutex::new(receiver));
        let handler = Arc::new(handler);
        let workers = (0..workers.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let handler = Arc::clone(&handler);
                thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only while popping, never while
                        // handling, so other workers keep draining the queue.
                        // Nothing is half-written under it (`recv` takes one job
                        // or none), so a poisoned flag is recovered.
                        let job = receiver
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .recv();
                        match job {
                            Ok(job) => {
                                // The handler shares nothing with the loop, so
                                // nothing it left half-done is observed here.
                                let _ = panic::catch_unwind(AssertUnwindSafe(|| handler(job)));
                            }
                            Err(_) => break, // channel closed and drained
                        }
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job without waiting. Returns the job back when the queue is
    /// full, or when the pool is shut down (which cannot happen while it is
    /// alive, since `join` consumes it — but kept total for safety).
    pub fn try_submit(&self, job: T) -> Result<(), T> {
        match &self.sender {
            Some(sender) => sender.try_send(job).map_err(|e| match e {
                mpsc::TrySendError::Full(job) | mpsc::TrySendError::Disconnected(job) => job,
            }),
            None => Err(job),
        }
    }

    /// Closes the queue, lets the workers drain every already-queued job, and waits
    /// for them to exit.
    pub fn join(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        drop(self.sender.take()); // closes the channel
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn all_jobs_run_even_across_join() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = {
            let done = Arc::clone(&done);
            WorkerPool::new("t", 4, 32, move |n: usize| {
                thread::sleep(Duration::from_millis(n as u64 % 3));
                done.fetch_add(1, Ordering::SeqCst);
            })
        };
        for i in 0..32 {
            pool.try_submit(i).unwrap();
        }
        pool.join(); // must drain everything queued before returning
        assert_eq!(done.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = {
            let done = Arc::clone(&done);
            WorkerPool::new("t", 0, 0, move |_: ()| {
                done.fetch_add(1, Ordering::SeqCst);
            })
        };
        assert_eq!(pool.workers(), 1);
        pool.try_submit(()).unwrap();
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    /// Mutation: a blocking `send` in `try_submit` hangs on job 2.
    #[test]
    fn try_submit_hands_a_job_back_on_a_full_queue() {
        // 1 worker, queue depth 1. The worker is parked on a gate, so: job 0 is
        // being handled (blocked), job 1 fills the queue, and job 2 comes back
        // at once — nothing waits and nothing is dropped.
        let (started, picked_up) = mpsc::channel();
        let gate = Arc::new(std::sync::Barrier::new(2));
        let handled = Arc::new(AtomicUsize::new(0));
        let pool = {
            let (gate, handled) = (Arc::clone(&gate), Arc::clone(&handled));
            WorkerPool::new("t", 1, 1, move |n: usize| {
                if n == 0 {
                    started.send(()).unwrap();
                    gate.wait(); // hold the worker until the test releases it
                }
                handled.fetch_add(1, Ordering::SeqCst);
            })
        };
        pool.try_submit(0).unwrap();
        picked_up.recv().unwrap(); // the worker holds job 0: the queue is empty
        pool.try_submit(1).unwrap(); // sits in the queue (now full)
        assert_eq!(
            pool.try_submit(2),
            Err(2),
            "a full queue hands the job back"
        );
        assert_eq!(handled.load(Ordering::SeqCst), 0);
        // Release the worker: the queue drains, and a slot is free again.
        gate.wait();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while let Err(job) = pool.try_submit(2) {
            assert!(
                std::time::Instant::now() < deadline,
                "job {job}: queue never drained"
            );
            thread::yield_now();
        }
        pool.join();
        assert_eq!(handled.load(Ordering::SeqCst), 3, "no job was dropped");
    }

    /// Mutation: drop the `catch_unwind` and the only worker dies with job 0.
    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        let (done, ran) = mpsc::channel();
        let pool = WorkerPool::new("t", 1, 4, move |n: usize| {
            assert_ne!(n, 0, "job 0 panics");
            let _ = done.send(n);
        });
        for n in 0..4 {
            let _ = pool.try_submit(n);
        }
        let ran: Vec<usize> = (1..4)
            .map(|_| ran.recv_timeout(Duration::from_secs(10)))
            .collect::<Result<_, _>>()
            .expect("the worker survived job 0");
        assert_eq!(ran, [1, 2, 3]);
        pool.join();
    }

    #[test]
    fn jobs_are_distributed_across_workers() {
        // With 4 workers and jobs that block until all workers are busy, every
        // worker must pick up work (a single-threaded pool would deadlock here,
        // so completing at all proves distribution).
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let pool = {
            let barrier = Arc::clone(&barrier);
            WorkerPool::new("t", 4, 4, move |_: ()| {
                barrier.wait();
            })
        };
        for _ in 0..4 {
            pool.try_submit(()).unwrap();
        }
        pool.join();
    }
}
