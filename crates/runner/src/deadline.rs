//! A shared deadline timer: one monitor thread trips [`Cancel`] tokens
//! when their wall-clock budget expires.
//!
//! This is the stack's only timeout mechanism. It is purely cooperative:
//! it flips the job's own [`Cancel`] token at the deadline and the job
//! winds down at its next poll, so no thread is ever abandoned and memory
//! stays bounded by the number of jobs *in flight*, not the number
//! registered over the timer's lifetime (finished registrations are
//! pruned in amortized constant time). [`crate::run_jobs`] arms one per
//! job; the CLI's races and the daemon's requests arm one per race.
//!
//! ```
//! use runner::{Cancel, DeadlineTimer};
//! use std::time::Duration;
//!
//! let timer = DeadlineTimer::new();
//! let cancel = Cancel::new();
//! {
//!     let _guard = timer.register(&cancel, Duration::from_secs(60));
//!     // ... run the job, polling `cancel` ...
//! } // guard dropped: the registration is retired, nothing trips
//! assert!(!cancel.is_cancelled());
//! ```

use crate::cancel::Cancel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct Registration {
    due: Instant,
    cancel: Cancel,
    /// Set by the guard when the job finishes first; pruned lazily.
    done: Arc<AtomicBool>,
}

#[derive(Default)]
struct TimerState {
    pending: Vec<Registration>,
    /// Prune retired registrations once `pending` grows past this mark
    /// (doubling watermark ⇒ amortized O(1) per registration).
    prune_watermark: usize,
    shutdown: bool,
}

/// The shared timer. Cloneable-by-reference via `&DeadlineTimer`; dropped,
/// it joins its monitor thread (without tripping still-pending tokens).
pub struct DeadlineTimer {
    state: Arc<(Mutex<TimerState>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// Incremented every time the monitor trips a token at its deadline.
    trips: obs::Counter,
}

/// Proof of a live registration. Dropping the guard retires the
/// registration: a job that finishes before its deadline will not have its
/// token tripped afterwards (the token may be reused for the next job).
#[must_use = "dropping the guard immediately retires the deadline"]
pub struct DeadlineGuard {
    done: Arc<AtomicBool>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Release);
    }
}

impl DeadlineTimer {
    /// Spawns the monitor thread.
    pub fn new() -> DeadlineTimer {
        let state: Arc<(Mutex<TimerState>, Condvar)> = Arc::default();
        let trips = obs::Counter::new();
        let thread_state = Arc::clone(&state);
        let thread_trips = trips.clone();
        let handle = std::thread::Builder::new()
            .name("deadline-timer".into())
            .spawn(move || {
                let (lock, cv) = &*thread_state;
                let mut state = lock.lock().unwrap();
                loop {
                    if state.shutdown {
                        return;
                    }
                    let now = Instant::now();
                    state.pending.retain(|r| {
                        if r.done.load(Ordering::Acquire) {
                            return false; // job finished first
                        }
                        if r.due <= now {
                            r.cancel.cancel();
                            thread_trips.inc();
                            return false;
                        }
                        true
                    });
                    state.prune_watermark = (state.pending.len() * 2).max(64);
                    let next = state.pending.iter().map(|r| r.due).min();
                    state = match next {
                        Some(due) => {
                            let wait = due.saturating_duration_since(now);
                            cv.wait_timeout(state, wait).unwrap().0
                        }
                        None => cv.wait(state).unwrap(),
                    };
                }
            })
            .expect("spawning the deadline timer");
        DeadlineTimer {
            state,
            handle: Some(handle),
            trips,
        }
    }

    /// Counter of deadline trips (tokens cancelled because their budget
    /// expired), suitable for registration in an [`obs::Registry`].
    pub fn trip_counter(&self) -> obs::Counter {
        self.trips.clone()
    }

    /// Arms `cancel` to trip `timeout` from now. Keep the returned guard
    /// alive for the duration of the job and drop it when the job
    /// finishes; whether the deadline fired first is visible on the token
    /// itself (`cancel.is_cancelled()`).
    pub fn register(&self, cancel: &Cancel, timeout: Duration) -> DeadlineGuard {
        let done = Arc::new(AtomicBool::new(false));
        let (lock, cv) = &*self.state;
        let mut state = lock.lock().unwrap();
        // Amortized cleanup: retire finished registrations in place once
        // the list outgrows its watermark, so a stream of short jobs never
        // accumulates per-job state for the whole campaign.
        if state.pending.len() >= state.prune_watermark {
            state.pending.retain(|r| !r.done.load(Ordering::Acquire));
            state.prune_watermark = (state.pending.len() * 2).max(64);
        }
        state.pending.push(Registration {
            due: Instant::now() + timeout,
            cancel: cancel.clone(),
            done: Arc::clone(&done),
        });
        cv.notify_one();
        DeadlineGuard { done }
    }
}

impl Default for DeadlineTimer {
    fn default() -> Self {
        DeadlineTimer::new()
    }
}

impl Drop for DeadlineTimer {
    fn drop(&mut self) {
        let (lock, cv) = &*self.state;
        lock.lock().unwrap().shutdown = true;
        cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expired_deadlines_trip_the_token() {
        let timer = DeadlineTimer::new();
        let cancel = Cancel::new();
        assert_eq!(timer.trip_counter().get(), 0);
        let _guard = timer.register(&cancel, Duration::from_millis(10));
        let start = Instant::now();
        while !cancel.is_cancelled() {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "deadline never fired"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            timer.trip_counter().get(),
            1,
            "each fired deadline counts exactly once"
        );
    }

    #[test]
    fn retired_registrations_do_not_trip() {
        let timer = DeadlineTimer::new();
        let cancel = Cancel::new();
        let guard = timer.register(&cancel, Duration::from_millis(20));
        drop(guard); // the job "finished" immediately
        std::thread::sleep(Duration::from_millis(60));
        assert!(!cancel.is_cancelled());
        assert_eq!(
            timer.trip_counter().get(),
            0,
            "retired registrations must not count as trips"
        );
    }

    #[test]
    fn a_stream_of_short_jobs_stays_bounded() {
        let timer = DeadlineTimer::new();
        // 10_000 instantly-finished registrations with far-future
        // deadlines: without pruning these would all sit in `pending`
        // until their deadlines; the watermark keeps the list small.
        for _ in 0..10_000 {
            let cancel = Cancel::new();
            let guard = timer.register(&cancel, Duration::from_secs(3600));
            drop(guard);
        }
        let (lock, _) = &*timer.state;
        let len = lock.lock().unwrap().pending.len();
        assert!(len <= 128, "pending grew to {len}; pruning is broken");
    }

    #[test]
    fn many_tokens_trip_independently() {
        let timer = DeadlineTimer::new();
        let quick = Cancel::new();
        let slow = Cancel::new();
        let _g1 = timer.register(&quick, Duration::from_millis(10));
        let _g2 = timer.register(&slow, Duration::from_secs(3600));
        let start = Instant::now();
        while !quick.is_cancelled() {
            assert!(start.elapsed() < Duration::from_secs(5));
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!slow.is_cancelled());
    }
}
