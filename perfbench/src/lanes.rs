//! Closed-loop lanes with an outside time box on every operation.
//!
//! Each lane is one thread that takes the next operation index from a
//! shared counter, runs it, and reports back over a channel. The calling
//! thread is the watchdog: it waits on that channel with a timeout set to
//! the earliest open operation's box. There is no thread per operation.
//! When a box expires the operation counts as hung; its lane thread is
//! left blocked (it cannot be killed) and a fresh lane takes its place, so
//! the run goes on.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How one operation ended.
pub enum Outcome<R> {
    /// The operation returned `result` after `millis` milliseconds.
    Done { op: usize, result: R, millis: f64 },
    /// The operation's time box expired first, `millis` milliseconds after
    /// it started.
    Hung { op: usize, millis: f64 },
}

/// What a run of lanes produced.
pub struct LaneRun<R, S> {
    /// One outcome per operation started, in completion order.
    pub outcomes: Vec<Outcome<R>>,
    /// The final state of every lane that exited normally.
    pub states: Vec<S>,
    /// Wall-clock time from the first lane's start to the last lane's
    /// exit.
    pub wall: Duration,
}

enum Msg<R, S> {
    Start(usize, usize, Instant),
    Done(usize, usize, R, f64),
    Exit(usize, S),
}

/// The work a lane does: make per-lane state, then run operations on it.
pub trait LaneWork: Send + Sync + 'static {
    /// Per-lane state (a connection, a pool, a span recorder, ...).
    type State: Send + 'static;
    /// What one operation returns.
    type Output: Send + 'static;
    /// Builds the state of lane number `lane`.
    fn init(&self, lane: usize) -> Self::State;
    /// Runs operation `op`.
    fn run(&self, state: &mut Self::State, op: usize) -> Self::Output;
}

/// Runs operations `ops` in order on `lanes` closed-loop lanes, stopping when the
/// operations run out or, if `stop_at` is set, when a lane finishes an
/// operation after that instant; every lane runs at least one operation.
/// Every operation is boxed to `time_box`. Lanes take their state from
/// `states` while it lasts and build the rest.
pub fn run_lanes<W: LaneWork>(
    work: Arc<W>,
    lanes: usize,
    ops: Range<usize>,
    stop_at: Option<Instant>,
    time_box: Duration,
    mut states: Vec<W::State>,
) -> LaneRun<W::Output, W::State> {
    let (tx, rx) = channel::<Msg<W::Output, W::State>>();
    let next = Arc::new(AtomicUsize::new(ops.start));
    let started = Instant::now();
    let mut spawn = |lane: usize| -> (JoinHandle<()>, Arc<AtomicBool>) {
        let retired = Arc::new(AtomicBool::new(false));
        let (work, next, tx) = (Arc::clone(&work), Arc::clone(&next), tx.clone());
        let flag = Arc::clone(&retired);
        let state = states.pop();
        let handle = std::thread::Builder::new()
            .name(format!("lane-{lane}"))
            .spawn(move || {
                let state = state.unwrap_or_else(|| work.init(lane));
                lane_loop(&*work, state, lane, &next, ops.end, stop_at, &flag, &tx)
            })
            .expect("spawning a lane thread");
        (handle, retired)
    };
    // Live lanes only: messages from a retired lane are ignored.
    let mut handles: BTreeMap<usize, (JoinHandle<()>, Arc<AtomicBool>)> =
        (0..lanes).map(|l| (l, spawn(l))).collect();
    let mut open: BTreeMap<usize, (usize, Instant)> = BTreeMap::new();
    let mut next_lane = lanes;
    let mut outcomes = Vec::new();
    let mut states = Vec::new();
    let mut finished = Vec::new();
    while !handles.is_empty() {
        let earliest = open.values().map(|(_, t)| *t + time_box).min();
        let wait = earliest.map_or(Duration::from_secs(3600), |d| {
            d.saturating_duration_since(Instant::now())
        });
        match rx.recv_timeout(wait) {
            Ok(Msg::Start(lane, op, at)) if handles.contains_key(&lane) => {
                open.insert(lane, (op, at));
            }
            Ok(Msg::Done(lane, op, result, millis)) if handles.contains_key(&lane) => {
                open.remove(&lane);
                outcomes.push(Outcome::Done { op, result, millis });
            }
            Ok(Msg::Exit(lane, state)) if handles.contains_key(&lane) => {
                states.push(state);
                if let Some((handle, _)) = handles.remove(&lane) {
                    finished.push(handle);
                }
            }
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) => {
                let now = Instant::now();
                let expired: Vec<usize> = open
                    .iter()
                    .filter(|(_, (_, at))| *at + time_box <= now)
                    .map(|(lane, _)| *lane)
                    .collect();
                for lane in expired {
                    let (op, at) = open.remove(&lane).expect("expired lane is open");
                    eprintln!("time box of {time_box:?} expired: operation {op} on lane {lane}");
                    outcomes.push(Outcome::Hung {
                        op,
                        millis: now.duration_since(at).as_secs_f64() * 1000.0,
                    });
                    // The blocked thread cannot be joined: retire it (should
                    // it ever return, it stops before taking another
                    // operation) and carry on with a fresh lane.
                    if let Some((_, retired)) = handles.remove(&lane) {
                        retired.store(true, Ordering::Relaxed);
                    }
                    handles.insert(next_lane, spawn(next_lane));
                    next_lane += 1;
                }
            }
            Err(RecvTimeoutError::Disconnected) => unreachable!("the watchdog holds a sender"),
        }
    }
    let wall = started.elapsed();
    for handle in finished {
        handle.join().expect("a lane thread panicked");
    }
    LaneRun {
        outcomes,
        states,
        wall,
    }
}

#[allow(clippy::too_many_arguments)]
fn lane_loop<W: LaneWork>(
    work: &W,
    mut state: W::State,
    lane: usize,
    next: &AtomicUsize,
    end: usize,
    stop_at: Option<Instant>,
    retired: &AtomicBool,
    tx: &Sender<Msg<W::Output, W::State>>,
) {
    let mut ran = false;
    loop {
        if retired.load(Ordering::Relaxed) || (ran && stop_at.is_some_and(|t| Instant::now() >= t))
        {
            break;
        }
        ran = true;
        let op = next.fetch_add(1, Ordering::Relaxed);
        if op >= end {
            break;
        }
        let at = Instant::now();
        if tx.send(Msg::Start(lane, op, at)).is_err() {
            return;
        }
        let result = work.run(&mut state, op);
        let millis = at.elapsed().as_secs_f64() * 1000.0;
        if tx.send(Msg::Done(lane, op, result, millis)).is_err() {
            return;
        }
    }
    let _ = tx.send(Msg::Exit(lane, state));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct Squares;
    impl LaneWork for Squares {
        type State = usize;
        type Output = usize;
        fn init(&self, _lane: usize) -> usize {
            0
        }
        fn run(&self, done: &mut usize, op: usize) -> usize {
            *done += 1;
            op * op
        }
    }

    #[test]
    fn every_operation_runs_once() {
        let run = run_lanes(
            Arc::new(Squares),
            2,
            0..50,
            None,
            Duration::from_secs(5),
            Vec::new(),
        );
        let mut ops: Vec<usize> = run
            .outcomes
            .iter()
            .map(|o| match o {
                Outcome::Done { op, result, .. } => {
                    assert_eq!(*result, op * op);
                    *op
                }
                Outcome::Hung { .. } => panic!("nothing hangs"),
            })
            .collect();
        ops.sort_unstable();
        assert_eq!(ops, (0..50).collect::<Vec<_>>());
        assert_eq!(run.states.iter().sum::<usize>(), 50);
    }

    /// Operation 3 blocks forever on a held lock; the box must fail it and
    /// the remaining operations must still run.
    struct Blocking(Arc<Mutex<()>>);
    impl LaneWork for Blocking {
        type State = ();
        type Output = ();
        fn init(&self, _lane: usize) {}
        fn run(&self, _: &mut (), op: usize) {
            if op == 3 {
                let _never = self.0.lock().expect("lock");
            }
        }
    }

    #[test]
    fn an_expired_box_fails_the_operation_and_the_run_continues() {
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().expect("lock");
        let run = run_lanes(
            Arc::new(Blocking(Arc::clone(&gate))),
            1,
            0..10,
            None,
            Duration::from_millis(50),
            Vec::new(),
        );
        let hung: Vec<usize> = run
            .outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Hung { op, millis } => {
                    assert!(*millis >= 50.0);
                    Some(*op)
                }
                Outcome::Done { .. } => None,
            })
            .collect();
        assert_eq!(hung, vec![3]);
        assert_eq!(run.outcomes.len(), 10);
        drop(held);
    }
}
