//! The host-speed probe, and timed phases cut into probed slices.
//!
//! The benchmark runs on a few cores of a shared host, whose speed drifts
//! by tens of percent from one second to the next: other tenants take
//! turns on the same cores, caches and memory. A fixed kernel of the
//! benchmark's own code slows with the host just as the program does. So
//! every timed phase is cut into short slices, the probe runs before the
//! first slice and after each one while the workload is idle, and each
//! slice's times are scaled by the probe's reference time over its time
//! around that slice. The figures then read as on a quiet host. The probe
//! is not part of the program, so no change to the program moves it.
//!
//! The host slows the program in two ways: all the time (a busy core
//! beside ours, a lower clock), and in stalls of a few milliseconds while
//! the hypervisor runs someone else. The median kernel repetition sees only
//! the first; the mean sees both. An operation much shorter than a
//! repetition rarely meets a stall, so it is scaled like the median
//! repetition; a much longer one, and the wall time behind the throughput,
//! like the mean; an operation in between by a blend weighted by its
//! length.

use crate::lanes::{run_lanes, LaneWork, Outcome};
use std::hint::black_box;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Slots of the kernel's hash table (a power of two).
const SLOTS: usize = 1 << 13;

/// Hash-table updates with linear probing, short loops and integer
/// arithmetic over preallocated buffers, like the solvers' inner loops.
/// It allocates nothing, so the state of the process's heap cannot move
/// its time.
fn kernel(seed: u64, table: &mut [(u64, u64)], row: &mut [u64]) -> u64 {
    table.fill((0, 0));
    let mut x = seed | 1;
    let mut acc = 0u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 4096 + 1;
        let mut slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 51) as usize;
        loop {
            match table[slot] {
                (0, _) => {
                    table[slot] = (key, i);
                    break;
                }
                (k, ref mut v) if k == key => {
                    *v += i;
                    break;
                }
                _ => slot = (slot + 1) & (SLOTS - 1),
            }
        }
        let len = (x % 24) as usize;
        for (k, cell) in row[..len].iter_mut().enumerate() {
            *cell = (k as u64).wrapping_mul(x) >> 3;
        }
        acc = acc.wrapping_add(row[..len].iter().fold(key, |a, b| a ^ b.rotate_left(5)));
        acc = acc.wrapping_add(table[(acc as usize) & (SLOTS - 1)].1);
    }
    acc
}

/// How a workload probes the host.
#[derive(Clone, Copy)]
pub struct Probe {
    /// Threads that run the kernel at once: as many as the workload keeps
    /// busy.
    threads: u32,
    /// Kernel repetitions per thread.
    repetitions: u32,
    /// Length of one slice of the timed phase. Every lane runs at least
    /// one operation per slice, so a zero slice probes around every
    /// operation of a one-lane workload.
    slice: Duration,
    /// The typical time per repetition, in ms, on a 2-vCPU Xeon (Sapphire
    /// Rapids, 2.1 GHz) container.
    reference_ms: f64,
}

/// For a serial workload: a probe around every operation, on one thread.
pub const SERIAL: Probe = Probe {
    threads: 1,
    repetitions: 4,
    slice: Duration::ZERO,
    reference_ms: 0.95,
};

/// For a workload that races two engines: a probe on two threads every
/// quarter second.
pub const RACING: Probe = Probe {
    threads: 2,
    repetitions: 10,
    slice: Duration::from_millis(250),
    reference_ms: 1.05,
};

/// How many slices on each side of a slice lend their probes to its scale.
const WINDOW: usize = 3;

/// One probe's kernel repetition times, in ms.
#[derive(Clone, Copy)]
struct Reading {
    /// The mean repetition.
    mean_ms: f64,
    /// The median repetition.
    median_ms: f64,
}

impl Probe {
    /// Runs the kernel on every probe thread at once.
    fn measure(&self) -> Reading {
        let reps_ms: Vec<f64> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..self.threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut table = vec![(0u64, 0u64); SLOTS];
                        let mut row = vec![0u64; 24];
                        (0..self.repetitions)
                            .map(|rep| {
                                let started = Instant::now();
                                black_box(kernel(
                                    black_box(u64::from(rep) + 1),
                                    &mut table,
                                    &mut row,
                                ));
                                started.elapsed().as_secs_f64() * 1000.0
                            })
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("a probe thread panicked"))
                .collect()
        });
        Reading {
            mean_ms: reps_ms.iter().sum::<f64>() / reps_ms.len() as f64,
            median_ms: crate::stats::median(&reps_ms).expect("a probe runs the kernel"),
        }
    }
}

/// How the times between some probes are scaled to the reference host
/// speed.
#[derive(Clone, Copy)]
struct Scale {
    /// The factor for stall-prone time: reference over mean repetition.
    mean: f64,
    /// The factor for stall-free time: reference over median repetition.
    steady: f64,
    /// The median repetition, in ms as measured.
    repetition_ms: f64,
}

impl Scale {
    /// An operation of `millis`, scaled.
    fn apply(&self, millis: f64) -> f64 {
        let long = millis / (millis + self.repetition_ms);
        millis * ((1.0 - long) * self.steady + long * self.mean)
    }
}

impl Probe {
    /// The scale of times measured between the probes that read
    /// `readings`.
    fn scale(&self, readings: &[Reading]) -> Scale {
        let n = readings.len() as f64;
        let mean_ms = readings.iter().map(|r| r.mean_ms).sum::<f64>() / n;
        let median_ms = readings.iter().map(|r| r.median_ms).sum::<f64>() / n;
        Scale {
            mean: self.reference_ms / mean_ms,
            steady: self.reference_ms / median_ms,
            repetition_ms: median_ms,
        }
    }

    /// The scale of every slice, given the `slices + 1` readings taken
    /// before the first slice and after each: from the probes [`WINDOW`]
    /// slices before it to [`WINDOW`] slices after it.
    fn slice_scales(&self, readings: &[Reading]) -> Vec<Scale> {
        (0..readings.len() - 1)
            .map(|slice| {
                let from = slice.saturating_sub(WINDOW);
                let to = (slice + 2 + WINDOW).min(readings.len());
                self.scale(&readings[from..to])
            })
            .collect()
    }
}

/// A timed phase run in probed slices.
pub struct Sliced<R> {
    /// One outcome per operation started, its time scaled by its slice's
    /// factor.
    pub outcomes: Vec<Outcome<R>>,
    /// The slices' wall time, each scaled by its factor, in seconds.
    pub wall_s: f64,
    /// The slices' wall time as measured, in seconds.
    pub raw_wall_s: f64,
    /// Every probe's mean time per kernel repetition, in ms.
    pub probes_ms: Vec<f64>,
}

impl<R> Sliced<R> {
    /// Appends another phase's slices.
    pub fn append(&mut self, other: Sliced<R>) {
        self.outcomes.extend(other.outcomes);
        self.wall_s += other.wall_s;
        self.raw_wall_s += other.raw_wall_s;
        self.probes_ms.extend(other.probes_ms);
    }

    /// One report line: the probe's spread and the unscaled wall time.
    pub fn note(&self) -> String {
        let mut sorted = self.probes_ms.clone();
        sorted.sort_by(f64::total_cmp);
        format!(
            "host probe: {} probes, {:.4}/{:.4}/{:.4} ms min/median/max; \
             measured wall {:.4} s, scaled {:.4} s",
            sorted.len(),
            sorted[0],
            sorted[sorted.len() / 2],
            sorted[sorted.len() - 1],
            self.raw_wall_s,
            self.wall_s
        )
    }
}

/// [`run_lanes`] over `ops`, cut into slices with a probe between slices,
/// until the operations run out or, if `stop_at` is set, a slice ends
/// after that instant. Lane states carry over from slice to slice; each
/// lane's final state goes to `fold` at the end.
pub fn run_sliced<W: LaneWork>(
    work: Arc<W>,
    lanes: usize,
    ops: Range<usize>,
    stop_at: Option<Instant>,
    time_box: Duration,
    probe: Probe,
    mut fold: impl FnMut(W::State),
) -> Sliced<W::Output> {
    let mut readings = vec![probe.measure()];
    let mut slices = Vec::new();
    let mut states = Vec::new();
    let mut next = ops.start;
    while next < ops.end && stop_at.is_none_or(|t| Instant::now() < t) {
        let slice_end = Instant::now() + probe.slice;
        let end = stop_at.map_or(slice_end, |t| t.min(slice_end));
        let mut run = run_lanes(
            Arc::clone(&work),
            lanes,
            next..ops.end,
            Some(end),
            time_box,
            std::mem::take(&mut states),
        );
        next += run.outcomes.len();
        states = std::mem::take(&mut run.states);
        readings.push(probe.measure());
        slices.push(run);
    }
    states.into_iter().for_each(&mut fold);
    let scales = probe.slice_scales(&readings);
    let mut sliced = Sliced {
        outcomes: Vec::new(),
        wall_s: 0.0,
        raw_wall_s: 0.0,
        probes_ms: readings.iter().map(|r| r.mean_ms).collect(),
    };
    for (run, scale) in slices.into_iter().zip(scales) {
        sliced.raw_wall_s += run.wall.as_secs_f64();
        sliced.wall_s += run.wall.as_secs_f64() * scale.mean;
        let scaled = |millis: f64| scale.apply(millis);
        sliced
            .outcomes
            .extend(run.outcomes.into_iter().map(|outcome| match outcome {
                Outcome::Done { op, result, millis } => Outcome::Done {
                    op,
                    result,
                    millis: scaled(millis),
                },
                Outcome::Hung { op, millis } => Outcome::Hung {
                    op,
                    millis: scaled(millis),
                },
            }));
    }
    sliced
}
