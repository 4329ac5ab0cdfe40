//! Isolation guarantees of the batch helper: a job past its deadline
//! reports `TimedOut` once it has observed its token, a panicking job
//! reports `Crashed`, and the siblings of either run to completion.

use runner::{run_jobs, Job, JobStatus, PoolConfig};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn timeout_fires_without_killing_the_pool() {
    let completed = Arc::new(AtomicUsize::new(0));
    let sleeper_returned = Arc::new(AtomicBool::new(false));
    let mut jobs = Vec::new();
    for i in 0..6 {
        let completed = Arc::clone(&completed);
        if i == 2 {
            let returned = Arc::clone(&sleeper_returned);
            jobs.push(Job::cancellable("sleeper", move |cancel| {
                let give_up = Instant::now() + Duration::from_secs(30);
                while !cancel.is_cancelled() && Instant::now() < give_up {
                    std::thread::sleep(Duration::from_millis(1));
                }
                returned.store(true, Ordering::SeqCst);
                0usize
            }));
        } else {
            jobs.push(Job::new(format!("quick-{i}"), move || {
                completed.fetch_add(1, Ordering::SeqCst);
                i
            }));
        }
    }

    let config = PoolConfig {
        jobs: 3,
        timeout: Some(Duration::from_millis(100)),
    };
    let results = run_jobs(jobs, &config);
    // Nothing is left running: the sleeper's body returned before
    // `run_jobs` did.
    assert!(sleeper_returned.load(Ordering::SeqCst));

    assert_eq!(results.len(), 6);
    assert_eq!(results[2].id, "sleeper");
    assert_eq!(results[2].status, JobStatus::TimedOut);
    assert_eq!(results[2].output, None);
    assert!(results[2].elapsed >= Duration::from_millis(100));
    assert!(
        results[2].elapsed < Duration::from_secs(10),
        "the sleeper ignored its deadline: {:?}",
        results[2].elapsed
    );
    // Every sibling still completed, on the same pool.
    for (i, result) in results.iter().enumerate() {
        if i != 2 {
            assert_eq!(result.status, JobStatus::Ok, "sibling {i} was disturbed");
            assert_eq!(result.output, Some(i));
        }
    }
    assert_eq!(completed.load(Ordering::SeqCst), 5);
}

#[test]
fn panicking_job_reports_crashed_while_siblings_finish() {
    let mut jobs: Vec<Job<usize>> = Vec::new();
    for i in 0..8 {
        if i == 3 {
            jobs.push(Job::new("bomb", || panic!("benchmark exploded")));
        } else {
            jobs.push(Job::new(format!("steady-{i}"), move || i * 10));
        }
    }

    let results = run_jobs(
        jobs,
        &PoolConfig {
            jobs: 4,
            timeout: None,
        },
    );

    assert_eq!(results.len(), 8);
    assert_eq!(results[3].id, "bomb");
    assert_eq!(results[3].status, JobStatus::Crashed);
    assert_eq!(results[3].output, None);
    for (i, result) in results.iter().enumerate() {
        if i != 3 {
            assert_eq!(result.status, JobStatus::Ok, "sibling {i} was disturbed");
            assert_eq!(result.output, Some(i * 10));
        }
    }
}

#[test]
fn worker_counts_do_not_change_results() {
    let make_jobs = || -> Vec<Job<u64>> {
        (0..24u64)
            .map(|i| Job::new(format!("j{i}"), move || i.pow(2) + 1))
            .collect()
    };
    let serial = run_jobs(make_jobs(), &PoolConfig::serial());
    let parallel = run_jobs(
        make_jobs(),
        &PoolConfig {
            jobs: 8,
            timeout: None,
        },
    );
    let serial_out: Vec<_> = serial.iter().map(|r| (r.id.clone(), r.output)).collect();
    let parallel_out: Vec<_> = parallel.iter().map(|r| (r.id.clone(), r.output)).collect();
    assert_eq!(serial_out, parallel_out);
}

#[test]
fn idle_workers_pick_up_queued_work() {
    // With 2 workers and one long-ish job, the other worker must take the
    // remaining jobs off the shared queue instead of idling; the whole
    // batch should finish well before the sum of serial times.
    let mut jobs: Vec<Job<()>> = Vec::new();
    jobs.push(Job::new("long", || {
        std::thread::sleep(Duration::from_millis(300))
    }));
    for i in 0..6 {
        jobs.push(Job::new(format!("short-{i}"), || {
            std::thread::sleep(Duration::from_millis(30))
        }));
    }
    let (results, elapsed) = runner::measure(|| {
        run_jobs(
            jobs,
            &PoolConfig {
                jobs: 2,
                timeout: None,
            },
        )
    });
    assert!(results.iter().all(|r| r.status == JobStatus::Ok));
    // Serial would take 300 + 6*30 = 480ms; sharing the queue bounds it
    // near 300ms.
    assert!(
        elapsed < Duration::from_millis(460),
        "idle worker did not overlap work: {elapsed:?}"
    );
}

#[test]
fn many_small_batches_never_deadlock() {
    // Two-job batches at two workers are the shape of a portfolio race.
    // A watchdog fails the test when no batch completes for 10 s.
    const BATCHES: usize = 50_000;
    let progress = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let watchdog = {
        let progress = Arc::clone(&progress);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut last = 0;
            let mut last_change = Instant::now();
            while !done.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(50));
                let now = progress.load(Ordering::SeqCst);
                if now != last {
                    last = now;
                    last_change = Instant::now();
                } else if last_change.elapsed() > Duration::from_secs(10) {
                    return Err(format!("no progress for 10 s after {now} batches"));
                }
            }
            Ok(())
        })
    };
    let config = PoolConfig {
        jobs: 2,
        timeout: None,
    };
    let worker = std::thread::spawn({
        let progress = Arc::clone(&progress);
        move || {
            for _ in 0..BATCHES {
                let results = run_jobs(vec![Job::new("a", || ()), Job::new("b", || ())], &config);
                assert!(results.iter().all(|r| r.status == JobStatus::Ok));
                progress.fetch_add(1, Ordering::SeqCst);
            }
        }
    });
    // Poll rather than join, so a stalled batch fails the test instead of
    // hanging it.
    while !worker.is_finished() {
        if watchdog.is_finished() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    done.store(true, Ordering::SeqCst);
    watchdog.join().unwrap().expect("run_jobs stalled");
    worker.join().expect("batch thread panicked");
    assert_eq!(progress.load(Ordering::SeqCst), BATCHES);
}
