//! Shutdown and concurrency stress tests for the lint service.
//!
//! The container has no loom, so these are seeded brute-force runs: many
//! iterations of the racy interleavings we care about — drop while jobs are
//! in flight, submit racing shutdown, many producers on a tiny queue — each
//! asserting the invariants that must hold on every schedule: workers are
//! joined, no accepted job is lost, and post-shutdown submits error cleanly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use weblint_core::LintConfig;
use weblint_service::{
    JobHandle, LintService, ServiceConfig, ServiceMetrics, SubmitError, SubmitPolicy,
};

fn service(workers: usize, queue_capacity: usize, cache_capacity: usize) -> LintService {
    LintService::new(ServiceConfig {
        workers,
        queue_capacity,
        cache_capacity,
        policy: SubmitPolicy::Block,
        lint: LintConfig::default(),
        enable_panic_marker: false,
    })
}

/// A tiny xorshift so each iteration sees a different (but reproducible)
/// document mix and thread interleaving.
struct Seeded(u64);

impl Seeded {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn doc(n: u64) -> String {
    match n % 4 {
        0 => format!("<HTML><HEAD><TITLE>{n}</TITLE></HEAD><BODY><P>ok</P></BODY></HTML>"),
        1 => format!("<H1>doc {n}</H2>"),
        2 => format!("<IMG SRC=\"{n}.gif\">"),
        _ => format!("<A HREF=\"#{n}\">here</A>"),
    }
}

#[test]
fn drop_joins_workers_and_loses_no_accepted_job() {
    let mut rng = Seeded(0x5EED_0001);
    for round in 0..50 {
        let workers = 1 + (rng.next() as usize % 4);
        let queue = 1 + (rng.next() as usize % 8);
        let svc = service(workers, queue, 0);
        let jobs = 1 + (rng.next() as usize % 32);
        let handles: Vec<JobHandle> = (0..jobs)
            .map(|i| {
                svc.submit(doc(rng.next() + i as u64))
                    .expect("live service accepts")
            })
            .collect();
        // Drop the service with jobs still queued: Drop must close the
        // queue, let the workers drain it, and join them all.
        drop(svc);
        for (i, handle) in handles.into_iter().enumerate() {
            // A lost reply surfaces as Err(WorkerPanicked): the sender was
            // dropped without an answer.
            assert!(
                handle.wait().is_ok(),
                "round {round}: job {i} of {jobs} lost its reply"
            );
        }
    }
}

#[test]
fn submit_racing_shutdown_either_completes_or_errors() {
    let mut rng = Seeded(0xFACE_0002);
    for _round in 0..50 {
        let svc = Arc::new(service(2, 2, 0));
        let accepted = Arc::new(AtomicUsize::new(0));
        let refused = Arc::new(AtomicUsize::new(0));
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let svc = Arc::clone(&svc);
                let accepted = Arc::clone(&accepted);
                let refused = Arc::clone(&refused);
                let seed = rng.next();
                thread::spawn(move || {
                    let mut rng = Seeded(seed | 1);
                    let mut handles = Vec::new();
                    for i in 0..16 {
                        match svc.submit(doc(rng.next() + p * 1000 + i)) {
                            Ok(h) => {
                                accepted.fetch_add(1, Ordering::Relaxed);
                                handles.push(h);
                            }
                            Err(SubmitError::ShutDown) => {
                                refused.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("Block policy never sees {e}"),
                        }
                    }
                    handles
                })
            })
            .collect();
        // Shut down somewhere in the middle of the producers' runs.
        thread::yield_now();
        svc.shutdown();
        let mut all = Vec::new();
        for producer in producers {
            all.extend(producer.join().expect("producer thread panicked"));
        }
        // Every accepted job still gets an answer — shutdown drains the
        // queue rather than discarding it.
        assert_eq!(all.len(), accepted.load(Ordering::Relaxed));
        for handle in all {
            assert!(handle.wait().is_ok(), "accepted job answered");
        }
        assert_eq!(
            accepted.load(Ordering::Relaxed) + refused.load(Ordering::Relaxed),
            3 * 16
        );
        // And submits after the fact are refused, repeatably.
        for _ in 0..4 {
            assert!(matches!(svc.submit("<P>late"), Err(SubmitError::ShutDown)));
        }
    }
}

#[test]
fn shutdown_is_idempotent_and_metrics_balance() {
    let svc = service(3, 4, 64);
    let handles: Vec<JobHandle> = (0..24).map(|i| svc.submit(doc(i)).unwrap()).collect();
    for handle in handles {
        assert!(handle.wait().is_ok());
    }
    svc.shutdown();
    svc.shutdown(); // second call is a no-op, not a double-join panic
    let m: ServiceMetrics = svc.metrics();
    assert_eq!(m.jobs_submitted, 24);
    assert_eq!(m.jobs_completed, 24);
    assert_eq!(m.jobs_failed, 0);
    assert_eq!(m.jobs_in_flight(), 0);
    assert_eq!(m.queue_depth, 0);
}

#[test]
fn identical_bodies_racing_lint_once() {
    // Two identical bodies submitted while the first may still be in
    // flight. Whatever the schedule, the twin must be served without a
    // second lint: either it coalesces onto the in-flight job or it hits
    // the freshly cached result — single lint, two hits.
    for round in 0..50u64 {
        let svc = service(1, 8, 64);
        // Occupy the single worker so the pair overlaps more often.
        let blocker = svc
            .submit(format!("<H1>blocker {round}</H2>").repeat(40))
            .unwrap();
        let body = format!("<H1>round {round}</H2>");
        let a = svc.submit(body.as_str()).unwrap();
        let b = svc.submit(body.as_str()).unwrap();
        let (ra, rb) = (a.wait().unwrap(), b.wait().unwrap());
        assert_eq!(ra, rb, "round {round}: twins diverged");
        assert!(blocker.wait().is_ok());
        let m = svc.metrics();
        assert_eq!(m.jobs_submitted, 3);
        assert_eq!(m.jobs_completed, 3);
        let linted: u64 = m.per_worker_completed.iter().sum();
        assert_eq!(linted, 2, "round {round}: body linted twice: {m:?}");
        assert_eq!(
            m.jobs_coalesced + m.cache.hits,
            1,
            "round {round}: twin neither coalesced nor hit the cache: {m:?}"
        );
    }
}

#[test]
fn duplicate_flood_under_reject_policy_answers_every_acceptance() {
    // Reject policy, tiny queue, four producers hammering the *same* body:
    // exercises the coalescing fast path, the queue-full fallback that
    // answers attached waiters inline, and the counters' balance.
    use weblint_core::LintSession;
    for round in 0..20u64 {
        let body = format!("<H1>contended {round}</H2>");
        let expected = LintSession::new().check_string(&body);
        let svc = Arc::new(LintService::new(ServiceConfig {
            workers: 2,
            queue_capacity: 1,
            cache_capacity: 64,
            policy: SubmitPolicy::Reject,
            lint: LintConfig::default(),
            enable_panic_marker: false,
        }));
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let body = body.clone();
                let expected = expected.clone();
                thread::spawn(move || {
                    let (mut ok, mut full) = (0u64, 0u64);
                    for _ in 0..32 {
                        match svc.submit(body.as_str()) {
                            Ok(h) => {
                                let diags = h.wait().expect("accepted body answered");
                                assert_eq!(diags, expected, "coalesced result diverged");
                                ok += 1;
                            }
                            Err(SubmitError::QueueFull) => full += 1,
                            Err(e) => panic!("unexpected {e}"),
                        }
                    }
                    (ok, full)
                })
            })
            .collect();
        let (mut ok, mut full) = (0, 0);
        for producer in producers {
            let (o, f) = producer.join().expect("producer thread panicked");
            ok += o;
            full += f;
        }
        assert_eq!(ok + full, 4 * 32);
        let m = svc.metrics();
        assert_eq!(m.jobs_submitted, ok, "{m:?}");
        assert_eq!(m.jobs_completed, ok, "{m:?}");
        assert_eq!(m.jobs_rejected, full, "{m:?}");
        // Duplicates were deduplicated somewhere: at most a handful of
        // real lints for 128 identical submissions.
        let linted: u64 = m.per_worker_completed.iter().sum();
        assert!(
            linted + m.jobs_rejected + m.cache_served + m.jobs_coalesced >= 4 * 32,
            "{m:?}"
        );
        assert!(linted <= ok, "{m:?}");
    }
}

#[test]
fn many_producers_tiny_queue_under_reject_policy() {
    // Reject policy on a single-slot queue: heavy contention, but the
    // counters must still balance and no reply may be dropped.
    for round in 0..20 {
        let svc = Arc::new(LintService::new(ServiceConfig {
            workers: 2,
            queue_capacity: 1,
            cache_capacity: 0,
            policy: SubmitPolicy::Reject,
            lint: LintConfig::default(),
            enable_panic_marker: false,
        }));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let svc = Arc::clone(&svc);
                thread::spawn(move || {
                    let mut ok = 0u64;
                    let mut full = 0u64;
                    let mut rng = Seeded((round as u64) << 8 | p as u64 | 1);
                    for i in 0..32 {
                        match svc.submit(doc(rng.next() + i)) {
                            Ok(h) => {
                                assert!(h.wait().is_ok(), "reply arrives");
                                ok += 1;
                            }
                            Err(SubmitError::QueueFull) => full += 1,
                            Err(e) => panic!("unexpected {e}"),
                        }
                    }
                    (ok, full)
                })
            })
            .collect();
        let (mut ok, mut full) = (0, 0);
        for producer in producers {
            let (o, f) = producer.join().expect("producer thread panicked");
            ok += o;
            full += f;
        }
        assert_eq!(ok + full, 4 * 32);
        let m = svc.metrics();
        assert_eq!(m.jobs_submitted, ok);
        assert_eq!(m.jobs_completed, ok);
        assert_eq!(m.jobs_rejected, full);
    }
}
