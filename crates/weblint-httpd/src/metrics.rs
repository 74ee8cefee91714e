//! Server-side observability, alongside the lint service's own metrics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Internal atomic counters shared by the accept loop and every
/// connection thread.
#[derive(Default)]
pub(crate) struct HttpCounters {
    pub(crate) connections: AtomicU64,
    pub(crate) connections_closed: AtomicU64,
    pub(crate) epoll_wakeups: AtomicU64,
    pub(crate) keepalive_reuse: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) streamed_lints: AtomicU64,
    pub(crate) parse_errors: AtomicU64,
    pub(crate) body_rejections: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    pub(crate) header_timeouts: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) worker_errors: AtomicU64,
    pub(crate) fix_requests: AtomicU64,
    pub(crate) fixes_applied: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
}

impl HttpCounters {
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        HttpCounters::add(counter, 1);
    }

    pub(crate) fn snapshot(&self) -> HttpMetrics {
        let accepted = self.connections.load(Ordering::Relaxed);
        let closed = self.connections_closed.load(Ordering::Relaxed);
        HttpMetrics {
            connections_accepted: accepted,
            open_connections: accepted.saturating_sub(closed),
            epoll_wakeups: self.epoll_wakeups.load(Ordering::Relaxed),
            keepalive_reuse: self.keepalive_reuse.load(Ordering::Relaxed),
            requests_served: self.requests.load(Ordering::Relaxed),
            streamed_lints: self.streamed_lints.load(Ordering::Relaxed),
            parse_errors: self.parse_errors.load(Ordering::Relaxed),
            body_rejections: self.body_rejections.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            header_timeouts: self.header_timeouts.load(Ordering::Relaxed),
            requests_shed: self.shed.load(Ordering::Relaxed),
            worker_errors: self.worker_errors.load(Ordering::Relaxed),
            fix_requests: self.fix_requests.load(Ordering::Relaxed),
            fixes_applied: self.fixes_applied.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of the server-side counters, rendered (along
/// with the lint service's [`ServiceMetrics`](weblint_service::ServiceMetrics))
/// by `GET /metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HttpMetrics {
    /// TCP connections accepted.
    pub connections_accepted: u64,
    /// Connections currently open (accepted minus closed) — a gauge,
    /// not a counter.
    pub open_connections: u64,
    /// Times the readiness loop's `epoll_wait`/`poll` returned.
    pub epoll_wakeups: u64,
    /// Requests served on a connection beyond its first — how much work
    /// keep-alive actually carried.
    pub keepalive_reuse: u64,
    /// Requests answered with a response (any status).
    pub requests_served: u64,
    /// `POST /lint` bodies linted incrementally on the event loop as
    /// their bytes arrived, never passing through the worker pool.
    pub streamed_lints: u64,
    /// Connections dropped over malformed input (400s).
    pub parse_errors: u64,
    /// Requests refused for an over-limit body (413s).
    pub body_rejections: u64,
    /// Connections closed by read timeout (idle keep-alive or stalled
    /// client).
    pub timeouts: u64,
    /// Connections dropped because the request head dribbled in past the
    /// header deadline (the slowloris defense).
    pub header_timeouts: u64,
    /// Requests answered 503 because the lint queue refused the job.
    pub requests_shed: u64,
    /// Requests answered 500 because the lint job panicked its worker.
    pub worker_errors: u64,
    /// `POST /fix` requests answered 200.
    pub fix_requests: u64,
    /// Total fixes applied across every `/fix` response.
    pub fixes_applied: u64,
    /// Request bytes read off the wire.
    pub bytes_in: u64,
    /// Response bytes written to the wire.
    pub bytes_out: u64,
}

impl std::fmt::Display for HttpMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "httpd statistics:")?;
        writeln!(
            f,
            "  conns: {} accepted, {} timed out, {} header timeout(s)",
            self.connections_accepted, self.timeouts, self.header_timeouts
        )?;
        writeln!(
            f,
            "  loop:  {} open, {} readiness wakeup(s), {} keep-alive reuse(s)",
            self.open_connections, self.epoll_wakeups, self.keepalive_reuse
        )?;
        writeln!(
            f,
            "  reqs:  {} served ({} streamed), {} parse error(s), {} body rejection(s)",
            self.requests_served, self.streamed_lints, self.parse_errors, self.body_rejections
        )?;
        writeln!(
            f,
            "  load:  {} shed (503), {} worker error(s) (500)",
            self.requests_shed, self.worker_errors
        )?;
        writeln!(
            f,
            "  fix:   {} request(s), {} fix(es) applied",
            self.fix_requests, self.fixes_applied
        )?;
        write!(
            f,
            "  wire:  {} byte(s) in, {} byte(s) out",
            self.bytes_in, self.bytes_out
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_display() {
        let counters = HttpCounters::default();
        HttpCounters::bump(&counters.connections);
        HttpCounters::add(&counters.epoll_wakeups, 9);
        HttpCounters::add(&counters.keepalive_reuse, 2);
        HttpCounters::add(&counters.requests, 3);
        HttpCounters::add(&counters.bytes_in, 120);
        HttpCounters::add(&counters.bytes_out, 4096);
        HttpCounters::bump(&counters.shed);
        HttpCounters::bump(&counters.header_timeouts);
        HttpCounters::bump(&counters.fix_requests);
        HttpCounters::add(&counters.fixes_applied, 7);
        let m = counters.snapshot();
        assert_eq!(m.connections_accepted, 1);
        assert_eq!(m.open_connections, 1, "nothing closed yet");
        assert_eq!(m.epoll_wakeups, 9);
        assert_eq!(m.keepalive_reuse, 2);
        assert_eq!(m.requests_served, 3);
        assert_eq!(m.requests_shed, 1);
        assert_eq!(m.header_timeouts, 1);
        HttpCounters::bump(&counters.connections_closed);
        assert_eq!(counters.snapshot().open_connections, 0);
        let text = m.to_string();
        for needle in [
            "1 accepted",
            "1 open, 9 readiness wakeup(s), 2 keep-alive reuse(s)",
            "3 served (0 streamed)",
            "120 byte(s) in",
            "4096 byte(s) out",
            "1 shed (503)",
            "1 header timeout(s)",
            "1 request(s), 7 fix(es) applied",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in {text}");
        }
    }
}
