//! The readiness loop: every connection on one thread.
//!
//! A thread per connection spends a stack per connection, so 10k
//! mostly-idle keep-alive clients would cost gigabytes of address space
//! and thousands of scheduler entities before the lint engine did any
//! work. This module serves every connection from one thread instead:
//! the listener, every connection, and a self-pipe are registered with a
//! [`Poller`] (`epoll` on Linux, portable `poll` elsewhere), and each
//! readiness report advances a per-connection state machine
//!
//! ```text
//! ReadHead ─→ ReadBody ─→ Dispatched ─→ Write ─→ (keep-alive) ─→ ReadHead
//!     │            │                       │
//!     └── 400/413 ─┴───────────────────────┴─→ Close
//! ```
//!
//! Parsing reuses the blocking parser: bytes accumulate in a
//! per-connection buffer, and [`parse_head`] only runs over that buffer
//! once [`find_head_end`]/[`head_overflow`] prove it can reach a verdict,
//! so a partial head is never misread as a truncated request.
//!
//! What runs where. A `POST /lint` body rendered as a text format (see
//! [`stream_plan`]) is linted on the loop thread: each decoded chunk is
//! fed to a [`LintStream`] as it lands, and the finished stream renders
//! its response on the loop too, so the body is never buffered. Every
//! other request — `POST /fix`, the HTML report, `GET /lint?url=…`,
//! `/metrics` — buffers its body and becomes a [`Job`] for a small
//! dispatcher pool, which calls the ordinary [`handle`] (worker-pool
//! dispatch, load shedding, and panic isolation included) and posts a
//! [`Completion`]. Dispatchers wake the loop through the self-pipe, so
//! the loop never blocks on pooled lint latency.
//!
//! Deadlines are absolute instants per phase: idle keep-alive and body
//! reads get the read timeout, a started head gets the (much shorter)
//! header budget — the slowloris defense — and writes get the write
//! timeout. A min-deadline hint keeps the wait timeout tight without
//! scanning every connection on every wakeup.

use std::collections::HashMap;
use std::io::{self, Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use crate::handler::{handle, stream_plan, App, LintStream};
use crate::http::{
    find_head_end, head_overflow, parse_head, write_response, BodyFraming, ChunkDecoder,
    ParseError, Response,
};
use crate::metrics::HttpCounters;
use crate::server::ConnLimits;
use crate::sys::{self, Poller, WakePipe, READABLE, WRITABLE};

/// A parsed request on its way to a dispatcher thread.
struct Job {
    fd: RawFd,
    request: crate::http::Request,
    head_only: bool,
    keep: bool,
}

/// A handled request on its way back to the loop. `response: None` means
/// the handler panicked outside the worker pool's own isolation, so the
/// connection is dropped unanswered.
struct Completion {
    fd: RawFd,
    response: Option<Response>,
    head_only: bool,
    keep: bool,
}

/// Where a connection is in its current request.
enum State {
    /// Accumulating the request head. `started` is false while the
    /// connection is idle between requests (no byte of the next request
    /// yet) — the moment the first byte lands, the idle deadline is
    /// traded for the header budget.
    ReadHead { started: bool },
    /// Head parsed; consuming the body per its framing. Arrived bytes are
    /// pulled out of the connection buffer immediately and pushed into
    /// the sink — either a plain buffer for ordinary dispatch, or a live
    /// lint session for the streaming `POST /lint` path, which never
    /// retains the body at all.
    ReadBody {
        request: Box<crate::http::Request>,
        progress: BodyProgress,
        sink: BodySink,
        head_bytes: u64,
        body_bytes: u64,
    },
    /// In a dispatcher's hands. The fd is deregistered from the poller —
    /// no readiness can touch it, no deadline runs, and the connection
    /// cannot be closed out from under the dispatcher (which also makes
    /// fd reuse races impossible: the fd stays open until the completion
    /// comes back).
    Dispatched,
    /// Flushing the response; `keep` decides what follows the last byte.
    Write { keep: bool },
}

/// How much of a request body's framing remains.
enum BodyProgress {
    /// Fixed-length body: this many bytes still owed.
    Length { remaining: usize },
    /// `Transfer-Encoding: chunked`, mid-decode.
    Chunked(ChunkDecoder),
}

/// Where decoded body bytes land as they are consumed.
enum BodySink {
    /// Collect the whole body, then dispatch the request as usual.
    Buffer(Vec<u8>),
    /// Lint on the fly; only diagnostics accumulate.
    Stream(Box<LintStream>),
}

impl BodySink {
    fn accept(&mut self, chunk: &[u8], max_findings: usize) {
        match self {
            BodySink::Buffer(body) => body.extend_from_slice(chunk),
            BodySink::Stream(lint) => lint.feed(chunk, max_findings),
        }
    }
}

/// What one pump of the body phase concluded.
enum BodyVerdict {
    /// More bytes must arrive.
    Wait,
    /// The body is fully consumed.
    Complete,
    /// Refuse the request; `true` counts it as a body rejection (413)
    /// rather than a parse error (400).
    Refuse(Response, bool),
}

/// One nonblocking connection and its state machine.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed by the parser (may already hold
    /// pipelined follow-up requests).
    buf: Vec<u8>,
    /// The serialized response being written, and how much of it is out.
    out: Vec<u8>,
    out_at: usize,
    state: State,
    /// Responses completed on this connection (the keep-alive cap, and
    /// the `keepalive_reuse` counter past the first).
    served: usize,
    /// Absolute deadline of the current phase; `None` while dispatched.
    deadline: Option<Instant>,
    /// Interest currently registered with the poller; 0 = deregistered.
    interest: u8,
    /// The peer half-closed: no more request bytes will ever arrive.
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream, idle_deadline: Instant) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_at: 0,
            state: State::ReadHead { started: false },
            served: 0,
            deadline: Some(idle_deadline),
            interest: 0,
            eof: false,
        }
    }
}

/// Accept backlog to request once the loop owns the listener; bursts of
/// thousands of connects are what the loop is for.
const ACCEPT_BACKLOG: i32 = 4096;

/// Create the loop's poller with the listener and the self-pipe's read
/// end registered. Called at bind time, so a server that cannot get
/// readiness notifications refuses to bind rather than serving some
/// other way.
pub(crate) fn poller_for(listener: &TcpListener, wake: &WakePipe) -> io::Result<Poller> {
    let mut poller = Poller::new()?;
    let listener_fd = listener.as_raw_fd();
    sys::widen_backlog(listener_fd, ACCEPT_BACKLOG);
    poller.register(listener_fd, READABLE)?;
    poller.register(wake.read_fd(), READABLE)?;
    Ok(poller)
}

/// Run the event loop until `stop` is set and every connection has
/// drained. `poller` comes from [`poller_for`] on the same listener and
/// self-pipe.
pub(crate) fn event_loop(
    poller: Poller,
    listener: TcpListener,
    app: Arc<App>,
    limits: ConnLimits,
    stop: Arc<AtomicBool>,
    wake: Arc<WakePipe>,
    dispatchers: usize,
) {
    let listener_fd = listener.as_raw_fd();
    let (job_tx, job_rx) = channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let completions: Arc<Mutex<Vec<Completion>>> = Arc::default();
    let mut pool = Vec::with_capacity(dispatchers);
    for _ in 0..dispatchers.max(1) {
        let app = Arc::clone(&app);
        let job_rx = Arc::clone(&job_rx);
        let completions = Arc::clone(&completions);
        let wake = Arc::clone(&wake);
        pool.push(
            thread::Builder::new()
                .name("httpd-dispatch".to_string())
                .spawn(move || dispatcher(&app, &job_rx, &completions, &wake))
                .expect("spawn dispatcher thread"),
        );
    }
    let mut lp = EventLoop {
        poller,
        listener,
        listener_fd,
        app,
        limits,
        stop,
        wake,
        conns: HashMap::new(),
        jobs: job_tx,
        completions,
        pending: 0,
        next_deadline: None,
        stopping: false,
    };
    lp.run();

    drop(lp.jobs); // closes the channel; dispatchers see Err and exit
    for worker in pool {
        let _ = worker.join();
    }
}

/// A dispatcher thread: jobs in, completions out, one wake per job. The
/// `Mutex<Receiver>` is the standard shared-consumer pattern — the lock
/// is held while blocked in `recv`, so exactly one idle dispatcher waits
/// at a time and the rest queue for the lock, not the channel.
fn dispatcher(
    app: &App,
    jobs: &Mutex<Receiver<Job>>,
    completions: &Mutex<Vec<Completion>>,
    wake: &WakePipe,
) {
    loop {
        let job = match jobs.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else { return };
        let response = catch_unwind(AssertUnwindSafe(|| handle(app, &job.request))).ok();
        if let Ok(mut done) = completions.lock() {
            done.push(Completion {
                fd: job.fd,
                response,
                head_only: job.head_only,
                keep: job.keep,
            });
        }
        wake.wake();
    }
}

struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    listener_fd: RawFd,
    app: Arc<App>,
    limits: ConnLimits,
    stop: Arc<AtomicBool>,
    wake: Arc<WakePipe>,
    conns: HashMap<RawFd, Conn>,
    jobs: Sender<Job>,
    completions: Arc<Mutex<Vec<Completion>>>,
    /// Jobs dispatched but not yet completed. Bounded by the connection
    /// count — a connection holds at most one job in flight (it parks in
    /// [`State::Dispatched`] until the completion drains) — so the
    /// unbounded channel cannot outgrow the accepted population. Lint
    /// overload is shed inside [`handle`] by the service submit policy.
    pending: usize,
    /// Earliest deadline across all connections — may be stale-early
    /// (a connection advanced past it), never stale-late, so waking on it
    /// and re-scanning is always sound.
    next_deadline: Option<Instant>,
    stopping: bool,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = Vec::new();
        loop {
            let timeout = self
                .next_deadline
                .map(|d| d.saturating_duration_since(Instant::now()));
            if self.poller.wait(timeout, &mut events).is_err() {
                return; // the poller itself failed; nothing left to serve with
            }
            HttpCounters::bump(&self.app.counters.epoll_wakeups);
            for event in &events {
                if event.fd == self.listener_fd {
                    self.accept_burst();
                } else if event.fd == self.wake.read_fd() {
                    self.wake.drain();
                } else {
                    self.drive(event.fd, event.readable, event.writable, event.hangup);
                }
            }
            self.complete_jobs();
            self.sweep_deadlines();
            if !self.stopping && self.stop.load(Ordering::Acquire) {
                self.begin_stop();
            }
            if self.stopping && self.conns.is_empty() && self.pending == 0 {
                return;
            }
        }
    }

    /// Stop accepting and close idle connections; in-flight requests
    /// keep their deadlines, finish, and are answered.
    fn begin_stop(&mut self) {
        self.stopping = true;
        self.poller.deregister(self.listener_fd);
        let idle: Vec<RawFd> = self
            .conns
            .iter()
            .filter(|(_, conn)| matches!(conn.state, State::ReadHead { started: false }))
            .map(|(&fd, _)| fd)
            .collect();
        for fd in idle {
            self.close(fd);
        }
    }

    fn accept_burst(&mut self) {
        loop {
            if self.stopping {
                return;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    HttpCounters::bump(&self.app.counters.connections);
                    if stream.set_nonblocking(true).is_err() {
                        HttpCounters::bump(&self.app.counters.connections_closed);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    if self.poller.register(fd, READABLE).is_err() {
                        HttpCounters::bump(&self.app.counters.connections_closed);
                        continue;
                    }
                    let deadline = Instant::now() + self.limits.read_timeout;
                    let mut conn = Conn::new(stream, deadline);
                    conn.interest = READABLE;
                    self.merge_deadline(deadline);
                    self.conns.insert(fd, conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// One readiness report for one connection: pull in whatever bytes
    /// are waiting, then advance the state machine as far as it will go.
    fn drive(&mut self, fd: RawFd, readable: bool, writable: bool, hangup: bool) {
        let Some(conn) = self.conns.get(&fd) else {
            return;
        };
        if matches!(conn.state, State::Dispatched) {
            return;
        }
        if hangup && !readable && !writable {
            // Error or full close with nothing readable: the connection
            // can never produce or take another byte.
            self.close(fd);
            return;
        }
        if readable && !matches!(conn.state, State::Write { .. }) && !self.fill(fd) {
            return;
        }
        self.advance(fd);
    }

    /// Read until the socket runs dry. Returns false if the connection
    /// died (and was closed) mid-read.
    fn fill(&mut self, fd: RawFd) -> bool {
        let Some(conn) = self.conns.get_mut(&fd) else {
            return false;
        };
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    return true;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        // A short read drained the socket; if anything
                        // trickles in behind it, level-triggered
                        // readiness reports again.
                        return true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(fd);
                    return false;
                }
            }
        }
    }

    /// Advance the state machine until it blocks on readiness, a
    /// dispatcher, or a deadline. Loops so pipelined requests already in
    /// the buffer are served without another trip through the poller.
    fn advance(&mut self, fd: RawFd) {
        loop {
            let Some(conn) = self.conns.get_mut(&fd) else {
                return;
            };
            match &mut conn.state {
                State::ReadHead { started } => {
                    if !*started {
                        if conn.buf.is_empty() {
                            if conn.eof {
                                // Clean close between requests.
                                self.close(fd);
                            }
                            return;
                        }
                        // First byte of a request: the whole head must
                        // now land within the header budget (slowloris).
                        *started = true;
                        let deadline = Instant::now() + self.limits.header_timeout;
                        conn.deadline = Some(deadline);
                        self.merge_deadline(deadline);
                        continue;
                    }
                    if !self.parse_buffered_head(fd) {
                        return;
                    }
                }
                State::ReadBody {
                    progress,
                    sink,
                    body_bytes,
                    ..
                } => {
                    let max_findings = self.limits.max_findings;
                    let verdict = match progress {
                        BodyProgress::Length { remaining } => {
                            let take = (*remaining).min(conn.buf.len());
                            if take > 0 {
                                sink.accept(&conn.buf[..take], max_findings);
                                conn.buf.drain(..take);
                                *remaining -= take;
                                *body_bytes += take as u64;
                            }
                            if *remaining == 0 {
                                BodyVerdict::Complete
                            } else if conn.eof {
                                // The peer closed before the body was
                                // complete.
                                BodyVerdict::Refuse(
                                    Response::text(
                                        400,
                                        "bad request: body shorter than content-length\n",
                                    ),
                                    false,
                                )
                            } else {
                                BodyVerdict::Wait
                            }
                        }
                        BodyProgress::Chunked(decoder) => {
                            let pushed =
                                decoder.push(&conn.buf, self.limits.max_body, &mut |chunk| {
                                    sink.accept(chunk, max_findings)
                                });
                            match pushed {
                                Ok((consumed, done)) => {
                                    conn.buf.drain(..consumed);
                                    *body_bytes += consumed as u64;
                                    if done {
                                        BodyVerdict::Complete
                                    } else if conn.eof {
                                        BodyVerdict::Refuse(
                                            Response::text(
                                                400,
                                                "bad request: truncated chunked body\n",
                                            ),
                                            false,
                                        )
                                    } else {
                                        BodyVerdict::Wait
                                    }
                                }
                                Err(ParseError::BodyTooLarge { declared, limit }) => {
                                    BodyVerdict::Refuse(
                                        Response::text(
                                            413,
                                            format!(
                                        "document of {declared} byte(s) exceeds the {limit} byte limit\n"
                                    ),
                                        ),
                                        true,
                                    )
                                }
                                Err(ParseError::BadRequest(reason)) => BodyVerdict::Refuse(
                                    Response::text(400, format!("bad request: {reason}\n")),
                                    false,
                                ),
                                // The decoder only raises the two above.
                                Err(_) => BodyVerdict::Refuse(
                                    Response::text(400, "bad request\n"),
                                    false,
                                ),
                            }
                        }
                    };
                    match verdict {
                        BodyVerdict::Wait => return,
                        BodyVerdict::Refuse(response, rejection) => {
                            HttpCounters::bump(if rejection {
                                &self.app.counters.body_rejections
                            } else {
                                &self.app.counters.parse_errors
                            });
                            self.respond(fd, response, false, false);
                            return;
                        }
                        BodyVerdict::Complete => {}
                    }
                    let State::ReadBody {
                        request,
                        sink,
                        head_bytes,
                        body_bytes,
                        ..
                    } = std::mem::replace(&mut conn.state, State::Dispatched)
                    else {
                        unreachable!();
                    };
                    let mut request = *request;
                    conn.deadline = None;
                    HttpCounters::add(&self.app.counters.bytes_in, head_bytes + body_bytes);
                    let keep = self.limits.keep_alive && !request.wants_close();
                    let head_only = request.method == "HEAD";
                    match sink {
                        BodySink::Buffer(body) => {
                            request.body = body;
                            self.set_interest(fd, 0);
                            self.pending += 1;
                            let _ = self.jobs.send(Job {
                                fd,
                                request,
                                head_only,
                                keep,
                            });
                        }
                        BodySink::Stream(lint) => {
                            // The lint already ran as the body streamed in;
                            // finish and answer from the loop — no
                            // dispatcher, no job, no buffered body.
                            let response = lint.into_response(&self.app, max_findings);
                            self.respond(fd, response, head_only, keep);
                        }
                    }
                    return;
                }
                State::Dispatched => return,
                State::Write { keep } => {
                    let keep = *keep;
                    while conn.out_at < conn.out.len() {
                        match conn.stream.write(&conn.out[conn.out_at..]) {
                            Ok(0) => {
                                self.close(fd);
                                return;
                            }
                            Ok(n) => conn.out_at += n,
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                self.set_interest(fd, WRITABLE);
                                return;
                            }
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                            Err(_) => {
                                self.close(fd);
                                return;
                            }
                        }
                    }
                    // Response fully flushed: only now do the wire
                    // counters move.
                    HttpCounters::add(&self.app.counters.bytes_out, conn.out.len() as u64);
                    HttpCounters::bump(&self.app.counters.requests);
                    if !keep {
                        self.close(fd);
                        return;
                    }
                    conn.out.clear();
                    conn.out_at = 0;
                    conn.state = State::ReadHead { started: false };
                    let deadline = Instant::now() + self.limits.read_timeout;
                    conn.deadline = Some(deadline);
                    self.merge_deadline(deadline);
                    self.set_interest(fd, READABLE);
                    // Loop: a pipelined next request may already be
                    // sitting in the buffer.
                }
            }
        }
    }

    /// Try to parse a head out of the connection's buffer. Returns true
    /// if the state machine advanced (more `advance` iterations may be
    /// productive), false if the connection is waiting or gone.
    fn parse_buffered_head(&mut self, fd: RawFd) -> bool {
        let Some(conn) = self.conns.get_mut(&fd) else {
            return false;
        };
        // Only run the parser once it can reach a verdict: a complete
        // head, a head already past hard limits, or proof (EOF) that the
        // rest will never come. Anything less must keep waiting, or a
        // partial head would be misread as a truncated request.
        let decidable = find_head_end(&conn.buf).is_some() || head_overflow(&conn.buf) || conn.eof;
        if !decidable {
            return false;
        }
        let mut cursor = Cursor::new(conn.buf.as_slice());
        match parse_head(&mut cursor, self.limits.max_body) {
            Ok((request, framing, consumed)) => {
                conn.buf.drain(..consumed as usize);
                let progress = match framing {
                    BodyFraming::Length(n) => BodyProgress::Length { remaining: n },
                    BodyFraming::Chunked => BodyProgress::Chunked(ChunkDecoder::default()),
                };
                // Lintable POSTs stream through a session as bytes land;
                // everything else buffers for the dispatcher, as before.
                let sink = match stream_plan(&self.app, &request) {
                    Some(lint) => BodySink::Stream(Box::new(lint)),
                    None => BodySink::Buffer(Vec::new()),
                };
                conn.state = State::ReadBody {
                    request: Box::new(request),
                    progress,
                    sink,
                    head_bytes: consumed,
                    body_bytes: 0,
                };
                let deadline = Instant::now() + self.limits.read_timeout;
                conn.deadline = Some(deadline);
                self.merge_deadline(deadline);
                true
            }
            Err(ParseError::Eof) => {
                // Clean EOF before the first byte of a request.
                self.close(fd);
                false
            }
            Err(ParseError::BodyTooLarge { declared, limit }) => {
                HttpCounters::bump(&self.app.counters.body_rejections);
                let body =
                    format!("document of {declared} byte(s) exceeds the {limit} byte limit\n");
                self.respond(fd, Response::text(413, body), false, false);
                false
            }
            Err(ParseError::BadRequest(reason)) => {
                HttpCounters::bump(&self.app.counters.parse_errors);
                let body = format!("bad request: {reason}\n");
                self.respond(fd, Response::text(400, body), false, false);
                false
            }
            // A Cursor can neither block nor fail.
            Err(ParseError::TimedOut | ParseError::Io(_)) => {
                self.close(fd);
                false
            }
        }
    }

    /// Serialize a response and start (or finish) writing it. The keep
    /// decision happens here, after the response exists, so the request
    /// cap and shutdown flip the response's `Connection:` header.
    fn respond(&mut self, fd: RawFd, response: Response, head_only: bool, keep: bool) {
        let stop = self.stop.load(Ordering::Acquire);
        let max_requests = self.limits.max_requests;
        let write_timeout = self.limits.write_timeout;
        let Some(conn) = self.conns.get_mut(&fd) else {
            return;
        };
        conn.served += 1;
        if conn.served > 1 {
            HttpCounters::bump(&self.app.counters.keepalive_reuse);
        }
        let keep = keep && conn.served < max_requests && !stop;
        conn.out.clear();
        conn.out_at = 0;
        // Writing into a Vec cannot fail.
        let _ = write_response(&mut conn.out, &response, keep, head_only);
        conn.state = State::Write { keep };
        let deadline = Instant::now() + write_timeout;
        conn.deadline = Some(deadline);
        self.merge_deadline(deadline);
        self.set_interest(fd, WRITABLE);
        // Eagerly attempt the write: responses usually fit the socket
        // buffer, finishing the request without another poller trip.
        self.advance(fd);
    }

    fn complete_jobs(&mut self) {
        let done: Vec<Completion> = match self.completions.lock() {
            Ok(mut list) => list.drain(..).collect(),
            Err(_) => return,
        };
        for completion in done {
            self.pending -= 1;
            match completion.response {
                Some(response) => self.respond(
                    completion.fd,
                    response,
                    completion.head_only,
                    completion.keep,
                ),
                None => self.close(completion.fd),
            }
        }
    }

    /// Close every connection whose deadline has passed, counting it as
    /// the matching phase's timeout. Only runs a full scan when the
    /// min-deadline hint has actually expired.
    fn sweep_deadlines(&mut self) {
        let Some(hint) = self.next_deadline else {
            return;
        };
        let now = Instant::now();
        if now < hint {
            return;
        }
        let mut expired = Vec::new();
        let mut min: Option<Instant> = None;
        for (&fd, conn) in &self.conns {
            match conn.deadline {
                Some(deadline) if deadline <= now => {
                    let counter = match conn.state {
                        // Idle keep-alive, and a stalled body, both count
                        // as read timeouts.
                        State::ReadHead { started: false } | State::ReadBody { .. } => {
                            Some(&self.app.counters.timeouts)
                        }
                        // A dribbling head is the slowloris case.
                        State::ReadHead { started: true } => {
                            Some(&self.app.counters.header_timeouts)
                        }
                        // A write timeout closes silently, like a write
                        // error.
                        State::Write { .. } => None,
                        State::Dispatched => None,
                    };
                    if let Some(counter) = counter {
                        HttpCounters::bump(counter);
                    }
                    expired.push(fd);
                }
                Some(deadline) => min = Some(min.map_or(deadline, |m| m.min(deadline))),
                None => {}
            }
        }
        self.next_deadline = min;
        for fd in expired {
            self.close(fd);
        }
    }

    fn merge_deadline(&mut self, deadline: Instant) {
        self.next_deadline = Some(match self.next_deadline {
            Some(current) => current.min(deadline),
            None => deadline,
        });
    }

    fn set_interest(&mut self, fd: RawFd, interest: u8) {
        let Some(conn) = self.conns.get_mut(&fd) else {
            return;
        };
        let current = conn.interest;
        if current == interest {
            return;
        }
        let outcome = if interest == 0 {
            self.poller.deregister(fd);
            Ok(())
        } else if current == 0 {
            self.poller.register(fd, interest)
        } else {
            self.poller.modify(fd, interest)
        };
        match outcome {
            Ok(()) => {
                if let Some(conn) = self.conns.get_mut(&fd) {
                    conn.interest = interest;
                }
            }
            Err(_) => self.close(fd),
        }
    }

    /// Drop a connection: deregister, close the socket, move the gauge.
    fn close(&mut self, fd: RawFd) {
        if let Some(conn) = self.conns.remove(&fd) {
            if conn.interest != 0 {
                self.poller.deregister(fd);
            }
            HttpCounters::bump(&self.app.counters.connections_closed);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::server::{HttpServer, ServerConfig};
    use std::io::{BufReader, Read, Write};
    use std::net::TcpStream;
    use std::thread;
    use std::time::Duration;

    /// The fragmented-arrival table: each case writes its chunks with a
    /// pause in between, so every boundary lands in a separate readiness
    /// wakeup, then asserts on the full response.
    #[test]
    fn fragmented_arrival_reassembles_requests() {
        struct Case {
            name: &'static str,
            chunks: &'static [&'static [u8]],
            expect_status: &'static str,
            expect_body: &'static str,
        }
        let cases = [
            Case {
                name: "head split mid-token",
                chunks: &[
                    b"GET /hea",
                    b"lth HTTP/1.1\r\nConne",
                    b"ction: close\r\n\r\n",
                ],
                expect_status: "HTTP/1.1 200 OK",
                expect_body: "ok\n",
            },
            Case {
                name: "head split at line boundary",
                chunks: &[
                    b"GET /health HTTP/1.1\r\n",
                    b"Connection: close\r\n",
                    b"\r\n",
                ],
                expect_status: "HTTP/1.1 200 OK",
                expect_body: "ok\n",
            },
            Case {
                name: "body split across reads",
                chunks: &[
                    b"POST /lint HTTP/1.1\r\nContent-Length: 10\r\nConnection: close\r\n\r\n<H1>",
                    b"x</H2>",
                ],
                expect_status: "HTTP/1.1 200 OK",
                expect_body: "malformed heading",
            },
            Case {
                name: "bare-LF head over HTTP/1.0",
                chunks: &[b"GET /health HTTP/1.0\n\n"],
                expect_status: "HTTP/1.1 200 OK",
                expect_body: "ok\n",
            },
            Case {
                name: "malformed head still answered",
                chunks: &[b"NOT-EVEN", b"-HTTP\r\n\r\n"],
                expect_status: "HTTP/1.1 400 Bad Request",
                expect_body: "bad request:",
            },
            Case {
                name: "body cut short by close",
                chunks: &[b"POST /lint HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"],
                expect_status: "HTTP/1.1 400 Bad Request",
                expect_body: "body shorter than content-length",
            },
        ];
        let handle = HttpServer::bind(ServerConfig::default()).unwrap().start();
        for case in &cases {
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            for chunk in case.chunks {
                stream.write_all(chunk).unwrap();
                thread::sleep(Duration::from_millis(25));
            }
            // The truncated-body case needs the EOF to arrive.
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            assert!(
                response.starts_with(case.expect_status),
                "{}: {response}",
                case.name
            );
            assert!(
                response.contains(case.expect_body),
                "{}: {response}",
                case.name
            );
        }
        handle.shutdown();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let handle = HttpServer::bind(ServerConfig::default()).unwrap().start();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // Three requests in one write; the last one closes.
        let mut wire = Vec::new();
        crate::client::write_request(&mut wire, "GET", "/health", &[], b"").unwrap();
        crate::client::write_request(&mut wire, "POST", "/lint?format=terse", &[], b"<H1>x</H2>")
            .unwrap();
        crate::client::write_request(&mut wire, "GET", "/health", &[("Connection", "close")], b"")
            .unwrap();
        stream.write_all(&wire).unwrap();
        let mut reader = BufReader::new(stream);
        let first = crate::client::read_response(&mut reader).unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body_text(), "ok\n");
        assert_eq!(first.header("connection"), Some("keep-alive"));
        let second = crate::client::read_response(&mut reader).unwrap();
        assert_eq!(second.status, 200);
        assert!(
            second.body_text().contains("heading-mismatch"),
            "{}",
            second.body_text()
        );
        let third = crate::client::read_response(&mut reader).unwrap();
        assert_eq!(third.header("connection"), Some("close"));
        assert_eq!(reader.read(&mut [0u8; 1]).unwrap(), 0, "closed after third");
        let (http, _) = handle.shutdown();
        assert_eq!(http.connections_accepted, 1);
        assert_eq!(http.requests_served, 3);
        assert_eq!(http.keepalive_reuse, 2, "two requests rode the reuse");
        assert_eq!(http.open_connections, 0);
    }

    /// Deadline expiry in each read phase: idle connections and stalled
    /// bodies count as read timeouts, a dribbling head as a header
    /// timeout — and none of them get a response.
    #[test]
    fn deadline_expiry_mid_state() {
        struct Case {
            name: &'static str,
            write: &'static [u8],
            expect_timeouts: u64,
            expect_header_timeouts: u64,
        }
        let cases = [
            Case {
                name: "idle connection",
                write: b"",
                expect_timeouts: 1,
                expect_header_timeouts: 0,
            },
            Case {
                name: "dribbling head",
                write: b"GET /health HTT",
                expect_timeouts: 0,
                expect_header_timeouts: 1,
            },
            Case {
                name: "stalled body",
                write: b"POST /lint HTTP/1.1\r\nContent-Length: 40\r\n\r\nstall",
                expect_timeouts: 1,
                expect_header_timeouts: 0,
            },
        ];
        for case in &cases {
            let config = ServerConfig {
                header_timeout: Duration::from_millis(80),
                read_timeout: Duration::from_millis(160),
                ..ServerConfig::default()
            };
            let handle = HttpServer::bind(config).unwrap().start();
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            if !case.write.is_empty() {
                stream.write_all(case.write).unwrap();
            }
            let mut leftovers = Vec::new();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            stream.read_to_end(&mut leftovers).unwrap();
            assert!(
                leftovers.is_empty(),
                "{}: a timed-out request earns no response, got {leftovers:?}",
                case.name
            );
            let (http, _) = handle.shutdown();
            assert_eq!(http.timeouts, case.expect_timeouts, "{}", case.name);
            assert_eq!(
                http.header_timeouts, case.expect_header_timeouts,
                "{}",
                case.name
            );
            assert_eq!(http.open_connections, 0, "{}", case.name);
        }
    }

    /// The streaming claim at the socket level: the loop lints the body
    /// through a `LintSession` as it arrives, and a client cannot tell the
    /// answer from the buffered in-process `handle()` response to the
    /// same request, byte for byte on the wire.
    #[test]
    fn streamed_response_equals_the_buffered_handler_response() {
        use crate::handler::{handle, App};
        use crate::http::{parse_request, write_response};
        use std::sync::Arc;
        use weblint_service::{LintService, ServiceConfig};

        let body = "<HTML><BODY><H1>x</H2><IMG SRC=a.gif>&bogus;</BODY></HTML>";
        let mut wire = Vec::new();
        crate::client::write_request(
            &mut wire,
            "POST",
            "/lint?name=same&format=json",
            &[("Connection", "close")],
            body.as_bytes(),
        )
        .unwrap();

        let server = HttpServer::bind(ServerConfig::default()).unwrap().start();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(&wire).unwrap();
        let mut streamed = Vec::new();
        stream.read_to_end(&mut streamed).unwrap();
        let (http, _) = server.shutdown();
        assert_eq!(http.streamed_lints, 1, "the body streamed on the loop");

        let app = App::new(
            LintService::new(ServiceConfig::default()),
            weblint_gateway::Gateway::default(),
            weblint_site::SharedWeb::default(),
            Arc::new(crate::metrics::HttpCounters::default()),
        );
        let (request, _) = parse_request(&mut wire.as_slice(), 1 << 20).unwrap();
        let response = handle(&app, &request);
        assert_eq!(response.status, 200);
        let mut buffered = Vec::new();
        write_response(&mut buffered, &response, false, false).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&streamed),
            String::from_utf8_lossy(&buffered)
        );
    }

    #[test]
    fn streamed_non_utf8_body_is_refused_mid_flight() {
        let handle = HttpServer::bind(ServerConfig::default()).unwrap().start();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        crate::client::write_request(
            &mut stream,
            "POST",
            "/lint",
            &[],
            b"<P>ok so far\xff\xfe then junk</P>",
        )
        .unwrap();
        let response = crate::client::read_response(&mut reader).unwrap();
        assert_eq!(response.status, 400);
        assert_eq!(response.body_text(), "document body must be UTF-8\n");
        handle.shutdown();
    }

    #[test]
    fn loop_metrics_move() {
        let handle = HttpServer::bind(ServerConfig::default()).unwrap().start();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        crate::client::write_request(&mut stream, "GET", "/health", &[], b"").unwrap();
        let response = crate::client::read_response(&mut reader).unwrap();
        assert_eq!(response.status, 200);
        let metrics = handle.http_metrics();
        assert!(metrics.epoll_wakeups > 0, "the loop woke at least once");
        assert_eq!(metrics.open_connections, 1, "this connection is still open");
        drop(stream);
        handle.shutdown();
    }
}
