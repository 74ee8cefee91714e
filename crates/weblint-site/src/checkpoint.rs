//! Durable crawl checkpoints: the write-ahead state files that make a
//! sharded crawl ([`crate::Robot::crawl_sharded`]) survive a hard kill.
//!
//! # Wire format
//!
//! A checkpoint directory holds one file per shard per epoch
//! (`shard{N}.{epoch}.ckpt`, epoch = wave number at save time) plus a
//! `manifest.ckpt` naming the newest complete epoch and, as a fallback,
//! the previous one. Every file is a sequence of *records*:
//!
//! ```text
//! [u32 LE payload length][u64 LE FNV-1a of payload][payload bytes]
//! ```
//!
//! The payload's first byte is a record tag (header, visited set,
//! frontier, pages, …); a shard file is valid only if it decodes from
//! its `Header` record through its `End` marker with every checksum
//! intact. Decoding stops at the first torn record — a partial write
//! from a crash truncates to garbage, the checksum catches it, and the
//! loader falls back to the previous epoch (recorded in the manifest)
//! or refuses cleanly. Nothing in this module panics on hostile bytes;
//! the torture suite (`tests/checkpoint_torture.rs`) truncates a valid
//! checkpoint at every byte offset and flips bits to prove it.
//!
//! # Atomicity
//!
//! Files are published with the classic tmp+rename dance: the bytes are
//! fully written and flushed to `.tmp`, then renamed into place. The
//! manifest is written *last*, after every shard file of the new epoch
//! is durable, so a crash mid-save leaves the manifest pointing at the
//! old epoch — the new epoch's partial files are invisible garbage that
//! the next save garbage-collects.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use weblint_core::{fnv1a, intern_id, Category, Diagnostic, Pos, Span};

use crate::fault::{
    BreakerSnapshot, FaultLayerState, HostFaults, HostResilience, ResilienceHostState,
    ResilienceLayerState,
};
use crate::frontier::Candidate;
use crate::pacing::{PacerHostState, PacingLayerState};
use crate::robot::{CrawledPage, DeadLink};
use crate::stack::StackState;
use crate::url::Url;

/// `"WLCK"` — the first field of every checkpoint header.
const MAGIC: u32 = 0x574C_434B;
/// Bumped on any wire-format change; a mismatch refuses cleanly.
const VERSION: u32 = 1;
/// Upper bound on a single record's payload, far above anything a real
/// crawl writes. Bounds allocation when a corrupt length field lies.
const MAX_RECORD: usize = 1 << 28;

/// Record tags. A shard file is `Header … End`; the manifest is a
/// single `Manifest` record.
mod tag {
    pub const HEADER: u8 = 1;
    pub const VISITED: u8 = 2;
    pub const FRONTIER: u8 = 3;
    pub const HEAD_CHECKED: u8 = 4;
    pub const PAGES: u8 = 5;
    pub const DEAD_LINKS: u8 = 6;
    pub const STACK: u8 = 7;
    pub const END: u8 = 8;
    pub const MANIFEST: u8 = 9;
    pub const PROBES: u8 = 10;
}

/// Why a checkpoint operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The filesystem said no.
    Io(String),
    /// Bytes on disk failed a checksum, length, or structural check.
    Corrupt(String),
    /// The checkpoint is valid but belongs to a different crawl
    /// configuration (fingerprint mismatch) or format version.
    Incompatible(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Corrupt(e) => write!(f, "corrupt checkpoint: {e}"),
            CheckpointError::Incompatible(e) => write!(f, "incompatible checkpoint: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn io_err(context: &str, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io(format!("{context}: {e}"))
}

fn corrupt(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(msg.into())
}

/// Crawl-level metadata stamped into every shard file and the manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Number of shards the crawl was partitioned into.
    pub shards: usize,
    /// The wave the checkpoint was taken after (waves `0..wave` are
    /// fully merged into the state).
    pub wave: usize,
    /// The crawl's fetch-stack seed.
    pub seed: u64,
    /// FNV fingerprint of everything that must match for a resume to be
    /// exact: shard count, seed, start URLs, robot options, stack
    /// configuration token.
    pub fingerprint: u64,
    /// Pages crawled so far, across all shards.
    pub pages_total: u64,
    /// Whether the page budget cut the frontier (`truncated` in the
    /// final report).
    pub truncated: bool,
    /// Whether the crawl finished — a complete checkpoint replays to a
    /// report without fetching anything.
    pub complete: bool,
}

/// One shard's full durable state: everything its scheduler needs to
/// carry on exactly where it left off.
#[derive(Debug, Clone, Default)]
pub struct ShardState {
    /// The shard index.
    pub shard: usize,
    /// Every URL ever assigned to this shard (sorted).
    pub visited: Vec<String>,
    /// Candidates pending for the next wave (sorted by URL).
    pub frontier: Vec<Candidate>,
    /// Link-validation probes pending for the next wave (sorted by
    /// URL): links the crawl will HEAD-check but never fetch.
    pub probes: Vec<Candidate>,
    /// URLs already HEAD-probed (sorted).
    pub head_checked: Vec<String>,
    /// Pages this shard has crawled, in crawl order.
    pub pages: Vec<CrawledPage>,
    /// Dead links this shard has found, in discovery order.
    pub dead_links: Vec<DeadLink>,
    /// Redirects this shard has followed.
    pub redirects: u64,
    /// The shard's fetch-stack state (attempt counters, breakers, AIMD
    /// limits, latency estimators).
    pub stack: StackState,
}

/// A checkpoint successfully loaded from disk.
#[derive(Debug, Clone)]
pub struct LoadedCheckpoint {
    /// The crawl-level metadata.
    pub meta: CheckpointMeta,
    /// One state per shard, index-aligned.
    pub shards: Vec<ShardState>,
    /// The epoch the states were loaded from (equals `meta.wave` unless
    /// the loader fell back to the previous epoch).
    pub epoch: u64,
}

// ---------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| corrupt(format!("record truncated at byte {}", self.pos)))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, CheckpointError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| corrupt("length does not fit a usize"))
    }

    fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("invalid bool byte {b}"))),
        }
    }

    /// A length the record claims a collection has. Bounded by the
    /// bytes actually remaining so a lying length cannot balloon an
    /// allocation.
    fn len(&mut self) -> Result<usize, CheckpointError> {
        let n = self.usize()?;
        if n > self.bytes.len().saturating_sub(self.pos) {
            return Err(corrupt(format!(
                "collection length {n} exceeds remaining {} bytes",
                self.bytes.len() - self.pos
            )));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string is not UTF-8"))
    }

    fn url(&mut self) -> Result<Url, CheckpointError> {
        let s = self.str()?;
        Url::parse(&s).ok_or_else(|| corrupt(format!("invalid URL `{s}'")))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

// ---------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------

fn push_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Split `bytes` into checksum-verified record payloads. Stops cleanly
/// at the first torn record (short header, short payload, bad checksum,
/// oversize length) — the caller decides whether the prefix read so far
/// forms a complete checkpoint.
fn split_records(bytes: &[u8]) -> Vec<&[u8]> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 12 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        if len > MAX_RECORD || bytes.len() - pos - 12 < len {
            break; // torn or lying record
        }
        let payload = &bytes[pos + 12..pos + 12 + len];
        if fnv1a(payload) != sum {
            break; // bit rot
        }
        records.push(payload);
        pos += 12 + len;
    }
    records
}

// ---------------------------------------------------------------------
// Domain encoding
// ---------------------------------------------------------------------

fn enc_candidate(e: &mut Enc, c: &Candidate) {
    e.str(&c.url.to_string());
    e.usize(c.depth);
    e.str(&c.via);
    e.str(&c.href);
}

fn dec_candidate(d: &mut Dec) -> Result<Candidate, CheckpointError> {
    Ok(Candidate {
        url: d.url()?,
        depth: d.usize()?,
        via: d.str()?,
        href: d.str()?,
    })
}

fn enc_pos(e: &mut Enc, p: &Pos) {
    e.u32(p.line);
    e.u32(p.col);
    e.usize(p.offset);
}

fn dec_pos(d: &mut Dec) -> Result<Pos, CheckpointError> {
    Ok(Pos {
        line: d.u32()?,
        col: d.u32()?,
        offset: d.usize()?,
    })
}

/// Diagnostics are stored without their `fix` payload: the sharded
/// crawl never collects fixes (`emit_fixes` stays off in crawl paths),
/// and a fix is a derived artifact of the page source anyway.
fn enc_diagnostic(e: &mut Enc, diag: &Diagnostic) {
    e.str(diag.id);
    e.str(diag.category.name());
    e.u32(diag.line);
    e.u32(diag.col);
    e.str(&diag.message);
    enc_pos(e, &diag.span.start);
    enc_pos(e, &diag.span.end);
}

fn dec_diagnostic(d: &mut Dec) -> Result<Diagnostic, CheckpointError> {
    let id = intern_id(&d.str()?);
    let category_name = d.str()?;
    let category = Category::parse(&category_name)
        .ok_or_else(|| corrupt(format!("unknown category `{category_name}'")))?;
    Ok(Diagnostic {
        id,
        category,
        line: d.u32()?,
        col: d.u32()?,
        message: d.str()?,
        span: Span {
            start: dec_pos(d)?,
            end: dec_pos(d)?,
        },
        fix: None,
    })
}

fn enc_page(e: &mut Enc, p: &CrawledPage) {
    e.str(&p.url.to_string());
    e.usize(p.depth);
    e.usize(p.link_count);
    e.usize(p.diagnostics.len());
    for diag in &p.diagnostics {
        enc_diagnostic(e, diag);
    }
}

fn dec_page(d: &mut Dec) -> Result<CrawledPage, CheckpointError> {
    let url = d.url()?;
    let depth = d.usize()?;
    let link_count = d.usize()?;
    let n = d.len()?;
    let mut diagnostics = Vec::with_capacity(n);
    for _ in 0..n {
        diagnostics.push(dec_diagnostic(d)?);
    }
    Ok(CrawledPage {
        url,
        diagnostics,
        link_count,
        depth,
    })
}

fn enc_dead_link(e: &mut Enc, l: &DeadLink) {
    e.str(&l.page.to_string());
    e.str(&l.href);
    e.str(&l.reason);
}

fn dec_dead_link(d: &mut Dec) -> Result<DeadLink, CheckpointError> {
    Ok(DeadLink {
        page: d.url()?,
        href: d.str()?,
        reason: d.str()?,
    })
}

fn enc_host_faults(e: &mut Enc, h: &HostFaults) {
    e.u64(h.requests);
    e.u64(h.latency);
    e.u64(h.timeouts);
    e.u64(h.server_errors);
    e.u64(h.resets);
    e.u64(h.truncated);
    e.u64(h.added_latency_us);
}

fn dec_host_faults(d: &mut Dec) -> Result<HostFaults, CheckpointError> {
    Ok(HostFaults {
        requests: d.u64()?,
        latency: d.u64()?,
        timeouts: d.u64()?,
        server_errors: d.u64()?,
        resets: d.u64()?,
        truncated: d.u64()?,
        added_latency_us: d.u64()?,
    })
}

fn enc_host_resilience(e: &mut Enc, h: &HostResilience) {
    e.u64(h.requests);
    e.u64(h.successes);
    e.u64(h.failures);
    e.u64(h.retries);
    e.u64(h.backoff_us);
    e.u64(h.breaker_opens);
    e.u64(h.fast_failures);
    e.u64(h.probes);
}

fn dec_host_resilience(d: &mut Dec) -> Result<HostResilience, CheckpointError> {
    Ok(HostResilience {
        requests: d.u64()?,
        successes: d.u64()?,
        failures: d.u64()?,
        retries: d.u64()?,
        backoff_us: d.u64()?,
        breaker_opens: d.u64()?,
        fast_failures: d.u64()?,
        probes: d.u64()?,
    })
}

fn enc_breaker(e: &mut Enc, b: &BreakerSnapshot) {
    match b {
        BreakerSnapshot::Unset => {
            e.u8(0);
            e.u32(0);
        }
        BreakerSnapshot::Closed { failures } => {
            e.u8(1);
            e.u32(*failures);
        }
        BreakerSnapshot::Open { remaining } => {
            e.u8(2);
            e.u32(*remaining);
        }
        BreakerSnapshot::HalfOpen => {
            e.u8(3);
            e.u32(0);
        }
    }
}

fn dec_breaker(d: &mut Dec) -> Result<BreakerSnapshot, CheckpointError> {
    let kind = d.u8()?;
    let arg = d.u32()?;
    Ok(match kind {
        0 => BreakerSnapshot::Unset,
        1 => BreakerSnapshot::Closed { failures: arg },
        2 => BreakerSnapshot::Open { remaining: arg },
        3 => BreakerSnapshot::HalfOpen,
        b => return Err(corrupt(format!("invalid breaker tag {b}"))),
    })
}

fn enc_stack(e: &mut Enc, s: &StackState) {
    match &s.faults {
        None => e.bool(false),
        Some(f) => {
            e.bool(true);
            e.usize(f.attempts.len());
            for (url, n) in &f.attempts {
                e.str(url);
                e.u64(*n);
            }
            e.usize(f.hosts.len());
            for (host, h) in &f.hosts {
                e.str(host);
                enc_host_faults(e, h);
            }
        }
    }
    match &s.resilience {
        None => e.bool(false),
        Some(r) => {
            e.bool(true);
            e.usize(r.hosts.len());
            for h in &r.hosts {
                e.str(&h.host);
                enc_host_resilience(e, &h.stats);
                enc_breaker(e, &h.breaker);
            }
        }
    }
    e.usize(s.pacing.hosts.len());
    for h in &s.pacing.hosts {
        e.str(&h.host);
        e.u32(h.limit);
        e.u32(h.clean_streak);
        e.i64(h.srtt_us);
        e.i64(h.dev_us);
        e.u64(h.samples);
        let st = &h.stats;
        e.u32(st.limit);
        e.u64(st.authorized);
        e.u64(st.clean);
        e.u64(st.bad);
        e.u64(st.decreases);
        e.u64(st.increases);
        e.u64(st.hedges_fired);
        e.u64(st.hedges_won);
        e.u64(st.suppressed_breaker);
        e.u64(st.suppressed_budget);
        e.u64(st.threshold_us);
    }
}

fn dec_stack(d: &mut Dec) -> Result<StackState, CheckpointError> {
    let faults = if d.bool()? {
        let n = d.len()?;
        let mut attempts = Vec::with_capacity(n);
        for _ in 0..n {
            let url = d.str()?;
            let count = d.u64()?;
            attempts.push((url, count));
        }
        let n = d.len()?;
        let mut hosts = Vec::with_capacity(n);
        for _ in 0..n {
            let host = d.str()?;
            let h = dec_host_faults(d)?;
            hosts.push((host, h));
        }
        Some(FaultLayerState { attempts, hosts })
    } else {
        None
    };
    let resilience = if d.bool()? {
        let n = d.len()?;
        let mut hosts = Vec::with_capacity(n);
        for _ in 0..n {
            let host = d.str()?;
            let stats = dec_host_resilience(d)?;
            let breaker = dec_breaker(d)?;
            hosts.push(ResilienceHostState {
                host,
                stats,
                breaker,
            });
        }
        Some(ResilienceLayerState { hosts })
    } else {
        None
    };
    let n = d.len()?;
    let mut hosts = Vec::with_capacity(n);
    for _ in 0..n {
        let host = d.str()?;
        let limit = d.u32()?;
        let clean_streak = d.u32()?;
        let srtt_us = d.i64()?;
        let dev_us = d.i64()?;
        let samples = d.u64()?;
        let stats = crate::pacing::HostPacing {
            limit: d.u32()?,
            authorized: d.u64()?,
            clean: d.u64()?,
            bad: d.u64()?,
            decreases: d.u64()?,
            increases: d.u64()?,
            hedges_fired: d.u64()?,
            hedges_won: d.u64()?,
            suppressed_breaker: d.u64()?,
            suppressed_budget: d.u64()?,
            threshold_us: d.u64()?,
        };
        hosts.push(PacerHostState {
            host,
            limit,
            clean_streak,
            srtt_us,
            dev_us,
            samples,
            stats,
        });
    }
    Ok(StackState {
        faults,
        resilience,
        pacing: PacingLayerState { hosts },
    })
}

fn enc_meta(e: &mut Enc, meta: &CheckpointMeta, shard: usize) {
    e.u32(MAGIC);
    e.u32(VERSION);
    e.usize(shard);
    e.usize(meta.shards);
    e.usize(meta.wave);
    e.u64(meta.seed);
    e.u64(meta.fingerprint);
    e.u64(meta.pages_total);
    e.bool(meta.truncated);
    e.bool(meta.complete);
}

fn dec_meta(d: &mut Dec) -> Result<(CheckpointMeta, usize), CheckpointError> {
    let magic = d.u32()?;
    if magic != MAGIC {
        return Err(corrupt(format!("bad magic {magic:#x}")));
    }
    let version = d.u32()?;
    if version != VERSION {
        return Err(CheckpointError::Incompatible(format!(
            "checkpoint format v{version}, this build reads v{VERSION}"
        )));
    }
    let shard = d.usize()?;
    let meta = CheckpointMeta {
        shards: d.usize()?,
        wave: d.usize()?,
        seed: d.u64()?,
        fingerprint: d.u64()?,
        pages_total: d.u64()?,
        truncated: d.bool()?,
        complete: d.bool()?,
    };
    Ok((meta, shard))
}

// ---------------------------------------------------------------------
// Shard files
// ---------------------------------------------------------------------

/// Serialize one shard's state (plus the crawl metadata) to checkpoint
/// bytes — the exact bytes [`decode_shard`] reads back.
pub fn encode_shard(meta: &CheckpointMeta, state: &ShardState) -> Vec<u8> {
    let mut out = Vec::new();
    let mut rec = |build: &dyn Fn(&mut Enc)| {
        let mut e = Enc::new();
        build(&mut e);
        push_record(&mut out, &e.buf);
    };
    rec(&|e| {
        e.u8(tag::HEADER);
        enc_meta(e, meta, state.shard);
    });
    rec(&|e| {
        e.u8(tag::VISITED);
        e.usize(state.visited.len());
        for v in &state.visited {
            e.str(v);
        }
    });
    rec(&|e| {
        e.u8(tag::FRONTIER);
        e.usize(state.frontier.len());
        for c in &state.frontier {
            enc_candidate(e, c);
        }
    });
    rec(&|e| {
        e.u8(tag::PROBES);
        e.usize(state.probes.len());
        for c in &state.probes {
            enc_candidate(e, c);
        }
    });
    rec(&|e| {
        e.u8(tag::HEAD_CHECKED);
        e.usize(state.head_checked.len());
        for h in &state.head_checked {
            e.str(h);
        }
    });
    rec(&|e| {
        e.u8(tag::PAGES);
        e.usize(state.pages.len());
        for p in &state.pages {
            enc_page(e, p);
        }
    });
    rec(&|e| {
        e.u8(tag::DEAD_LINKS);
        e.usize(state.dead_links.len());
        for l in &state.dead_links {
            enc_dead_link(e, l);
        }
    });
    rec(&|e| {
        e.u8(tag::STACK);
        e.u64(state.redirects);
        enc_stack(e, &state.stack);
    });
    rec(&|e| e.u8(tag::END));
    out
}

/// Decode one shard's checkpoint bytes. Refuses (never panics) on torn
/// records, checksum failures, missing sections, or trailing garbage
/// inside a record.
pub fn decode_shard(bytes: &[u8]) -> Result<(CheckpointMeta, ShardState), CheckpointError> {
    let records = split_records(bytes);
    let mut meta: Option<(CheckpointMeta, usize)> = None;
    let mut state = ShardState::default();
    let mut seen_end = false;
    let mut seen = [false; 9];
    for payload in records {
        if seen_end {
            return Err(corrupt("records after the End marker"));
        }
        let mut d = Dec::new(payload);
        let t = d.u8()?;
        if t != tag::HEADER && meta.is_none() {
            return Err(corrupt("first record is not a header"));
        }
        let idx = match t {
            tag::HEADER => {
                meta = Some(dec_meta(&mut d)?);
                0
            }
            tag::VISITED => {
                let n = d.len()?;
                state.visited = Vec::with_capacity(n);
                for _ in 0..n {
                    state.visited.push(d.str()?);
                }
                1
            }
            tag::FRONTIER => {
                let n = d.len()?;
                state.frontier = Vec::with_capacity(n);
                for _ in 0..n {
                    state.frontier.push(dec_candidate(&mut d)?);
                }
                2
            }
            tag::HEAD_CHECKED => {
                let n = d.len()?;
                state.head_checked = Vec::with_capacity(n);
                for _ in 0..n {
                    state.head_checked.push(d.str()?);
                }
                3
            }
            tag::PAGES => {
                let n = d.len()?;
                state.pages = Vec::with_capacity(n);
                for _ in 0..n {
                    state.pages.push(dec_page(&mut d)?);
                }
                4
            }
            tag::DEAD_LINKS => {
                let n = d.len()?;
                state.dead_links = Vec::with_capacity(n);
                for _ in 0..n {
                    state.dead_links.push(dec_dead_link(&mut d)?);
                }
                5
            }
            tag::STACK => {
                state.redirects = d.u64()?;
                state.stack = dec_stack(&mut d)?;
                6
            }
            tag::PROBES => {
                let n = d.len()?;
                state.probes = Vec::with_capacity(n);
                for _ in 0..n {
                    state.probes.push(dec_candidate(&mut d)?);
                }
                7
            }
            tag::END => {
                seen_end = true;
                8
            }
            t => return Err(corrupt(format!("unknown record tag {t}"))),
        };
        if seen[idx] {
            return Err(corrupt(format!("duplicate record tag {t}")));
        }
        seen[idx] = true;
        if !d.done() {
            return Err(corrupt(format!("trailing bytes in record tag {t}")));
        }
    }
    if !seen_end || !seen.iter().all(|&s| s) {
        return Err(corrupt("checkpoint is missing records (torn write?)"));
    }
    let (meta, shard) = meta.expect("header seen");
    state.shard = shard;
    Ok((meta, state))
}

// ---------------------------------------------------------------------
// Directory layer: epochs, manifest, atomic publish
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct EpochEntry {
    epoch: u64,
    checksums: Vec<u64>,
}

#[derive(Debug, Clone)]
struct Manifest {
    meta: CheckpointMeta,
    newest: EpochEntry,
    prev: Option<EpochEntry>,
}

fn shard_file(dir: &Path, shard: usize, epoch: u64) -> PathBuf {
    dir.join(format!("shard{shard}.{epoch}.ckpt"))
}

fn manifest_file(dir: &Path) -> PathBuf {
    dir.join("manifest.ckpt")
}

/// Write `bytes` to `path` atomically: full write + flush to a `.tmp`
/// sibling, then rename into place.
fn publish(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = path.with_extension("tmp");
    let mut f = fs::File::create(&tmp).map_err(|e| io_err("create tmp", e))?;
    f.write_all(bytes).map_err(|e| io_err("write tmp", e))?;
    f.sync_all().map_err(|e| io_err("sync tmp", e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| io_err("rename into place", e))?;
    Ok(())
}

fn enc_epoch_entry(e: &mut Enc, entry: &EpochEntry) {
    e.u64(entry.epoch);
    e.usize(entry.checksums.len());
    for &c in &entry.checksums {
        e.u64(c);
    }
}

fn dec_epoch_entry(d: &mut Dec) -> Result<EpochEntry, CheckpointError> {
    let epoch = d.u64()?;
    let n = d.len()?;
    let mut checksums = Vec::with_capacity(n);
    for _ in 0..n {
        checksums.push(d.u64()?);
    }
    Ok(EpochEntry { epoch, checksums })
}

fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(tag::MANIFEST);
    enc_meta(&mut e, &m.meta, 0);
    enc_epoch_entry(&mut e, &m.newest);
    match &m.prev {
        None => e.bool(false),
        Some(prev) => {
            e.bool(true);
            enc_epoch_entry(&mut e, prev);
        }
    }
    let mut out = Vec::new();
    push_record(&mut out, &e.buf);
    out
}

fn decode_manifest(bytes: &[u8]) -> Result<Manifest, CheckpointError> {
    let records = split_records(bytes);
    if records.len() != 1 {
        return Err(corrupt("manifest is not exactly one intact record"));
    }
    let mut d = Dec::new(records[0]);
    if d.u8()? != tag::MANIFEST {
        return Err(corrupt("not a manifest record"));
    }
    let (meta, _) = dec_meta(&mut d)?;
    let newest = dec_epoch_entry(&mut d)?;
    let prev = if d.bool()? {
        Some(dec_epoch_entry(&mut d)?)
    } else {
        None
    };
    if !d.done() {
        return Err(corrupt("trailing bytes in manifest"));
    }
    if newest.checksums.len() != meta.shards
        || prev
            .as_ref()
            .is_some_and(|p| p.checksums.len() != meta.shards)
    {
        return Err(corrupt("manifest shard count mismatch"));
    }
    Ok(Manifest { meta, newest, prev })
}

/// Save a full checkpoint: one file per shard for this epoch (epoch =
/// `meta.wave`), then the manifest naming it. The previous newest epoch
/// is retained as the manifest's fallback; anything older is
/// garbage-collected.
pub fn save_checkpoint(
    dir: &Path,
    meta: &CheckpointMeta,
    shards: &[ShardState],
) -> Result<(), CheckpointError> {
    if shards.len() != meta.shards {
        return Err(CheckpointError::Incompatible(format!(
            "{} shard states for a {}-shard checkpoint",
            shards.len(),
            meta.shards
        )));
    }
    fs::create_dir_all(dir).map_err(|e| io_err("create checkpoint dir", e))?;
    let epoch = meta.wave as u64;
    let mut checksums = Vec::with_capacity(shards.len());
    for state in shards {
        let bytes = encode_shard(meta, state);
        checksums.push(fnv1a(&bytes));
        publish(&shard_file(dir, state.shard, epoch), &bytes)?;
    }
    // The outgoing manifest's newest epoch becomes our fallback — but
    // only if it is a *different* epoch (re-saving the same wave just
    // replaces it) and its files still verify as named.
    let prev = match read_manifest(dir) {
        Ok(Some(m)) if m.newest.epoch != epoch => Some(m.newest),
        Ok(Some(m)) => m.prev.filter(|p| p.epoch != epoch),
        _ => None,
    };
    let manifest = Manifest {
        meta: meta.clone(),
        newest: EpochEntry { epoch, checksums },
        prev,
    };
    publish(&manifest_file(dir), &encode_manifest(&manifest))?;
    gc_epochs(dir, &manifest);
    Ok(())
}

fn read_manifest(dir: &Path) -> Result<Option<Manifest>, CheckpointError> {
    let path = manifest_file(dir);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read manifest", e)),
    };
    decode_manifest(&bytes).map(Some)
}

/// Remove shard files from epochs the manifest no longer references.
/// Best-effort: GC failures never fail a save.
fn gc_epochs(dir: &Path, manifest: &Manifest) {
    let keep_prev = manifest.prev.as_ref().map(|p| p.epoch);
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("shard") else {
            continue;
        };
        let Some(middle) = rest.strip_suffix(".ckpt") else {
            continue;
        };
        let Some((_, epoch)) = middle.split_once('.') else {
            continue;
        };
        let Ok(epoch) = epoch.parse::<u64>() else {
            continue;
        };
        if epoch != manifest.newest.epoch && Some(epoch) != keep_prev {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Try to load one complete epoch: every shard file present, whole-file
/// checksum matching the manifest, decoding cleanly, and mutually
/// consistent.
fn load_epoch(
    dir: &Path,
    shards: usize,
    entry: &EpochEntry,
) -> Result<(CheckpointMeta, Vec<ShardState>), CheckpointError> {
    let mut states: Vec<Option<ShardState>> = (0..shards).map(|_| None).collect();
    let mut meta: Option<CheckpointMeta> = None;
    for (shard, slot) in states.iter_mut().enumerate() {
        let path = shard_file(dir, shard, entry.epoch);
        let bytes = fs::read(&path).map_err(|e| io_err(&format!("read {}", path.display()), e))?;
        if fnv1a(&bytes) != entry.checksums[shard] {
            return Err(corrupt(format!(
                "{} does not match its manifest checksum",
                path.display()
            )));
        }
        let (file_meta, state) = decode_shard(&bytes)?;
        if state.shard != shard {
            return Err(corrupt(format!(
                "{} claims to be shard {}",
                path.display(),
                state.shard
            )));
        }
        match &meta {
            None => meta = Some(file_meta),
            Some(m) if *m != file_meta => {
                return Err(corrupt("shard files disagree on crawl metadata"))
            }
            Some(_) => {}
        }
        *slot = Some(state);
    }
    let meta = meta.ok_or_else(|| corrupt("checkpoint has zero shards"))?;
    Ok((
        meta,
        states.into_iter().map(|s| s.expect("filled")).collect(),
    ))
}

/// Load the newest complete checkpoint from `dir`.
///
/// * No manifest → `Ok(None)`: a fresh crawl.
/// * Manifest valid, newest epoch intact → that epoch.
/// * Newest epoch torn/corrupt but the previous epoch verifies → the
///   previous epoch (crash during or after a save).
/// * Manifest corrupt, or no epoch verifies → `Err` — refuse cleanly
///   rather than resume from a lie.
pub fn load_checkpoint(dir: &Path) -> Result<Option<LoadedCheckpoint>, CheckpointError> {
    let Some(manifest) = read_manifest(dir)? else {
        return Ok(None);
    };
    let shards = manifest.meta.shards;
    let newest = load_epoch(dir, shards, &manifest.newest);
    match newest {
        Ok((meta, states)) => Ok(Some(LoadedCheckpoint {
            meta,
            shards: states,
            epoch: manifest.newest.epoch,
        })),
        Err(CheckpointError::Io(e)) if manifest.prev.is_none() => Err(CheckpointError::Io(e)),
        Err(newest_err) => {
            let Some(prev) = &manifest.prev else {
                return Err(newest_err);
            };
            let (meta, states) = load_epoch(dir, shards, prev).map_err(|prev_err| {
                corrupt(format!(
                    "newest epoch unusable ({newest_err}); previous epoch unusable ({prev_err})"
                ))
            })?;
            Ok(Some(LoadedCheckpoint {
                meta,
                shards: states,
                epoch: prev.epoch,
            }))
        }
    }
}

/// The FNV fingerprint binding a checkpoint to a crawl configuration:
/// any input that could change the schedule goes in.
pub(crate) fn fingerprint(parts: &[&str]) -> u64 {
    let mut joined = Vec::new();
    for p in parts {
        joined.extend_from_slice(&(p.len() as u64).to_le_bytes());
        joined.extend_from_slice(p.as_bytes());
    }
    fnv1a(&joined)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state(shard: usize) -> ShardState {
        let diag = Diagnostic {
            id: intern_id("missing-alt"),
            category: Category::parse("warning").unwrap(),
            line: 3,
            col: 5,
            message: "img does not have ALT text defined".to_string(),
            span: Span {
                start: Pos {
                    line: 3,
                    col: 5,
                    offset: 40,
                },
                end: Pos {
                    line: 3,
                    col: 20,
                    offset: 55,
                },
            },
            fix: None,
        };
        ShardState {
            shard,
            visited: vec!["http://a/x.html".into(), "http://b/y.html".into()],
            frontier: vec![Candidate {
                url: Url::parse("http://a/next.html").unwrap(),
                depth: 2,
                via: "http://a/x.html".into(),
                href: "next.html".into(),
            }],
            probes: vec![Candidate {
                url: Url::parse("http://cdn/other.png").unwrap(),
                depth: 2,
                via: "http://a/x.html".into(),
                href: "http://cdn/other.png".into(),
            }],
            head_checked: vec!["http://cdn/img.png".into()],
            pages: vec![CrawledPage {
                url: Url::parse("http://a/x.html").unwrap(),
                diagnostics: vec![diag],
                link_count: 4,
                depth: 1,
            }],
            dead_links: vec![DeadLink {
                page: Url::parse("http://a/x.html").unwrap(),
                href: "gone.html".into(),
                reason: "404 Not Found".into(),
            }],
            redirects: 7,
            stack: StackState {
                faults: Some(FaultLayerState {
                    attempts: vec![("http://a/x.html".into(), 3)],
                    hosts: vec![(
                        "a".into(),
                        HostFaults {
                            requests: 9,
                            timeouts: 1,
                            ..HostFaults::default()
                        },
                    )],
                }),
                resilience: Some(ResilienceLayerState {
                    hosts: vec![ResilienceHostState {
                        host: "a".into(),
                        stats: HostResilience {
                            requests: 9,
                            successes: 8,
                            retries: 2,
                            ..HostResilience::default()
                        },
                        breaker: BreakerSnapshot::Open { remaining: 3 },
                    }],
                }),
                pacing: PacingLayerState {
                    hosts: vec![PacerHostState {
                        host: "a".into(),
                        limit: 6,
                        clean_streak: 2,
                        srtt_us: 20_000,
                        dev_us: 1_500,
                        samples: 11,
                        stats: crate::pacing::HostPacing {
                            limit: 6,
                            authorized: 20,
                            clean: 18,
                            bad: 2,
                            ..crate::pacing::HostPacing::default()
                        },
                    }],
                },
            },
        }
    }

    fn sample_meta() -> CheckpointMeta {
        CheckpointMeta {
            shards: 1,
            wave: 4,
            seed: 42,
            fingerprint: 0xDEAD_BEEF,
            pages_total: 17,
            truncated: false,
            complete: false,
        }
    }

    #[test]
    fn shard_bytes_round_trip() {
        let meta = sample_meta();
        let state = sample_state(0);
        let bytes = encode_shard(&meta, &state);
        let (meta2, state2) = decode_shard(&bytes).unwrap();
        assert_eq!(meta, meta2);
        // CrawledPage/DeadLink lack PartialEq; byte equality of a
        // re-encode is the round-trip proof.
        assert_eq!(bytes, encode_shard(&meta2, &state2));
    }

    #[test]
    fn truncation_refuses_cleanly() {
        let bytes = encode_shard(&sample_meta(), &sample_state(0));
        for cut in 0..bytes.len() {
            let r = decode_shard(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn bit_flip_refuses_cleanly() {
        let bytes = encode_shard(&sample_meta(), &sample_state(0));
        // Flip a byte in the middle of the pages record.
        let mut evil = bytes.clone();
        let mid = evil.len() / 2;
        evil[mid] ^= 0x40;
        assert!(decode_shard(&evil).is_err());
    }

    #[test]
    fn save_load_round_trips_and_falls_back() {
        let dir = std::env::temp_dir().join(format!("weblint-ckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let mut meta = sample_meta();
        let state = sample_state(0);
        save_checkpoint(&dir, &meta, std::slice::from_ref(&state)).unwrap();
        let loaded = load_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(loaded.meta, meta);
        assert_eq!(loaded.epoch, meta.wave as u64);
        assert_eq!(
            encode_shard(&loaded.meta, &loaded.shards[0]),
            encode_shard(&meta, &state)
        );

        // Save a newer epoch, then corrupt it: the loader must fall
        // back to the older epoch.
        let old_meta = meta.clone();
        meta.wave = 9;
        meta.pages_total = 30;
        save_checkpoint(&dir, &meta, std::slice::from_ref(&state)).unwrap();
        let newest = shard_file(&dir, 0, 9);
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        fs::write(&newest, &bytes).unwrap();
        let loaded = load_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(loaded.meta, old_meta, "fell back to the previous epoch");
        assert_eq!(loaded.epoch, old_meta.wave as u64);

        // A corrupt manifest refuses cleanly.
        let mpath = manifest_file(&dir);
        let mut mbytes = fs::read(&mpath).unwrap();
        let mid = mbytes.len() / 2;
        mbytes[mid] ^= 1;
        fs::write(&mpath, &mbytes).unwrap();
        assert!(matches!(
            load_checkpoint(&dir),
            Err(CheckpointError::Corrupt(_))
        ));

        // An absent directory is just a fresh start.
        let _ = fs::remove_dir_all(&dir);
        assert!(load_checkpoint(&dir).unwrap().is_none());
    }

    #[test]
    fn gc_keeps_only_manifest_epochs() {
        let dir = std::env::temp_dir().join(format!("weblint-ckpt-gc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut meta = sample_meta();
        let state = sample_state(0);
        for wave in [2usize, 5, 8] {
            meta.wave = wave;
            save_checkpoint(&dir, &meta, std::slice::from_ref(&state)).unwrap();
        }
        assert!(!shard_file(&dir, 0, 2).exists(), "epoch 2 collected");
        assert!(shard_file(&dir, 0, 5).exists(), "previous epoch kept");
        assert!(shard_file(&dir, 0, 8).exists(), "newest epoch kept");
        let _ = fs::remove_dir_all(&dir);
    }
}
