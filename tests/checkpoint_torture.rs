//! Torture tests for the crawl checkpoint wire format.
//!
//! The durability contract: a checkpoint that decodes is exactly the
//! state that was encoded (round-trip to the byte), and a checkpoint
//! that was torn, truncated or bit-flipped is *refused* — cleanly, with
//! a diagnosable error, never a panic, never silently-wrong state.
//!
//! Two goldens pin the fetch stack itself: the request-by-request
//! transcript of a breaker cycle (`tests/golden/fetch_stack_requests.txt`)
//! and the checkpoint bytes of the state it leaves behind
//! (`tests/golden/fetch_stack_checkpoint.hex`). Regenerate after an
//! intentional change to the stack's bookkeeping or the wire format:
//!
//! WEBLINT_GOLDEN_REGEN=1 cargo test -q --test checkpoint_torture

use std::fmt::Write as _;

use proptest::prelude::*;

use weblint::site::{
    decode_shard, encode_shard, Candidate, CheckpointMeta, FaultSpec, FetchStack, Resource,
    ShardFrontier, ShardState, SharedWeb, SimulatedWeb, Status, Url,
};
use weblint::LintSession;

const REQUESTS_GOLDEN: &str = "tests/golden/fetch_stack_requests.txt";
const CHECKPOINT_GOLDEN: &str = "tests/golden/fetch_stack_checkpoint.hex";

const PAGE: &str = "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><H1>x</H2></BODY></HTML>";

fn meta() -> CheckpointMeta {
    CheckpointMeta {
        shards: 2,
        wave: 3,
        seed: 42,
        fingerprint: 7,
        pages_total: 5,
        truncated: false,
        complete: false,
    }
}

/// Every layer on, over two hosts at 60% faults, each host serving two
/// pages and one URL that always answers 5xx. Each host's request
/// script hits the dead URL six times in a row twice per 20 requests:
/// five failures open its breaker, the rest of the cooldown is shed,
/// and the next request — a live page — is the probe that closes it.
/// Returns the stack and the transcript: one line per request (status,
/// body size, [`RequestCost`](weblint::site::RequestCost)), then the
/// telemetry.
fn breaker_cycle() -> (FetchStack<SharedWeb>, String) {
    let hosts = ["frail", "torn"];
    let mut web = SimulatedWeb::new();
    for host in hosts {
        web.add_page(&format!("http://{host}/p.html"), PAGE);
        web.add_page(&format!("http://{host}/q.html"), "<P>q</P>");
        web.add(
            &format!("http://{host}/down.html"),
            Resource {
                status: Status::ServerError,
                content_type: "text/html".to_string(),
                body: String::new(),
            },
        );
    }
    let stack = FetchStack::new(SharedWeb::new(web))
        .faults(FaultSpec::all(60), 3)
        .resilience_defaults()
        .adaptive_defaults()
        .hedging_defaults()
        .build();
    let mut transcript = String::new();
    for i in 0..40 {
        for host in hosts {
            let path = match i {
                _ if i % 20 < 6 => "down",
                _ if i % 2 == 0 => "p",
                _ => "q",
            };
            let url = Url::parse(&format!("http://{host}/{path}.html")).unwrap();
            let (method, status, bytes, cost) = if i % 3 == 0 {
                let ((status, _), cost) = stack.head_cost(&url);
                ("HEAD", status, 0, cost)
            } else {
                let ((status, _, body), cost) = stack.get_cost(&url);
                ("GET", status, body.len(), cost)
            };
            writeln!(
                transcript,
                "{method} {url} {status:?} {bytes}B retries={} backoff_us={} shed={}",
                cost.retries, cost.backoff_us, cost.shed
            )
            .unwrap();
        }
    }
    transcript.push_str(&stack.telemetry().to_string());
    transcript.push('\n');
    (stack, transcript)
}

/// A shard state exercising every record type: candidates with odd
/// strings, crawled pages with real diagnostics, dead links, and the
/// [`breaker_cycle`] stack's snapshot with fault, resilience and pacing
/// layers.
fn rich_state() -> ShardState {
    let (stack, _) = breaker_cycle();
    let url = Url::parse("http://torn/p.html").unwrap();
    let mut weblint = LintSession::new();
    let page = weblint::site::CrawledPage {
        url: url.clone(),
        diagnostics: weblint.check_string(PAGE),
        link_count: 2,
        depth: 1,
    };
    ShardState {
        shard: 1,
        visited: vec![
            "http://torn/p.html".to_string(),
            "http://t/a a\"'.html".to_string(),
        ],
        frontier: vec![Candidate {
            url: Url::parse("http://torn/next.html").unwrap(),
            depth: 2,
            via: "http://torn/p.html".to_string(),
            href: "next.html".to_string(),
        }],
        probes: vec![Candidate {
            url: Url::parse("http://torn/deep.html").unwrap(),
            depth: 9,
            via: "http://torn/p.html".to_string(),
            href: "deep.html".to_string(),
        }],
        head_checked: vec!["http://torn/asset.gif".to_string()],
        pages: vec![page],
        dead_links: vec![weblint::site::DeadLink {
            page: url,
            href: "missing.html".to_string(),
            reason: "404 Not Found".to_string(),
        }],
        redirects: 4,
        stack: stack.export_state(),
    }
}

/// Compare `actual` with the golden at `path`, or rewrite the golden
/// under `WEBLINT_GOLDEN_REGEN`.
fn assert_golden(path: &str, actual: &str) {
    if std::env::var_os("WEBLINT_GOLDEN_REGEN").is_some() {
        std::fs::write(path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden missing — run with WEBLINT_GOLDEN_REGEN=1 to create it");
    assert!(expected == actual, "{path} differs:\n{actual}");
}

#[test]
fn breaker_cycle_requests_match_their_golden() {
    let (stack, transcript) = breaker_cycle();
    let resilience = stack.telemetry().resilience.unwrap();
    assert_eq!(resilience.hosts.len(), 2);
    for (host, h) in &resilience.hosts {
        assert!(h.breaker_opens > 0, "{host}: {h:?}");
        assert!(h.fast_failures > 0, "{host}: {h:?}");
        assert!(h.probes > 0, "{host}: {h:?}");
        assert!(h.successes > 0, "{host}: {h:?}");
    }
    assert_golden(REQUESTS_GOLDEN, &transcript);
}

#[test]
fn rich_state_checkpoint_bytes_match_their_golden() {
    let bytes = encode_shard(&meta(), &rich_state());
    let mut hex = String::new();
    for line in bytes.chunks(32) {
        for byte in line {
            write!(hex, "{byte:02x}").unwrap();
        }
        hex.push('\n');
    }
    assert_golden(CHECKPOINT_GOLDEN, &hex);
}

#[test]
fn truncation_at_every_byte_offset_refuses_cleanly() {
    let bytes = encode_shard(&meta(), &rich_state());
    assert!(decode_shard(&bytes).is_ok(), "fixture does not round-trip");
    // Every strict prefix is a torn file: the decoder must refuse each
    // one with an error — never panic, never hand back partial state as
    // if it were whole.
    for cut in 0..bytes.len() {
        assert!(
            decode_shard(&bytes[..cut]).is_err(),
            "truncation at {cut}/{} decoded",
            bytes.len()
        );
    }
}

#[test]
fn single_bit_flips_never_panic_and_never_pass_the_checksum() {
    let bytes = encode_shard(&meta(), &rich_state());
    for at in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut flipped = bytes.clone();
            flipped[at] ^= bit;
            assert!(
                decode_shard(&flipped).is_err(),
                "bit flip {bit:#04x} at {at} decoded"
            );
        }
    }
}

fn url_from(n: u32) -> String {
    format!("http://host{}/page{}.html", n % 4, (n / 4) % 50)
}

fn url_strategy() -> impl Strategy<Value = String> {
    (0..800u32).prop_map(url_from)
}

// The vendored proptest has no tuple strategies, so a candidate is
// derived from one integer draw plus a printable-ASCII href.
fn candidate_strategy() -> impl Strategy<Value = Candidate> {
    (0..1_000_000u32).prop_map(|n| Candidate {
        url: Url::parse(&url_from(n)).unwrap(),
        depth: (n / 800) as usize % 6,
        via: url_from(n / 3),
        href: format!("h{}~ '\"{}", n % 97, "x".repeat((n % 7) as usize)),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shard_state_round_trips_to_the_byte(
        shard in 0..4usize,
        visited in proptest::collection::vec(url_strategy(), 0..12),
        frontier in proptest::collection::vec(candidate_strategy(), 0..8),
        probes in proptest::collection::vec(candidate_strategy(), 0..8),
        head_checked in proptest::collection::vec(url_strategy(), 0..8),
        redirects in 0..100u64,
    ) {
        let meta = CheckpointMeta { shards: 4, ..meta() };
        let state = ShardState {
            shard,
            visited: visited.clone(),
            frontier: frontier.clone(),
            probes: probes.clone(),
            head_checked: head_checked.clone(),
            redirects,
            ..ShardState::default()
        };
        let bytes = encode_shard(&meta, &state);
        let (decoded_meta, decoded) = decode_shard(&bytes).expect("decode");
        prop_assert_eq!(&decoded_meta, &meta);
        // Re-encoding the decode reproduces the file byte for byte —
        // the wire format has one canonical serialization per state.
        prop_assert_eq!(encode_shard(&decoded_meta, &decoded), bytes);
    }

    #[test]
    fn frontier_serialization_is_idempotent(
        visited in proptest::collection::vec(url_strategy(), 0..12),
        pending in proptest::collection::vec(candidate_strategy(), 0..12),
    ) {
        // restore() deduplicates (visited wins over pending, best rank
        // wins among pending duplicates); once normalized, serializing
        // and restoring is a fixed point.
        let first = ShardFrontier::restore(visited.clone(), pending.clone());
        let again = ShardFrontier::restore(first.visited(), first.pending_candidates());
        prop_assert_eq!(again.visited(), first.visited());
        prop_assert_eq!(again.pending_candidates(), first.pending_candidates());
    }

    #[test]
    fn truncated_random_states_refuse_cleanly(
        frontier in proptest::collection::vec(candidate_strategy(), 0..6),
        cut_seed in 0..1000usize,
    ) {
        let state = ShardState { shard: 0, frontier: frontier.clone(), ..ShardState::default() };
        let meta = CheckpointMeta { shards: 1, ..meta() };
        let bytes = encode_shard(&meta, &state);
        let cut = cut_seed % bytes.len();
        prop_assert!(decode_shard(&bytes[..cut]).is_err());
    }
}
