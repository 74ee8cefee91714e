//! Torture tests for the crawl checkpoint wire format.
//!
//! The durability contract: a checkpoint that decodes is exactly the
//! state that was encoded (round-trip to the byte), and a checkpoint
//! that was torn, truncated or bit-flipped is *refused* — cleanly, with
//! a diagnosable error, never a panic, never silently-wrong state.

use proptest::prelude::*;

use weblint::site::{
    decode_shard, encode_shard, Candidate, CheckpointMeta, FaultSpec, FetchStack, ShardFrontier,
    ShardState, SharedWeb, SimulatedWeb, Url,
};
use weblint::LintSession;

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

/// A shard state exercising every record type: candidates with odd
/// strings, crawled pages with real diagnostics, dead links, and a
/// fetch-stack snapshot with fault, resilience and pacing layers.
fn rich_state() -> ShardState {
    let mut web = SimulatedWeb::new();
    web.add_page(
        "http://torn/p.html",
        "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><H1>x</H2></BODY></HTML>",
    );
    let stack = FetchStack::new(SharedWeb::new(web))
        .faults(FaultSpec::all(40), 3)
        .resilience_defaults()
        .adaptive_defaults()
        .hedging_defaults()
        .build();
    let url = Url::parse("http://torn/p.html").unwrap();
    let ((_, _, body), _cost) = stack.get_cost(&url);
    let mut weblint = LintSession::new();
    let page = weblint::site::CrawledPage {
        url: url.clone(),
        diagnostics: weblint.check_string(&body),
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
