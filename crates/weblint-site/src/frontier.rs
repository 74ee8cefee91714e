//! The sharded crawl frontier: host-hash partitioning and per-shard
//! pending/visited bookkeeping for [`crate::Robot::crawl_sharded`].
//!
//! The ROADMAP's "millions of pages" crawl cannot live in one scheduler's
//! queue. This module partitions the frontier by **host hash**: every URL
//! belongs to exactly one shard ([`shard_of`]), all requests to a host are
//! issued by its owner shard's fetch stack (so AIMD limits, breakers and
//! hedge budgets stay per-shard truths), and links that cross shards
//! travel as [`Candidate`] records through the coordinator.
//!
//! Determinism discipline (the E15 contract, extended to N schedulers):
//! the crawl proceeds in *waves*. Each wave, the coordinator extracts each
//! shard's pending candidates in `(depth, url)` order, the shard processes
//! them in that order on its own scheduler thread, and discovered links
//! only enter the next wave after a coordinator barrier. No decision ever
//! depends on cross-shard timing, so the merged report is byte-identical
//! run to run — and byte-identical across shard deaths and process
//! restarts, which is what makes the checkpoint layer's replay exact.

use std::collections::{BTreeMap, BTreeSet};

use weblint_core::fnv1a;

use crate::url::Url;

/// The shard that owns `host`: a stable hash partition, independent of
/// discovery order, so the same crawl always shards the same way.
pub fn shard_of(host: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (fnv1a(host.as_bytes()) % shards as u64) as usize
}

/// One frontier entry: a URL waiting to be crawled, plus where it was
/// discovered (for dead-link attribution). Seeds carry empty `via`/`href`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The URL to fetch.
    pub url: Url,
    /// Click depth this candidate would be crawled at.
    pub depth: usize,
    /// URL of the page the link appeared on (`""` for a seed).
    pub via: String,
    /// The reference as written on that page (`""` for a seed).
    pub href: String,
}

impl Candidate {
    /// A crawl seed at depth 0.
    pub fn seed(url: Url) -> Candidate {
        Candidate {
            url,
            depth: 0,
            via: String::new(),
            href: String::new(),
        }
    }

    /// Tie-break key when the same URL is discovered more than once: the
    /// smallest `(depth, via, href)` wins, independent of arrival order.
    fn rank(&self) -> (usize, &str, &str) {
        (self.depth, self.via.as_str(), self.href.as_str())
    }
}

/// One shard's frontier state: the URLs it has ever been assigned
/// (visited) and the candidates pending for the next wave.
#[derive(Debug, Clone, Default)]
pub struct ShardFrontier {
    visited: BTreeSet<String>,
    next: BTreeMap<String, Candidate>,
}

impl ShardFrontier {
    /// An empty frontier.
    pub fn new() -> ShardFrontier {
        ShardFrontier::default()
    }

    /// Rebuild a frontier from checkpointed state.
    pub fn restore(visited: Vec<String>, pending: Vec<Candidate>) -> ShardFrontier {
        let mut f = ShardFrontier {
            visited: visited.into_iter().collect(),
            next: BTreeMap::new(),
        };
        for c in pending {
            f.admit(c);
        }
        f
    }

    /// Offer a discovered candidate. Deduplicates against everything this
    /// shard has already been assigned and against better-ranked pending
    /// discoveries of the same URL. Returns whether the candidate is now
    /// pending.
    pub fn admit(&mut self, candidate: Candidate) -> bool {
        let key = candidate.url.to_string();
        if self.visited.contains(&key) {
            return false;
        }
        match self.next.get_mut(&key) {
            Some(existing) => {
                if candidate.rank() < existing.rank() {
                    *existing = candidate;
                }
            }
            None => {
                self.next.insert(key, candidate);
            }
        }
        true
    }

    /// Number of candidates pending for the next wave.
    pub fn pending(&self) -> usize {
        self.next.len()
    }

    /// Whether the URL has ever entered this frontier (pending now or
    /// already assigned).
    pub fn has_seen(&self, url: &str) -> bool {
        self.visited.contains(url) || self.next.contains_key(url)
    }

    /// Drop a pending candidate without marking it visited (used when a
    /// probe-only URL is promoted to a full crawl candidate).
    pub fn remove_pending(&mut self, url: &str) {
        self.next.remove(url);
    }

    /// `(depth, url)` keys of every pending candidate, for the
    /// coordinator's global budget cut.
    pub fn pending_keys(&self) -> impl Iterator<Item = (usize, &str)> {
        self.next.iter().map(|(k, c)| (c.depth, k.as_str()))
    }

    /// Remove the given URLs from the pending set, mark them visited, and
    /// return their candidates sorted by `(depth, url)` — the order the
    /// shard will process them in.
    pub fn extract(&mut self, urls: &[String]) -> Vec<Candidate> {
        let mut out: Vec<Candidate> = urls
            .iter()
            .filter_map(|u| {
                let c = self.next.remove(u)?;
                self.visited.insert(u.clone());
                Some(c)
            })
            .collect();
        out.sort_by_cached_key(|a| (a.depth, a.url.to_string()));
        out
    }

    /// The visited set, sorted, for checkpointing.
    pub fn visited(&self) -> Vec<String> {
        self.visited.iter().cloned().collect()
    }

    /// The pending candidates, sorted by URL, for checkpointing.
    pub fn pending_candidates(&self) -> Vec<Candidate> {
        self.next.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn cand(u: &str, depth: usize, via: &str, href: &str) -> Candidate {
        Candidate {
            url: url(u),
            depth,
            via: via.to_string(),
            href: href.to_string(),
        }
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 8] {
            for host in ["a", "b", "mega0", "mega7", "site"] {
                let s = shard_of(host, shards);
                assert!(s < shards, "{host} -> {s} of {shards}");
                assert_eq!(s, shard_of(host, shards), "stable");
            }
        }
        assert_eq!(shard_of("anything", 1), 0);
        // Multiple hosts actually spread across shards.
        let spread: BTreeSet<usize> = (0..16).map(|i| shard_of(&format!("mega{i}"), 4)).collect();
        assert!(spread.len() > 1, "{spread:?}");
    }

    #[test]
    fn admit_dedups_and_keeps_the_best_rank() {
        let mut f = ShardFrontier::new();
        assert!(f.admit(cand("http://h/p.html", 2, "http://h/b.html", "p.html")));
        // A later, shallower discovery replaces the pending candidate.
        f.admit(cand("http://h/p.html", 1, "http://h/a.html", "p.html"));
        // A deeper one does not.
        f.admit(cand("http://h/p.html", 3, "http://h/c.html", "p.html"));
        assert_eq!(f.pending(), 1);
        let got = f.extract(&["http://h/p.html".to_string()]);
        assert_eq!(got[0].depth, 1);
        assert_eq!(got[0].via, "http://h/a.html");
        // Once assigned, the URL never re-enters the frontier.
        assert!(!f.admit(cand("http://h/p.html", 0, "", "")));
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn extract_orders_by_depth_then_url() {
        let mut f = ShardFrontier::new();
        f.admit(cand("http://h/z.html", 1, "", ""));
        f.admit(cand("http://h/a.html", 2, "", ""));
        f.admit(cand("http://h/m.html", 1, "", ""));
        let urls: Vec<String> = f
            .pending_candidates()
            .iter()
            .map(|c| c.url.to_string())
            .collect();
        let got = f.extract(&urls);
        let order: Vec<String> = got.iter().map(|c| c.url.to_string()).collect();
        assert_eq!(
            order,
            vec!["http://h/m.html", "http://h/z.html", "http://h/a.html"]
        );
    }

    #[test]
    fn restore_round_trips() {
        let mut f = ShardFrontier::new();
        f.admit(cand("http://h/a.html", 0, "", ""));
        f.admit(cand("http://h/b.html", 1, "http://h/a.html", "b.html"));
        let _ = f.extract(&["http://h/a.html".to_string()]);
        let restored = ShardFrontier::restore(f.visited(), f.pending_candidates());
        assert_eq!(restored.visited(), f.visited());
        assert_eq!(restored.pending_candidates(), f.pending_candidates());
    }
}
