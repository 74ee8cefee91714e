//! Sharded LRU result cache.
//!
//! Lint results are a pure function of (document text, configuration), so a
//! service that sees the same page twice — a robot revisiting a URL, a
//! gateway hit on an unchanged file, repeated CLI runs inside one batch —
//! can replay the earlier diagnostics. The cache is keyed by the FNV-1a
//! hash of the document bytes plus a fingerprint of every configuration
//! field that can change the output, and sharded so worker threads do not
//! serialize on one lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use weblint_core::{fnv1a, Diagnostic, Fnv1a, LintConfig};

/// Number of independently locked shards. A small power of two: enough to
/// keep a handful of workers from contending, cheap to iterate for stats.
const SHARDS: usize = 8;

/// Fingerprint a [`LintConfig`]: two configurations hash equal only if
/// they cannot produce different diagnostics for any input.
///
/// Every public field that the engine consults is folded in, including the
/// full sorted list of enabled message identifiers — flipping any single
/// check on or off changes the fingerprint.
pub fn config_fingerprint(config: &LintConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(config.version.name());
    h.write_bool(config.extensions.netscape);
    h.write_bool(config.extensions.microsoft);
    h.write_bool(config.fragment);
    h.write_bool(config.heuristics);
    // Fix-collecting runs attach Fix payloads to their diagnostics, so a
    // fix job must never replay a plain lint result (or vice versa).
    h.write_bool(config.emit_fixes);
    h.write_u64(config.max_title_length as u64);
    for text in &config.here_anchor_texts {
        h.write_str(text);
    }
    h.write(&[0xfe]);
    for elem in &config.custom_elements {
        h.write_str(elem);
    }
    h.write(&[0xfe]);
    for (elem, attr) in &config.custom_attributes {
        h.write_str(elem);
        h.write_str(attr);
    }
    h.write(&[0xfe]);
    for id in config.enabled_ids() {
        h.write_str(id);
    }
    h.finish()
}

/// Key of one cached lint result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// FNV-1a hash of the document bytes.
    pub content: u64,
    /// Fingerprint of the configuration used (see [`config_fingerprint`]).
    pub config: u64,
}

impl CacheKey {
    /// Build a key for `source` linted under `config`.
    pub fn new(source: &str, config: &LintConfig) -> CacheKey {
        CacheKey {
            content: fnv1a(source.as_bytes()),
            config: config_fingerprint(config),
        }
    }
}

struct Entry {
    diags: Arc<Vec<Diagnostic>>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    /// Logical clock for LRU ordering; bumped on every touch.
    tick: u64,
}

/// Counters snapshot for one cache (all totals since construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries discarded to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum entries the cache will hold (0 = caching disabled).
    pub capacity: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups, or 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, LRU-evicting map from [`CacheKey`] to diagnostics.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard capacity; total capacity is `shard_capacity * shards.len()`.
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `capacity` results. Capacities smaller than
    /// the shard count collapse to a single shard so tiny caches still
    /// evict in strict LRU order (useful in tests).
    pub fn new(capacity: usize) -> ResultCache {
        let shards = if capacity < SHARDS { 1 } else { SHARDS };
        ResultCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: capacity.div_ceil(shards),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        // Re-mix so that keys differing only in high bits still spread.
        let mix = key.content.rotate_left(32) ^ key.config;
        &self.shards[(mix % self.shards.len() as u64) as usize]
    }

    /// Look up a result, refreshing its LRU position on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<Diagnostic>>> {
        let mut shard = self.shard(key).lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.diags))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a result, evicting the least recently used entry of the
    /// shard if it is full. Inserting over an existing key refreshes it.
    pub fn insert(&self, key: CacheKey, diags: Arc<Vec<Diagnostic>>) {
        if self.shard_capacity == 0 {
            return;
        }
        let mut shard = self.shard(&key).lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.shard_capacity {
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                shard.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(
            key,
            Entry {
                diags,
                last_used: tick,
            },
        );
    }

    /// Number of resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.shard_capacity * self.shards.len(),
        }
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblint_core::Category;

    fn diags(n: u32) -> Arc<Vec<Diagnostic>> {
        Arc::new(vec![Diagnostic::new(
            "img-alt",
            Category::Warning,
            n,
            1,
            format!("diag {n}"),
        )])
    }

    fn key(n: u64) -> CacheKey {
        CacheKey {
            content: n,
            config: 7,
        }
    }

    #[test]
    fn hit_returns_inserted_value() {
        let cache = ResultCache::new(16);
        cache.insert(key(1), diags(1));
        let got = cache.get(&key(1)).expect("hit");
        assert_eq!(got[0].line, 1);
        assert!(cache.get(&key(2)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn lru_evicts_oldest_in_small_cache() {
        // Capacity below the shard count collapses to one shard, so the
        // eviction order is fully deterministic.
        let cache = ResultCache::new(2);
        cache.insert(key(1), diags(1));
        cache.insert(key(2), diags(2));
        cache.get(&key(1)); // refresh 1 → 2 is now oldest
        cache.insert(key(3), diags(3));
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none(), "LRU entry should be evicted");
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn config_fingerprint_tracks_every_knob() {
        let base = LintConfig::new();
        let fp = config_fingerprint(&base);
        // Same config, fresh instance → same fingerprint.
        assert_eq!(fp, config_fingerprint(&LintConfig::new()));

        let mut c = LintConfig::new();
        c.version = weblint_core::HtmlVersion::Html32;
        assert_ne!(fp, config_fingerprint(&c));

        let mut c = LintConfig::new();
        c.fragment = true;
        assert_ne!(fp, config_fingerprint(&c));

        let mut c = LintConfig::new();
        c.disable("img-alt").unwrap();
        assert_ne!(fp, config_fingerprint(&c));

        let mut c = LintConfig::new();
        c.custom_elements.push("blink".into());
        assert_ne!(fp, config_fingerprint(&c));

        let mut c = LintConfig::new();
        c.max_title_length = 10;
        assert_ne!(fp, config_fingerprint(&c));

        // Fix jobs cache separately from lint jobs.
        let mut c = LintConfig::new();
        c.emit_fixes = true;
        assert_ne!(fp, config_fingerprint(&c));
    }

    #[test]
    fn zero_capacity_never_stores() {
        let cache = ResultCache::new(0);
        cache.insert(key(1), diags(1));
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.is_empty());
    }
}
