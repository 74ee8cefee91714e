//! Site-level checking: weblint's `-R` mode and the *poacher* robot.
//!
//! "The `-R` switch instructs weblint to recurse in all directories in the
//! local filesystem, so that a set of pages or entire site can be checked
//! with one command. The switch also enables additional warnings, checking
//! whether directories have index files, and reporting orphan pages" (§4.5).
//! "A robot can be used to invoke weblint on all accessible pages on a
//! site … I have written one, called poacher … Poacher also performs basic
//! link validation."
//!
//! This crate provides:
//!
//! * [`SiteChecker`] — the `-R` mode: lint every page in a [`PageStore`],
//!   check local hyperlinks, find orphan pages and index-less directories.
//! * [`SimulatedWeb`] — an in-memory HTTP-like fabric (hosts, redirects,
//!   404s, latency model) standing in for the live web + LWP (see
//!   DESIGN.md, substitutions).
//! * [`Robot`] — the poacher analog: breadth-first traversal over a
//!   [`Fetcher`], linting every page it can reach and HEAD-validating the
//!   links it cannot follow.
//!
//! # Examples
//!
//! ```
//! use weblint_site::{MemStore, SiteChecker};
//! use weblint_core::LintConfig;
//!
//! let mut store = MemStore::new();
//! store.insert("index.html", "<P><A HREF=\"gone.html\">x</A></P>");
//! let checker = SiteChecker::new(LintConfig::default());
//! let report = checker.check(&store);
//! assert!(report
//!     .site_diagnostics
//!     .iter()
//!     .any(|(_, d)| d.id == "bad-link"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod checkpoint;
mod fault;
mod frontier;
mod links;
mod pacing;
mod robot;
mod stack;
mod store;
mod url;
mod web;
mod weight;

pub use checker::{SiteChecker, SiteReport};
pub use checkpoint::{
    decode_shard, encode_shard, load_checkpoint, save_checkpoint, CheckpointError, CheckpointMeta,
    LoadedCheckpoint, ShardState,
};
pub use fault::{
    BreakerSnapshot, BreakerState, FaultKind, FaultLayerState, FaultSpec, FaultStats, HostFaults,
    HostResilience, RequestCost, ResilienceHostState, ResilienceLayerState, ResilienceStats,
    VIRTUAL_RTT_US,
};
pub use frontier::{shard_of, Candidate, ShardFrontier};
pub use links::{extract_links, resolve_local, Link, LinkKind};
pub use pacing::{
    HedgeToken, HostPacing, Observation, Pacer, PacerHostState, PacingLayerState, PacingStats,
};
pub use robot::{
    check_url, resolve, CheckpointConfig, CrawledPage, DeadLink, FetchError, Fetcher, FnFetcher,
    Robot, RobotOptions, RobotOptionsBuilder, RobotReport, ShardChaos, ShardedOptions,
    ShardedOutcome, ShardedReport, StoreFetcher, WebFetcher,
};
pub use stack::{FetchStack, FetchStackBuilder, StackState, StackTelemetry};
pub use store::{DirStore, MemStore, PageStore};
pub use url::Url;
pub use web::{Resource, SharedWeb, SimulatedWeb, Status, WebStats};
pub use weight::{weigh_html, weigh_page, PageWeight, MODEM_SPEEDS};
