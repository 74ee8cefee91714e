//! A concurrent lint service in front of the weblint engine.
//!
//! The paper closes (§6.3) with weblint outgrowing the single-shot filter:
//! people ran it behind CGI gateways, over whole site trees, and inside
//! crawling robots — workloads where pages arrive faster than one thread
//! can lint them and where the same page is often checked repeatedly. This
//! crate packages the engine for those callers:
//!
//! * [`LintService`] — N worker threads consuming a **bounded** MPMC job
//!   queue. `submit` hands back a [`JobHandle`]; when the queue is full it
//!   either blocks or fails fast, per [`SubmitPolicy`].
//! * [`ResultCache`] — a sharded LRU memo of lint results keyed by the
//!   FNV-1a hash of the document and a [`config_fingerprint`] of every
//!   output-affecting configuration knob.
//! * [`ServiceMetrics`] — one snapshot type counting jobs, queue depth
//!   high water, cache hits/misses/evictions, and per-stage wall time;
//!   the CLI prints it under `--stats`.
//!
//! Everything is plain `std`: threads, mutexes, condvars, channels. No
//! async runtime.
//!
//! # Examples
//!
//! ```
//! use weblint_service::{LintService, ServiceConfig};
//!
//! let service = LintService::new(ServiceConfig::default());
//! let results = service.lint_batch(["<H1>one</H1>", "<H2>two</H1>"]);
//! assert_eq!(results.len(), 2);
//! assert!(results[1].as_ref().unwrap().iter().any(|d| d.id == "heading-mismatch"));
//! println!("{}", service.metrics());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod metrics;
mod queue;
mod service;

pub use cache::{config_fingerprint, CacheKey, CacheStats, ResultCache};
pub use metrics::ServiceMetrics;
pub use queue::{SubmitError, SubmitPolicy};
pub use service::{JobError, JobHandle, JobResult, LintService, ServiceConfig, PANIC_MARKER};
