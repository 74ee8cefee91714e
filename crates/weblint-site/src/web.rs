//! An in-memory simulated web.
//!
//! The paper's robot and `check_url` ride on LWP and the live web; neither
//! is available or desirable in a reproduction, so this module provides the
//! closest synthetic equivalent (DESIGN.md, substitutions): named hosts
//! serving resources with statuses, content types, redirect chains and a
//! deterministic latency model. The robot exercises exactly the same code
//! path (fetch → parse → lint → extract links → enqueue); only the
//! transport is synthetic.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::url::Url;

/// Response status, reduced to what a 1998 link checker cares about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// 200.
    Ok,
    /// 301/302, with the Location target.
    Redirect(String),
    /// 404.
    NotFound,
    /// 5xx.
    ServerError,
    /// No response before the deadline (injected by the fault layer; the
    /// simulated web itself never stalls).
    TimedOut,
    /// Connection reset mid-request (likewise injected).
    Reset,
}

/// One hosted resource.
#[derive(Debug, Clone)]
pub struct Resource {
    /// Response status.
    pub status: Status,
    /// MIME type (`text/html`, `image/gif`, …).
    pub content_type: String,
    /// Response body (empty for non-HTML).
    pub body: String,
}

impl Resource {
    /// An HTML page.
    pub fn html(body: impl Into<String>) -> Resource {
        Resource {
            status: Status::Ok,
            content_type: "text/html".to_string(),
            body: body.into(),
        }
    }

    /// A binary asset (body not modelled).
    pub fn asset(content_type: &str) -> Resource {
        Resource {
            status: Status::Ok,
            content_type: content_type.to_string(),
            body: String::new(),
        }
    }

    /// A redirect to `location`.
    pub fn redirect(location: impl Into<String>) -> Resource {
        Resource {
            status: Status::Redirect(location.into()),
            content_type: "text/html".to_string(),
            body: String::new(),
        }
    }
}

/// Aggregate transfer statistics, for the latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WebStats {
    /// GET requests served (including 404s).
    pub gets: u64,
    /// HEAD requests served.
    pub heads: u64,
    /// Body bytes transferred by GETs.
    pub bytes: u64,
    /// Simulated wall-clock microseconds spent on the wire.
    pub simulated_us: u64,
}

/// Simulated round-trip time per request, in microseconds. Chosen to
/// resemble a 1998 intranet: ~20 ms RTT.
const RTT_US: u64 = 20_000;
/// Simulated transfer rate: bytes per microsecond (≈ 3 Mbit/s).
const BYTES_PER_US: u64 = 3;

/// The simulated web: a map from URL to resource, plus counters.
#[derive(Debug, Default)]
pub struct SimulatedWeb {
    resources: HashMap<String, Resource>,
    gets: Cell<u64>,
    heads: Cell<u64>,
    bytes: Cell<u64>,
    simulated_us: Cell<u64>,
}

impl SimulatedWeb {
    /// An empty web.
    pub fn new() -> SimulatedWeb {
        SimulatedWeb::default()
    }

    /// Host a resource at an absolute URL.
    pub fn add(&mut self, url: &str, resource: Resource) {
        let key = Self::key(url);
        self.resources.insert(key, resource);
    }

    /// Host an HTML page.
    pub fn add_page(&mut self, url: &str, html: impl Into<String>) {
        self.add(url, Resource::html(html));
    }

    /// Host a redirect.
    pub fn add_redirect(&mut self, from: &str, to: &str) {
        self.add(from, Resource::redirect(to));
    }

    /// Remove a resource (turning links at it dead).
    pub fn remove(&mut self, url: &str) {
        self.resources.remove(&Self::key(url));
    }

    /// Mount a generated site spec under `http://{host}/`.
    ///
    /// Every page lands at its site-relative path; referenced images are
    /// *not* mounted, matching the corpus generator's page-only output.
    pub fn mount_pages<'a>(
        &mut self,
        host: &str,
        pages: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) {
        for (path, html) in pages {
            self.add_page(&format!("http://{host}/{path}"), html);
        }
    }

    /// Number of hosted resources.
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    /// Whether nothing is hosted.
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }

    /// Serve a HEAD request: status and content type only.
    pub fn head(&self, url: &Url) -> (Status, String) {
        self.heads.set(self.heads.get() + 1);
        self.simulated_us.set(self.simulated_us.get() + RTT_US);
        match self.lookup(url) {
            Some(r) => (r.status.clone(), r.content_type.clone()),
            None => (Status::NotFound, String::new()),
        }
    }

    /// Serve a GET request.
    pub fn get(&self, url: &Url) -> (Status, String, String) {
        self.gets.set(self.gets.get() + 1);
        match self.lookup(url) {
            Some(r) => {
                let body_len = r.body.len() as u64;
                self.bytes.set(self.bytes.get() + body_len);
                self.simulated_us
                    .set(self.simulated_us.get() + RTT_US + body_len / BYTES_PER_US);
                (r.status.clone(), r.content_type.clone(), r.body.clone())
            }
            None => {
                self.simulated_us.set(self.simulated_us.get() + RTT_US);
                (Status::NotFound, String::new(), String::new())
            }
        }
    }

    /// Transfer statistics so far.
    pub fn stats(&self) -> WebStats {
        WebStats {
            gets: self.gets.get(),
            heads: self.heads.get(),
            bytes: self.bytes.get(),
            simulated_us: self.simulated_us.get(),
        }
    }

    fn lookup(&self, url: &Url) -> Option<&Resource> {
        self.resources.get(&url.to_string())
    }

    fn key(url: &str) -> String {
        Url::parse(url)
            .map(|u| u.to_string())
            .unwrap_or_else(|| url.to_string())
    }
}

/// A thread-safe handle to a [`SimulatedWeb`].
///
/// [`SimulatedWeb`] keeps its transfer counters in `Cell`s and so cannot be
/// shared across threads directly; servers whose connection threads resolve
/// URLs concurrently (the httpd front end) wrap it here. Cloning the handle
/// shares the same web.
#[derive(Debug, Clone, Default)]
pub struct SharedWeb {
    inner: Arc<Mutex<SimulatedWeb>>,
}

impl SharedWeb {
    /// Wrap a populated web for sharing.
    pub fn new(web: SimulatedWeb) -> SharedWeb {
        SharedWeb {
            inner: Arc::new(Mutex::new(web)),
        }
    }

    /// Run `f` with exclusive access to the underlying web (to add or
    /// remove resources after the handle has been shared).
    pub fn with<R>(&self, f: impl FnOnce(&mut SimulatedWeb) -> R) -> R {
        f(&mut self.inner.lock().unwrap())
    }

    /// Transfer statistics so far.
    pub fn stats(&self) -> WebStats {
        self.inner.lock().unwrap().stats()
    }
}

impl crate::robot::Fetcher for SharedWeb {
    fn head(&self, url: &Url) -> (Status, String) {
        self.inner.lock().unwrap().head(url)
    }

    fn get(&self, url: &Url) -> (Status, String, String) {
        self.inner.lock().unwrap().get(url)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn get_and_head() {
        let mut web = SimulatedWeb::new();
        web.add_page("http://h/index.html", "<P>hello</P>");
        web.add("http://h/logo.gif", Resource::asset("image/gif"));
        let (status, ct, body) = web.get(&url("http://h/index.html"));
        assert_eq!(status, Status::Ok);
        assert_eq!(ct, "text/html");
        assert!(body.contains("hello"));
        let (status, ct) = web.head(&url("http://h/logo.gif"));
        assert_eq!(status, Status::Ok);
        assert_eq!(ct, "image/gif");
    }

    #[test]
    fn missing_is_404() {
        let web = SimulatedWeb::new();
        let (status, _, _) = web.get(&url("http://h/none.html"));
        assert_eq!(status, Status::NotFound);
        assert!(web.is_empty());
    }

    #[test]
    fn redirects_carry_location() {
        let mut web = SimulatedWeb::new();
        web.add_redirect("http://h/old.html", "http://h/new.html");
        let (status, _) = web.head(&url("http://h/old.html"));
        assert_eq!(status, Status::Redirect("http://h/new.html".to_string()));
    }

    #[test]
    fn keys_normalize_case() {
        let mut web = SimulatedWeb::new();
        web.add_page("HTTP://Host/x.html", "<P>x");
        let (status, _, _) = web.get(&url("http://host/x.html"));
        assert_eq!(status, Status::Ok);
    }

    #[test]
    fn remove_makes_links_dead() {
        let mut web = SimulatedWeb::new();
        web.add_page("http://h/a.html", "x");
        assert_eq!(web.len(), 1);
        web.remove("http://h/a.html");
        let (status, _) = web.head(&url("http://h/a.html"));
        assert_eq!(status, Status::NotFound);
    }

    #[test]
    fn stats_accumulate() {
        let mut web = SimulatedWeb::new();
        web.add_page("http://h/a.html", "x".repeat(3000));
        web.get(&url("http://h/a.html"));
        web.head(&url("http://h/a.html"));
        let stats = web.stats();
        assert_eq!(stats.gets, 1);
        assert_eq!(stats.heads, 1);
        assert_eq!(stats.bytes, 3000);
        // Two RTTs plus 3000 bytes at 3 bytes/us.
        assert_eq!(stats.simulated_us, 2 * 20_000 + 1000);
    }

    #[test]
    fn mount_pages_hosts_under_host() {
        let mut web = SimulatedWeb::new();
        web.mount_pages("site", [("index.html", "<P>i"), ("d/p.html", "<P>p")]);
        assert_eq!(web.len(), 2);
        let (status, _, _) = web.get(&url("http://site/d/p.html"));
        assert_eq!(status, Status::Ok);
    }
}
