//! The `-R` site checker.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use weblint_core::{Category, Diagnostic, LintConfig, LintSession, Summary};

use crate::links::{anchor_names, extract_links, fragment_of, resolve_local, LinkKind};
use crate::store::PageStore;

/// Result of checking a whole site.
#[derive(Debug, Clone)]
pub struct SiteReport {
    /// Per-page lint results, in page order. Pages with no messages are
    /// included with an empty list so callers can count pages checked.
    pub pages: Vec<(String, Vec<Diagnostic>)>,
    /// Site-level diagnostics (`bad-link`, `orphan-page`,
    /// `directory-index`), keyed by the page or directory they concern.
    pub site_diagnostics: Vec<(String, Diagnostic)>,
}

impl SiteReport {
    /// Total pages checked.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Counts over every message in the report.
    pub fn summary(&self) -> Summary {
        let mut all: Vec<Diagnostic> = Vec::new();
        for (_, diags) in &self.pages {
            all.extend(diags.iter().cloned());
        }
        all.extend(self.site_diagnostics.iter().map(|(_, d)| d.clone()));
        Summary::of(&all)
    }
}

/// Weblint's `-R` mode over a [`PageStore`].
#[derive(Debug, Clone)]
pub struct SiteChecker {
    config: LintConfig,
    jobs: usize,
}

impl SiteChecker {
    /// A site checker with the given per-page configuration, linting one
    /// page at a time.
    pub fn new(config: LintConfig) -> SiteChecker {
        SiteChecker { config, jobs: 1 }
    }

    /// Lint up to `jobs` pages at once (0 counts as 1): `jobs - 1` scoped
    /// threads plus the calling one. Results are collected in page order,
    /// so the report is identical at every width.
    pub fn jobs(mut self, jobs: usize) -> SiteChecker {
        self.jobs = jobs.max(1);
        self
    }

    /// The per-page configuration after applying in-page pragmas, exactly
    /// as in single-file mode. Falls back to the checker's configuration
    /// when a pragma fails to apply.
    fn page_config(&self, html: &str) -> LintConfig {
        if let Ok(directives) = weblint_config::extract_pragmas(html) {
            let mut page_config = self.config.clone();
            if directives
                .iter()
                .all(|d| weblint_config::apply_directive(d, &mut page_config).is_ok())
            {
                return page_config;
            }
        }
        self.config.clone()
    }

    /// Check every page plus the site-level properties. With `jobs > 1`,
    /// `jobs - 1` scoped threads lint pages while this thread walks links,
    /// anchors and directories, then this thread joins the linting. Each
    /// thread claims pages off a shared cursor and keeps one session, which
    /// only rebuilds the HTML tables when a pragma changes the version or
    /// extensions. Results are collected in page order, so the report is
    /// identical at every width; an engine panic on any thread propagates.
    pub fn check(&self, store: &dyn PageStore) -> SiteReport {
        let pages = store.pages();
        let docs: Vec<(String, String)> = pages
            .iter()
            .filter_map(|page| store.read(page).map(|html| (page.clone(), html)))
            .collect();

        let next = AtomicUsize::new(0);
        let lint_claimed = || {
            let mut session = LintSession::with_config(self.config.clone());
            let mut linted = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((_, html)) = docs.get(i) else {
                    return linted;
                };
                session.set_config(self.page_config(html));
                linted.push((i, session.check_string(html)));
            }
        };
        let (mut lints, site_diagnostics) = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..self.jobs).map(|_| scope.spawn(lint_claimed)).collect();
            let site_diagnostics = self.site_diagnostics(store, &pages, &docs);
            let mut lints = lint_claimed();
            for helper in helpers {
                lints.extend(
                    helper
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                );
            }
            (lints, site_diagnostics)
        });
        lints.sort_unstable_by_key(|&(i, _)| i);
        SiteReport {
            pages: docs
                .into_iter()
                .zip(lints)
                .map(|((page, _), (_, diags))| (page, diags))
                .collect(),
            site_diagnostics,
        }
    }

    /// The site-level diagnostics (`bad-link`, `orphan-page`,
    /// `directory-index`) for `docs`, the readable pages among `pages`.
    fn site_diagnostics(
        &self,
        store: &dyn PageStore,
        pages: &[String],
        docs: &[(String, String)],
    ) -> Vec<(String, Diagnostic)> {
        let mut site: Vec<(String, Diagnostic)> = Vec::new();
        let mut inbound: HashSet<String> = HashSet::new();
        // Lazily-computed anchor sets, shared across all fragment checks.
        let mut anchors: HashMap<String, HashSet<String>> = HashMap::new();
        let mut has_anchor = |path: &str, html: Option<&str>, fragment: &str| -> bool {
            anchors
                .entry(path.to_string())
                .or_insert_with(|| match html {
                    Some(html) => anchor_names(html),
                    None => store
                        .read(path)
                        .map(|h| anchor_names(&h))
                        .unwrap_or_default(),
                })
                .contains(fragment)
        };

        // Link validation: every local link must resolve to something that
        // exists in the store, and a fragment must name an anchor on its
        // target page.
        let bad_links = self.config.is_enabled("bad-link");
        for (page, html) in docs {
            for link in extract_links(html) {
                let (source, href) = (link.source, &link.href);
                let problem = match link.kind {
                    LinkKind::Fragment => fragment_of(href)
                        .filter(|f| bad_links && !has_anchor(page, Some(html), f))
                        .map(|f| {
                            format!(
                                "no anchor \"{f}\" on this page (target of {source} \"{href}\")"
                            )
                        }),
                    LinkKind::Local => match resolve_local(page, href) {
                        Some(target) => {
                            let problem = if !store.exists(&target) {
                                Some(format!(
                                    "target of {source} \"{href}\" does not exist ({target})"
                                ))
                            } else {
                                fragment_of(href)
                                    .filter(|f| {
                                        bad_links
                                            && crate::store::is_html_path(&target)
                                            && !has_anchor(&target, None, f)
                                    })
                                    .map(|f| {
                                        format!(
                                            "no anchor \"{f}\" in {target} \
                                             (target of {source} \"{href}\")"
                                        )
                                    })
                            };
                            inbound.insert(target);
                            problem
                        }
                        None => Some(format!("{source} \"{href}\" points outside the site")),
                    },
                    LinkKind::External | LinkKind::Mailto => None,
                };
                if let Some(message) = problem.filter(|_| bad_links) {
                    site.push((
                        page.clone(),
                        Diagnostic::new("bad-link", Category::Error, link.line, 1, message),
                    ));
                }
            }
        }

        // Orphan pages: not the target of any link. Index files are the
        // entry points users type, so they are exempt.
        if self.config.is_enabled("orphan-page") {
            for page in pages {
                let is_index = matches!(page.rsplit('/').next(), Some("index.html" | "index.htm"));
                if !is_index && !inbound.contains(page) {
                    site.push((
                        page.clone(),
                        Diagnostic::new(
                            "orphan-page",
                            Category::Warning,
                            1,
                            1,
                            format!("{page} is not linked to by any other page checked (orphan)"),
                        ),
                    ));
                }
            }
        }

        // Directory index files.
        if self.config.is_enabled("directory-index") {
            for dir in store.directories() {
                let prefix = if dir.is_empty() {
                    String::new()
                } else {
                    format!("{dir}/")
                };
                let index_in = |name: &str| store.exists(&format!("{prefix}{name}"));
                if !index_in("index.html") && !index_in("index.htm") {
                    let shown = if dir.is_empty() { "." } else { dir.as_str() };
                    site.push((
                        dir.clone(),
                        Diagnostic::new(
                            "directory-index",
                            Category::Warning,
                            1,
                            1,
                            format!("directory {shown} has no index file"),
                        ),
                    ));
                }
            }
        }

        site
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn page(body: &str) -> String {
        format!(
            "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
             <HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>{body}</BODY></HTML>\n"
        )
    }

    fn checker() -> SiteChecker {
        SiteChecker::new(LintConfig::default())
    }

    fn site_ids(report: &SiteReport) -> Vec<&'static str> {
        report.site_diagnostics.iter().map(|(_, d)| d.id).collect()
    }

    #[test]
    fn clean_linked_site_is_clean() {
        let mut store = MemStore::new();
        store.insert("index.html", page("<P><A HREF=\"a.html\">a page</A></P>"));
        store.insert("a.html", page("<P><A HREF=\"index.html\">back</A></P>"));
        let report = checker().check(&store);
        assert_eq!(report.page_count(), 2);
        assert!(report.summary().is_clean(), "{report:?}");
    }

    #[test]
    fn dead_link_reported_with_line() {
        let mut store = MemStore::new();
        store.insert("index.html", page("<P><A HREF=\"gone.html\">x</A></P>"));
        let report = checker().check(&store);
        assert_eq!(site_ids(&report), ["bad-link"]);
        let (_, d) = &report.site_diagnostics[0];
        assert!(d.message.contains("gone.html"));
        assert_eq!(d.line, 2); // body is on line 2 of the template
    }

    #[test]
    fn link_outside_site_reported() {
        let mut store = MemStore::new();
        store.insert("index.html", page("<P><A HREF=\"../up.html\">x</A></P>"));
        let report = checker().check(&store);
        assert_eq!(site_ids(&report), ["bad-link"]);
    }

    #[test]
    fn image_and_asset_links_checked() {
        let mut store = MemStore::new();
        store.insert(
            "index.html",
            page("<P><IMG SRC=\"logo.gif\" ALT=\"l\" WIDTH=\"1\" HEIGHT=\"1\"></P>"),
        );
        let report = checker().check(&store);
        assert_eq!(site_ids(&report), ["bad-link"]);
        store.insert("logo.gif", "GIF89a");
        let report = checker().check(&store);
        assert!(site_ids(&report).is_empty());
    }

    #[test]
    fn external_links_ignored_by_r_mode() {
        let mut store = MemStore::new();
        store.insert(
            "index.html",
            page("<P><A HREF=\"http://elsewhere/x.html\">x</A></P>"),
        );
        assert!(site_ids(&checker().check(&store)).is_empty());
    }

    #[test]
    fn orphan_detected_and_index_exempt() {
        let mut store = MemStore::new();
        store.insert("index.html", page("<P><A HREF=\"a.html\">a</A></P>"));
        store.insert("a.html", page("<P>linked</P>"));
        store.insert("lonely.html", page("<P>nobody links here</P>"));
        let report = checker().check(&store);
        let orphans: Vec<_> = report
            .site_diagnostics
            .iter()
            .filter(|(_, d)| d.id == "orphan-page")
            .map(|(p, _)| p.as_str())
            .collect();
        assert_eq!(orphans, ["lonely.html"]);
    }

    #[test]
    fn directory_index_check() {
        let mut store = MemStore::new();
        store.insert("index.html", page("<P><A HREF=\"docs/a.html\">a</A></P>"));
        store.insert("docs/a.html", page("<P>doc</P>"));
        let report = checker().check(&store);
        let dirs: Vec<_> = report
            .site_diagnostics
            .iter()
            .filter(|(_, d)| d.id == "directory-index")
            .map(|(p, _)| p.as_str())
            .collect();
        assert_eq!(dirs, ["docs"]);
    }

    #[test]
    fn site_checks_respect_config() {
        let mut config = LintConfig::default();
        config.disable("bad-link").unwrap();
        config.disable("orphan-page").unwrap();
        config.disable("directory-index").unwrap();
        let mut store = MemStore::new();
        store.insert("index.html", page("<P><A HREF=\"gone.html\">x</A></P>"));
        store.insert("lonely.html", page("<P>alone</P>"));
        store.insert("docs/a.html", page("<P>doc</P>"));
        let report = SiteChecker::new(config).check(&store);
        assert!(report.site_diagnostics.is_empty());
    }

    #[test]
    fn same_page_fragment_must_exist() {
        let mut store = MemStore::new();
        store.insert(
            "index.html",
            page(
                "<P><A HREF=\"#missing\">down</A><A NAME=\"present\">x</A>\
                  <A HREF=\"#present\">ok</A></P>",
            ),
        );
        let report = checker().check(&store);
        assert_eq!(site_ids(&report), ["bad-link"]);
        assert!(report.site_diagnostics[0].1.message.contains("missing"));
    }

    #[test]
    fn cross_page_fragment_must_exist() {
        let mut store = MemStore::new();
        store.insert(
            "index.html",
            page(
                "<P><A HREF=\"a.html#sec\">good</A> \
                  <A HREF=\"a.html#nope\">bad</A></P>",
            ),
        );
        store.insert("a.html", page("<H2 ID=\"sec\">section</H2>"));
        let report = checker().check(&store);
        assert_eq!(site_ids(&report), ["bad-link"]);
        let (_, d) = &report.site_diagnostics[0];
        assert!(d.message.contains("nope"), "{}", d.message);
        assert!(d.message.contains("a.html"), "{}", d.message);
    }

    #[test]
    fn fragment_to_missing_page_reports_dead_target_only() {
        let mut store = MemStore::new();
        store.insert("index.html", page("<P><A HREF=\"gone.html#x\">x</A></P>"));
        let report = checker().check(&store);
        // One message (the missing page), not two.
        assert_eq!(site_ids(&report), ["bad-link"]);
        assert!(report.site_diagnostics[0]
            .1
            .message
            .contains("does not exist"));
    }

    #[test]
    fn page_pragmas_apply_in_site_mode() {
        let mut store = MemStore::new();
        store.insert(
            "index.html",
            format!(
                "<!-- weblint: disable heading-mismatch -->\n{}",
                page("<H1>x</H2><P><A HREF=\"index.html\">self</A></P>")
            ),
        );
        let report = checker().check(&store);
        let (_, diags) = &report.pages[0];
        assert_eq!(diags, &vec![]);
    }

    #[test]
    fn every_width_matches_sequential() {
        let mut store = MemStore::new();
        store.insert(
            "index.html",
            page("<P><A HREF=\"a.html\">a</A> <A HREF=\"gone.html\">x</A></P>"),
        );
        store.insert(
            "a.html",
            format!(
                "<!-- weblint: disable heading-mismatch -->\n{}",
                page("<H1>x</H2>")
            ),
        );
        store.insert("lonely.html", page("<H2>bad</H3>"));
        let sequential = checker().check(&store);
        for jobs in [0, 2, 3, 8] {
            let wide = checker().jobs(jobs).check(&store);
            assert_eq!(wide.pages, sequential.pages, "jobs {jobs}");
            assert_eq!(
                wide.site_diagnostics, sequential.site_diagnostics,
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn per_page_lint_results_included() {
        let mut store = MemStore::new();
        store.insert("index.html", page("<H1>bad heading</H2>"));
        let report = checker().check(&store);
        let (_, diags) = &report.pages[0];
        assert!(diags.iter().any(|d| d.id == "heading-mismatch"));
        assert_eq!(report.summary().errors, 1);
    }
}
