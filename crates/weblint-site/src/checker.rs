//! The `-R` site checker.

use std::collections::{HashMap, HashSet};

use weblint_core::{Category, Diagnostic, LintConfig, LintSession, Summary};
use weblint_service::{JobHandle, LintService};

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
}

impl SiteChecker {
    /// A site checker with the given per-page configuration.
    pub fn new(config: LintConfig) -> SiteChecker {
        SiteChecker { config }
    }

    /// Check every page plus the site-level properties.
    pub fn check(&self, store: &dyn PageStore) -> SiteReport {
        self.check_impl(store, None)
    }

    /// [`SiteChecker::check`], but with per-page linting fanned out over a
    /// [`LintService`]. Pages are submitted up front so the workers lint
    /// while this thread walks links, anchors, and directories; results
    /// are collected in page order, so the report is identical to the
    /// sequential one.
    pub fn check_with(&self, store: &dyn PageStore, service: &LintService) -> SiteReport {
        self.check_impl(store, Some(service))
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

    fn check_impl(&self, store: &dyn PageStore, service: Option<&LintService>) -> SiteReport {
        let pages = store.pages();
        // Read every page first; with a service attached, submit each one
        // immediately so linting overlaps the link analysis below.
        let mut docs: Vec<(String, String)> = Vec::with_capacity(pages.len());
        let mut handles: Vec<Option<JobHandle>> = Vec::with_capacity(pages.len());
        for page in &pages {
            let Some(html) = store.read(page) else {
                continue;
            };
            if let Some(service) = service {
                let config = self.page_config(&html);
                handles.push(service.submit_with(html.clone(), Some(config)).ok());
            }
            docs.push((page.clone(), html));
        }

        let mut report = SiteReport {
            pages: Vec::with_capacity(docs.len()),
            site_diagnostics: Vec::new(),
        };
        let mut inbound: HashSet<String> = HashSet::new();
        // Lazily-computed anchor sets, shared across all fragment checks.
        let mut anchors: HashMap<String, HashSet<String>> = HashMap::new();
        let mut anchors_of = |path: &str, html: Option<&str>| -> HashSet<String> {
            if let Some(cached) = anchors.get(path) {
                return cached.clone();
            }
            let computed = match html {
                Some(html) => anchor_names(html),
                None => store
                    .read(path)
                    .map(|h| anchor_names(&h))
                    .unwrap_or_default(),
            };
            anchors.insert(path.to_string(), computed.clone());
            computed
        };

        for (page, html) in &docs {
            // Link validation: every local link must resolve to something
            // that exists in the store.
            for link in extract_links(html) {
                // Same-page fragments must name an anchor on this page.
                if link.kind == LinkKind::Fragment {
                    if let Some(fragment) = fragment_of(&link.href) {
                        if self.config.is_enabled("bad-link")
                            && !anchors_of(page, Some(html)).contains(fragment)
                        {
                            report.site_diagnostics.push((
                                page.clone(),
                                Diagnostic::new(
                                    "bad-link",
                                    Category::Error,
                                    link.line,
                                    1,
                                    format!(
                                        "no anchor \"{fragment}\" on this page \
                                         (target of {} \"{}\")",
                                        link.source, link.href
                                    ),
                                ),
                            ));
                        }
                    }
                    continue;
                }
                if link.kind != LinkKind::Local {
                    continue;
                }
                match resolve_local(page, &link.href) {
                    Some(target) => {
                        inbound.insert(target.clone());
                        // Cross-page fragment: the target page must define
                        // the anchor.
                        if store.exists(&target) && self.config.is_enabled("bad-link") {
                            if let Some(fragment) = fragment_of(&link.href) {
                                if crate::store::is_html_path(&target)
                                    && !anchors_of(&target, None).contains(fragment)
                                {
                                    report.site_diagnostics.push((
                                        page.clone(),
                                        Diagnostic::new(
                                            "bad-link",
                                            Category::Error,
                                            link.line,
                                            1,
                                            format!(
                                                "no anchor \"{fragment}\" in {target} \
                                                 (target of {} \"{}\")",
                                                link.source, link.href
                                            ),
                                        ),
                                    ));
                                }
                            }
                        }
                        if !store.exists(&target) && self.config.is_enabled("bad-link") {
                            report.site_diagnostics.push((
                                page.clone(),
                                Diagnostic::new(
                                    "bad-link",
                                    Category::Error,
                                    link.line,
                                    1,
                                    format!(
                                        "target of {} \"{}\" does not exist ({})",
                                        link.source, link.href, target
                                    ),
                                ),
                            ));
                        }
                    }
                    None => {
                        if self.config.is_enabled("bad-link") {
                            report.site_diagnostics.push((
                                page.clone(),
                                Diagnostic::new(
                                    "bad-link",
                                    Category::Error,
                                    link.line,
                                    1,
                                    format!(
                                        "{} \"{}\" points outside the site",
                                        link.source, link.href
                                    ),
                                ),
                            ));
                        }
                    }
                }
            }
        }

        // Per-page lint results, in page order: collected from the service
        // handles when fanned out, computed inline otherwise. One session
        // serves every inline page; it only rebuilds the HTML tables when
        // a pragma changes the version or extensions.
        let mut handles = handles.into_iter();
        let mut session = LintSession::with_config(self.config.clone());
        for (page, html) in &docs {
            let diags = match handles.next().flatten() {
                Some(handle) => handle.wait().unwrap_or_default(),
                None => {
                    session.set_config(self.page_config(html));
                    session.check_string(html)
                }
            };
            report.pages.push((page.clone(), diags));
        }

        // Orphan pages: not the target of any link. Index files are the
        // entry points users type, so they are exempt.
        if self.config.is_enabled("orphan-page") {
            for page in &pages {
                let is_index = page == "index.html"
                    || page.ends_with("/index.html")
                    || page == "index.htm"
                    || page.ends_with("/index.htm");
                if !is_index && !inbound.contains(page) {
                    report.site_diagnostics.push((
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
                let candidates = if dir.is_empty() {
                    ["index.html".to_string(), "index.htm".to_string()]
                } else {
                    [format!("{dir}/index.html"), format!("{dir}/index.htm")]
                };
                if !candidates.iter().any(|c| store.exists(c)) {
                    let shown = if dir.is_empty() { "." } else { dir.as_str() };
                    report.site_diagnostics.push((
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

        report
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
    fn check_with_service_matches_sequential() {
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
        let checker = checker();
        let sequential = checker.check(&store);
        let service = LintService::with_config(LintConfig::default());
        let fanned = checker.check_with(&store, &service);
        assert_eq!(fanned.pages, sequential.pages);
        assert_eq!(fanned.site_diagnostics, sequential.site_diagnostics);
        assert!(service.metrics().jobs_completed >= 3);
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
