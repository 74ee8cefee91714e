//! Experiment E7 (correctness side): `-R` site mode and the robot over
//! generated sites.

use weblint::corpus::{generate_site, SiteOptions};
use weblint::site::{
    FetchStack, MemStore, Robot, RobotOptions, RobotReport, ShardedOptions, SharedWeb,
    SimulatedWeb, SiteChecker, Url,
};
use weblint::LintConfig;

/// Crawl a simulated site from its index page: one shard, a bare stack.
fn crawl_site(robot: &Robot, web: SimulatedWeb) -> RobotReport {
    let web = SharedWeb::new(web);
    robot
        .crawl_sharded(
            &[Url::parse("http://site/index.html").unwrap()],
            |_| FetchStack::new(web.clone()).build(),
            &ShardedOptions::default(),
        )
        .unwrap()
        .report
}

fn options(pages: usize) -> SiteOptions {
    SiteOptions {
        pages,
        page_bytes: 1024,
        dead_link_percent: 10,
        orphan_percent: 10,
        directories: 3,
    }
}

fn store_for(spec: &weblint::corpus::SiteSpec) -> MemStore {
    spec.files().collect()
}

#[test]
fn r_mode_finds_exactly_the_planted_dead_links() {
    let spec = generate_site(7, &options(40));
    let report = SiteChecker::new(LintConfig::default()).check(&store_for(&spec));
    let bad: Vec<_> = report
        .site_diagnostics
        .iter()
        .filter(|(_, d)| d.id == "bad-link")
        .collect();
    assert_eq!(bad.len(), spec.dead_links.len());
}

#[test]
fn r_mode_finds_exactly_the_planted_orphans() {
    let spec = generate_site(8, &options(40));
    let report = SiteChecker::new(LintConfig::default()).check(&store_for(&spec));
    let mut reported: Vec<_> = report
        .site_diagnostics
        .iter()
        .filter(|(_, d)| d.id == "orphan-page")
        .map(|(p, _)| p.clone())
        .collect();
    let mut planted: Vec<_> = spec
        .pages
        .iter()
        .filter(|p| p.orphan)
        .map(|p| p.path.clone())
        .collect();
    // The checker reports in store (path-sorted) order, the generator
    // plants in page-index order; compare as sets.
    reported.sort();
    planted.sort();
    assert_eq!(reported, planted);
}

#[test]
fn r_mode_flags_indexless_directories() {
    let spec = generate_site(9, &options(30));
    let report = SiteChecker::new(LintConfig::default()).check(&store_for(&spec));
    let dirs: Vec<_> = report
        .site_diagnostics
        .iter()
        .filter(|(_, d)| d.id == "directory-index")
        .map(|(p, _)| p.clone())
        .collect();
    // The generator gives only the root an index file.
    assert_eq!(dirs, ["dir1", "dir2"]);
}

#[test]
fn generated_pages_lint_clean() {
    // The per-page half of the report: generated pages are valid.
    let spec = generate_site(10, &options(20));
    let report = SiteChecker::new(LintConfig::default()).check(&store_for(&spec));
    for (path, diags) in &report.pages {
        assert!(diags.is_empty(), "{path}: {diags:?}");
    }
}

#[test]
fn robot_reaches_every_non_orphan_page() {
    let spec = generate_site(11, &options(30));
    let mut web = SimulatedWeb::new();
    web.mount_pages(
        "site",
        spec.pages
            .iter()
            .map(|p| (p.path.as_str(), p.html.as_str())),
    );
    for asset in &spec.assets {
        web.add(
            &format!("http://site/{asset}"),
            weblint::site::Resource::asset("image/gif"),
        );
    }
    let robot = Robot::new(RobotOptions::default());
    let report = crawl_site(&robot, web);

    let non_orphans = spec.pages.iter().filter(|p| !p.orphan).count();
    assert_eq!(report.pages.len(), non_orphans);
    // Dead links: the robot sees each planted one when first encountered.
    assert_eq!(report.dead_links.len(), {
        // Orphan pages' links are never seen; count planted dead links on
        // reachable pages only, deduplicated by target as the robot dedups.
        let mut seen = std::collections::HashSet::new();
        spec.pages
            .iter()
            .filter(|p| !p.orphan)
            .flat_map(|p| p.links.iter())
            .filter(|l| spec.dead_links.contains(l))
            .filter(|l| seen.insert((*l).clone()))
            .count()
    });
    assert!(!report.truncated);
}

#[test]
fn robot_and_r_mode_agree_on_page_lint() {
    // The same page checked through either path yields the same messages.
    let spec = generate_site(12, &options(10));
    let store = store_for(&spec);
    let r_report = SiteChecker::new(LintConfig::default()).check(&store);

    let mut web = SimulatedWeb::new();
    web.mount_pages(
        "site",
        spec.pages
            .iter()
            .map(|p| (p.path.as_str(), p.html.as_str())),
    );
    let robot = Robot::new(RobotOptions::builder().check_external(false).build());
    let crawl = crawl_site(&robot, web);

    for crawled in &crawl.pages {
        let path = crawled.url.path.trim_start_matches('/');
        let (_, r_diags) = r_report
            .pages
            .iter()
            .find(|(p, _)| p == path)
            .unwrap_or_else(|| panic!("{path} missing from -R report"));
        assert_eq!(&crawled.diagnostics, r_diags, "{path}");
    }
}

#[test]
fn site_scale_smoke() {
    // A bigger site stays linear-ish and correct: all planted defects, no
    // spurious ones. (The bench measures time; this pins correctness.)
    let spec = generate_site(13, &options(200));
    let report = SiteChecker::new(LintConfig::default()).check(&store_for(&spec));
    let bad = report
        .site_diagnostics
        .iter()
        .filter(|(_, d)| d.id == "bad-link")
        .count();
    assert_eq!(bad, spec.dead_links.len());
    assert_eq!(report.page_count(), 200);
}
