//! Soak: the full pipeline over many seeds.
//!
//! A stand-in for four years of weblint-victims traffic: hundreds of
//! generated documents and sites, clean and mutated, through the engine,
//! both baselines, the gateway, the site checker and the robot — asserting
//! global invariants rather than specific messages.

use rand::rngs::StdRng;
use rand::SeedableRng;

use weblint::corpus::{all_defect_classes, generate_document, generate_site, SiteOptions};
use weblint::gateway::Gateway;
use weblint::site::{MemStore, Robot, RobotOptions, SimulatedWeb, SiteChecker, Url, WebFetcher};
use weblint::validator::{HtmlChecker, RegexChecker, StrictValidator};
use weblint::{LintConfig, LintSession};

#[test]
fn engine_soak_over_many_documents() {
    let mut weblint = LintSession::new();
    let mut pedantic = LintSession::with_config(LintConfig::pedantic());
    let strict = StrictValidator::default();
    let regex = RegexChecker::new();
    let classes = all_defect_classes();
    for seed in 0..150u64 {
        let clean = generate_document(40_000 + seed, 3000);
        assert_eq!(weblint.check_string(&clean), vec![], "seed {seed}");
        // Pedantic may flag style, but must never flag errors on a clean
        // generated document.
        assert!(
            pedantic
                .check_string(&clean)
                .iter()
                .all(|d| d.category != weblint::Category::Error),
            "seed {seed}"
        );
        // Baselines accept the clean documents too.
        assert_eq!(strict.check(&clean).len(), 0, "seed {seed}");
        assert_eq!(regex.check(&clean).len(), 0, "seed {seed}");

        // One defect in, detected, bounded.
        let class = classes[(seed as usize) % classes.len()];
        let mut rng = StdRng::seed_from_u64(seed);
        let dirty = class.inject(&clean, &mut rng);
        let diags = weblint.check_string(&dirty);
        assert!(
            diags.iter().any(|d| d.id == class.expected_message()),
            "seed {seed}: {} missing from {:?}",
            class.expected_message(),
            diags.iter().map(|d| d.id).collect::<Vec<_>>()
        );
        assert!(diags.len() <= 4, "seed {seed}: cascade of {}", diags.len());
    }
}

#[test]
fn site_soak() {
    for seed in 0..10u64 {
        let spec = generate_site(
            50_000 + seed,
            &SiteOptions {
                pages: 25,
                page_bytes: 800,
                dead_link_percent: 12,
                orphan_percent: 12,
                directories: 3,
            },
        );
        let mut store = MemStore::new();
        for page in &spec.pages {
            store.insert(page.path.clone(), page.html.clone());
        }
        for asset in &spec.assets {
            store.insert(asset.clone(), "GIF89a");
        }
        let report = SiteChecker::new(LintConfig::default()).check(&store);
        let bad = report
            .site_diagnostics
            .iter()
            .filter(|(_, d)| d.id == "bad-link")
            .count();
        assert_eq!(bad, spec.dead_links.len(), "seed {seed}");
        let orphans = report
            .site_diagnostics
            .iter()
            .filter(|(_, d)| d.id == "orphan-page")
            .count();
        assert_eq!(
            orphans,
            spec.pages.iter().filter(|p| p.orphan).count(),
            "seed {seed}"
        );

        // The robot agrees with -R on what is reachable.
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
        let crawl = robot.crawl(
            &WebFetcher::new(&web),
            &Url::parse("http://site/index.html").unwrap(),
        );
        assert_eq!(
            crawl.pages.len(),
            spec.pages.iter().filter(|p| !p.orphan).count(),
            "seed {seed}"
        );
    }
}

#[test]
fn gateway_soak_output_always_clean() {
    let gateway = Gateway::default();
    let mut weblint = LintSession::new();
    let classes = all_defect_classes();
    for seed in 0..30u64 {
        let clean = generate_document(60_000 + seed, 1500);
        let mut rng = StdRng::seed_from_u64(seed);
        let dirty = classes[(seed as usize) % classes.len()].inject(&clean, &mut rng);
        let report = gateway.check_and_render("soak", &dirty);
        assert_eq!(
            weblint.check_string(&report),
            vec![],
            "seed {seed}: gateway output not clean"
        );
    }
}
