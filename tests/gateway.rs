//! Experiment E9 (correctness side): the gateway end-to-end.

use weblint::corpus::{generate_document, DefectClass};
use weblint::gateway::{render_form, Gateway, ReportOptions};
use weblint::site::{FetchError, SimulatedWeb, WebFetcher};
use weblint::{LintConfig, LintSession};

#[test]
fn full_flow_paste_report_is_clean_html() {
    // A dirty page in, a weblint-clean report page out, with every
    // diagnostic embedded.
    let mut weblint = LintSession::new();
    let dirty = "<H1>My Example</H2>\nClick <B><A HREF=\"a.html>here</B></A>\n";
    let gateway = Gateway::default();
    let report = gateway.check_and_render("pasted", dirty);
    for needle in [
        "malformed heading",
        "odd number of quotes",
        "seems to overlap",
    ] {
        assert!(report.contains(needle), "missing {needle}");
    }
    assert_eq!(weblint.check_string(&report), vec![]);
}

#[test]
fn url_flow_against_simulated_web() {
    let mut web = SimulatedWeb::new();
    let doc = generate_document(5, 2048);
    web.add_page("http://h/ok.html", doc);
    let gateway = Gateway::default();
    let report = gateway
        .check_url(&WebFetcher::new(&web), "http://h/ok.html")
        .unwrap();
    assert!(report.contains("No problems found"));
}

#[test]
fn url_flow_reports_mutated_page() {
    use rand::SeedableRng;
    let mut web = SimulatedWeb::new();
    let clean = generate_document(6, 2048);
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let dirty = DefectClass::OddQuotes.inject(&clean, &mut rng);
    web.add_page("http://h/dirty.html", dirty);
    let gateway = Gateway::default();
    let report = gateway
        .check_url(&WebFetcher::new(&web), "http://h/dirty.html")
        .unwrap();
    assert!(report.contains("odd number of quotes"));
}

#[test]
fn url_flow_propagates_transport_failures() {
    let web = SimulatedWeb::new();
    let gateway = Gateway::default();
    match gateway.check_url(&WebFetcher::new(&web), "http://h/gone.html") {
        Err(FetchError::NotFound(url)) => assert!(url.contains("gone.html")),
        other => panic!("expected NotFound, got {other:?}"),
    }
}

#[test]
fn escaping_defeats_injection() {
    // A hostile page must not smuggle markup into the report.
    let gateway = Gateway::default();
    let hostile = "<P>check</P><SCRIPT>alert('pwned')</SCRIPT>";
    let report = gateway.check_and_render("hostile", hostile);
    // The source listing shows the script escaped, never live.
    assert!(report.contains("&lt;SCRIPT&gt;"));
    let live_scripts = report.matches("<SCRIPT>").count();
    assert_eq!(live_scripts, 0);
}

#[test]
fn gateway_respects_custom_config() {
    let mut config = LintConfig::default();
    config.fragment = true;
    config.disable("here-anchor").unwrap();
    let gateway = Gateway::new(config, ReportOptions::default());
    let report = gateway.check_and_render("snippet", "<P>Click <A HREF=\"x.html\">here</A>.</P>");
    assert!(report.contains("No problems found"));
}

#[test]
fn form_round_trip_stays_clean() {
    // Render the form, then feed the form page back through the gateway:
    // still clean, reporting nothing.
    let gateway = Gateway::default();
    let form = render_form("/cgi-bin/weblint");
    let report = gateway.check_and_render("the form itself", &form);
    assert!(report.contains("No problems found"));
}
