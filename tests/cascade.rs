//! Experiment E5 (correctness side): cascade suppression.
//!
//! §5.1: "The ad-hoc aspects of weblint are provided in an effort to
//! minimise the number of warning cascades, where a single problem
//! generates a flurry of error messages." These tests pin the property
//! the bench measures: with the heuristics on, one injected defect yields
//! a handful of messages; with them off (the naive stack checker), the
//! same defect can flood.

use rand::rngs::StdRng;
use rand::SeedableRng;

use weblint::corpus::{all_defect_classes, generate_document, DefectClass};
use weblint::{LintConfig, LintSession};

fn weblint(heuristics: bool) -> LintSession {
    let mut config = LintConfig::default();
    config.heuristics = heuristics;
    LintSession::with_config(config)
}

#[test]
fn single_defect_stays_bounded_with_heuristics() {
    let doc = generate_document(77, 8 * 1024);
    let mut on = weblint(true);
    let mut rng = StdRng::seed_from_u64(4);
    for class in all_defect_classes() {
        let mutated = class.inject(&doc, &mut rng);
        let n = on.check_string(&mutated).len();
        assert!(n <= 3, "{}: {n} messages with heuristics on", class.name());
    }
}

#[test]
fn naive_checker_cascades_on_list_items() {
    // A long list whose items use the omissible </LI>: the implied-close
    // heuristic accepts it silently; the naive checker reports every item.
    let mut body = String::from("<UL>\n");
    for i in 0..50 {
        body.push_str(&format!("<LI>item {i}\n"));
    }
    body.push_str("</UL>\n");
    let doc = format!(
        "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
         <HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>{body}</BODY></HTML>\n"
    );
    assert_eq!(weblint(true).check_string(&doc).len(), 0);
    let naive = weblint(false).check_string(&doc);
    assert!(
        naive.len() >= 49,
        "naive checker should cascade, got {}",
        naive.len()
    );
}

#[test]
fn overlap_produces_one_message_not_two() {
    // <B><A>x</B></A>: heuristics report the overlap once and park <A> on
    // the secondary stack; naive mode reports the forced close *and* the
    // then-unmatched </A>.
    let src = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
               <HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\n\
               <P>Click <B><A HREF=\"x.html\">link</B></A> now.</P>\n\
               </BODY></HTML>\n";
    let with = weblint(true).check_string(src);
    assert_eq!(
        with.iter().map(|d| d.id).collect::<Vec<_>>(),
        ["element-overlap"]
    );
    let without = weblint(false).check_string(src);
    assert!(without.len() >= 2, "naive mode should double-report");
    assert!(without.iter().any(|d| d.id == "unexpected-close"));
}

#[test]
fn unknown_element_close_does_not_double_report() {
    // Unknown elements are pushed so their close tag resolves silently.
    let mut w = weblint(true);
    let diags = w.check_string("<BLOCKQOUTE>x</BLOCKQOUTE>");
    let unknown: Vec<_> = diags.iter().filter(|d| d.id == "unknown-element").collect();
    assert_eq!(unknown.len(), 1);
    assert!(!diags.iter().any(|d| d.id == "unexpected-close"));
}

#[test]
fn typo_suggestion_offered() {
    let mut w = weblint(true);
    let diags = w.check_string("<BLOCKQOUTE>x</BLOCKQOUTE>");
    let msg = &diags
        .iter()
        .find(|d| d.id == "unknown-element")
        .unwrap()
        .message;
    assert!(msg.contains("BLOCKQUOTE"), "{msg}");
}

#[test]
fn cascade_ratio_measured_across_classes() {
    // The aggregate the bench reports: naive mode must produce strictly
    // more messages than heuristic mode across the defect corpus.
    let doc = generate_document(91, 8 * 1024);
    let mut on = weblint(true);
    let mut off = weblint(false);
    let mut rng = StdRng::seed_from_u64(10);
    let mut with_total = 0usize;
    let mut without_total = 0usize;
    for class in all_defect_classes() {
        // MissingDoctype aside, every class applies.
        if *class == DefectClass::MissingDoctype {
            continue;
        }
        let mutated = class.inject(&doc, &mut rng);
        with_total += on.check_string(&mutated).len();
        without_total += off.check_string(&mutated).len();
    }
    assert!(
        without_total > with_total,
        "expected cascade: {without_total} (naive) vs {with_total} (heuristics)"
    );
}
