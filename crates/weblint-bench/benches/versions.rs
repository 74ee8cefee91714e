//! E10: the versioned HTML modules.
//!
//! The same extension-heavy corpus checked against different versions and
//! overlays flags different things (§5.5); spec assembly itself is a
//! one-time cost per configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use weblint_bench::experiment_header;
use weblint_core::{LintConfig, LintSession};
use weblint_html::{Extensions, HtmlSpec, HtmlVersion};

/// A page using HTML 4.0 features, deprecated markup, and both vendors'
/// extensions, so every (version, overlay) pairing flags differently.
fn extension_corpus() -> String {
    let mut body = String::new();
    for _ in 0..64 {
        body.push_str(
            "<P CLASS=\"x\"><SPAN>forty</SPAN> <BLINK>ns</BLINK> \
             <NOBR>both</NOBR></P>\n\
             <MARQUEE>ie</MARQUEE>\n\
             <CENTER><FONT SIZE=\"2\">old school</FONT></CENTER>\n\
             <TABLE BGCOLOR=\"tomato\"><TR><TD>cell</TD></TR></TABLE>\n",
        );
    }
    format!(
        "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
         <HTML><HEAD><TITLE>versions</TITLE></HEAD><BODY>\n{body}</BODY></HTML>\n"
    )
}

fn bench_versions(c: &mut Criterion) {
    experiment_header(
        "E10",
        "what gets flagged per HTML version / extension overlay",
    );
    let doc = extension_corpus();
    let setups = [
        ("3.2", HtmlVersion::Html32, Extensions::none()),
        ("4.0-strict", HtmlVersion::Html40Strict, Extensions::none()),
        (
            "4.0-transitional",
            HtmlVersion::Html40Transitional,
            Extensions::none(),
        ),
        (
            "4.0+netscape",
            HtmlVersion::Html40Transitional,
            Extensions::netscape(),
        ),
        (
            "4.0+microsoft",
            HtmlVersion::Html40Transitional,
            Extensions::microsoft(),
        ),
        (
            "4.0+both",
            HtmlVersion::Html40Transitional,
            Extensions::all(),
        ),
    ];
    let mut group = c.benchmark_group("versions");
    for (label, version, extensions) in setups {
        let mut config = LintConfig::default();
        config.version = version;
        config.extensions = extensions;
        let mut weblint = LintSession::with_config(config);
        let diags = weblint.check_string(&doc);
        let ext = diags.iter().filter(|d| d.id == "extension-markup").count();
        let ver = diags.iter().filter(|d| d.id == "version-markup").count();
        let dep = diags.iter().filter(|d| d.id == "obsolete-element").count();
        println!(
            "  {label:<18} {:>4} messages ({ext} extension, {ver} version, {dep} obsolete)",
            diags.len()
        );
        group.bench_function(format!("lint_{label}"), |b| {
            b.iter(|| black_box(weblint.check_string(black_box(&doc))))
        });
    }
    group.finish();

    c.bench_function("spec_assembly", |b| {
        b.iter(|| {
            black_box(HtmlSpec::new(
                HtmlVersion::Html40Transitional,
                Extensions::all(),
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_versions
}
criterion_main!(benches);
