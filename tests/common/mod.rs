//! Test inputs shared by more than one suite.

use std::path::Path;

use weblint_corpus::dirty_document;

/// Every (name, source) pair in the golden corpus, in golden order.
pub fn golden_corpus() -> Vec<(String, String)> {
    let mut docs = Vec::new();

    // Deterministic generated documents, clean and dirty, several sizes.
    for &(seed, bytes) in &[(1u64, 1usize << 10), (2, 4 << 10), (3, 16 << 10)] {
        docs.push((
            format!("gen-clean-{seed}-{bytes}"),
            weblint_corpus::generate_document(seed, bytes),
        ));
    }
    for &(seed, bytes, defects) in &[(10u64, 4usize << 10, 4usize), (11, 8 << 10, 8)] {
        docs.push((
            format!("gen-dirty-{seed}-{bytes}-{defects}"),
            dirty_document(seed, bytes, defects),
        ));
    }

    // One snippet per defect class.
    for &class in weblint_corpus::all_defect_classes() {
        docs.push((
            format!("defect-{}", class.name()),
            class.snippet().to_string(),
        ));
    }

    // Every sample page, sorted by file name for a stable order.
    let samples = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/samples");
    let mut paths: Vec<_> = std::fs::read_dir(&samples)
        .expect("tests/samples")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "html"))
        .collect();
    paths.sort();
    for path in paths {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).unwrap();
        docs.push((format!("sample-{name}"), source));
    }

    // Root fixtures.
    for fixture in ["big.html", "frag.html"] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(fixture);
        docs.push((
            format!("fixture-{fixture}"),
            std::fs::read_to_string(&path).unwrap(),
        ));
    }

    docs
}
