//! Seeded inputs. Every document comes from the corpus generator with
//! defects injected from the full class list; the program under test only
//! ever sees these bytes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use weblint_corpus::{all_defect_classes, generate_document, DefectClass};

use crate::util::Rng;

pub const KIB: usize = 1024;

/// A generated document and the message ids its injected defects must
/// raise (empty for a defect-free document, which must raise nothing).
#[derive(Debug, Clone)]
pub struct Doc {
    pub name: String,
    pub text: String,
    pub expected: Vec<&'static str>,
}

impl Doc {
    pub fn is_clean(&self) -> bool {
        self.expected.is_empty()
    }
}

/// A corpus document of about `size` bytes: a quarter are left clean,
/// the rest carry one to three distinct defect classes.
pub fn document(rng: &mut Rng, name: String, size: usize) -> Doc {
    let text = generate_document(rng.next_u64(), size);
    if rng.chance(25) {
        return Doc {
            name,
            text,
            expected: Vec::new(),
        };
    }
    let classes = all_defect_classes();
    let mut chosen: Vec<DefectClass> = Vec::new();
    let wanted = rng.range(1, 4);
    while chosen.len() < wanted {
        let class = classes[rng.range(0, classes.len())];
        if !chosen.contains(&class) {
            chosen.push(class);
        }
    }
    // An unclosed comment swallows whatever follows it, so it goes in last.
    chosen.sort_by_key(|c| *c == DefectClass::UnclosedComment);
    let mut inject_rng = StdRng::seed_from_u64(rng.next_u64());
    let text = chosen
        .iter()
        .fold(text, |doc, class| class.inject(&doc, &mut inject_rng));
    Doc {
        name,
        text,
        expected: chosen.iter().map(|c| c.expected_message()).collect(),
    }
}

/// `count` sizes spaced geometrically over `lo..hi`: a fixed size
/// schedule, so only content (not the size mix) varies with the seed.
pub fn geometric_sizes(count: usize, lo: usize, hi: usize) -> Vec<usize> {
    let ratio = (hi as f64 / lo as f64).powf(1.0 / count as f64);
    (0..count)
        .map(|i| (lo as f64 * ratio.powi(i as i32)) as usize)
        .collect()
}

/// The `files` corpus: 154 documents from 1 KiB to ~1 MiB, about three
/// quarters of the bytes in 16–256 KiB documents. Every size is used
/// twice, so a latency percentile rests on two documents' contents.
pub fn files_corpus(seed: u64) -> Vec<Doc> {
    let mut rng = Rng::new(seed);
    let mut sizes = Vec::new();
    sizes.extend(geometric_sizes(24, KIB, 4 * KIB));
    sizes.extend(geometric_sizes(16, 4 * KIB, 16 * KIB));
    sizes.extend(geometric_sizes(24, 16 * KIB, 64 * KIB));
    sizes.extend(geometric_sizes(12, 64 * KIB, 256 * KIB));
    sizes.push(1000 * KIB);
    sizes
        .iter()
        .chain(&sizes)
        .enumerate()
        .map(|(i, &size)| document(&mut rng, format!("doc{i:03}.html"), size))
        .collect()
}

pub fn total_bytes(docs: &[Doc]) -> usize {
    docs.iter().map(|d| d.text.len()).sum()
}
