//! Page stores: where a site's pages come from.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A source of site pages, keyed by site-relative path (`dir/page.html`).
///
/// Both the real filesystem ([`DirStore`]) and in-memory sites
/// ([`MemStore`], fed by the corpus generator) implement this, so the
/// `-R` checker is independent of where pages live.
pub trait PageStore {
    /// All page paths, sorted.
    fn pages(&self) -> Vec<String>;
    /// Read one page's HTML.
    fn read(&self, path: &str) -> Option<String>;
    /// Whether any file (page or asset) or directory exists at `path`.
    fn exists(&self, path: &str) -> bool;
    /// Whether `path` names a directory. A store of files alone has none.
    fn is_dir(&self, _path: &str) -> bool {
        false
    }
    /// All directories containing at least one page, sorted; `""` is the
    /// root.
    fn directories(&self) -> Vec<String> {
        let mut dirs: Vec<String> = self
            .pages()
            .iter()
            .map(|p| match p.rfind('/') {
                Some(i) => p[..i].to_string(),
                None => String::new(),
            })
            .collect();
        dirs.sort();
        dirs.dedup();
        dirs
    }
}

/// An in-memory page store.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    files: BTreeMap<String, String>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Add or replace a file.
    pub fn insert(&mut self, path: impl Into<String>, contents: impl Into<String>) {
        self.files.insert(path.into(), contents.into());
    }

    /// Number of files held.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

impl<P: Into<String>, C: Into<String>> FromIterator<(P, C)> for MemStore {
    fn from_iter<I: IntoIterator<Item = (P, C)>>(files: I) -> MemStore {
        let files = files.into_iter().map(|(p, c)| (p.into(), c.into()));
        MemStore {
            files: files.collect(),
        }
    }
}

impl PageStore for MemStore {
    fn pages(&self) -> Vec<String> {
        self.files
            .keys()
            .filter(|p| is_html_path(p))
            .cloned()
            .collect()
    }

    fn read(&self, path: &str) -> Option<String> {
        self.files.get(path).cloned()
    }

    fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }
}

/// A filesystem-backed store rooted at a directory — what `weblint -R dir`
/// operates on.
#[derive(Debug, Clone)]
pub struct DirStore {
    root: PathBuf,
}

impl DirStore {
    /// Open a store over `root`. Fails if `root` is not a directory.
    pub fn open(root: impl AsRef<Path>) -> io::Result<DirStore> {
        let root = root.as_ref().to_path_buf();
        if !root.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} is not a directory", root.display()),
            ));
        }
        Ok(DirStore { root })
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn walk(&self, dir: &Path, out: &mut Vec<String>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                self.walk(&path, out);
            } else if let Ok(rel) = path.strip_prefix(&self.root) {
                let rel = rel.to_string_lossy().replace('\\', "/");
                if is_html_path(&rel) {
                    out.push(rel);
                }
            }
        }
    }
}

impl PageStore for DirStore {
    fn pages(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&self.root.clone(), &mut out);
        out.sort();
        out
    }

    fn read(&self, path: &str) -> Option<String> {
        let bytes = fs::read(self.root.join(path)).ok()?;
        Some(String::from_utf8_lossy(&bytes).into_owned())
    }

    fn exists(&self, path: &str) -> bool {
        self.root.join(path).exists()
    }

    fn is_dir(&self, path: &str) -> bool {
        self.root.join(path).is_dir()
    }
}

/// Is this path an HTML page (by extension)?
pub(crate) fn is_html_path(path: &str) -> bool {
    let lower = path.to_ascii_lowercase();
    lower.ends_with(".html") || lower.ends_with(".htm") || lower.ends_with(".shtml")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memstore_basics() {
        let mut s = MemStore::new();
        assert!(s.is_empty());
        s.insert("index.html", "<P>hi");
        s.insert("logo.gif", "GIF89a");
        s.insert("docs/a.htm", "<P>a");
        assert_eq!(s.len(), 3);
        assert_eq!(s.pages(), ["docs/a.htm", "index.html"]);
        assert!(s.exists("logo.gif"));
        assert!(!s.exists("missing.gif"));
        assert_eq!(s.read("index.html").unwrap(), "<P>hi");
    }

    #[test]
    fn directories_derived_from_pages() {
        let mut s = MemStore::new();
        s.insert("index.html", "");
        s.insert("a/x.html", "");
        s.insert("a/b/y.html", "");
        assert_eq!(s.directories(), ["", "a", "a/b"]);
    }

    #[test]
    fn html_path_detection() {
        assert!(is_html_path("x.html"));
        assert!(is_html_path("X.HTM"));
        assert!(is_html_path("a/b.shtml"));
        assert!(!is_html_path("x.gif"));
        assert!(!is_html_path("html"));
    }

    #[test]
    fn dirstore_walks_recursively() {
        let root = std::env::temp_dir().join("weblint-dirstore-test");
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("sub")).unwrap();
        fs::write(root.join("index.html"), "<P>root").unwrap();
        fs::write(root.join("sub/page.html"), "<P>sub").unwrap();
        fs::write(root.join("sub/pic.gif"), "GIF").unwrap();
        let store = DirStore::open(&root).unwrap();
        assert_eq!(store.pages(), ["index.html", "sub/page.html"]);
        assert!(store.exists("sub/pic.gif"));
        assert_eq!(store.read("sub/page.html").unwrap(), "<P>sub");
        assert!(store.read("nope.html").is_none());
        assert!(store.is_dir("sub/") && store.is_dir("sub") && store.is_dir(""));
        assert!(!store.is_dir("sub/page.html") && !store.is_dir("nope"));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn dirstore_rejects_files() {
        assert!(DirStore::open("/no/such/dir").is_err());
    }
}
