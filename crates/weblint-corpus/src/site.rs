//! Whole-site generation for the `-R` and robot experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{generate_document_with, words, GenOptions};

/// Knobs for site generation.
#[derive(Debug, Clone)]
pub struct SiteOptions {
    /// Number of pages.
    pub pages: usize,
    /// Bytes per page (approximate).
    pub page_bytes: usize,
    /// Out of 100: probability that a generated link points at a page that
    /// does not exist (a dead link).
    pub dead_link_percent: u8,
    /// Out of 100: probability that a page receives no inbound links (an
    /// orphan).
    pub orphan_percent: u8,
    /// Number of subdirectories pages are spread over. Directory 0 gets an
    /// `index.html`; the others deliberately do not, to exercise the
    /// `directory-index` check.
    pub directories: usize,
}

impl Default for SiteOptions {
    fn default() -> SiteOptions {
        SiteOptions {
            pages: 20,
            page_bytes: 2 * 1024,
            dead_link_percent: 5,
            orphan_percent: 10,
            directories: 3,
        }
    }
}

/// One generated page.
#[derive(Debug, Clone)]
pub struct GeneratedPage {
    /// Site-relative path, e.g. `docs/page7.html`.
    pub path: String,
    /// The page HTML.
    pub html: String,
    /// Site-relative paths this page links to (including dead ones).
    pub links: Vec<String>,
    /// Whether the generator marked this page as an intended orphan.
    pub orphan: bool,
}

/// A generated site.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// The pages, `pages[0]` being `index.html`.
    pub pages: Vec<GeneratedPage>,
    /// Paths of links that intentionally point nowhere.
    pub dead_links: Vec<String>,
    /// Site-relative paths of non-HTML assets (images) the pages
    /// reference; host these alongside the pages to avoid spurious
    /// dead-link reports.
    pub assets: Vec<String>,
}

impl SiteSpec {
    /// Total bytes of HTML across the site.
    pub fn total_bytes(&self) -> usize {
        self.pages.iter().map(|p| p.html.len()).sum()
    }

    /// Every file of the site as `(path, contents)`: the pages, then each
    /// asset as a GIF stub.
    pub fn files(&self) -> impl Iterator<Item = (&str, &str)> {
        let pages = self
            .pages
            .iter()
            .map(|p| (p.path.as_str(), p.html.as_str()));
        pages.chain(self.assets.iter().map(|a| (a.as_str(), "GIF89a")))
    }

    /// Find a page by path.
    pub fn page(&self, path: &str) -> Option<&GeneratedPage> {
        self.pages.iter().find(|p| p.path == path)
    }
}

/// Generate a site of interlinked pages, deterministically from `seed`.
///
/// The link graph keeps every non-orphan page reachable from `index.html`
/// (each page `i > 0` gets an inbound link from an earlier page unless it
/// was chosen as an orphan), then sprinkles extra cross-links and the
/// requested proportion of dead links.
pub fn generate_site(seed: u64, options: &SiteOptions) -> SiteSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let count = options.pages.max(1);
    let dirs = options.directories.max(1);

    // Assign paths: page 0 is the site index.
    let mut paths = Vec::with_capacity(count);
    paths.push("index.html".to_string());
    for i in 1..count {
        let dir = i % dirs;
        if dir == 0 {
            paths.push(format!("page{i}.html"));
        } else {
            paths.push(format!("dir{dir}/page{i}.html"));
        }
    }

    let orphan: Vec<bool> = (0..count)
        .map(|i| i != 0 && rng.random_range(0..100u8) < options.orphan_percent)
        .collect();

    // Decide each page's outbound links.
    let mut links: Vec<Vec<String>> = vec![Vec::new(); count];
    let mut dead_links = Vec::new();
    for (i, target_path) in paths.iter().enumerate().skip(1) {
        if orphan[i] {
            continue;
        }
        // An inbound link from some earlier non-orphan page (the index if
        // nothing else) keeps the page reachable.
        let mut from = rng.random_range(0..i);
        if orphan[from] {
            from = 0;
        }
        links[from].push(target_path.clone());
    }
    for (i, page_links) in links.iter_mut().enumerate() {
        // Extra cross-links for a denser graph.
        for _ in 0..rng.random_range(0..3) {
            let to = rng.random_range(0..count);
            if to != i && !orphan[to] {
                page_links.push(paths[to].clone());
            }
        }
        if rng.random_range(0..100u8) < options.dead_link_percent {
            let dead = format!("missing{}.html", rng.random_range(0..1000));
            page_links.push(dead.clone());
            dead_links.push(dead);
        }
    }

    // Render the pages: a valid document plus a navigation block.
    let mut assets: Vec<String> = Vec::new();
    let pages = paths
        .iter()
        .enumerate()
        .map(|(i, path)| {
            let mut html = generate_document_with(
                seed.wrapping_add(i as u64),
                &GenOptions {
                    target_bytes: options.page_bytes,
                    anchors: false,
                    ..GenOptions::default()
                },
            );
            collect_image_assets(path, &html, &mut assets);
            let depth = path.matches('/').count();
            let prefix = "../".repeat(depth);
            let mut nav = String::from("<UL>\n");
            for link in &links[i] {
                nav.push_str(&format!(
                    "<LI><A HREF=\"{prefix}{link}\">{}</A>\n",
                    words(&mut rng, 2)
                ));
            }
            nav.push_str("</UL>\n");
            let at = html.rfind("</BODY>").unwrap_or(html.len());
            html.insert_str(at, &nav);
            GeneratedPage {
                path: path.clone(),
                html,
                links: links[i].clone(),
                orphan: orphan[i],
            }
        })
        .collect();

    assets.sort();
    assets.dedup();
    SiteSpec {
        pages,
        dead_links,
        assets,
    }
}

/// Find the `SRC="…"` image references in a generated page and record them
/// as site-relative asset paths (images are referenced relative to the
/// page's directory).
fn collect_image_assets(page_path: &str, html: &str, assets: &mut Vec<String>) {
    let dir = match page_path.rfind('/') {
        Some(i) => &page_path[..=i],
        None => "",
    };
    let mut rest = html;
    while let Some(idx) = rest.find("SRC=\"") {
        rest = &rest[idx + 5..];
        if let Some(end) = rest.find('"') {
            let name = &rest[..end];
            if name.ends_with(".gif") {
                assets.push(format!("{dir}{name}"));
            }
            rest = &rest[end..];
        } else {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SiteSpec {
        generate_site(
            42,
            &SiteOptions {
                pages: 12,
                page_bytes: 512,
                dead_link_percent: 20,
                orphan_percent: 20,
                directories: 3,
            },
        )
    }

    #[test]
    fn deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.pages.len(), b.pages.len());
        for (pa, pb) in a.pages.iter().zip(&b.pages) {
            assert_eq!(pa.html, pb.html);
        }
    }

    #[test]
    fn index_is_first() {
        let site = small();
        assert_eq!(site.pages[0].path, "index.html");
        assert!(!site.pages[0].orphan);
    }

    #[test]
    fn non_orphans_have_inbound_links() {
        let site = small();
        for page in site.pages.iter().skip(1).filter(|p| !p.orphan) {
            let linked = site.pages.iter().any(|p| p.links.contains(&page.path));
            assert!(linked, "{} unreachable", page.path);
        }
    }

    #[test]
    fn orphans_have_no_inbound_links() {
        let site = small();
        for page in site.pages.iter().filter(|p| p.orphan) {
            let linked = site.pages.iter().any(|p| p.links.contains(&page.path));
            assert!(!linked, "{} has inbound links", page.path);
        }
    }

    #[test]
    fn dead_links_point_nowhere() {
        let site = small();
        for dead in &site.dead_links {
            assert!(site.page(dead).is_none(), "{dead} exists");
        }
        assert!(!site.dead_links.is_empty());
    }

    #[test]
    fn pages_spread_over_directories() {
        let site = small();
        assert!(site.pages.iter().any(|p| p.path.starts_with("dir1/")));
        assert!(site.pages.iter().any(|p| p.path.starts_with("dir2/")));
    }

    #[test]
    fn nav_links_rendered_into_html() {
        let site = small();
        let with_links = site.pages.iter().find(|p| !p.links.is_empty()).unwrap();
        let first = &with_links.links[0];
        assert!(
            with_links.html.contains(&format!("{first}\"")),
            "nav missing {first}"
        );
    }

    #[test]
    fn total_bytes_counts_everything() {
        let site = small();
        assert!(site.total_bytes() > 12 * 512);
    }

    #[test]
    fn assets_cover_every_image_reference() {
        let site = small();
        for page in &site.pages {
            let dir = match page.path.rfind('/') {
                Some(i) => &page.path[..=i],
                None => "",
            };
            let mut rest = page.html.as_str();
            while let Some(idx) = rest.find("SRC=\"") {
                rest = &rest[idx + 5..];
                let end = rest.find('"').unwrap();
                let asset = format!("{dir}{}", &rest[..end]);
                assert!(site.assets.contains(&asset), "{asset} missing");
                rest = &rest[end..];
            }
        }
    }

    #[test]
    fn assets_sorted_and_unique() {
        let site = small();
        for pair in site.assets.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }
}
