//! A deliberately small URL type — enough for 1998-era site checking.

use std::fmt;

/// A parsed absolute URL (`http://host/path`) or a relative reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    /// Scheme (`http`, `ftp`, `mailto`, …), lower-case. Empty for relative
    /// references.
    pub scheme: String,
    /// Host, lower-case. Empty for relative references and schemes without
    /// authority (mailto).
    pub host: String,
    /// Path, always beginning with `/` for absolute URLs, with `.` and
    /// `..` segments collapsed. Query and fragment are stripped.
    pub path: String,
}

impl Url {
    /// Parse an absolute URL. Returns `None` when `s` has no scheme.
    pub fn parse(s: &str) -> Option<Url> {
        let (scheme, rest) = split_scheme(s)?;
        if let Some(rest) = rest.strip_prefix("//") {
            // The authority ends where the path, query or fragment begins.
            let (host, path) = rest.split_at(rest.find(['/', '?', '#']).unwrap_or(rest.len()));
            Some(Url {
                scheme: scheme.to_ascii_lowercase(),
                host: host.to_ascii_lowercase(),
                path: normalize_path(strip_suffixes(path)),
            })
        } else {
            // mailto:user@host and friends: no authority.
            Some(Url {
                scheme: scheme.to_ascii_lowercase(),
                host: String::new(),
                path: strip_suffixes(rest).to_string(),
            })
        }
    }

    /// Resolve a reference against this URL, RFC-1808-style (simplified:
    /// same-scheme absolute paths and relative paths; queries and fragments
    /// are stripped).
    pub fn join(&self, reference: &str) -> Url {
        if let Some(url) = Url::parse(reference) {
            return url;
        }
        let reference = strip_suffixes(reference);
        let path = if reference.starts_with('/') {
            normalize_path(reference)
        } else {
            let base_dir = match self.path.rfind('/') {
                Some(i) => &self.path[..=i],
                None => "/",
            };
            normalize_path(&format!("{base_dir}{reference}"))
        };
        Url {
            scheme: self.scheme.clone(),
            host: self.host.clone(),
            path,
        }
    }

    /// True when the two URLs are on the same host (and scheme).
    pub fn same_site(&self, other: &Url) -> bool {
        self.scheme == other.scheme && self.host == other.host
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.host.is_empty() {
            write!(f, "{}:{}", self.scheme, self.path)
        } else {
            write!(f, "{}://{}{}", self.scheme, self.host, self.path)
        }
    }
}

/// Split `scheme:rest`; the scheme must be alphabetic with `+-.` allowed.
fn split_scheme(s: &str) -> Option<(&str, &str)> {
    let colon = s.find(':')?;
    let scheme = &s[..colon];
    if scheme.is_empty() {
        return None;
    }
    let mut chars = scheme.chars();
    let first = chars.next()?;
    if !first.is_ascii_alphabetic() {
        return None;
    }
    if !chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.')) {
        return None;
    }
    Some((scheme, &s[colon + 1..]))
}

/// Drop `?query` and `#fragment`.
fn strip_suffixes(s: &str) -> &str {
    let end = s.find(['?', '#']).unwrap_or(s.len());
    &s[..end]
}

/// Collapse `.` and `..` segments. `..` above the root is clamped.
pub(crate) fn normalize_path(path: &str) -> String {
    let trailing_slash = path.ends_with('/');
    let mut segments: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                segments.pop();
            }
            other => segments.push(other),
        }
    }
    let mut out = String::from("/");
    out.push_str(&segments.join("/"));
    if trailing_slash && out.len() > 1 {
        out.push('/');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_http() {
        let u = Url::parse("http://www.cre.canon.co.uk/~neilb/weblint/").unwrap();
        assert_eq!(u.scheme, "http");
        assert_eq!(u.host, "www.cre.canon.co.uk");
        assert_eq!(u.path, "/~neilb/weblint/");
    }

    #[test]
    fn parse_normalizes_case_and_strips_query() {
        let u = Url::parse("HTTP://Example.ORG/a?b=c#d").unwrap();
        assert_eq!(u.scheme, "http");
        assert_eq!(u.host, "example.org");
        assert_eq!(u.path, "/a");
    }

    #[test]
    fn parse_host_only() {
        let u = Url::parse("http://example.org").unwrap();
        assert_eq!(u.path, "/");
    }

    #[test]
    fn parse_ends_the_host_at_a_query_or_fragment() {
        for s in ["http://demo?x=1", "http://demo#top", "http://demo?x=/y#z"] {
            let u = Url::parse(s).unwrap();
            assert_eq!((u.host.as_str(), u.path.as_str()), ("demo", "/"), "{s}");
            assert_eq!(u.to_string(), "http://demo/", "{s}");
        }
    }

    #[test]
    fn parse_collapses_dot_segments_as_join_does() {
        let u = Url::parse("http://h/a/../b.html").unwrap();
        assert_eq!(u.path, "/b.html");
        assert_eq!(Url::parse("http://h/a/./c/../d/").unwrap().path, "/a/d/");
        let base = Url::parse("http://h/a/x.html").unwrap();
        assert_eq!(base.join("../b.html"), u);
    }

    #[test]
    fn parse_mailto() {
        let u = Url::parse("mailto:neilb@cre.canon.co.uk").unwrap();
        assert_eq!(u.scheme, "mailto");
        assert!(u.host.is_empty());
    }

    #[test]
    fn relative_reference_is_not_absolute() {
        assert_eq!(Url::parse("a.html"), None);
        assert_eq!(Url::parse("../x/y.html"), None);
        assert_eq!(Url::parse("/rooted.html"), None);
        assert_eq!(Url::parse(":nope"), None);
    }

    #[test]
    fn join_relative() {
        let base = Url::parse("http://h/a/b/c.html").unwrap();
        assert_eq!(base.join("d.html").path, "/a/b/d.html");
        assert_eq!(base.join("../d.html").path, "/a/d.html");
        assert_eq!(base.join("../../../d.html").path, "/d.html");
        assert_eq!(base.join("/rooted.html").path, "/rooted.html");
        assert_eq!(base.join("sub/").path, "/a/b/sub/");
        assert_eq!(base.join("x.html#frag").path, "/a/b/x.html");
    }

    #[test]
    fn join_absolute_replaces() {
        let base = Url::parse("http://h/a.html").unwrap();
        let joined = base.join("http://other/x.html");
        assert_eq!(joined.host, "other");
    }

    #[test]
    fn same_site() {
        let a = Url::parse("http://h/x").unwrap();
        let b = Url::parse("http://h/y").unwrap();
        let c = Url::parse("http://other/x").unwrap();
        assert!(a.same_site(&b));
        assert!(!a.same_site(&c));
    }

    #[test]
    fn display_round_trip() {
        let u = Url::parse("http://h/a/b.html").unwrap();
        assert_eq!(u.to_string(), "http://h/a/b.html");
        let m = Url::parse("mailto:x@y").unwrap();
        assert_eq!(m.to_string(), "mailto:x@y");
    }

    #[test]
    fn normalize_edge_cases() {
        assert_eq!(normalize_path("/"), "/");
        assert_eq!(normalize_path("/a/./b"), "/a/b");
        assert_eq!(normalize_path("/a/../../b"), "/b");
        assert_eq!(normalize_path("/a/b/"), "/a/b/");
    }

    use proptest::prelude::*;

    /// Path-ish text: separators, dot segments, names, and the characters
    /// that start a query, a fragment or a port.
    fn pieces() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                3 => Just("/".to_string()),
                1 => Just(".".to_string()),
                1 => Just("..".to_string()),
                3 => "[a-z]{1,3}",
                1 => "[?#:@%=]",
            ],
            0..12,
        )
        .prop_map(|pieces| pieces.concat())
    }

    /// Strings shaped like the hrefs and `url=` values the crawl and the
    /// HTTP front end take in, mixed with arbitrary text.
    fn url_like() -> impl Strategy<Value = String> {
        prop_oneof![
            any::<String>(),
            pieces(),
            pieces().prop_map(|p| format!("http://{p}")),
            pieces().prop_map(|p| format!("HTTP://Demo.Org{p}")),
            pieces().prop_map(|p| format!("mailto:{p}")),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parsed_urls_keep_host_and_path_canonical(s in url_like()) {
            let Some(url) = Url::parse(&s) else { return Ok(()) };
            let base = Url::parse("http://base/dir/page.html").unwrap();
            prop_assert_eq!(base.join(&s), url.clone());
            if url.host.is_empty() {
                return Ok(());
            }
            prop_assert!(!url.host.contains(['/', '?', '#']), "{url:?}");
            prop_assert!(
                url.path.split('/').all(|seg| seg != "." && seg != ".."),
                "{url:?}"
            );
        }

        #[test]
        fn rooted_and_absolute_spellings_agree(
            host in "[a-z0-9.]{1,8}",
            path in pieces().prop_map(|p| format!("/{p}")),
        ) {
            let absolute = Url::parse(&format!("http://{host}{path}")).unwrap();
            let base = Url::parse(&format!("http://{host}/a/b/c.html")).unwrap();
            prop_assert_eq!(base.join(&path), absolute);
        }
    }
}
