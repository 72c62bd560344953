//! The smartphone-browser substring cache (§8).
//!
//! High-end browsers suggest previously visited sites by matching the
//! partially typed query against URLs in the browser cache. The paper
//! notes this "only works for a portion of the navigational queries":
//! the query string must literally occur inside a *previously visited*
//! URL, so topical queries ("michael jackson") and first visits never
//! hit, and misspellings miss too.

use crate::{CacheRequest, QueryCache};

/// A substring-matching cache over the user's visited URLs.
#[derive(Debug, Clone, Default)]
pub struct BrowserSubstringCache {
    visited: Vec<String>,
}

impl BrowserSubstringCache {
    /// An empty history.
    pub fn new() -> Self {
        BrowserSubstringCache::default()
    }

    fn normalize(text: &str) -> String {
        text.chars()
            .filter(|c| !c.is_whitespace())
            .collect::<String>()
            .to_ascii_lowercase()
    }

    /// Whether the typed query matches any visited URL.
    pub fn matches(&self, query_text: &str) -> bool {
        let needle = Self::normalize(query_text);
        !needle.is_empty() && self.visited.iter().any(|url| url.contains(&needle))
    }
}

impl QueryCache for BrowserSubstringCache {
    fn lookup(&mut self, request: &CacheRequest<'_>) -> bool {
        self.matches(request.query_text)
    }

    fn record_click(&mut self, request: &CacheRequest<'_>) {
        let url = Self::normalize(request.url);
        if !self.visited.contains(&url) {
            self.visited.push(url);
        }
    }

    fn name(&self) -> &'static str {
        "browser-substring"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(query: &'static str, url: &'static str) -> CacheRequest<'static> {
        CacheRequest {
            query_hash: 0,
            result_hash: 0,
            query_text: query,
            url,
        }
    }

    #[test]
    fn serves_only_revisited_navigational_queries() {
        let mut c = BrowserSubstringCache::new();
        let youtube = req("youtube", "www.youtube.com");
        assert!(!c.lookup(&youtube), "first visit is a miss");
        c.record_click(&youtube);
        assert!(c.lookup(&youtube), "revisit matches the history");
    }

    #[test]
    fn topical_queries_never_hit() {
        let mut c = BrowserSubstringCache::new();
        let mj = req("michael jackson", "www.imdb.com/name/nm0001391");
        c.record_click(&mj);
        assert!(!c.lookup(&mj), "the query text is not inside the URL");
    }

    #[test]
    fn misspellings_miss() {
        let mut c = BrowserSubstringCache::new();
        c.record_click(&req("youtube", "www.youtube.com"));
        assert!(!c.lookup(&req("yotube", "www.youtube.com")));
    }

    #[test]
    fn prefix_shortcuts_hit() {
        let mut c = BrowserSubstringCache::new();
        c.record_click(&req("facebook", "www.facebook.com"));
        assert!(c.lookup(&req("face", "www.facebook.com")));
    }

    #[test]
    fn spaces_are_ignored_when_matching() {
        let mut c = BrowserSubstringCache::new();
        c.record_click(&req("bank of america", "www.bankofamerica.com"));
        assert!(c.lookup(&req("bank of america", "www.bankofamerica.com")));
    }

    #[test]
    fn history_deduplicates() {
        let mut c = BrowserSubstringCache::new();
        for _ in 0..5 {
            c.record_click(&req("youtube", "www.youtube.com"));
        }
        assert_eq!(c.visited.len(), 1);
    }

    #[test]
    fn empty_query_never_matches() {
        let mut c = BrowserSubstringCache::new();
        c.record_click(&req("youtube", "www.youtube.com"));
        assert!(!c.lookup(&req("", "www.youtube.com")));
    }
}
