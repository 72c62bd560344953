//! The synthetic query / search-result universe.
//!
//! A [`Universe`] materializes the population behind the m.bing.com logs:
//! search results with power-law click popularity, one or more query
//! strings per result (misspellings like "yotube" and shortcuts like
//! "face" — §4.1 observes 50% more queries than results at the same
//! cumulative volume), a minority of queries with two clicked results
//! (the "michael jackson" pattern of Table 3), and separate navigational
//! and non-navigational sub-populations with very different concentration
//! (Figure 4: the top 5,000 navigational queries carry 90% of navigational
//! volume; the same count of non-navigational queries carries under 30%).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::ids::{PairId, QueryId, ResultId};
use crate::zipf::{TwoSegmentZipf, WeightedIndex};

/// Navigational vs non-navigational queries (§4.1).
///
/// The paper classifies a query as navigational when the query string is a
/// substring of the clicked URL ("youtube" → `www.youtube.com`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryKind {
    /// The query names the destination site.
    Navigational,
    /// Topical queries ("michael jackson").
    NonNavigational,
}

impl QueryKind {
    /// Both kinds, navigational first.
    pub const ALL: [QueryKind; 2] = [QueryKind::Navigational, QueryKind::NonNavigational];

    /// Applies the paper's substring classification rule.
    ///
    /// Spaces are stripped from the query before matching, so
    /// "bank of america" matches `www.bankofamerica.com`.
    pub fn classify(query_text: &str, url: &str) -> QueryKind {
        let needle: String = query_text
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect::<String>()
            .to_ascii_lowercase();
        if !needle.is_empty() && url.to_ascii_lowercase().contains(&needle) {
            QueryKind::Navigational
        } else {
            QueryKind::NonNavigational
        }
    }
}

impl std::fmt::Display for QueryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryKind::Navigational => write!(f, "navigational"),
            QueryKind::NonNavigational => write!(f, "non-navigational"),
        }
    }
}

/// Popularity segment of a search result within its sub-population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Segment {
    /// The community-popular head.
    Head,
    /// The long tail.
    Tail,
}

/// A search result (a clickable URL) in the universe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSpec {
    /// Identifier (index into [`Universe::results`]).
    pub id: ResultId,
    /// The result URL.
    pub url: String,
    /// Which sub-population the result belongs to.
    pub kind: QueryKind,
    /// Popularity segment within its sub-population.
    pub segment: Segment,
}

/// A query string in the universe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuerySpec {
    /// Identifier (index into [`Universe::queries`]).
    pub id: QueryId,
    /// The raw query text a user would type.
    pub text: String,
    /// Classification per the substring rule.
    pub kind: QueryKind,
}

/// A `(query, clicked result)` pair with its click-volume weight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairSpec {
    /// Identifier (index into [`Universe::pairs`]).
    pub id: PairId,
    /// The query of the pair.
    pub query: QueryId,
    /// The clicked search result.
    pub result: ResultId,
    /// Relative click volume (unnormalized).
    pub weight: f64,
    /// Kind inherited from the result's sub-population.
    pub kind: QueryKind,
    /// Popularity segment inherited from the result.
    pub segment: Segment,
}

/// Configuration of a [`Universe`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UniverseConfig {
    /// Number of navigational search results.
    pub nav_results: usize,
    /// Number of non-navigational search results.
    pub nonnav_results: usize,
    /// Share of total click volume that is navigational.
    pub nav_volume_share: f64,
    /// Popularity profile of navigational results (very concentrated).
    pub nav_profile: TwoSegmentZipf,
    /// Popularity profile of non-navigational results (diffuse).
    pub nonnav_profile: TwoSegmentZipf,
    /// Probability that a result has each extra alias query (up to 3).
    pub alias_extra_prob: f64,
    /// Share of a result's volume carried by its alias queries together.
    pub alias_secondary_share: f64,
    /// Probability that a query also clicks a second result.
    pub second_result_prob: f64,
    /// Weight of the second-result pair relative to the primary pair.
    pub second_result_weight: f64,
}

impl UniverseConfig {
    /// Full-scale universe calibrated to the paper's Figure 4 statistics.
    pub fn full_scale() -> Self {
        UniverseConfig {
            nav_results: 8_000,
            nonnav_results: 60_000,
            nav_volume_share: 0.5,
            nav_profile: TwoSegmentZipf {
                head_count: 2_000,
                head_mass: 0.90,
                s_head: 0.9,
                s_tail: 0.45,
            },
            nonnav_profile: TwoSegmentZipf {
                head_count: 2_000,
                head_mass: 0.30,
                s_head: 0.8,
                s_tail: 0.2,
            },
            alias_extra_prob: 0.40,
            alias_secondary_share: 0.35,
            second_result_prob: 0.9,
            second_result_weight: 0.85,
        }
    }

    /// A small universe with the same shape, for fast tests.
    pub fn test_scale() -> Self {
        UniverseConfig {
            nav_results: 400,
            nonnav_results: 3_000,
            nav_volume_share: 0.5,
            nav_profile: TwoSegmentZipf {
                head_count: 100,
                head_mass: 0.90,
                s_head: 0.9,
                s_tail: 0.45,
            },
            nonnav_profile: TwoSegmentZipf {
                head_count: 100,
                head_mass: 0.30,
                s_head: 0.8,
                s_tail: 0.2,
            },
            alias_extra_prob: 0.40,
            alias_secondary_share: 0.35,
            second_result_prob: 0.9,
            second_result_weight: 0.85,
        }
    }

    fn validate(&self) {
        self.nav_profile.validate(self.nav_results);
        self.nonnav_profile.validate(self.nonnav_results);
        assert!(
            (0.0..=1.0).contains(&self.nav_volume_share),
            "nav_volume_share must be within [0, 1]"
        );
        for (name, p) in [
            ("alias_extra_prob", self.alias_extra_prob),
            ("alias_secondary_share", self.alias_secondary_share),
            ("second_result_prob", self.second_result_prob),
            ("second_result_weight", self.second_result_weight),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} must be within [0, 1], got {p}"
            );
        }
    }
}

/// The materialized synthetic population.
///
/// # Example
///
/// ```
/// use querylog::universe::{Universe, UniverseConfig};
///
/// let u = Universe::generate(UniverseConfig::test_scale(), 7);
/// assert_eq!(u.results().len(), 3_400);
/// // Roughly 1.5 query strings per result, like the real logs.
/// let ratio = u.queries().len() as f64 / u.results().len() as f64;
/// assert!((1.3..1.8).contains(&ratio));
/// ```
#[derive(Debug, Clone)]
pub struct Universe {
    config: UniverseConfig,
    results: Vec<ResultSpec>,
    queries: Vec<QuerySpec>,
    pairs: Vec<PairSpec>,
    sampler_all: WeightedIndex,
    segment_samplers: Vec<(QueryKind, Segment, Vec<u32>, WeightedIndex)>,
    pairs_by_query: Vec<Vec<PairId>>,
    pairs_by_result: Vec<Vec<PairId>>,
}

impl Universe {
    /// Deterministically generates a universe from a config and seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`UniverseConfig`]).
    pub fn generate(config: UniverseConfig, seed: u64) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(seed);

        let mut results = Vec::new();
        let mut queries = Vec::new();
        let mut pairs = Vec::new();

        for kind in QueryKind::ALL {
            let (n, profile, share) = match kind {
                QueryKind::Navigational => (
                    config.nav_results,
                    config.nav_profile,
                    config.nav_volume_share,
                ),
                QueryKind::NonNavigational => (
                    config.nonnav_results,
                    config.nonnav_profile,
                    1.0 - config.nav_volume_share,
                ),
            };
            let weights = profile.weights(n);
            for (rank, &w) in weights.iter().enumerate() {
                let result_weight = w * share;
                let segment = if rank < profile.head_count {
                    Segment::Head
                } else {
                    Segment::Tail
                };
                let rid = ResultId::new(results.len() as u32);
                let (url, primary_text) = result_naming(kind, rank);
                results.push(ResultSpec {
                    id: rid,
                    url: url.clone(),
                    kind,
                    segment,
                });

                // Alias queries: the primary plus geometric extras.
                let mut alias_texts = vec![primary_text.clone()];
                while alias_texts.len() < 4 && rng.random::<f64>() < config.alias_extra_prob {
                    alias_texts.push(alias_naming(kind, rank, alias_texts.len()));
                }
                let n_alias = alias_texts.len();
                for (a, text) in alias_texts.into_iter().enumerate() {
                    let qid = QueryId::new(queries.len() as u32);
                    let query_kind = QueryKind::classify(&text, &url);
                    queries.push(QuerySpec {
                        id: qid,
                        text,
                        kind: query_kind,
                    });

                    let alias_weight = if n_alias == 1 {
                        result_weight
                    } else if a == 0 {
                        result_weight * (1.0 - config.alias_secondary_share)
                    } else {
                        result_weight * config.alias_secondary_share / (n_alias - 1) as f64
                    };
                    pairs.push(PairSpec {
                        id: PairId::new(pairs.len() as u32),
                        query: qid,
                        result: rid,
                        weight: alias_weight,
                        kind,
                        segment,
                    });
                }
            }
        }

        // Most queries also click a second result (Table 3's "michael
        // jackson" → imdb *and* azlyrics pattern). The second click lands
        // on a *more popular* result of the same kind — many related
        // queries funnel into the same hot destination, which is why
        // Figure 4 needs fewer results than queries for the same volume.
        let primary_pair_count = pairs.len();
        let nav_block = config.nav_results as u32;
        for i in 0..primary_pair_count {
            if rng.random::<f64>() >= config.second_result_prob {
                continue;
            }
            let base = pairs[i].clone();
            let block_start = if base.kind == QueryKind::Navigational {
                0
            } else {
                nav_block
            };
            let rank = base.result.index() - block_start;
            let other = ResultId::new(block_start + rank / 4);
            if other == base.result {
                continue;
            }
            pairs.push(PairSpec {
                id: PairId::new(pairs.len() as u32),
                query: base.query,
                result: other,
                weight: base.weight * config.second_result_weight,
                kind: base.kind,
                segment: results[other.as_usize()].segment,
            });
        }

        let mut pairs_by_query: Vec<Vec<PairId>> = vec![Vec::new(); queries.len()];
        let mut pairs_by_result: Vec<Vec<PairId>> = vec![Vec::new(); results.len()];
        for p in &pairs {
            pairs_by_query[p.query.as_usize()].push(p.id);
            pairs_by_result[p.result.as_usize()].push(p.id);
        }

        let sampler_all = WeightedIndex::new(pairs.iter().map(|p| p.weight).collect());
        let mut segment_samplers = Vec::new();
        for kind in QueryKind::ALL {
            for segment in [Segment::Head, Segment::Tail] {
                let idx: Vec<u32> = pairs
                    .iter()
                    .filter(|p| p.kind == kind && p.segment == segment)
                    .map(|p| p.id.index())
                    .collect();
                let weights: Vec<f64> = idx.iter().map(|&i| pairs[i as usize].weight).collect();
                segment_samplers.push((kind, segment, idx, WeightedIndex::new(weights)));
            }
        }

        Universe {
            config,
            results,
            queries,
            pairs,
            sampler_all,
            segment_samplers,
            pairs_by_query,
            pairs_by_result,
        }
    }

    /// The configuration this universe was generated from.
    pub fn config(&self) -> &UniverseConfig {
        &self.config
    }

    /// All search results.
    pub fn results(&self) -> &[ResultSpec] {
        &self.results
    }

    /// All query strings.
    pub fn queries(&self) -> &[QuerySpec] {
        &self.queries
    }

    /// All `(query, result)` pairs.
    pub fn pairs(&self) -> &[PairSpec] {
        &self.pairs
    }

    /// Looks up one pair.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this universe.
    pub fn pair(&self, id: PairId) -> &PairSpec {
        &self.pairs[id.as_usize()]
    }

    /// Looks up one query.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this universe.
    pub fn query(&self, id: QueryId) -> &QuerySpec {
        &self.queries[id.as_usize()]
    }

    /// Looks up one result.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this universe.
    pub fn result(&self, id: ResultId) -> &ResultSpec {
        &self.results[id.as_usize()]
    }

    /// Samples a pair from the global click-volume distribution.
    pub fn sample_pair<R: Rng + ?Sized>(&self, rng: &mut R) -> PairId {
        PairId::new(self.sampler_all.sample(rng) as u32)
    }

    /// Samples a pair restricted to one `(kind, segment)` cell.
    pub fn sample_pair_in<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        kind: QueryKind,
        segment: Segment,
    ) -> PairId {
        // All four (kind, segment) cells are materialized at
        // generation; sampling the whole universe is the graceful
        // fallback should that invariant ever regress.
        match self
            .segment_samplers
            .iter()
            .find(|(k, s, _, _)| *k == kind && *s == segment)
        {
            Some((_, _, idx, sampler)) => PairId::new(idx[sampler.sample(rng)]),
            None => self.sample_pair(rng),
        }
    }

    /// The pairs sharing a query (its clicked results), in generation
    /// order — the primary result first.
    ///
    /// # Panics
    ///
    /// Panics if `query` is out of range for this universe.
    pub fn query_pairs(&self, query: QueryId) -> &[PairId] {
        &self.pairs_by_query[query.as_usize()]
    }

    /// The pairs that click a given result — its primary query plus the
    /// misspellings and shortcuts that reach it (§4.1: "a popular webpage
    /// is, in general, reached through multiple search queries").
    ///
    /// # Panics
    ///
    /// Panics if `result` is out of range for this universe.
    pub fn result_pairs(&self, result: ResultId) -> &[PairId] {
        &self.pairs_by_result[result.as_usize()]
    }

    /// The total length of [`record_text`]'s three strings for this
    /// result, computed from the URL without building them.
    pub fn record_len(&self, id: ResultId) -> usize {
        let url = &self.result(id).url;
        TITLE_PREFIX.len() + url.len() + TITLE_SUFFIX.len() + display_url(url).len() + SNIPPET_BYTES
    }
}

/// Deterministic search-result page content for a result URL: the
/// title, the human-readable display URL, and a short landing-page
/// snippet. Together they average the ~500 bytes per result of §5.2.2.
pub fn record_text(url: &str) -> (String, String, String) {
    let title = format!("{TITLE_PREFIX}{url}{TITLE_SUFFIX}");
    let display = display_url(url).to_owned();
    let mut snippet = format!("{url}{SNIPPET_LEAD}");
    // Pad deterministically to the ~400-byte snippet the paper's
    // database stores alongside each result.
    while snippet.len() < SNIPPET_BYTES {
        snippet.push_str(SNIPPET_FILLER);
    }
    snippet.truncate(SNIPPET_BYTES);
    (title, display, snippet)
}

/// A record title is the URL between these two.
const TITLE_PREFIX: &str = "Result ";
const TITLE_SUFFIX: &str = " — official site";
/// A snippet opens with the URL and this lead, then repeats the filler
/// and is cut to exactly [`SNIPPET_BYTES`].
const SNIPPET_LEAD: &str = " is the destination users reach for this query. ";
const SNIPPET_FILLER: &str = "Popular mobile destination with fast pages and concise results. ";
const SNIPPET_BYTES: usize = 400;

/// The human-readable form of a result URL: every leading `www.` cut.
fn display_url(url: &str) -> &str {
    url.trim_start_matches("www.")
}

fn result_naming(kind: QueryKind, rank: usize) -> (String, String) {
    match kind {
        QueryKind::Navigational => {
            let token = format!("site{rank:05}");
            (format!("www.{token}.com"), token)
        }
        QueryKind::NonNavigational => (
            format!("www.pages{rank:05}.org/article"),
            format!("topic {rank:05} info"),
        ),
    }
}

fn alias_naming(kind: QueryKind, rank: usize, alias: usize) -> String {
    match kind {
        // Shortcut aliases stay substrings of the URL ("face" ⊂
        // facebook.com), so they still classify navigational. Each alias
        // keeps the rank digits so query strings stay globally unique.
        QueryKind::Navigational => match alias {
            1 => format!("{rank:05}"),
            2 => format!("te{rank:05}"),
            _ => format!("ite{rank:05}"),
        },
        // Misspellings / rephrasings of topical queries.
        QueryKind::NonNavigational => format!("topic {rank:05} alt{alias}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_universe() -> Universe {
        Universe::generate(UniverseConfig::test_scale(), 11)
    }

    /// Fraction of total click volume carried by head-segment pairs.
    fn head_volume_share(u: &Universe) -> f64 {
        let head: f64 = u
            .pairs
            .iter()
            .filter(|p| p.segment == Segment::Head)
            .map(|p| p.weight)
            .sum();
        head / u.sampler_all.total()
    }

    #[test]
    fn classification_follows_the_substring_rule() {
        assert_eq!(
            QueryKind::classify("youtube", "www.youtube.com"),
            QueryKind::Navigational
        );
        assert_eq!(
            QueryKind::classify("bank of america", "www.bankofamerica.com"),
            QueryKind::Navigational
        );
        assert_eq!(
            QueryKind::classify("michael jackson", "www.imdb.com/name/nm0001391"),
            QueryKind::NonNavigational
        );
        assert_eq!(
            QueryKind::classify("", "www.example.com"),
            QueryKind::NonNavigational
        );
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = Universe::generate(UniverseConfig::test_scale(), 5);
        let b = Universe::generate(UniverseConfig::test_scale(), 5);
        assert_eq!(a.pairs().len(), b.pairs().len());
        assert_eq!(a.queries()[10].text, b.queries()[10].text);
        let c = Universe::generate(UniverseConfig::test_scale(), 6);
        assert_ne!(a.pairs().len(), c.pairs().len());
    }

    #[test]
    fn alias_queries_inflate_query_count_by_about_half() {
        // §4.1: 6,000 queries vs 4,000 results at the same volume — about
        // 1.5 query strings per result.
        let u = test_universe();
        let ratio = u.queries().len() as f64 / u.results().len() as f64;
        assert!((1.4..1.8).contains(&ratio), "ratio was {ratio}");
    }

    #[test]
    fn navigational_aliases_remain_navigational() {
        let u = test_universe();
        for pair in u.pairs() {
            let q = u.query(pair.query);
            let r = u.result(pair.result);
            if pair.kind == QueryKind::Navigational && pair.result == r.id && q.kind != pair.kind {
                // Aliases of navigational results must still pass the
                // substring rule against their own result.
                panic!(
                    "navigational alias {:?} classified non-nav for {}",
                    q.text, r.url
                );
            }
        }
    }

    #[test]
    fn head_volume_share_is_near_60_percent() {
        // 0.5 * 0.9 (nav head) + 0.5 * 0.3 (non-nav head) = 0.6, the
        // Figure 4 headline. Second-result pairs shift it slightly.
        let share = head_volume_share(&test_universe());
        assert!((0.55..0.65).contains(&share), "head share was {share}");
    }

    #[test]
    fn sampling_respects_head_mass() {
        let u = test_universe();
        let mut rng = StdRng::seed_from_u64(3);
        let mut head = 0;
        let n = 20_000;
        for _ in 0..n {
            let p = u.pair(u.sample_pair(&mut rng));
            if p.segment == Segment::Head {
                head += 1;
            }
        }
        let observed = head as f64 / n as f64;
        let expected = head_volume_share(&u);
        assert!(
            (observed - expected).abs() < 0.02,
            "observed head rate {observed} vs expected {expected}"
        );
    }

    #[test]
    fn segment_sampling_stays_in_its_cell() {
        let u = test_universe();
        let mut rng = StdRng::seed_from_u64(9);
        for kind in QueryKind::ALL {
            for segment in [Segment::Head, Segment::Tail] {
                for _ in 0..200 {
                    let p = u.pair(u.sample_pair_in(&mut rng, kind, segment));
                    assert_eq!(p.kind, kind);
                    assert_eq!(p.segment, segment);
                }
            }
        }
    }

    #[test]
    fn some_queries_click_two_results() {
        let u = test_universe();
        let mut per_query = std::collections::HashMap::new();
        for p in u.pairs() {
            *per_query.entry(p.query).or_insert(0usize) += 1;
        }
        let multi = per_query.values().filter(|&&c| c >= 2).count();
        let frac = multi as f64 / per_query.len() as f64;
        // §5.2.1 designs hash entries around two results per query, so the
        // vast majority of queries click a second result at least sometimes.
        assert!(
            (0.75..0.95).contains(&frac),
            "fraction of multi-result queries was {frac}"
        );
    }

    #[test]
    fn record_text_is_deterministic_and_right_sized() {
        let u = test_universe();
        let url = &u.result(ResultId::new(5)).url;
        let (t1, d1, s1) = record_text(url);
        let (t2, _, s2) = record_text(url);
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 400);
        assert!(!d1.starts_with("www."));
        let total = t1.len() + d1.len() + s1.len();
        assert!((420..600).contains(&total), "record text was {total} bytes");
    }

    #[test]
    fn record_len_is_the_length_of_every_record_text() {
        let u = test_universe();
        for i in 0..u.results().len() {
            let id = ResultId::new(i as u32);
            let (title, display, snippet) = record_text(&u.result(id).url);
            assert_eq!(
                u.record_len(id),
                title.len() + display.len() + snippet.len(),
                "result {i}"
            );
        }
    }

    #[test]
    fn navigational_population_is_more_concentrated() {
        let u = test_universe();
        // Compare the share carried by each kind's head *within* the kind.
        let share_of = |kind: QueryKind| {
            let total: f64 = u
                .pairs()
                .iter()
                .filter(|p| p.kind == kind)
                .map(|p| p.weight)
                .sum();
            let head: f64 = u
                .pairs()
                .iter()
                .filter(|p| p.kind == kind && p.segment == Segment::Head)
                .map(|p| p.weight)
                .sum();
            head / total
        };
        let nav = share_of(QueryKind::Navigational);
        let nonnav = share_of(QueryKind::NonNavigational);
        assert!(nav > 0.8, "nav head share {nav}");
        assert!(nonnav < 0.45, "non-nav head share {nonnav}");
    }
}
