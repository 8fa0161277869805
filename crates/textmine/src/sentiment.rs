//! Lexicon-based intent / sentiment scoring.
//!
//! The PSP pipeline needs to distinguish posts that signal a genuine tampering
//! intent or a commercial offer ("kit for sale, plug and play") from neutral news or
//! warnings ("manufacturer warns against defeat devices").  A small domain lexicon
//! is enough for the synthetic corpus and keeps the scoring auditable.
//!
//! Membership tests run against static **sorted** tables (binary search) and
//! the "hashtag embeds an engagement word" rule against a small multi-pattern
//! substring matcher — the per-token costs on the analyzer hot path.  The
//! original linear-scan implementation survives verbatim in
//! [`crate::reference`] as the behavioural oracle; `lexicon_tables_are_sorted`
//! and the `psp-suite` property tests pin the two together.

use serde::{Deserialize, Serialize};

/// Words signalling that the author performed, wants or sells the attack
/// (ascending, for binary search).
const ENGAGEMENT_WORDS: [&str; 22] = [
    "bypass",
    "delete",
    "deleted",
    "disable",
    "disabled",
    "dm",
    "done",
    "emulator",
    "guide",
    "howto",
    "install",
    "installed",
    "kit",
    "off",
    "remap",
    "removal",
    "removed",
    "sale",
    "shipped",
    "tune",
    "tuned",
    "unlock",
];

/// Words signalling deterrence, warnings or enforcement (reduce the intent
/// score; ascending, for binary search).
const DETERRENT_WORDS: [&str; 12] = [
    "ban",
    "banned",
    "enforcement",
    "fine",
    "fined",
    "illegal",
    "inspection",
    "prosecuted",
    "recall",
    "refused",
    "warning",
    "warranty",
];

/// Words signalling a commercial offer (price talk boosts market relevance;
/// ascending, for binary search).
const COMMERCE_WORDS: [&str; 10] = [
    "buy", "deal", "eur", "euro", "invoice", "offer", "order", "price", "sale", "shipped",
];

/// The engagement words eligible for the embedded-substring rule (length >= 3),
/// grouped by first byte: `EMBED_BY_FIRST[b - b'a']` lists the patterns
/// starting with lowercase letter `b`.  [`embeds_engagement_word`] scans a
/// token once and only probes the patterns whose first byte matches — a
/// poor-man's Aho–Corasick sized for a 21-pattern lexicon.
const EMBED_BY_FIRST: [&[&str]; 26] = [
    &[],                                                   // a
    &["bypass"],                                           // b
    &[],                                                   // c
    &["delete", "deleted", "disable", "disabled", "done"], // d
    &["emulator"],                                         // e
    &[],                                                   // f
    &["guide"],                                            // g
    &["howto"],                                            // h
    &["install", "installed"],                             // i
    &[],                                                   // j
    &["kit"],                                              // k
    &[],                                                   // l
    &[],                                                   // m
    &[],                                                   // n
    &["off"],                                              // o
    &[],                                                   // p
    &[],                                                   // q
    &["remap", "removal", "removed"],                      // r
    &["sale", "shipped"],                                  // s
    &["tune", "tuned"],                                    // t
    &["unlock"],                                           // u
    &[],                                                   // v
    &[],                                                   // w
    &[],                                                   // x
    &[],                                                   // y
    &[],                                                   // z
];

/// Whether the (sigil-stripped) token is an engagement word — the per-table
/// oracle the merged-table test checks [`token_flags`] against.
#[cfg(test)]
fn is_engagement_word(bare: &str) -> bool {
    ENGAGEMENT_WORDS.binary_search(&bare).is_ok()
}

/// Whether the (sigil-stripped) token is a deterrent word.
#[cfg(test)]
fn is_deterrent_word(bare: &str) -> bool {
    DETERRENT_WORDS.binary_search(&bare).is_ok()
}

/// Whether the (sigil-stripped) token is a commerce word.
#[cfg(test)]
fn is_commerce_word(bare: &str) -> bool {
    COMMERCE_WORDS.binary_search(&bare).is_ok()
}

/// [`token_flags`] bit: the token is a stop word.
pub(crate) const TOKEN_STOP: u8 = 1;
/// [`token_flags`] bit: the token is an engagement word.
pub(crate) const TOKEN_ENGAGEMENT: u8 = 2;
/// [`token_flags`] bit: the token is a deterrent word.
pub(crate) const TOKEN_DETERRENT: u8 = 4;
/// [`token_flags`] bit: the token is a commerce word.
pub(crate) const TOKEN_COMMERCE: u8 = 8;

/// The merged word table: stop words and all three lexica in one sorted
/// array, so the analyzer hot path answers "stop word? engagement? deterrent?
/// commerce?" with a **single** binary search per token.  Built once from the
/// canonical tables (which stay the source of truth).
fn merged_word_table() -> &'static [(&'static str, u8)] {
    static TABLE: std::sync::OnceLock<Vec<(&'static str, u8)>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table: Vec<(&'static str, u8)> = Vec::with_capacity(
            crate::stopwords::STOPWORDS.len()
                + ENGAGEMENT_WORDS.len()
                + DETERRENT_WORDS.len()
                + COMMERCE_WORDS.len(),
        );
        let mut add =
            |word: &'static str, flag: u8| match table.iter_mut().find(|(w, _)| *w == word) {
                Some((_, flags)) => *flags |= flag,
                None => table.push((word, flag)),
            };
        for w in crate::stopwords::STOPWORDS {
            add(w, TOKEN_STOP);
        }
        for w in ENGAGEMENT_WORDS {
            add(w, TOKEN_ENGAGEMENT);
        }
        for w in DETERRENT_WORDS {
            add(w, TOKEN_DETERRENT);
        }
        for w in COMMERCE_WORDS {
            add(w, TOKEN_COMMERCE);
        }
        table.sort_unstable_by_key(|(w, _)| *w);
        table
    })
}

/// The classification bits of one word — 0 when it is neither a stop word nor
/// in any lexicon.
#[must_use]
pub(crate) fn token_flags(word: &str) -> u8 {
    let table = merged_word_table();
    match table.binary_search_by(|(w, _)| (*w).cmp(word)) {
        Ok(i) => table[i].1,
        Err(_) => 0,
    }
}

/// Bit mask over `1 << (letter - b'a')` of the first letters of the embed
/// patterns — a one-AND prefilter before touching [`EMBED_BY_FIRST`].
const EMBED_FIRST_LETTERS: u32 = {
    let mut mask = 0_u32;
    let mut i = 0;
    while i < EMBED_BY_FIRST.len() {
        if !EMBED_BY_FIRST[i].is_empty() {
            mask |= 1 << i;
        }
        i += 1;
    }
    mask
};

/// Whether the token *strictly* embeds an engagement word of length >= 3 —
/// the "#dpfdelete embeds delete" rule.  A match covering the whole token is
/// excluded (that is plain membership, counted separately).  Byte-level
/// matching is exact for these ASCII patterns: in UTF-8 an ASCII byte never
/// occurs inside a multi-byte sequence, so byte containment equals substring
/// containment.
#[must_use]
pub(crate) fn embeds_engagement_word(bare: &str) -> bool {
    let bytes = bare.as_bytes();
    for start in 0..bytes.len() {
        let b = bytes[start];
        if !b.is_ascii_lowercase() || EMBED_FIRST_LETTERS & (1 << (b - b'a')) == 0 {
            continue;
        }
        for pattern in EMBED_BY_FIRST[(b - b'a') as usize] {
            let p = pattern.as_bytes();
            if bytes.len() - start >= p.len()
                && &bytes[start..start + p.len()] == p
                && !(start == 0 && p.len() == bytes.len())
            {
                return true;
            }
        }
    }
    false
}

/// The intent lexicon with adjustable weights.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntentLexicon {
    /// Weight of each engagement word hit.
    pub engagement_weight: f64,
    /// Weight (negative contribution) of each deterrent word hit.
    pub deterrent_weight: f64,
    /// Weight of each commerce word hit.
    pub commerce_weight: f64,
}

impl Default for IntentLexicon {
    fn default() -> Self {
        Self {
            engagement_weight: 1.0,
            deterrent_weight: 0.8,
            commerce_weight: 0.5,
        }
    }
}

/// The scored breakdown of one text.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IntentScore {
    /// Number of engagement-word hits.
    pub engagement_hits: usize,
    /// Number of deterrent-word hits.
    pub deterrent_hits: usize,
    /// Number of commerce-word hits.
    pub commerce_hits: usize,
    /// The combined score (≥ 0, higher = stronger tampering/commercial intent).
    pub score: f64,
}

impl IntentLexicon {
    /// Folds one (stop-word-filtered, sigil-stripped) token into the hit
    /// counters, given its merged-table flags (the analyzer resolves them
    /// while deciding stop-word filtering, so membership is paid exactly once
    /// per token).
    pub(crate) fn count_flags(flags: u8, bare: &str, out: &mut IntentScore) {
        if flags & TOKEN_ENGAGEMENT != 0 {
            out.engagement_hits += 1;
        }
        if flags & TOKEN_DETERRENT != 0 {
            out.deterrent_hits += 1;
        }
        if flags & TOKEN_COMMERCE != 0 {
            out.commerce_hits += 1;
        }
        // Hashtags embedding an engagement word ("#dpfdelete") count as well.
        if bare.len() > 3 && embeds_engagement_word(bare) {
            out.engagement_hits += 1;
        }
    }

    /// Combines the accumulated hit counters into the final weighted score.
    pub(crate) fn finish(&self, out: &mut IntentScore) {
        let raw = self.engagement_weight * out.engagement_hits as f64
            + self.commerce_weight * out.commerce_hits as f64
            - self.deterrent_weight * out.deterrent_hits as f64;
        out.score = raw.max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::TextPipeline;
    use crate::stopwords::STOPWORDS;

    /// Scores a text through the single-pass analyzer.
    fn score(lexicon: IntentLexicon, text: &str) -> IntentScore {
        TextPipeline::with_lexicon(lexicon).analyze(text).intent
    }

    #[test]
    fn sale_post_scores_higher_than_news_post() {
        let lex = IntentLexicon::default();
        let sale = score(
            lex,
            "DPF delete kit for sale, 360 EUR shipped, install guide included",
        );
        let news = score(
            lex,
            "Authorities warn that defeat devices are illegal and owners get fined",
        );
        assert!(sale.score > news.score);
        assert!(sale.engagement_hits >= 2);
        assert!(news.deterrent_hits >= 2);
    }

    #[test]
    fn hashtag_with_embedded_intent_counts() {
        let s = score(
            IntentLexicon::default(),
            "finally #dpfdelete on the excavator",
        );
        assert!(s.engagement_hits >= 1);
        assert!(s.score > 0.0);
    }

    #[test]
    fn score_never_goes_negative() {
        let s = score(
            IntentLexicon::default(),
            "illegal banned fined recall warning",
        );
        assert_eq!(s.score, 0.0);
    }

    #[test]
    fn empty_text_scores_zero() {
        let s = score(IntentLexicon::default(), "");
        assert_eq!(s.score, 0.0);
        assert_eq!(s.engagement_hits, 0);
    }

    #[test]
    fn custom_weights_change_the_balance() {
        let strict = IntentLexicon {
            deterrent_weight: 10.0,
            ..IntentLexicon::default()
        };
        let text = "delete kit for sale but it is illegal";
        assert!(score(strict, text).score < score(IntentLexicon::default(), text).score);
    }

    #[test]
    fn commerce_words_contribute() {
        let s = score(
            IntentLexicon::default(),
            "best price, buy now, 200 eur offer",
        );
        assert!(s.commerce_hits >= 3);
        assert!(s.score > 0.0);
    }

    #[test]
    fn lexicon_tables_are_sorted() {
        // Strictly ascending — the precondition binary search relies on.
        for table in [
            &ENGAGEMENT_WORDS[..],
            &DETERRENT_WORDS[..],
            &COMMERCE_WORDS[..],
        ] {
            assert!(
                table.windows(2).all(|w| w[0] < w[1]),
                "lexicon table not strictly ascending: {table:?}"
            );
        }
    }

    #[test]
    fn embed_groups_cover_exactly_the_long_engagement_words() {
        // Every engagement word of length >= 3 appears in its first-letter
        // group, nothing else does, and each group is correctly bucketed.
        let mut grouped: Vec<&str> = Vec::new();
        for (i, group) in EMBED_BY_FIRST.iter().enumerate() {
            for pattern in *group {
                assert_eq!(pattern.as_bytes()[0], b'a' + i as u8, "{pattern}");
                grouped.push(pattern);
            }
        }
        grouped.sort_unstable();
        let mut expected: Vec<&str> = ENGAGEMENT_WORDS
            .iter()
            .copied()
            .filter(|w| w.len() >= 3)
            .collect();
        expected.sort_unstable();
        assert_eq!(grouped, expected);
    }

    #[test]
    fn merged_table_agrees_with_the_source_tables() {
        let table = merged_word_table();
        assert!(
            table.windows(2).all(|w| w[0].0 < w[1].0),
            "merged table must be strictly ascending"
        );
        let all: Vec<&str> = STOPWORDS
            .iter()
            .chain(&ENGAGEMENT_WORDS)
            .chain(&DETERRENT_WORDS)
            .chain(&COMMERCE_WORDS)
            .copied()
            .chain(["dpf", "#dpfdelete", "", "zzz"])
            .collect();
        for word in all {
            let flags = token_flags(word);
            assert_eq!(flags & TOKEN_STOP != 0, STOPWORDS.contains(&word), "{word}");
            assert_eq!(
                flags & TOKEN_ENGAGEMENT != 0,
                is_engagement_word(word),
                "{word}"
            );
            assert_eq!(
                flags & TOKEN_DETERRENT != 0,
                is_deterrent_word(word),
                "{word}"
            );
            assert_eq!(
                flags & TOKEN_COMMERCE != 0,
                is_commerce_word(word),
                "{word}"
            );
        }
    }

    #[test]
    fn embed_matcher_agrees_with_the_naive_contains_rule() {
        for bare in [
            "dpfdelete",
            "egroff",
            "delete",
            "deleted",
            "offoff",
            "xxkitxx",
            "quarry",
            "installations",
            "ban",
            "ölwechsel",
            "dm",
            "dmdm",
            "#notbare",
            "tunedin",
        ] {
            let naive = ENGAGEMENT_WORDS
                .iter()
                .any(|w| w.len() >= 3 && bare.contains(w) && bare != *w);
            assert_eq!(embeds_engagement_word(bare), naive, "{bare}");
        }
    }
}
