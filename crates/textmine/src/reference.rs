//! The retained multi-pass reference implementation of the document analyzer.
//!
//! This module is a **frozen, self-contained copy** of the pre-optimisation
//! text pipeline: four independent passes (tokens, hashtags, prices, intent),
//! each re-normalising and re-tokenising the text, with linear scans over the
//! unsorted lexicon and stop-word arrays.  It exists for exactly two jobs:
//!
//! * **oracle** — the `psp-suite` property tests pin the single-pass analyzer
//!   ([`crate::pipeline::TextPipeline::analyze`]) bit-identical to
//!   [`analyze`] on arbitrary unicode/punctuation/hashtag-heavy inputs;
//! * **baseline** — the `text_pipeline` bench measures the single-pass
//!   speedup against this implementation (what the seed shipped).
//!
//! Do not "fix" or optimise anything here; behavioural changes belong in the
//! live modules, with this copy updated only when the *intended* semantics
//! change.

use crate::pipeline::DocumentAnalysis;
use crate::sentiment::{IntentLexicon, IntentScore};

/// The frozen engagement lexicon, in its original (unsorted) order.
const ENGAGEMENT_WORDS: [&str; 22] = [
    "delete",
    "deleted",
    "removal",
    "removed",
    "off",
    "disable",
    "disabled",
    "bypass",
    "install",
    "installed",
    "kit",
    "sale",
    "shipped",
    "dm",
    "guide",
    "howto",
    "done",
    "tune",
    "tuned",
    "remap",
    "emulator",
    "unlock",
];

/// The frozen deterrent lexicon, in its original (unsorted) order.
const DETERRENT_WORDS: [&str; 12] = [
    "illegal",
    "fine",
    "fined",
    "ban",
    "banned",
    "warranty",
    "refused",
    "recall",
    "warning",
    "enforcement",
    "prosecuted",
    "inspection",
];

/// The frozen commerce lexicon, in its original (unsorted) order.
const COMMERCE_WORDS: [&str; 10] = [
    "eur", "euro", "price", "sale", "shipped", "offer", "deal", "buy", "order", "invoice",
];

/// The frozen stop-word list, in its original order.
const STOPWORDS: [&str; 64] = [
    "a", "an", "the", "and", "or", "but", "if", "then", "else", "for", "of", "on", "in", "at",
    "to", "from", "by", "with", "without", "about", "as", "is", "are", "was", "were", "be", "been",
    "being", "am", "do", "does", "did", "have", "has", "had", "will", "would", "can", "could",
    "should", "shall", "may", "might", "must", "this", "that", "these", "those", "it", "its", "my",
    "your", "his", "her", "our", "their", "me", "you", "he", "she", "we", "they", "just", "now",
];

/// The multi-pass reference analysis: four independent passes over the text,
/// exactly as the seed pipeline ran them.
#[must_use]
pub fn analyze(lexicon: &IntentLexicon, text: &str) -> DocumentAnalysis {
    DocumentAnalysis {
        tokens: remove_stopwords(&tokenize(text)),
        hashtags: hashtags(text),
        prices: extract_prices(text),
        intent: score(lexicon, text),
    }
}

/// The frozen allocating normalisation pass.
#[must_use]
pub fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut last_was_space = true;
    for c in text.chars() {
        if c.is_alphanumeric() || c == '#' || c == '@' {
            for lc in c.to_lowercase() {
                out.push(lc);
            }
            last_was_space = false;
        } else if c == '.' || c == ',' {
            // Keep decimal separators that sit between digits (prices like 1.299,00).
            let prev_digit = out.chars().last().is_some_and(|p| p.is_ascii_digit());
            if prev_digit {
                out.push(c);
                last_was_space = false;
                continue;
            }
            if !last_was_space {
                out.push(' ');
                last_was_space = true;
            }
        } else if !last_was_space {
            out.push(' ');
            last_was_space = true;
        }
    }
    out.trim().to_string()
}

/// The frozen tokenizer: normalise, split, trim, filter — one owned `String`
/// per token.
#[must_use]
pub fn tokenize(text: &str) -> Vec<String> {
    normalize(text)
        .split_whitespace()
        .map(|t| t.trim_matches(|c| c == '.' || c == ',').to_string())
        .filter(|t| !t.is_empty() && *t != "#" && *t != "@")
        .collect()
}

/// The frozen hashtag pass (a full re-tokenisation).
#[must_use]
pub fn hashtags(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter_map(|t| t.strip_prefix('#').map(str::to_string))
        .filter(|t| !t.is_empty())
        .collect()
}

/// The frozen stop-word filter: a linear scan per token.
#[must_use]
pub fn remove_stopwords(tokens: &[String]) -> Vec<String> {
    tokens
        .iter()
        .filter(|t| !STOPWORDS.contains(&t.as_str()))
        .cloned()
        .collect()
}

/// The frozen intent scorer: yet another tokenisation, then linear lexicon
/// scans and a `contains` loop per token for the embedded-substring rule.
#[must_use]
pub fn score(lexicon: &IntentLexicon, text: &str) -> IntentScore {
    let tokens = remove_stopwords(&tokenize(text));
    let mut out = IntentScore::default();
    for token in &tokens {
        let bare = token.trim_start_matches(['#', '@']);
        if ENGAGEMENT_WORDS.contains(&bare) {
            out.engagement_hits += 1;
        }
        if DETERRENT_WORDS.contains(&bare) {
            out.deterrent_hits += 1;
        }
        if COMMERCE_WORDS.contains(&bare) {
            out.commerce_hits += 1;
        }
        // Hashtags embedding an engagement word ("#dpfdelete") count as well.
        if bare.len() > 3
            && ENGAGEMENT_WORDS
                .iter()
                .any(|w| w.len() >= 3 && bare.contains(w) && &bare != w)
        {
            out.engagement_hits += 1;
        }
    }
    let raw = lexicon.engagement_weight * out.engagement_hits as f64
        + lexicon.commerce_weight * out.commerce_hits as f64
        - lexicon.deterrent_weight * out.deterrent_hits as f64;
    out.score = raw.max(0.0);
    out
}

/// The frozen price pass: pad currency symbols into a fresh `String`, split,
/// trim each token into another `String`, then the adjacency scan.
#[must_use]
pub fn extract_prices(text: &str) -> Vec<f64> {
    let cleaned: String = text
        .chars()
        .map(|c| {
            if c == '€' || c == '$' || c == '£' {
                // Pad currency symbols so "€420" splits into two tokens.
                format!(" {c} ")
            } else {
                c.to_string()
            }
        })
        .collect();
    let tokens: Vec<String> = cleaned
        .split_whitespace()
        .map(|t| {
            t.trim_matches(|c: char| c == ',' || c == '.' || c == '!' || c == '?' || c == ':')
                .to_string()
        })
        .filter(|t| !t.is_empty())
        .collect();

    let mut out = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        let Some(value) = parse_number(token) else {
            continue;
        };
        let prev_is_currency = i > 0 && is_currency(&tokens[i - 1]);
        let next_is_currency = i + 1 < tokens.len() && is_currency(&tokens[i + 1]);
        if prev_is_currency || next_is_currency {
            out.push(value);
        }
    }
    out
}

fn is_currency(token: &str) -> bool {
    matches!(
        token.to_lowercase().as_str(),
        "eur" | "euro" | "euros" | "€" | "$" | "usd" | "£" | "gbp"
    )
}

fn parse_number(token: &str) -> Option<f64> {
    let normalized = token.replace(',', ".");
    // Reject tokens with letters ("40hp").
    if normalized.chars().any(|c| c.is_alphabetic()) {
        return None;
    }
    // Collapse thousands separators like "1.299.00" -> treat the last dot as decimal.
    let parts: Vec<&str> = normalized.split('.').collect();
    let candidate = if parts.len() > 2 {
        format!(
            "{}.{}",
            parts[..parts.len() - 1].concat(),
            parts[parts.len() - 1]
        )
    } else {
        normalized
    };
    candidate
        .parse::<f64>()
        .ok()
        .filter(|v| *v > 0.0 && *v < 1_000_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_the_historic_behaviour() {
        let a = analyze(
            &IntentLexicon::default(),
            "#DPFDelete kit for sale, 360 EUR shipped, install guide included",
        );
        assert!(a.hashtags.contains(&"dpfdelete".to_string()));
        assert_eq!(a.prices, vec![360.0]);
        assert!(a.intent.score > 0.0);
        assert!(a.intent.commerce_hits > 0);
    }

    #[test]
    fn frozen_tables_keep_their_original_sizes() {
        assert_eq!(ENGAGEMENT_WORDS.len(), 22);
        assert_eq!(DETERRENT_WORDS.len(), 12);
        assert_eq!(COMMERCE_WORDS.len(), 10);
        assert_eq!(STOPWORDS.len(), 64);
    }

    #[test]
    fn reference_passes_agree_with_the_live_utility_functions() {
        // The utility entry points (`crate::tokenize`, `crate::normalize`,
        // `crate::price::extract_prices`) changed implementation, not
        // behaviour — spot-check them against the frozen copies.
        for text in [
            "Got the #DPFDelete done for 360 EUR!",
            "price: 1.299,50 EUR",
            "ÖLWECHSEL wegen Ölverlust",
            "",
        ] {
            assert_eq!(
                crate::normalize::normalize(text),
                normalize(text),
                "{text:?}"
            );
            assert_eq!(crate::token::tokenize(text), tokenize(text), "{text:?}");
            assert_eq!(
                crate::price::extract_prices(text),
                extract_prices(text),
                "{text:?}"
            );
        }
    }
}
