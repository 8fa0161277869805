//! The combined document-analysis pipeline.
//!
//! One call per post: tokenise, strip stop words, score intent, extract hashtags and
//! prices.  The PSP SAI computation consumes [`DocumentAnalysis`] records instead of
//! re-running the individual steps.
//!
//! # Single-pass analysis
//!
//! The seed implementation ran **four** independent passes per document —
//! tokens, hashtags, prices, intent — each re-normalising the text into a
//! fresh lowercased `String`, materialising a `Vec<String>` of tokens, and
//! scanning the lexicon arrays linearly per token.  [`TextPipeline::analyze`]
//! now makes **one** fused pass over the raw characters that simultaneously
//!
//! * builds the normalised text as a [`Cow`] (staying **borrowed** while the
//!   input is already in normal form — see
//!   [`crate::normalize::normalize_cow`]),
//! * records the trimmed, filtered token boundaries as byte spans into the
//!   normalised text (no per-token `String`), and
//! * records the raw-text price-token spans (whitespace splits with `€`/`$`/`£`
//!   as standalone tokens) for the currency-adjacency scan.
//!
//! Stop-word filtering, intent scoring (sorted tables + the embedded-substring
//! matcher, [`crate::sentiment`]) and hashtag extraction then consume the
//! borrowed spans in one walk; price parsing folds the raw spans without
//! re-tokenising.  [`TextPipeline::signals`] is the engine-facing entry point
//! that skips materialising token/hashtag strings entirely.
//!
//! The original multi-pass implementation is frozen in [`crate::reference`];
//! the `psp-suite` property tests pin the two **bit-identical** on arbitrary
//! inputs, and [`TextPipeline::reference`] builds a pipeline that dispatches
//! to it (the oracle/baseline mode used by tests and the `text_pipeline`
//! bench).

use crate::price;
use crate::sentiment;
use crate::sentiment::{IntentLexicon, IntentScore};
use std::borrow::Cow;

/// The result of analysing one document.
#[derive(Debug, PartialEq)]
pub struct DocumentAnalysis {
    /// Content tokens after stop-word removal.
    pub tokens: Vec<String>,
    /// Hashtags (without `#`).
    pub hashtags: Vec<String>,
    /// Prices found in the text.
    pub prices: Vec<f64>,
    /// The intent score.
    pub intent: IntentScore,
}

/// The lean per-document output the scoring engines consume: intent and mined
/// prices only — no token or hashtag strings are materialised on this path.
#[derive(Debug)]
pub struct TextSignals {
    /// The intent score.
    pub intent: IntentScore,
    /// Prices found in the text, in extraction order.
    pub prices: Vec<f64>,
}

/// The reusable pipeline (owns the lexicon configuration).
#[derive(Debug, Clone, Default)]
pub struct TextPipeline {
    lexicon: IntentLexicon,
    /// Dispatch to the frozen multi-pass implementation in
    /// [`crate::reference`] instead of the single-pass scan.
    reference: bool,
}

impl TextPipeline {
    /// Creates a pipeline with the default lexicon.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a pipeline with a custom lexicon.
    #[must_use]
    pub fn with_lexicon(lexicon: IntentLexicon) -> Self {
        Self {
            lexicon,
            reference: false,
        }
    }

    /// Creates a pipeline (default lexicon) that runs the frozen **multi-pass
    /// reference implementation** ([`crate::reference`]) instead of the
    /// single-pass scan.  Property tests pin both modes bit-identical; the
    /// `text_pipeline` bench uses this mode as its seed baseline.
    #[must_use]
    pub fn reference() -> Self {
        Self {
            lexicon: IntentLexicon::default(),
            reference: true,
        }
    }

    /// The lexicon this pipeline scores with.
    #[must_use]
    pub fn lexicon(&self) -> &IntentLexicon {
        &self.lexicon
    }

    /// Analyses one document.
    #[must_use]
    pub fn analyze(&self, text: &str) -> DocumentAnalysis {
        if self.reference {
            return crate::reference::analyze(&self.lexicon, text);
        }
        let mut intent = IntentScore::default();
        let mut tokens = Vec::new();
        let mut hashtags = Vec::new();
        let scan = scan(text, |token| {
            if fold_token(token, &mut intent) {
                tokens.push(token.to_string());
                if let Some(tag) = token.strip_prefix('#') {
                    if !tag.is_empty() {
                        hashtags.push(tag.to_string());
                    }
                }
            }
        });
        self.lexicon.finish(&mut intent);
        DocumentAnalysis {
            tokens,
            hashtags,
            prices: price::prices_from_spans(text, &scan.price_tokens),
            intent,
        }
    }

    /// Analyses one document for the scoring hot path: same single pass as
    /// [`analyze`](Self::analyze), but token and hashtag strings are never
    /// materialised — only the intent score and the mined prices come back.
    #[must_use]
    pub fn signals(&self, text: &str) -> TextSignals {
        if self.reference {
            let analysis = crate::reference::analyze(&self.lexicon, text);
            return TextSignals {
                intent: analysis.intent,
                prices: analysis.prices,
            };
        }
        let mut intent = IntentScore::default();
        let scan = scan(text, |token| {
            fold_token(token, &mut intent);
        });
        self.lexicon.finish(&mut intent);
        TextSignals {
            intent,
            prices: price::prices_from_spans(text, &scan.price_tokens),
        }
    }
}

/// One token's share of the analysis: a single merged-table probe answers
/// stop-word filtering and lexicon membership together, then the embed rule
/// runs on the sigil-stripped form.  Returns whether the token survives
/// stop-word removal.
fn fold_token(token: &str, intent: &mut IntentScore) -> bool {
    if token.starts_with(['#', '@']) {
        // Sigil tokens are never stop words (stop words carry no sigil), and
        // the lexicon sees them without their leading sigils.
        let bare = token.trim_start_matches(['#', '@']);
        IntentLexicon::count_flags(sentiment::token_flags(bare), bare, intent);
        true
    } else {
        let flags = sentiment::token_flags(token);
        if flags & sentiment::TOKEN_STOP != 0 {
            return false;
        }
        IntentLexicon::count_flags(flags, token, intent);
        true
    }
}

/// The borrowed result of the fused scan: the normalised text and the
/// raw-text price-token spans.  The normalised tokens themselves are streamed
/// to the scan's callback as they close — no span list is materialised.
struct DocScan<'t> {
    /// Consumed only by the equivalence tests
    /// (`scan_normalisation_matches_normalize`); production callers take the
    /// streamed tokens and the price spans.
    #[cfg_attr(not(test), allow(dead_code))]
    normalized: Cow<'t, str>,
    /// Byte ranges into the **raw** text (see
    /// [`price::price_token_spans`] for the splitting rules).
    price_tokens: Vec<price::Span>,
}

/// Copy-on-divergence: returns the owned output buffer, materialising it from
/// the (still identical) input prefix on first use.
fn materialize<'a>(owned: &'a mut Option<String>, text: &str, out_len: usize) -> &'a mut String {
    owned.get_or_insert_with(|| {
        let mut buf = String::with_capacity(text.len());
        buf.push_str(&text[..out_len]);
        buf
    })
}

/// Trims `.`/`,` from both ends of the closing token and hands it to the
/// callback unless nothing (or only a bare `#`/`@` sigil) is left — the
/// streaming equivalent of `trim_matches` + the tokenizer's filter.
fn emit_token(output: &str, start: usize, end: usize, on_token: &mut impl FnMut(&str)) {
    let bytes = output.as_bytes();
    let (mut s, mut e) = (start, end);
    while s < e && matches!(bytes[s], b'.' | b',') {
        s += 1;
    }
    while e > s && matches!(bytes[e - 1], b'.' | b',') {
        e -= 1;
    }
    if s == e || (e - s == 1 && matches!(bytes[s], b'#' | b'@')) {
        return;
    }
    on_token(&output[s..e]);
}

/// The fused single pass over the raw characters: normalisation (with the
/// borrowed fast path), the normalised token stream and the raw price-token
/// spans all come out of one traversal.  Mirrors
/// [`crate::normalize::normalize`] and [`price::price_token_spans`] exactly —
/// the `psp-suite` property tests hold the three together.
fn scan(text: &str, mut on_token: impl FnMut(&str)) -> DocScan<'_> {
    // Normalisation state.
    let mut owned: Option<String> = None; // `Some` once the output diverges from the input
    let mut out_len = 0_usize; // output bytes so far (== input offset while borrowed)
    let mut last_was_space = true;
    let mut prev_is_digit = false;
    // Normalised-token state.
    let mut tok_start: Option<usize> = None;
    // Raw price-token state.
    let mut price_tokens: Vec<price::Span> = Vec::new();
    let mut price_tokenizer = price::PriceTokenizer::new();

    for (i, c) in text.char_indices() {
        // --- price tokenisation over the raw text -------------------------
        price_tokenizer.feed(text, i, c, &mut price_tokens);

        // --- normalisation + token spans ----------------------------------
        let is_word = if c.is_ascii() {
            c.is_ascii_alphanumeric() || c == '#' || c == '@'
        } else {
            c.is_alphanumeric()
        };
        if is_word {
            if tok_start.is_none() {
                tok_start = Some(out_len);
            }
            if c.is_ascii() {
                // ASCII fast path: lowercasing is a single-byte map, no
                // Unicode table walk, no `ToLowercase` iterator.
                let lower = c.to_ascii_lowercase();
                if owned.is_none() && lower == c {
                    out_len += 1;
                } else {
                    let buf = materialize(&mut owned, text, out_len);
                    buf.push(lower);
                    out_len = buf.len();
                }
                prev_is_digit = c.is_ascii_digit();
            } else {
                // The output stays byte-identical to the input only while
                // lowercasing maps each character to itself.
                let identity = {
                    let mut lower = c.to_lowercase();
                    lower.next() == Some(c) && lower.next().is_none()
                };
                if owned.is_none() && identity {
                    out_len += c.len_utf8();
                } else {
                    let buf = materialize(&mut owned, text, out_len);
                    for lc in c.to_lowercase() {
                        buf.push(lc);
                    }
                    out_len = buf.len();
                }
                // No non-ASCII character lowercases into an ASCII digit.
                prev_is_digit = false;
            }
            last_was_space = false;
        } else if c == '.' || c == ',' {
            if prev_is_digit {
                // Kept as a decimal separator — token content.
                match &mut owned {
                    None => out_len += 1,
                    Some(buf) => {
                        buf.push(c);
                        out_len = buf.len();
                    }
                }
                prev_is_digit = false;
                last_was_space = false;
            } else if !last_was_space {
                // Collapses into a separator space (diverges from the input).
                if let Some(s) = tok_start.take() {
                    emit_token(owned.as_deref().unwrap_or(text), s, out_len, &mut on_token);
                }
                let buf = materialize(&mut owned, text, out_len);
                buf.push(' ');
                out_len = buf.len();
                prev_is_digit = false;
                last_was_space = true;
            } else {
                // Dropped outright (diverges from the input).
                materialize(&mut owned, text, out_len);
            }
        } else if !last_was_space {
            // First separator after a token: emit one space.
            if let Some(s) = tok_start.take() {
                emit_token(owned.as_deref().unwrap_or(text), s, out_len, &mut on_token);
            }
            if owned.is_none() && c == ' ' {
                out_len += 1;
            } else {
                let buf = materialize(&mut owned, text, out_len);
                buf.push(' ');
                out_len = buf.len();
            }
            prev_is_digit = false;
            last_was_space = true;
        } else if owned.is_none() {
            // A dropped separator (leading or repeated) diverges from the input.
            materialize(&mut owned, text, out_len);
        }
    }

    price_tokenizer.finish(text, &mut price_tokens);
    if let Some(s) = tok_start.take() {
        emit_token(owned.as_deref().unwrap_or(text), s, out_len, &mut on_token);
    }
    let normalized = match owned {
        Some(mut buf) => {
            // At most one trailing space can survive (separators collapse).
            if buf.ends_with(' ') {
                buf.pop();
            }
            Cow::Owned(buf)
        }
        None => {
            let end = if last_was_space && out_len > 0 {
                out_len - 1
            } else {
                out_len
            };
            Cow::Borrowed(&text[..end])
        }
    };
    DocScan {
        normalized,
        price_tokens,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use crate::reference;

    #[test]
    fn full_analysis_of_a_sale_post() {
        let pipeline = TextPipeline::new();
        let a =
            pipeline.analyze("#DPFDelete kit for sale, 360 EUR shipped, install guide included");
        assert!(a.hashtags.contains(&"dpfdelete".to_string()));
        assert_eq!(a.prices, vec![360.0]);
        assert!(a.intent.score > 0.0);
        assert!(a.intent.commerce_hits > 0);
    }

    #[test]
    fn neutral_post_is_not_commercial() {
        let a = TextPipeline::new().analyze("Nice weather at the quarry today");
        assert!(a.prices.is_empty());
        assert_eq!(a.intent.commerce_hits, 0);
        assert!(a.hashtags.is_empty());
    }

    #[test]
    fn stopwords_removed_from_tokens() {
        let a = TextPipeline::new().analyze("the delete is done");
        assert!(!a.tokens.contains(&"the".to_string()));
        assert!(a.tokens.contains(&"delete".to_string()));
    }

    #[test]
    fn custom_lexicon_is_honoured() {
        let harsh = IntentLexicon {
            engagement_weight: 0.0,
            commerce_weight: 0.0,
            deterrent_weight: 1.0,
        };
        let a = TextPipeline::with_lexicon(harsh).analyze("delete kit for sale");
        assert_eq!(a.intent.score, 0.0);
    }

    #[test]
    fn empty_document() {
        let a = TextPipeline::new().analyze("");
        assert!(a.tokens.is_empty());
        assert!(a.hashtags.is_empty());
        assert!(a.prices.is_empty());
        assert_eq!(a.intent.score, 0.0);
    }

    #[test]
    fn scan_normalisation_matches_normalize() {
        for text in [
            "",
            "   \t ",
            "#DPFDelete kit for sale, 360 EUR shipped!",
            "price: 1.299,50 EUR",
            "ÖLWECHSEL wegen Ölverlust!!!",
            "a  b   c ",
            " leading and trailing ",
            "#  @ ## .. ,,",
            "1 .5 and 1.5 and 360,",
            "e\u{301}gr combining",
        ] {
            assert_eq!(
                scan(text, |_| {}).normalized.as_ref(),
                normalize(text),
                "{text:?}"
            );
        }
    }

    #[test]
    fn scan_borrows_for_already_normal_input() {
        let mut tokens = Vec::new();
        let scan = scan("#dpfdelete kit 360 eur shipped", |t| {
            tokens.push(t.to_string())
        });
        assert!(matches!(scan.normalized, Cow::Borrowed(_)));
        assert_eq!(tokens, vec!["#dpfdelete", "kit", "360", "eur", "shipped"]);
    }

    #[test]
    fn single_pass_matches_reference_on_tricky_inputs() {
        let pipeline = TextPipeline::new();
        for text in [
            "#DPFDelete kit for sale, 360 EUR shipped, install guide included",
            "was €420, now $399 or 1.299,00 EUR!!",
            "# lonely hash and @ lonely at and ##double",
            "the delete is done, just now",
            "ÖLWECHSEL statt #EGRoff — 250 euros",
            "stage 1 adds 40 hp at 3500 rpm",
            "#@ weird \u{1F600} emoji 5€",
            "360, what a deal ,360, really",
        ] {
            assert_eq!(
                pipeline.analyze(text),
                reference::analyze(pipeline.lexicon(), text),
                "{text:?}"
            );
        }
    }

    #[test]
    fn signals_agree_with_analyze() {
        let pipeline = TextPipeline::new();
        for text in [
            "#DPFDelete kit for sale, 360 EUR shipped",
            "Nice weather at the quarry today",
            "",
        ] {
            let full = pipeline.analyze(text);
            let lean = pipeline.signals(text);
            assert_eq!(lean.intent, full.intent, "{text:?}");
            assert_eq!(lean.prices, full.prices, "{text:?}");
        }
    }

    #[test]
    fn reference_mode_dispatches_to_the_frozen_implementation() {
        let fast = TextPipeline::new();
        let slow = TextPipeline::reference();
        assert!(slow.reference);
        assert!(!fast.reference);
        let text = "#DPFDelete kit for sale, 360 EUR shipped";
        assert_eq!(fast.analyze(text), slow.analyze(text));
        assert_eq!(
            format!("{:?}", fast.signals(text)),
            format!("{:?}", slow.signals(text))
        );
    }
}
