//! Tokenisation.

use crate::normalize::normalize;

/// Splits text into normalised tokens (lowercase words, hashtags with a leading
/// `#`, mentions with a leading `@`, and numbers).
///
/// # Examples
///
/// ```
/// use textmine::tokenize;
/// let tokens = tokenize("Got the #DPFDelete done for 360 EUR!");
/// assert_eq!(tokens, vec!["got", "the", "#dpfdelete", "done", "for", "360", "eur"]);
/// ```
#[must_use]
pub fn tokenize(text: &str) -> Vec<String> {
    normalize(text)
        .split_whitespace()
        .map(|t| t.trim_matches(|c| c == '.' || c == ',').to_string())
        .filter(|t| !t.is_empty() && *t != "#" && *t != "@")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::TextPipeline;

    fn hashtags(text: &str) -> Vec<String> {
        TextPipeline::new().analyze(text).hashtags
    }

    #[test]
    fn splits_on_whitespace_and_punctuation() {
        assert_eq!(
            tokenize("quick, easy install!"),
            vec!["quick", "easy", "install"]
        );
    }

    #[test]
    fn keeps_numbers() {
        assert_eq!(
            tokenize("stage 1 adds 40 hp"),
            vec!["stage", "1", "adds", "40", "hp"]
        );
    }

    #[test]
    fn extracts_hashtags() {
        assert_eq!(
            hashtags("my #DPFdelete and #EGRoff story"),
            vec!["dpfdelete", "egroff"]
        );
    }

    #[test]
    fn bare_hash_is_dropped() {
        assert!(tokenize("# lonely hash").iter().all(|t| t != "#"));
    }

    #[test]
    fn empty_input_gives_no_tokens() {
        assert!(tokenize("").is_empty());
        assert!(hashtags("no tags here").is_empty());
    }

    #[test]
    fn trailing_decimal_commas_are_trimmed() {
        let tokens = tokenize("only 360, what a deal");
        assert!(tokens.contains(&"360".to_string()));
    }
}
