//! A small English stop-word list tuned for social-media text.

/// Common English stop words plus social-media filler.  The analyzer folds
/// them into the merged word table of [`crate::sentiment`], so one binary
/// search per token answers stop-word and lexicon membership together.
pub const STOPWORDS: [&str; 64] = [
    "a", "an", "the", "and", "or", "but", "if", "then", "else", "for", "of", "on", "in", "at",
    "to", "from", "by", "with", "without", "about", "as", "is", "are", "was", "were", "be", "been",
    "being", "am", "do", "does", "did", "have", "has", "had", "will", "would", "can", "could",
    "should", "shall", "may", "might", "must", "this", "that", "these", "those", "it", "its", "my",
    "your", "his", "her", "our", "their", "me", "you", "he", "she", "we", "they", "just", "now",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::TextPipeline;

    #[test]
    fn common_words_are_stopwords() {
        for w in ["the", "and", "is", "with"] {
            assert!(STOPWORDS.contains(&w), "{w}");
        }
    }

    #[test]
    fn domain_words_are_not_stopwords() {
        for w in ["dpf", "delete", "tuning", "obd"] {
            assert!(!STOPWORDS.contains(&w), "{w}");
        }
    }

    #[test]
    fn removal_preserves_order() {
        let tokens = TextPipeline::new().analyze("the dpf is gone").tokens;
        assert_eq!(tokens, vec!["dpf", "gone"]);
    }

    #[test]
    fn stopword_list_has_no_duplicates() {
        let set: std::collections::HashSet<_> = STOPWORDS.iter().collect();
        assert_eq!(set.len(), STOPWORDS.len());
    }
}
