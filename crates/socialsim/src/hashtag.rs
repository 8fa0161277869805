//! Hashtags and their normalisation.

use serde::{Deserialize, Serialize};

/// A normalised hashtag (lowercase, no leading `#`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Hashtag(String);

impl Hashtag {
    /// Creates a hashtag from raw text: strips a leading `#`, lowercases and drops
    /// non-alphanumeric characters.
    ///
    /// # Examples
    ///
    /// ```
    /// use socialsim::Hashtag;
    /// assert_eq!(Hashtag::new("#DPFDelete").as_str(), "dpfdelete");
    /// assert_eq!(Hashtag::new("egr-removal").as_str(), "egrremoval");
    /// ```
    #[must_use]
    pub fn new(raw: &str) -> Self {
        let normalized: String = raw
            .trim()
            .trim_start_matches('#')
            .chars()
            .filter(|c| c.is_alphanumeric())
            .flat_map(char::to_lowercase)
            .collect();
        Self(normalized)
    }

    /// The normalised tag text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether the tag is empty after normalisation.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<&str> for Hashtag {
    fn from(raw: &str) -> Self {
        Hashtag::new(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_strips_hash_and_case() {
        assert_eq!(Hashtag::new("#ChipTuning").as_str(), "chiptuning");
        assert_eq!(Hashtag::new("  #EGRoff  ").as_str(), "egroff");
    }

    #[test]
    fn non_alphanumeric_removed() {
        assert_eq!(Hashtag::new("#dpf_delete!").as_str(), "dpfdelete");
    }

    #[test]
    fn equal_after_normalisation() {
        assert_eq!(Hashtag::new("#DPFDELETE"), Hashtag::new("dpfdelete"));
    }

    #[test]
    fn empty_input_detected() {
        assert!(Hashtag::new("#!!").is_empty());
        assert!(!Hashtag::new("#x").is_empty());
    }

    #[test]
    fn from_str_conversion() {
        let h: Hashtag = "#EgrRemoval".into();
        assert_eq!(h.as_str(), "egrremoval");
    }
}
