//! Hashtag / keyword co-occurrence mining.
//!
//! The PSP auto-learning step (paper Figure 7, block 5) grows the keyword-attack
//! database: hashtags that repeatedly co-occur with already known attack hashtags
//! are promoted to new keywords for the next run.  This module provides the
//! co-occurrence statistics that drive that promotion.

use std::collections::{BTreeMap, BTreeSet};

/// A symmetric co-occurrence matrix over terms observed per document.
#[derive(Debug, Default)]
pub struct CooccurrenceMatrix {
    counts: BTreeMap<(String, String), usize>,
}

impl CooccurrenceMatrix {
    /// Creates an empty matrix.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one document given the distinct terms it contains.
    pub fn add_document<I, S>(&mut self, terms: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let set: BTreeSet<String> = terms.into_iter().map(Into::into).collect();
        let list: Vec<&String> = set.iter().collect();
        for i in 0..list.len() {
            for j in (i + 1)..list.len() {
                let key = ordered_pair(list[i], list[j]);
                *self.counts.entry(key).or_insert(0) += 1;
            }
        }
    }

    /// Terms that co-occur with any of the `seeds` in at least `min_support`
    /// documents, excluding the seeds themselves, sorted by descending support.
    /// This is the PSP keyword-learning primitive.
    #[must_use]
    pub fn related_terms(&self, seeds: &[String], min_support: usize) -> Vec<(String, usize)> {
        let seed_set: BTreeSet<&String> = seeds.iter().collect();
        let mut support: BTreeMap<String, usize> = BTreeMap::new();
        for ((a, b), count) in &self.counts {
            let (seed_hit, other) = if seed_set.contains(a) && !seed_set.contains(b) {
                (true, b)
            } else if seed_set.contains(b) && !seed_set.contains(a) {
                (true, a)
            } else {
                (false, a)
            };
            if seed_hit {
                *support.entry(other.clone()).or_insert(0) += count;
            }
        }
        let mut out: Vec<(String, usize)> = support
            .into_iter()
            .filter(|(_, count)| *count >= min_support)
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

fn ordered_pair(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> CooccurrenceMatrix {
        let mut m = CooccurrenceMatrix::new();
        m.add_document(["dpfdelete", "egrdelete", "excavator"]);
        m.add_document(["dpfdelete", "dpfoff", "excavator"]);
        m.add_document(["dpfdelete", "dpfoff"]);
        m.add_document(["chiptuning", "stage1"]);
        m
    }

    fn support(m: &CooccurrenceMatrix, seed: &str, term: &str) -> usize {
        m.related_terms(&[seed.to_string()], 1)
            .into_iter()
            .find(|(t, _)| t == term)
            .map_or(0, |(_, n)| n)
    }

    #[test]
    fn cooccurrence_is_symmetric() {
        let m = sample_matrix();
        assert_eq!(support(&m, "dpfdelete", "dpfoff"), 2);
        assert_eq!(support(&m, "dpfoff", "dpfdelete"), 2);
        assert_eq!(support(&m, "dpfdelete", "chiptuning"), 0);
    }

    #[test]
    fn related_terms_learns_new_hashtags_from_seeds() {
        let m = sample_matrix();
        let seeds = vec!["dpfdelete".to_string()];
        let related = m.related_terms(&seeds, 2);
        let names: Vec<_> = related.iter().map(|(t, _)| t.as_str()).collect();
        assert!(names.contains(&"dpfoff"), "dpfoff co-occurs twice");
        assert!(names.contains(&"excavator"));
        assert!(!names.contains(&"dpfdelete"), "seeds are excluded");
        assert!(!names.contains(&"chiptuning"), "unrelated tags stay out");
    }

    #[test]
    fn min_support_filters_weak_links() {
        let m = sample_matrix();
        let seeds = vec!["dpfdelete".to_string()];
        let strict = m.related_terms(&seeds, 3);
        assert!(strict.is_empty());
    }

    #[test]
    fn duplicate_terms_in_one_document_count_once() {
        let mut m = CooccurrenceMatrix::new();
        m.add_document(["a", "a", "b"]);
        assert_eq!(
            m.related_terms(&["a".to_string()], 1),
            vec![("b".into(), 1)]
        );
    }
}
