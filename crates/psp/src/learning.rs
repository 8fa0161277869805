//! Keyword auto-learning (paper Figure 7, block 5).
//!
//! "While computing the SAI list, the NLP triggers a component that facilitates an
//! auto-learning strategy to incorporate new keywords into the database for future
//! runs.  This ensures no hashtag deficiencies, which may cause partial and
//! incomplete findings."
//!
//! The implementation mines hashtag co-occurrence: a hashtag that appears together
//! with a known attack hashtag in at least `min_support` posts is promoted into the
//! database, inheriting the scenario, vector and origin of the seed it co-occurred
//! with most often.

use crate::keyword_db::{KeywordDatabase, KeywordProfile};
use socialsim::corpus::Corpus;
use textmine::cooccurrence::CooccurrenceMatrix;

/// The result of one learning pass.
#[derive(Debug)]
pub struct LearningOutcome {
    /// The keywords that were added, with the seed keyword they were learned from.
    pub learned: Vec<(String, String)>,
}

/// Runs one auto-learning pass over the corpus and extends the database in place.
///
/// Generic, clearly non-attack tags (pure filler like `deal` or `sale`) are kept out
/// through a small stop list; everything else is judged purely on co-occurrence
/// support, exactly like the paper's prototype.
pub fn learn_keywords(
    db: &mut KeywordDatabase,
    corpus: &Corpus,
    min_support: usize,
) -> LearningOutcome {
    const TAG_STOPLIST: [&str; 6] = ["deal", "sale", "offer", "fyp", "viral", "follow"];

    let mut matrix = CooccurrenceMatrix::new();
    for post in corpus.iter() {
        let tags: Vec<String> = post
            .hashtags()
            .iter()
            .map(|h| h.as_str().to_string())
            .collect();
        if tags.len() >= 2 {
            matrix.add_document(tags);
        }
    }

    let mut learned = Vec::new();
    let seeds: Vec<KeywordProfile> = db.iter().cloned().collect();
    for seed in &seeds {
        let related = matrix.related_terms(std::slice::from_ref(&seed.keyword), min_support);
        for (candidate, _support) in related {
            if db.contains(&candidate) || TAG_STOPLIST.contains(&candidate.as_str()) {
                continue;
            }
            db.insert(KeywordProfile::learned_from(&candidate, seed));
            learned.push((candidate, seed.keyword.clone()));
        }
    }
    LearningOutcome { learned }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::AttackOrigin;
    use socialsim::engagement::Engagement;
    use socialsim::post::{Post, Region, TargetApplication};
    use socialsim::time::SimDate;
    use socialsim::user::User;
    use vehicle::attack_surface::AttackVector;

    fn post_with_tags(id: u64, text: &str) -> Post {
        Post::new(
            id,
            User::new("u", 100, 24),
            text,
            vec![],
            SimDate::new(2022, 5, 1),
            Region::Europe,
            TargetApplication::Excavator,
            Engagement::new(100, 10, 2, 1),
        )
    }

    fn seeded_db() -> KeywordDatabase {
        let mut db = KeywordDatabase::new();
        db.insert(KeywordProfile::manual(
            "dpfdelete",
            "dpf-tampering",
            AttackVector::Local,
            AttackOrigin::Insider,
        ));
        db
    }

    #[test]
    fn frequently_cooccurring_tags_are_learned() {
        let corpus = Corpus::from_posts(vec![
            post_with_tags(1, "#dpfdelete done with the #flashtool"),
            post_with_tags(2, "#dpfdelete via #flashtool worked"),
            post_with_tags(3, "another #dpfdelete with #flashtool"),
            post_with_tags(4, "#dpfdelete but no other tag here at all"),
        ]);
        let mut db = seeded_db();
        let outcome = learn_keywords(&mut db, &corpus, 3);
        assert_eq!(outcome.learned.len(), 1);
        assert!(db.contains("flashtool"));
        let learned = db.profile("flashtool").unwrap();
        assert!(learned.learned);
        assert_eq!(learned.scenario, "dpf-tampering");
        assert_eq!(learned.vector, AttackVector::Local);
    }

    #[test]
    fn low_support_tags_are_not_learned() {
        let corpus = Corpus::from_posts(vec![
            post_with_tags(1, "#dpfdelete with a #oneoff tag"),
            post_with_tags(2, "#dpfdelete alone"),
        ]);
        let mut db = seeded_db();
        let outcome = learn_keywords(&mut db, &corpus, 3);
        assert_eq!(outcome.learned.len(), 0);
        assert!(!db.contains("oneoff"));
    }

    #[test]
    fn stoplisted_tags_are_ignored() {
        let corpus = Corpus::from_posts(vec![
            post_with_tags(1, "#dpfdelete #sale"),
            post_with_tags(2, "#dpfdelete #sale"),
            post_with_tags(3, "#dpfdelete #sale"),
        ]);
        let mut db = seeded_db();
        learn_keywords(&mut db, &corpus, 2);
        assert!(!db.contains("sale"));
    }

    #[test]
    fn known_keywords_are_not_relearned() {
        let corpus = Corpus::from_posts(vec![
            post_with_tags(1, "#dpfdelete #dpfoff"),
            post_with_tags(2, "#dpfdelete #dpfoff"),
            post_with_tags(3, "#dpfdelete #dpfoff"),
        ]);
        let mut db = seeded_db();
        db.insert(KeywordProfile::manual(
            "dpfoff",
            "dpf-tampering",
            AttackVector::Local,
            AttackOrigin::Insider,
        ));
        let before = db.len();
        let outcome = learn_keywords(&mut db, &corpus, 2);
        assert_eq!(outcome.learned.len(), 0);
        assert_eq!(db.len(), before);
    }

    #[test]
    fn learning_on_the_synthetic_scene_grows_the_database() {
        let corpus = socialsim::scenario::excavator_europe(42);
        let mut db = KeywordDatabase::excavator_seed();
        let before = db.len();
        let outcome = learn_keywords(&mut db, &corpus, 5);
        assert_eq!(db.len(), before + outcome.learned.len());
        // The secondary hashtags of the scene (e.g. "dpfoff" is seeded, but
        // "powerboost" already exists too) may or may not add entries depending on
        // co-occurrence; the invariant is simply consistency between outcome and db.
        let learned = db.iter().filter(|p| p.learned).count();
        assert_eq!(learned, outcome.learned.len());
    }
}
