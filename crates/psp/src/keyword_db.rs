//! The attack-keyword database (paper Figure 7, blocks 3–5).
//!
//! The PSP proof of concept starts from a manually populated list of hashtags
//! (#dpfdelete, #egrremoval, #egrdelete, #egroff, #dieselpower, #chiptuning) and
//! grows it across runs through auto-learning.  Every keyword carries the domain
//! knowledge the SAI and weight-generation stages need: which threat scenario it
//! belongs to, which attack vector the discussed technique uses, and whether the
//! attack is an insider or outsider one.

use crate::classify::AttackOrigin;
use serde::Serialize;
use socialsim::hashtag::Hashtag;
use std::collections::BTreeMap;
use vehicle::attack_surface::AttackVector;

/// The profile attached to one keyword / hashtag.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct KeywordProfile {
    /// The normalised keyword (hashtag without `#`).
    pub keyword: String,
    /// The threat-scenario identifier the keyword provides evidence for
    /// (e.g. `"ecm-reprogramming"`, `"dpf-tampering"`).
    pub scenario: String,
    /// The attack vector of the technique the keyword describes.
    pub vector: AttackVector,
    /// Whether the technique is an insider or outsider attack.
    pub origin: AttackOrigin,
    /// Whether the keyword was learned automatically (as opposed to manually
    /// seeded).
    pub learned: bool,
}

impl KeywordProfile {
    /// Creates a manually seeded profile.
    #[must_use]
    pub fn manual(
        keyword: impl Into<String>,
        scenario: impl Into<String>,
        vector: AttackVector,
        origin: AttackOrigin,
    ) -> Self {
        Self {
            keyword: Hashtag::new(&keyword.into()).as_str().to_string(),
            scenario: scenario.into(),
            vector,
            origin,
            learned: false,
        }
    }

    /// Creates a learned profile (inherits scenario/vector/origin from the seed it
    /// co-occurred with).
    #[must_use]
    pub fn learned_from(keyword: impl Into<String>, seed: &KeywordProfile) -> Self {
        Self {
            keyword: Hashtag::new(&keyword.into()).as_str().to_string(),
            scenario: seed.scenario.clone(),
            vector: seed.vector,
            origin: seed.origin,
            learned: true,
        }
    }
}

/// The keyword database.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct KeywordDatabase {
    entries: BTreeMap<String, KeywordProfile>,
}

impl KeywordDatabase {
    /// Creates an empty database.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The manual seed for the passenger-car scene, covering the ECM-reprogramming
    /// scenario (physical bench route vs local OBD route), the emission-defeat
    /// scenario and two outsider scenarios (relay theft, telematics exploitation).
    #[must_use]
    pub fn passenger_car_seed() -> Self {
        let mut db = Self::new();
        // ECM reprogramming — physical (bench / boot-mode) route.
        for tag in ["benchflash", "bootmode", "ecuclone"] {
            db.insert(KeywordProfile::manual(
                tag,
                "ecm-reprogramming",
                AttackVector::Physical,
                AttackOrigin::Insider,
            ));
        }
        // ECM reprogramming — local (OBD) route.
        for tag in ["chiptuning", "obdtuning", "stage1"] {
            db.insert(KeywordProfile::manual(
                tag,
                "ecm-reprogramming",
                AttackVector::Local,
                AttackOrigin::Insider,
            ));
        }
        // Emission defeat on the after-treatment controller (local via OBD tool).
        for tag in [
            "dpfdelete",
            "egrdelete",
            "egroff",
            "egrremoval",
            "dieselpower",
        ] {
            db.insert(KeywordProfile::manual(
                tag,
                "emission-defeat",
                AttackVector::Local,
                AttackOrigin::Insider,
            ));
        }
        // Outsider scenarios.
        for tag in ["relayattack", "keylesstheft"] {
            db.insert(KeywordProfile::manual(
                tag,
                "vehicle-theft",
                AttackVector::Adjacent,
                AttackOrigin::Outsider,
            ));
        }
        for tag in ["carhacking", "telematicshack"] {
            db.insert(KeywordProfile::manual(
                tag,
                "remote-exploitation",
                AttackVector::Network,
                AttackOrigin::Outsider,
            ));
        }
        db
    }

    /// The manual seed for the excavator scene of the financial case study.
    #[must_use]
    pub fn excavator_seed() -> Self {
        let mut db = Self::new();
        let insider_local: [(&str, &str); 10] = [
            ("dpfdelete", "dpf-tampering"),
            ("dpfoff", "dpf-tampering"),
            ("egrdelete", "egr-tampering"),
            ("egrremoval", "egr-tampering"),
            ("adblueemulator", "scr-emulation"),
            ("scroff", "scr-emulation"),
            ("chiptuning", "power-tuning"),
            ("powerboost", "power-tuning"),
            ("speedlimiteroff", "limiter-removal"),
            ("hourmeterrollback", "hour-meter-fraud"),
        ];
        for (tag, scenario) in insider_local {
            db.insert(KeywordProfile::manual(
                tag,
                scenario,
                AttackVector::Local,
                AttackOrigin::Insider,
            ));
        }
        db
    }

    /// Inserts (or replaces) a profile.
    pub fn insert(&mut self, profile: KeywordProfile) {
        self.entries.insert(profile.keyword.clone(), profile);
    }

    /// Number of keywords.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a keyword (normalised).
    #[must_use]
    pub fn profile(&self, keyword: &str) -> Option<&KeywordProfile> {
        self.entries.get(Hashtag::new(keyword).as_str())
    }

    /// Whether a keyword is present.
    #[must_use]
    pub fn contains(&self, keyword: &str) -> bool {
        self.profile(keyword).is_some()
    }

    /// All profiles in keyword order.
    pub fn iter(&self) -> impl Iterator<Item = &KeywordProfile> {
        self.entries.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passenger_seed_covers_both_reprogramming_routes() {
        let db = KeywordDatabase::passenger_car_seed();
        let ecm: Vec<_> = db
            .iter()
            .filter(|p| p.scenario == "ecm-reprogramming")
            .collect();
        let vectors: std::collections::BTreeSet<_> = ecm.iter().map(|p| p.vector).collect();
        assert!(vectors.contains(&AttackVector::Physical));
        assert!(vectors.contains(&AttackVector::Local));
        assert!(ecm.iter().all(|p| p.origin == AttackOrigin::Insider));
    }

    #[test]
    fn paper_seed_hashtags_are_present() {
        let db = KeywordDatabase::passenger_car_seed();
        for tag in socialsim::scenario::seed_hashtags() {
            assert!(db.contains(tag), "{tag} missing from seed");
        }
    }

    #[test]
    fn lookup_is_normalised() {
        let db = KeywordDatabase::passenger_car_seed();
        assert!(db.contains("#ChipTuning"));
        assert!(db.contains("chiptuning"));
        assert!(!db.contains("notatag"));
    }

    #[test]
    fn excavator_seed_is_all_insider_local() {
        let db = KeywordDatabase::excavator_seed();
        assert!(!db.is_empty());
        for p in db.iter() {
            assert_eq!(p.origin, AttackOrigin::Insider);
            assert_eq!(p.vector, AttackVector::Local);
            assert!(!p.learned);
        }
    }

    #[test]
    fn learned_profiles_inherit_from_seed() {
        let db = KeywordDatabase::passenger_car_seed();
        let seed = db.profile("benchflash").unwrap().clone();
        let learned = KeywordProfile::learned_from("#BdmFlash", &seed);
        assert_eq!(learned.keyword, "bdmflash");
        assert_eq!(learned.scenario, "ecm-reprogramming");
        assert_eq!(learned.vector, AttackVector::Physical);
        assert!(learned.learned);
    }

    #[test]
    fn insert_replaces_and_learned_count_tracks() {
        let mut db = KeywordDatabase::new();
        let seed = KeywordProfile::manual("a", "s", AttackVector::Local, AttackOrigin::Insider);
        db.insert(seed.clone());
        db.insert(KeywordProfile::learned_from("b", &seed));
        assert_eq!(db.len(), 2);
        assert_eq!(db.iter().filter(|p| p.learned).count(), 1);
        db.insert(KeywordProfile::manual(
            "a",
            "s2",
            AttackVector::Physical,
            AttackOrigin::Insider,
        ));
        assert_eq!(db.len(), 2, "re-insert replaces");
        assert_eq!(db.profile("a").unwrap().scenario, "s2");
    }
}
