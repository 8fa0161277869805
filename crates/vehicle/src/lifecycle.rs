//! The ISO/SAE-21434 development life cycle (paper Figure 2).
//!
//! Figure 2 shows the V-model phases of an ISO/SAE-21434 development and marks the
//! points at which the TARA is (re)processed.  The PSP pitch is precisely that a
//! *dynamic* model makes these re-processing passes cheap and data-driven instead of
//! a manual re-evaluation, so the lifecycle model is exercised by several examples.

/// A phase of the ISO/SAE-21434 development life cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum LifecyclePhase {
    /// Item definition (Clause 9.3).
    ItemDefinition,
    /// Threat analysis and risk assessment (Clause 15).
    Tara,
    /// Cybersecurity goals and concepts (Clauses 9.4 & 9.5).
    GoalsAndConcepts,
    /// System architecture design (Clause 10).
    Design,
    /// Implementation (Clause 10).
    Implementation,
    /// Integration and verification (Clause 10).
    IntegrationVerification,
    /// Functional testing and vulnerability scanning (Clause 11).
    FunctionalTesting,
    /// Fuzz testing (Clause 11).
    FuzzTesting,
    /// Penetration testing (Clause 11).
    PenTesting,
    /// Production readiness and post-development monitoring.
    ProductionReadiness,
}

impl LifecyclePhase {
    /// All phases in chronological (V-model, left-to-right) order as drawn in
    /// paper Figure 2.
    pub const ALL: [LifecyclePhase; 10] = [
        LifecyclePhase::ItemDefinition,
        LifecyclePhase::Tara,
        LifecyclePhase::GoalsAndConcepts,
        LifecyclePhase::Design,
        LifecyclePhase::Implementation,
        LifecyclePhase::IntegrationVerification,
        LifecyclePhase::FunctionalTesting,
        LifecyclePhase::FuzzTesting,
        LifecyclePhase::PenTesting,
        LifecyclePhase::ProductionReadiness,
    ];

    /// The ISO/SAE-21434 clause that governs the phase.
    #[must_use]
    pub fn clause(self) -> &'static str {
        match self {
            LifecyclePhase::ItemDefinition => "Clause 9.3",
            LifecyclePhase::Tara => "Clause 15",
            LifecyclePhase::GoalsAndConcepts => "Clauses 9.4 & 9.5",
            LifecyclePhase::Design
            | LifecyclePhase::Implementation
            | LifecyclePhase::IntegrationVerification => "Clause 10",
            LifecyclePhase::FunctionalTesting
            | LifecyclePhase::FuzzTesting
            | LifecyclePhase::PenTesting => "Clause 11",
            LifecyclePhase::ProductionReadiness => "Clause 13",
        }
    }

    /// Whether Figure 2 marks a TARA re-processing arrow at the end of this phase.
    #[must_use]
    pub fn triggers_tara_reprocessing(self) -> bool {
        matches!(
            self,
            LifecyclePhase::Design
                | LifecyclePhase::IntegrationVerification
                | LifecyclePhase::FunctionalTesting
                | LifecyclePhase::FuzzTesting
                | LifecyclePhase::PenTesting
        )
    }

    /// A human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LifecyclePhase::ItemDefinition => "Item Definitions",
            LifecyclePhase::Tara => "TARA",
            LifecyclePhase::GoalsAndConcepts => "Goals & Concepts",
            LifecyclePhase::Design => "Design",
            LifecyclePhase::Implementation => "Implementation",
            LifecyclePhase::IntegrationVerification => "Integration & Verification",
            LifecyclePhase::FunctionalTesting => "Functional testing & Vulnerability Scanning",
            LifecyclePhase::FuzzTesting => "Fuzz testing",
            LifecyclePhase::PenTesting => "Pen Testing",
            LifecyclePhase::ProductionReadiness => "Production Readiness",
        }
    }
}

/// A development life cycle instance that tracks which phase the project is in and
/// how many TARA (re)processing passes have been performed.
#[derive(Debug, Default)]
pub struct DevelopmentLifecycle {
    current: usize,
    tara_passes: u32,
}

impl DevelopmentLifecycle {
    /// Starts a new life cycle at the item-definition phase.
    #[must_use]
    pub fn new() -> Self {
        Self {
            current: 0,
            tara_passes: 0,
        }
    }

    /// The current phase.
    #[must_use]
    pub fn current_phase(&self) -> LifecyclePhase {
        LifecyclePhase::ALL[self.current]
    }

    /// Advances to the next phase, counting TARA passes: entering the TARA phase or
    /// leaving any phase that triggers re-processing increments the counter.
    /// Returns the new phase, or `None` once the life cycle is complete.
    pub fn advance(&mut self) -> Option<LifecyclePhase> {
        let leaving = self.current_phase();
        if leaving.triggers_tara_reprocessing() {
            self.tara_passes += 1;
        }
        if self.current + 1 >= LifecyclePhase::ALL.len() {
            self.current = LifecyclePhase::ALL.len() - 1;
            return None;
        }
        self.current += 1;
        let entering = self.current_phase();
        if entering == LifecyclePhase::Tara {
            self.tara_passes += 1;
        }
        Some(entering)
    }

    /// Runs the whole life cycle to completion and returns the total number of TARA
    /// passes — six in the paper's Figure 2 (one initial, five re-processing).
    #[must_use]
    pub fn run_to_completion(mut self) -> u32 {
        while self.advance().is_some() {}
        self.tara_passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_in_order_and_unique() {
        let set: std::collections::HashSet<_> = LifecyclePhase::ALL
            .iter()
            .map(|p| format!("{p:?}"))
            .collect();
        assert_eq!(set.len(), LifecyclePhase::ALL.len());
        assert_eq!(LifecyclePhase::ALL[0], LifecyclePhase::ItemDefinition);
        assert_eq!(LifecyclePhase::ALL[9], LifecyclePhase::ProductionReadiness);
    }

    #[test]
    fn clause_mapping_matches_figure_2() {
        assert_eq!(LifecyclePhase::ItemDefinition.clause(), "Clause 9.3");
        assert_eq!(LifecyclePhase::Tara.clause(), "Clause 15");
        assert_eq!(LifecyclePhase::FuzzTesting.clause(), "Clause 11");
        assert_eq!(LifecyclePhase::Design.clause(), "Clause 10");
    }

    #[test]
    fn five_phases_trigger_reprocessing() {
        let n = LifecyclePhase::ALL
            .iter()
            .filter(|p| p.triggers_tara_reprocessing())
            .count();
        assert_eq!(n, 5);
    }

    #[test]
    fn lifecycle_counts_six_tara_passes() {
        // One initial TARA pass plus five re-processing arrows in Figure 2.
        assert_eq!(DevelopmentLifecycle::new().run_to_completion(), 6);
    }

    #[test]
    fn advance_walks_every_phase() {
        let mut lc = DevelopmentLifecycle::new();
        let mut seen = vec![lc.current_phase()];
        while let Some(p) = lc.advance() {
            seen.push(p);
        }
        assert_eq!(seen, LifecyclePhase::ALL.to_vec());
    }

    #[test]
    fn advance_past_end_returns_none_and_stays() {
        let mut lc = DevelopmentLifecycle::new();
        while lc.advance().is_some() {}
        assert_eq!(lc.current_phase(), LifecyclePhase::ProductionReadiness);
        assert!(lc.advance().is_none());
        assert_eq!(lc.current_phase(), LifecyclePhase::ProductionReadiness);
    }

    #[test]
    fn default_equals_new() {
        assert_eq!(
            format!("{:?}", DevelopmentLifecycle::default()),
            format!("{:?}", DevelopmentLifecycle::new())
        );
    }
}
