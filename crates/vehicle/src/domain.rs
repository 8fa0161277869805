//! Functional domains of a road vehicle E/E architecture.
//!
//! The paper (Figure 4) partitions the vehicle into functional domains —
//! powertrain, chassis, body, infotainment, communication, diagnostics — and argues
//! that attack feasibility must be judged per domain: the powertrain sub-network is
//! dominated by physical and local (OBD) attacks, while the communication domain is
//! the natural entry point for long-range attacks.

use std::fmt;

/// A functional domain of the vehicle E/E architecture.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub enum FunctionalDomain {
    /// Engine, transmission and emission control: hard real-time, safety critical.
    Powertrain,
    /// Braking, steering, suspension: hard real-time, safety critical.
    Chassis,
    /// Doors, lights, seats, climate: soft real-time.
    Body,
    /// Head unit, media, navigation, companion-app connectivity.
    Infotainment,
    /// Telematics, V2X, gateways: the externally connected domain.
    Communication,
    /// Advanced driver-assistance sensors and fusion.
    Adas,
    /// Diagnostic access (OBD port, workshop testers).
    Diagnostics,
}

impl FunctionalDomain {
    /// A short, human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FunctionalDomain::Powertrain => "PowerTrain",
            FunctionalDomain::Chassis => "Chassis",
            FunctionalDomain::Body => "Body",
            FunctionalDomain::Infotainment => "Infotainment",
            FunctionalDomain::Communication => "Communication",
            FunctionalDomain::Adas => "ADAS",
            FunctionalDomain::Diagnostics => "On Board Diagnostic",
        }
    }
}

impl fmt::Display for FunctionalDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const ALL: [FunctionalDomain; 7] = [
        FunctionalDomain::Powertrain,
        FunctionalDomain::Chassis,
        FunctionalDomain::Body,
        FunctionalDomain::Infotainment,
        FunctionalDomain::Communication,
        FunctionalDomain::Adas,
        FunctionalDomain::Diagnostics,
    ];

    #[test]
    fn all_domains_are_distinct() {
        let set: HashSet<_> = ALL.iter().map(ToString::to_string).collect();
        assert_eq!(set.len(), ALL.len());
    }

    #[test]
    fn labels_match_paper_figure_4() {
        assert_eq!(FunctionalDomain::Powertrain.to_string(), "PowerTrain");
        assert_eq!(
            FunctionalDomain::Diagnostics.to_string(),
            "On Board Diagnostic"
        );
        assert_eq!(FunctionalDomain::Communication.to_string(), "Communication");
    }
}
