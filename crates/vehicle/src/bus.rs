//! In-vehicle network buses.
//!
//! The paper's powertrain argument rests on the properties of the CAN bus: no
//! native authentication, broadcast medium, physically accessible through the OBD
//! connector.  This module models the common in-vehicle network technologies and
//! the segments built from them, each serving one functional domain.

use crate::domain::FunctionalDomain;
use serde::{Deserialize, Serialize};

/// The kind of an in-vehicle network segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[non_exhaustive]
pub enum BusKind {
    /// Classical high-speed CAN (up to 1 Mbit/s).
    CanHighSpeed,
    /// Classical low-speed / fault-tolerant CAN (body electronics).
    CanLowSpeed,
    /// CAN-FD with flexible data rate (up to 8 Mbit/s payload phase).
    CanFd,
    /// LIN sub-bus for low-cost actuators and sensors.
    Lin,
    /// FlexRay time-triggered bus (chassis, x-by-wire).
    FlexRay,
    /// Automotive Ethernet (100BASE-T1 / 1000BASE-T1).
    Ethernet,
    /// MOST multimedia ring (legacy infotainment).
    Most,
}

/// A concrete network segment in a vehicle architecture.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Bus {
    name: String,
    kind: BusKind,
    domain: FunctionalDomain,
}

impl Bus {
    /// Creates a new bus segment.
    ///
    /// # Examples
    ///
    /// ```
    /// use vehicle::{Bus, BusKind, FunctionalDomain};
    /// let bus = Bus::new("PT-CAN", BusKind::CanHighSpeed, FunctionalDomain::Powertrain);
    /// assert_eq!(bus.name(), "PT-CAN");
    /// ```
    pub fn new(name: impl Into<String>, kind: BusKind, domain: FunctionalDomain) -> Self {
        Self {
            name: name.into(),
            kind,
            domain,
        }
    }

    /// The segment name, unique within a topology.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_round_trip() {
        let bus = Bus::new("PT-CAN", BusKind::CanFd, FunctionalDomain::Powertrain);
        let json = serde_json::to_string(&bus).unwrap();
        let back: Bus = serde_json::from_str(&json).unwrap();
        assert_eq!(bus, back);
    }
}
