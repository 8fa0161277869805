//! External interfaces and attack ranges.
//!
//! The paper adopts the Upstream classification of automotive attacks into three
//! ranges — long-range, short-range and physical-access — and colour-codes the ECUs
//! of Figure 4 accordingly.  This module models the external interfaces through
//! which an attacker can touch the vehicle and maps each interface to the attack
//! range and to the ISO/SAE-21434 attack vector it corresponds to.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The range from which an attack can be mounted (Upstream taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttackRange {
    /// The attacker can be anywhere on the internet (cellular, backend, FOTA).
    LongRange,
    /// The attacker must be in radio proximity (Wi-Fi, Bluetooth, V2X, RKE).
    ShortRange,
    /// The attacker needs physical contact with the vehicle (OBD, harness, debug).
    Physical,
}

impl AttackRange {
    /// A short label matching the paper's figure legend.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AttackRange::LongRange => "Long Range Attack",
            AttackRange::ShortRange => "Short Range Attack",
            AttackRange::Physical => "Physical Attack",
        }
    }
}

impl fmt::Display for AttackRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The ISO/SAE-21434 attack-vector categories (also used by CVSS).
///
/// These are the rows of the G.9 attack-vector-based feasibility table that the PSP
/// framework re-weights; they are defined here (rather than in the `iso21434` crate)
/// because the vehicle topology is what determines which vector applies to which
/// interface, and the `iso21434` crate depends on this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AttackVector {
    /// Remotely exploitable over a routed network (internet).
    Network,
    /// Exploitable from the same logical network / radio proximity.
    Adjacent,
    /// Requires local access to the item's interfaces (e.g. OBD, USB).
    Local,
    /// Requires physical manipulation of the item itself.
    Physical,
}

impl AttackVector {
    /// All vectors, from the most remote to the most local.
    pub const ALL: [AttackVector; 4] = [
        AttackVector::Network,
        AttackVector::Adjacent,
        AttackVector::Local,
        AttackVector::Physical,
    ];

    /// A short label matching the standard's wording.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AttackVector::Network => "Network",
            AttackVector::Adjacent => "Adjacent",
            AttackVector::Local => "Local",
            AttackVector::Physical => "Physical",
        }
    }
}

impl fmt::Display for AttackVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An external interface through which the vehicle can be reached.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub enum ExternalInterface {
    /// Cellular modem (2G–5G) of the telematics unit.
    Cellular,
    /// Wi-Fi hotspot / client.
    WiFi,
    /// Bluetooth / BLE pairing.
    Bluetooth,
    /// Vehicle-to-everything radio (DSRC / C-V2X).
    V2x,
    /// Global navigation satellite receiver (spoofable input).
    Gnss,
    /// Remote keyless entry / passive entry radio.
    KeyFobRadio,
    /// Tyre-pressure monitoring radio receiver.
    Tpms,
    /// The on-board diagnostics connector in the cabin.
    ObdPort,
    /// USB / SD media ports of the head unit.
    UsbMedia,
    /// Charging port communication (CCS/PLC) for electrified vehicles.
    ChargingPort,
    /// Direct access to the wiring harness / bus splicing.
    HarnessAccess,
    /// On-PCB debug interfaces (JTAG, SWD, UART).
    DebugPort,
    /// Removal and replacement of the ECU hardware itself.
    EcuRemoval,
}

impl ExternalInterface {
    /// The attack range required to use this interface.
    #[must_use]
    pub fn range(self) -> AttackRange {
        match self {
            ExternalInterface::Cellular => AttackRange::LongRange,
            ExternalInterface::WiFi
            | ExternalInterface::Bluetooth
            | ExternalInterface::V2x
            | ExternalInterface::Gnss
            | ExternalInterface::KeyFobRadio
            | ExternalInterface::Tpms => AttackRange::ShortRange,
            ExternalInterface::ObdPort
            | ExternalInterface::UsbMedia
            | ExternalInterface::ChargingPort
            | ExternalInterface::HarnessAccess
            | ExternalInterface::DebugPort
            | ExternalInterface::EcuRemoval => AttackRange::Physical,
        }
    }

    /// The ISO/SAE-21434 attack vector this interface maps to.
    ///
    /// The distinction the paper leans on is between `Local` (OBD, USB: local
    /// logical access through an exposed connector) and `Physical` (harness
    /// splicing, debug ports, ECU removal: manipulation of the item itself).
    #[must_use]
    pub fn vector(self) -> AttackVector {
        match self {
            ExternalInterface::Cellular => AttackVector::Network,
            ExternalInterface::WiFi
            | ExternalInterface::Bluetooth
            | ExternalInterface::V2x
            | ExternalInterface::Gnss
            | ExternalInterface::KeyFobRadio
            | ExternalInterface::Tpms => AttackVector::Adjacent,
            ExternalInterface::ObdPort
            | ExternalInterface::UsbMedia
            | ExternalInterface::ChargingPort => AttackVector::Local,
            ExternalInterface::HarnessAccess
            | ExternalInterface::DebugPort
            | ExternalInterface::EcuRemoval => AttackVector::Physical,
        }
    }

    /// A short label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ExternalInterface::Cellular => "Cellular",
            ExternalInterface::WiFi => "Wi-Fi",
            ExternalInterface::Bluetooth => "Bluetooth",
            ExternalInterface::V2x => "V2X",
            ExternalInterface::Gnss => "GNSS",
            ExternalInterface::KeyFobRadio => "Key fob radio",
            ExternalInterface::Tpms => "TPMS",
            ExternalInterface::ObdPort => "OBD port",
            ExternalInterface::UsbMedia => "USB/SD media",
            ExternalInterface::ChargingPort => "Charging port",
            ExternalInterface::HarnessAccess => "Harness access",
            ExternalInterface::DebugPort => "Debug port",
            ExternalInterface::EcuRemoval => "ECU removal",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INTERFACES: [ExternalInterface; 13] = [
        ExternalInterface::Cellular,
        ExternalInterface::WiFi,
        ExternalInterface::Bluetooth,
        ExternalInterface::V2x,
        ExternalInterface::Gnss,
        ExternalInterface::KeyFobRadio,
        ExternalInterface::Tpms,
        ExternalInterface::ObdPort,
        ExternalInterface::UsbMedia,
        ExternalInterface::ChargingPort,
        ExternalInterface::HarnessAccess,
        ExternalInterface::DebugPort,
        ExternalInterface::EcuRemoval,
    ];

    #[test]
    fn vector_range_consistency() {
        // The range required by an interface must match the range of its vector,
        // except that Local vectors are exercised with physical presence as well.
        for iface in INTERFACES {
            let via_vector = match iface.vector() {
                AttackVector::Network => AttackRange::LongRange,
                AttackVector::Adjacent => AttackRange::ShortRange,
                AttackVector::Local | AttackVector::Physical => AttackRange::Physical,
            };
            let direct = iface.range();
            assert_eq!(via_vector, direct, "{iface:?}");
        }
    }

    #[test]
    fn cellular_is_the_only_network_vector() {
        let network: Vec<_> = INTERFACES
            .iter()
            .filter(|i| i.vector() == AttackVector::Network)
            .collect();
        assert!(matches!(network[..], [ExternalInterface::Cellular]));
    }

    #[test]
    fn obd_is_local_and_owner_assisted() {
        assert_eq!(ExternalInterface::ObdPort.vector(), AttackVector::Local);
    }

    #[test]
    fn debug_port_is_physical() {
        assert_eq!(
            ExternalInterface::DebugPort.vector(),
            AttackVector::Physical
        );
        assert_eq!(ExternalInterface::DebugPort.range(), AttackRange::Physical);
    }

    #[test]
    fn radio_interfaces_are_short_range() {
        for iface in [
            ExternalInterface::WiFi,
            ExternalInterface::Bluetooth,
            ExternalInterface::V2x,
            ExternalInterface::KeyFobRadio,
            ExternalInterface::Tpms,
        ] {
            assert_eq!(iface.range(), AttackRange::ShortRange, "{iface:?}");
            assert_eq!(iface.vector(), AttackVector::Adjacent, "{iface:?}");
        }
    }

    #[test]
    fn ranges_order_from_remote_to_local() {
        assert!(AttackRange::LongRange < AttackRange::ShortRange);
        assert!(AttackRange::ShortRange < AttackRange::Physical);
    }

    #[test]
    fn vectors_order_from_remote_to_local() {
        assert!(AttackVector::Network < AttackVector::Adjacent);
        assert!(AttackVector::Adjacent < AttackVector::Local);
        assert!(AttackVector::Local < AttackVector::Physical);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> = INTERFACES.iter().map(|i| i.label()).collect();
        assert_eq!(labels.len(), INTERFACES.len());
    }

    #[test]
    fn serde_round_trip() {
        for v in AttackVector::ALL {
            let json = serde_json::to_string(&v).unwrap();
            assert_eq!(v, serde_json::from_str::<AttackVector>(&json).unwrap());
        }
    }
}
