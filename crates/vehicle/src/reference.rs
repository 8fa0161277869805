//! Reference vehicle architectures used across the workspace.
//!
//! [`passenger_car`] reproduces the architecture sketched in paper Figure 4
//! (gateway-centred topology with powertrain, chassis, body, infotainment and
//! communication domains plus the OBD port).  [`excavator`] and [`light_truck`]
//! model the industrial and commercial applications the financial case study of
//! Section III uses (DPF tampering on European excavators).

use crate::attack_surface::ExternalInterface;
use crate::bus::Bus;
use crate::domain::FunctionalDomain;
use crate::ecu::Ecu;
use crate::topology::VehicleTopology;

/// The passenger-car reference architecture of paper Figure 4.
///
/// # Panics
///
/// Never panics: the built-in definition is validated by the crate's test suite.
#[must_use]
pub fn passenger_car() -> VehicleTopology {
    VehicleTopology::builder("passenger-car")
        // Network segments.
        .bus(Bus::new("PT-CAN")) // high-speed CAN, powertrain
        .bus(Bus::new("CHASSIS-CAN")) // CAN-FD, chassis
        .bus(Bus::new("BODY-CAN")) // low-speed CAN, body
        .bus(Bus::new("BODY-LIN")) // LIN, body
        .bus(Bus::new("INFO-CAN")) // CAN-FD, infotainment
        .bus(Bus::new("DIAG-CAN")) // high-speed CAN, diagnostics
        // Central gateway.
        .ecu(
            Ecu::builder("GATEWAY")
                .full_name("Central Gateway")
                .domain(FunctionalDomain::Communication)
                .on_bus("PT-CAN")
                .on_bus("CHASSIS-CAN")
                .on_bus("BODY-CAN")
                .on_bus("INFO-CAN")
                .on_bus("DIAG-CAN")
                .gateway(true)
                .build(),
        )
        // Communication domain.
        .ecu(
            Ecu::builder("TCU")
                .full_name("Telematics Control Unit")
                .domain(FunctionalDomain::Communication)
                .on_bus("INFO-CAN")
                .interface(ExternalInterface::Cellular)
                .interface(ExternalInterface::Gnss)
                .build(),
        )
        .ecu(
            Ecu::builder("V2X")
                .full_name("Vehicle-to-Everything Module")
                .domain(FunctionalDomain::Communication)
                .on_bus("INFO-CAN")
                .interface(ExternalInterface::V2x)
                .build(),
        )
        // Infotainment domain.
        .ecu(
            Ecu::builder("ICM")
                .full_name("Infotainment Control Module")
                .domain(FunctionalDomain::Infotainment)
                .on_bus("INFO-CAN")
                .interface(ExternalInterface::Bluetooth)
                .interface(ExternalInterface::WiFi)
                .interface(ExternalInterface::UsbMedia)
                .build(),
        )
        .ecu(
            Ecu::builder("SCU")
                .full_name("Smart Connectivity Unit")
                .domain(FunctionalDomain::Infotainment)
                .on_bus("INFO-CAN")
                .interface(ExternalInterface::KeyFobRadio)
                .build(),
        )
        // Powertrain domain.
        .ecu(
            Ecu::builder("ECM")
                .full_name("Engine Control Module")
                .domain(FunctionalDomain::Powertrain)
                .on_bus("PT-CAN")
                .build(),
        )
        .ecu(
            Ecu::builder("TCM")
                .full_name("Transmission Control Module")
                .domain(FunctionalDomain::Powertrain)
                .on_bus("PT-CAN")
                .build(),
        )
        .ecu(
            Ecu::builder("DEFC")
                .full_name("Diesel Exhaust Fluid Controller")
                .domain(FunctionalDomain::Powertrain)
                .on_bus("PT-CAN")
                .build(),
        )
        // Chassis domain.
        .ecu(
            Ecu::builder("BCU")
                .full_name("Brake Control Unit")
                .domain(FunctionalDomain::Chassis)
                .on_bus("CHASSIS-CAN")
                .build(),
        )
        .ecu(
            Ecu::builder("SCM")
                .full_name("Steering Control Module")
                .domain(FunctionalDomain::Chassis)
                .on_bus("CHASSIS-CAN")
                .build(),
        )
        .ecu(
            Ecu::builder("DCU")
                .full_name("Damping Control Unit")
                .domain(FunctionalDomain::Chassis)
                .on_bus("CHASSIS-CAN")
                .build(),
        )
        .ecu(
            Ecu::builder("WCU")
                .full_name("Wheel Control Unit")
                .domain(FunctionalDomain::Chassis)
                .on_bus("CHASSIS-CAN")
                .interface(ExternalInterface::Tpms)
                .build(),
        )
        // Body domain.
        .ecu(
            Ecu::builder("BCM")
                .full_name("Body Control Module")
                .domain(FunctionalDomain::Body)
                .on_bus("BODY-CAN")
                .on_bus("BODY-LIN")
                .gateway(true)
                .build(),
        )
        .ecu(
            Ecu::builder("LCM")
                .full_name("Light Control Module")
                .domain(FunctionalDomain::Body)
                .on_bus("BODY-LIN")
                .build(),
        )
        // Diagnostics.
        .ecu(
            Ecu::builder("OBD")
                .full_name("On-Board Diagnostic Port")
                .domain(FunctionalDomain::Diagnostics)
                .on_bus("DIAG-CAN")
                .interface(ExternalInterface::ObdPort)
                .build(),
        )
        .build()
        .expect("built-in passenger car architecture is valid")
}

/// A European soil excavator: no telematics by default, engine / after-treatment
/// centric, with the service (diagnostic) connector in the cab.  This is the target
/// application of the paper's DPF-tampering financial case study.
#[must_use]
pub fn excavator() -> VehicleTopology {
    VehicleTopology::builder("excavator")
        .bus(Bus::new("ENG-CAN")) // high-speed CAN, powertrain
        .bus(Bus::new("IMPL-CAN")) // high-speed CAN, chassis
        .bus(Bus::new("CAB-CAN")) // low-speed CAN, body
        .ecu(
            Ecu::builder("ECM")
                .full_name("Engine Control Module")
                .domain(FunctionalDomain::Powertrain)
                .on_bus("ENG-CAN")
                .build(),
        )
        .ecu(
            Ecu::builder("ATM")
                .full_name("After-Treatment Module (DPF/EGR/SCR)")
                .domain(FunctionalDomain::Powertrain)
                .on_bus("ENG-CAN")
                .build(),
        )
        .ecu(
            Ecu::builder("HCM")
                .full_name("Hydraulics Control Module")
                .domain(FunctionalDomain::Chassis)
                .on_bus("IMPL-CAN")
                .build(),
        )
        .ecu(
            Ecu::builder("CABGW")
                .full_name("Cab Gateway & Display")
                .domain(FunctionalDomain::Communication)
                .on_bus("ENG-CAN")
                .on_bus("IMPL-CAN")
                .on_bus("CAB-CAN")
                .gateway(true)
                .build(),
        )
        .ecu(
            Ecu::builder("SVC")
                .full_name("Service Connector")
                .domain(FunctionalDomain::Diagnostics)
                .on_bus("ENG-CAN")
                .interface(ExternalInterface::ObdPort)
                .build(),
        )
        .build()
        .expect("built-in excavator architecture is valid")
}

/// A connected light truck: like the passenger car but with a fleet-telematics unit
/// on the powertrain CAN (common retrofit), which is what moves some powertrain
/// threats into the long-range bucket.
#[must_use]
pub fn light_truck() -> VehicleTopology {
    VehicleTopology::builder("light-truck")
        .bus(Bus::new("PT-CAN")) // high-speed CAN, powertrain
        .bus(Bus::new("BODY-CAN")) // low-speed CAN, body
        .bus(Bus::new("DIAG-CAN")) // high-speed CAN, diagnostics
        .ecu(
            Ecu::builder("GATEWAY")
                .full_name("Central Gateway")
                .domain(FunctionalDomain::Communication)
                .on_bus("PT-CAN")
                .on_bus("BODY-CAN")
                .on_bus("DIAG-CAN")
                .gateway(true)
                .build(),
        )
        .ecu(
            Ecu::builder("ECM")
                .full_name("Engine Control Module")
                .domain(FunctionalDomain::Powertrain)
                .on_bus("PT-CAN")
                .build(),
        )
        .ecu(
            Ecu::builder("DEFC")
                .full_name("Diesel Exhaust Fluid Controller")
                .domain(FunctionalDomain::Powertrain)
                .on_bus("PT-CAN")
                .build(),
        )
        .ecu(
            Ecu::builder("FLEET")
                .full_name("Fleet Telematics Unit")
                .domain(FunctionalDomain::Communication)
                .on_bus("PT-CAN")
                .interface(ExternalInterface::Cellular)
                .build(),
        )
        .ecu(
            Ecu::builder("BCM")
                .full_name("Body Control Module")
                .domain(FunctionalDomain::Body)
                .on_bus("BODY-CAN")
                .build(),
        )
        .ecu(
            Ecu::builder("OBD")
                .full_name("On-Board Diagnostic Port")
                .domain(FunctionalDomain::Diagnostics)
                .on_bus("DIAG-CAN")
                .interface(ExternalInterface::ObdPort)
                .build(),
        )
        .build()
        .expect("built-in light truck architecture is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack_surface::AttackRange;
    use crate::reachability::ReachabilityAnalysis;
    use crate::topology::NodeKind;

    #[test]
    fn passenger_car_has_expected_shape() {
        let car = passenger_car();
        assert_eq!(car.name(), "passenger-car");
        assert_eq!(car.ecu_count(), 15);
        let buses = car
            .graph()
            .node_weights()
            .filter(|n| matches!(n, NodeKind::Bus(_)))
            .count();
        assert_eq!(buses, 6);
        assert!(car.ecus().any(|e| e.name() == "ECM"));
        let gateway = car.ecus().find(|e| e.name() == "GATEWAY").unwrap();
        assert!(gateway.is_gateway());
    }

    #[test]
    fn passenger_car_powertrain_is_not_directly_remote() {
        let car = passenger_car();
        let analysis = ReachabilityAnalysis::analyze(&car);
        for name in ["ECM", "TCM", "DEFC"] {
            let c = analysis.classification_of(name).unwrap();
            assert!(
                c.direct_ranges()
                    .iter()
                    .all(|r| *r == AttackRange::Physical),
                "{name} must only be directly exposed to physical access"
            );
        }
    }

    #[test]
    fn passenger_car_tcu_is_long_range() {
        let car = passenger_car();
        let analysis = ReachabilityAnalysis::analyze(&car);
        let tcu = analysis.classification_of("TCU").unwrap();
        assert!(tcu.direct_ranges().contains(&AttackRange::LongRange));
    }

    #[test]
    fn excavator_has_no_long_range_interface() {
        let exc = excavator();
        let analysis = ReachabilityAnalysis::analyze(&exc);
        for ecu in exc.ecus() {
            let c = analysis.classification_of(ecu.name()).unwrap();
            assert!(
                !c.direct_ranges().contains(&AttackRange::LongRange),
                "{} should not be directly long-range reachable",
                ecu.name()
            );
        }
    }

    #[test]
    fn excavator_ecm_reachable_via_obd() {
        let exc = excavator();
        let analysis = ReachabilityAnalysis::analyze(&exc);
        let ecm = analysis.classification_of("ECM").unwrap();
        assert!(ecm
            .exposures()
            .iter()
            .any(|e| e.vector == crate::attack_surface::AttackVector::Local));
    }

    #[test]
    fn light_truck_fleet_unit_exposes_pt_can_remotely() {
        let truck = light_truck();
        let analysis = ReachabilityAnalysis::analyze(&truck);
        let ecm = analysis.classification_of("ECM").unwrap();
        assert!(ecm.reachable_ranges().contains(&AttackRange::LongRange));
    }

    #[test]
    fn all_reference_architectures_have_an_obd_or_service_port() {
        for topo in [passenger_car(), excavator(), light_truck()] {
            let has_obd = topo
                .ecus()
                .flat_map(|e| e.interfaces())
                .any(|i| matches!(i, ExternalInterface::ObdPort));
            assert!(has_obd, "{} lacks an OBD/service port", topo.name());
        }
    }
}
