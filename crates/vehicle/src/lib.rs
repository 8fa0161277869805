//! Vehicle electrical/electronic (E/E) architecture substrate for the PSP framework.
//!
//! The PSP paper argues that the static attack-feasibility models of ISO/SAE-21434
//! mis-rate threats because real vehicles are heterogeneous: a powertrain ECU that is
//! only reachable over the CAN bus and the OBD connector faces a very different
//! attacker population than a telematics unit with a cellular modem.  This crate
//! provides the structural model that the rest of the workspace reasons over:
//!
//! * [`domain`] — functional domains (powertrain, chassis, body, infotainment, …),
//! * [`bus`] — named in-vehicle network segments (CAN, CAN-FD, LIN, ...),
//! * [`attack_surface`] — external interfaces and their attack range
//!   (long-range / short-range / physical, following the Upstream taxonomy cited by
//!   the paper),
//! * [`ecu`] — electronic control units with their interfaces and properties,
//! * [`topology`] — the vehicle network graph built on `petgraph`,
//! * [`reachability`] — which attack ranges can reach which ECU (paper Figure 4),
//! * [`standards_graph`] — the standards-contribution graph of paper Figure 1,
//! * [`lifecycle`] — the ISO/SAE-21434 development life cycle with TARA
//!   re-processing points of paper Figure 2,
//! * [`mod@reference`] — ready-made reference architectures (passenger car, excavator,
//!   light truck) used by the examples, tests and benches.
//!
//! # Example
//!
//! ```
//! use vehicle::reference::passenger_car;
//! use vehicle::reachability::ReachabilityAnalysis;
//! use vehicle::attack_surface::AttackRange;
//!
//! let car = passenger_car();
//! let analysis = ReachabilityAnalysis::analyze(&car);
//! let ecm = analysis.classification_of("ECM").expect("ECM present");
//! // The engine control module is not directly exposed to long-range interfaces.
//! assert!(ecm.direct_ranges().iter().all(|r| *r != AttackRange::LongRange));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack_surface;
pub mod bus;
pub mod domain;
pub mod ecu;
pub mod error;
pub mod lifecycle;
pub mod reachability;
pub mod reference;
pub mod standards_graph;
pub mod topology;

pub use attack_surface::{AttackRange, ExternalInterface};
pub use bus::Bus;
pub use domain::FunctionalDomain;
pub use ecu::{Ecu, EcuBuilder};
pub use error::VehicleError;
pub use topology::{NodeKind, VehicleTopology, VehicleTopologyBuilder};
