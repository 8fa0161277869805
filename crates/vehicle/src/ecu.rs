//! Electronic Control Units (ECUs).
//!
//! The ECU is the item under analysis in an ISO/SAE-21434 TARA.  The model keeps
//! the properties that drive the risk analysis: functional domain, bus attachments,
//! external interfaces and whether it is a gateway.

use crate::attack_surface::ExternalInterface;
use crate::domain::FunctionalDomain;

/// An electronic control unit in the vehicle architecture.
#[derive(Debug, Clone)]
pub struct Ecu {
    name: String,
    full_name: String,
    domain: FunctionalDomain,
    buses: Vec<String>,
    interfaces: Vec<ExternalInterface>,
    gateway: bool,
}

impl Ecu {
    /// Starts building an ECU with the given short name (e.g. `"ECM"`).
    #[must_use]
    pub fn builder(name: impl Into<String>) -> EcuBuilder {
        EcuBuilder::new(name)
    }

    /// The short name (acronym) of the ECU, unique within a topology.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The descriptive name of the ECU.
    #[must_use]
    pub fn full_name(&self) -> &str {
        &self.full_name
    }

    /// The functional domain the ECU belongs to.
    #[must_use]
    pub fn domain(&self) -> FunctionalDomain {
        self.domain
    }

    /// Names of the bus segments the ECU is attached to.
    #[must_use]
    pub fn buses(&self) -> &[String] {
        &self.buses
    }

    /// External interfaces terminated directly on this ECU.
    #[must_use]
    pub fn interfaces(&self) -> &[ExternalInterface] {
        &self.interfaces
    }

    /// Whether this ECU routes traffic between bus segments.
    #[must_use]
    pub fn is_gateway(&self) -> bool {
        self.gateway
    }
}

/// Builder for [`Ecu`].
///
/// # Examples
///
/// ```
/// use vehicle::{Ecu, FunctionalDomain};
/// use vehicle::attack_surface::ExternalInterface;
///
/// let ecm = Ecu::builder("ECM")
///     .full_name("Engine Control Module")
///     .domain(FunctionalDomain::Powertrain)
///     .on_bus("PT-CAN")
///     .build();
/// assert!(ecm.buses().contains(&"PT-CAN".to_string()));
/// ```
#[derive(Debug)]
pub struct EcuBuilder {
    name: String,
    full_name: Option<String>,
    domain: FunctionalDomain,
    buses: Vec<String>,
    interfaces: Vec<ExternalInterface>,
    gateway: bool,
}

impl EcuBuilder {
    /// Creates a builder with defaults: body domain, no buses, no interfaces,
    /// not a gateway.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        Self {
            full_name: None,
            name,
            domain: FunctionalDomain::Body,
            buses: Vec::new(),
            interfaces: Vec::new(),
            gateway: false,
        }
    }

    /// Sets the descriptive name.
    #[must_use]
    pub fn full_name(mut self, full_name: impl Into<String>) -> Self {
        self.full_name = Some(full_name.into());
        self
    }

    /// Sets the functional domain.
    #[must_use]
    pub fn domain(mut self, domain: FunctionalDomain) -> Self {
        self.domain = domain;
        self
    }

    /// Attaches the ECU to a bus segment (may be called repeatedly).
    #[must_use]
    pub fn on_bus(mut self, bus: impl Into<String>) -> Self {
        self.buses.push(bus.into());
        self
    }

    /// Adds a directly terminated external interface (may be called repeatedly).
    #[must_use]
    pub fn interface(mut self, interface: ExternalInterface) -> Self {
        self.interfaces.push(interface);
        self
    }

    /// Marks the ECU as a gateway between its bus segments.
    #[must_use]
    pub fn gateway(mut self, gateway: bool) -> Self {
        self.gateway = gateway;
        self
    }

    /// Finishes building the ECU.
    #[must_use]
    pub fn build(self) -> Ecu {
        let full_name = self.full_name.unwrap_or_else(|| self.name.clone());
        Ecu {
            name: self.name,
            full_name,
            domain: self.domain,
            buses: self.buses,
            interfaces: self.interfaces,
            gateway: self.gateway,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tcu() -> Ecu {
        Ecu::builder("TCU")
            .full_name("Telematics Control Unit")
            .domain(FunctionalDomain::Communication)
            .on_bus("BACKBONE")
            .interface(ExternalInterface::Cellular)
            .interface(ExternalInterface::Gnss)
            .build()
    }

    #[test]
    fn builder_defaults() {
        let ecu = Ecu::builder("LCM").build();
        assert_eq!(ecu.name(), "LCM");
        assert_eq!(ecu.full_name(), "LCM");
        assert!(matches!(ecu.domain(), FunctionalDomain::Body));
        assert!(ecu.buses().is_empty());
        assert!(!ecu.is_gateway());
        assert!(ecu.interfaces().is_empty());
    }

    #[test]
    fn builder_sets_all_fields() {
        let tcu = sample_tcu();
        assert_eq!(tcu.full_name(), "Telematics Control Unit");
        assert!(matches!(tcu.domain(), FunctionalDomain::Communication));
        assert_eq!(tcu.buses(), &["BACKBONE".to_string()]);
        assert_eq!(tcu.interfaces().len(), 2);
    }
    #[test]
    fn multiple_buses_accumulate() {
        let gw = Ecu::builder("GW")
            .on_bus("PT-CAN")
            .on_bus("BODY-CAN")
            .on_bus("BACKBONE")
            .gateway(true)
            .build();
        assert_eq!(gw.buses().len(), 3);
        assert!(gw.is_gateway());
    }
}
