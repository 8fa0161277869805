//! In-vehicle network buses.
//!
//! The paper's powertrain argument rests on the properties of the CAN bus: no
//! native authentication, broadcast medium, physically accessible through the OBD
//! connector.  A topology names its network segments so that ECUs can attach to
//! them; the reference architectures note each segment's technology and domain.

/// A concrete network segment in a vehicle architecture.
#[derive(Debug, Clone)]
pub struct Bus {
    name: String,
}

impl Bus {
    /// Creates a new bus segment.
    ///
    /// # Examples
    ///
    /// ```
    /// use vehicle::Bus;
    /// let bus = Bus::new("PT-CAN");
    /// assert_eq!(bus.name(), "PT-CAN");
    /// ```
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }

    /// The segment name, unique within a topology.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}
