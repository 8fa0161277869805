//! Assets and cybersecurity properties (ISO/SAE-21434 Clause 15.3).
//!
//! Asset identification is the first TARA activity: every item function, data
//! element or communication channel whose compromise can lead to a damage scenario
//! is enumerated together with the cybersecurity properties (confidentiality,
//! integrity, availability, …) that must hold for it.

/// A cybersecurity property that an asset carries.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum CybersecurityProperty {
    /// Information is not disclosed to unauthorised parties.
    Confidentiality,
    /// Information and functions are not altered by unauthorised parties.
    Integrity,
    /// Information and functions are accessible when required.
    Availability,
    /// The origin of data or commands can be trusted.
    Authenticity,
    /// Only authorised parties can perform an action.
    Authorization,
    /// Actions can be attributed to their originator.
    NonRepudiation,
}

/// An asset under analysis.
#[derive(Debug)]
pub struct Asset {
    name: String,
    /// The ECU (by short name) that hosts the asset, if any.
    host_ecu: Option<String>,
    properties: Vec<CybersecurityProperty>,
}

impl Asset {
    /// Creates a new asset.
    ///
    /// # Examples
    ///
    /// ```
    /// use iso21434::{Asset, CybersecurityProperty};
    /// let asset = Asset::new("ECM firmware")
    ///     .hosted_on("ECM")
    ///     .with_property(CybersecurityProperty::Integrity)
    ///     .with_property(CybersecurityProperty::Authenticity);
    /// assert_eq!(asset.name(), "ECM firmware");
    /// ```
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            host_ecu: None,
            properties: Vec::new(),
        }
    }

    /// Records the ECU hosting the asset.
    #[must_use]
    pub fn hosted_on(mut self, ecu: impl Into<String>) -> Self {
        self.host_ecu = Some(ecu.into());
        self
    }

    /// Adds a cybersecurity property (duplicates are ignored).
    #[must_use]
    pub fn with_property(mut self, property: CybersecurityProperty) -> Self {
        if !self.properties.contains(&property) {
            self.properties.push(property);
        }
        self
    }

    /// The asset name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn firmware_asset() -> Asset {
        Asset::new("ECM firmware")
            .hosted_on("ECM")
            .with_property(CybersecurityProperty::Integrity)
            .with_property(CybersecurityProperty::Authenticity)
    }

    #[test]
    fn builder_accumulates_properties_without_duplicates() {
        let asset = firmware_asset().with_property(CybersecurityProperty::Integrity);
        assert_eq!(
            asset.properties,
            vec![
                CybersecurityProperty::Integrity,
                CybersecurityProperty::Authenticity
            ]
        );
    }

    #[test]
    fn host_ecu_is_recorded() {
        assert_eq!(firmware_asset().host_ecu.as_deref(), Some("ECM"));
        assert_eq!(Asset::new("x").host_ecu, None);
    }

    #[test]
    fn all_properties_distinct() {
        let set: std::collections::HashSet<_> = [
            CybersecurityProperty::Confidentiality,
            CybersecurityProperty::Integrity,
            CybersecurityProperty::Availability,
            CybersecurityProperty::Authenticity,
            CybersecurityProperty::Authorization,
            CybersecurityProperty::NonRepudiation,
        ]
        .iter()
        .map(|property| format!("{property:?}"))
        .collect();
        assert_eq!(set.len(), 6);
    }
}
