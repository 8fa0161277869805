//! Threat scenarios (ISO/SAE-21434 Clause 15.4).
//!
//! A threat scenario ties an asset to a potential cause of compromise.

/// A threat scenario.
#[derive(Debug)]
pub struct ThreatScenario {
    title: String,
    asset_name: String,
}

impl ThreatScenario {
    /// Creates a threat scenario for the named asset.
    ///
    /// # Examples
    ///
    /// ```
    /// use iso21434::ThreatScenario;
    ///
    /// let ts = ThreatScenario::new("ECM reprogramming", "ECM firmware");
    /// assert_eq!(ts.asset_name(), "ECM firmware");
    /// ```
    #[must_use]
    pub fn new(title: impl Into<String>, asset_name: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            asset_name: asset_name.into(),
        }
    }

    /// The scenario title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The name of the asset under threat.
    #[must_use]
    pub fn asset_name(&self) -> &str {
        &self.asset_name
    }
}
