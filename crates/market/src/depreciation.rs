//! Straight-line depreciation of CAPEX items (the `SLD` term of Equation 4).
//!
//! Equation 4 of the paper includes "the depreciation of Capital Expenditures
//! (CAPEX) items on a straight-line basis (SLD), which includes various development
//! tools, electronic instruments, and specialized hardware and software, primarily
//! laboratory instrumentation such as Analyzers, Tracers, Debuggers, and
//! Oscilloscopes."

/// A capital-expenditure item owned by the adversary's "lab".
#[derive(Debug)]
pub struct CapexItem {
    /// Acquisition cost in EUR.
    pub acquisition_cost_eur: f64,
    /// Useful life in years over which the cost is spread.
    pub useful_life_years: u32,
    /// Residual value at the end of the useful life.
    pub residual_value_eur: f64,
}

impl CapexItem {
    /// Creates an item with zero residual value.
    #[must_use]
    pub fn new(acquisition_cost_eur: f64, useful_life_years: u32) -> Self {
        Self {
            acquisition_cost_eur,
            useful_life_years,
            residual_value_eur: 0.0,
        }
    }

    /// The yearly straight-line depreciation charge.
    #[must_use]
    pub fn annual_depreciation(&self) -> f64 {
        if self.useful_life_years == 0 {
            return self.acquisition_cost_eur - self.residual_value_eur;
        }
        (self.acquisition_cost_eur - self.residual_value_eur) / f64::from(self.useful_life_years)
    }
}

/// The total yearly straight-line depreciation (`SLD`) of a set of CAPEX items.
#[must_use]
pub fn straight_line_depreciation(items: &[CapexItem]) -> f64 {
    items.iter().map(CapexItem::annual_depreciation).sum()
}

/// A typical adversary lab for ECU tampering work, matching the instrument list the
/// paper gives (analyzer, tracer, debugger, oscilloscope) plus bench tooling.
#[must_use]
pub fn typical_adversary_lab() -> Vec<CapexItem> {
    vec![
        CapexItem::new(8_000.0, 5),  // CAN/LIN bus analyzer
        CapexItem::new(6_000.0, 5),  // protocol tracer
        CapexItem::new(4_000.0, 4),  // JTAG/SWD debugger
        CapexItem::new(12_000.0, 6), // mixed-signal oscilloscope
        CapexItem::new(3_000.0, 5),  // ECU bench harness and power supplies
        CapexItem::new(5_000.0, 3),  // commercial flashing suite licence
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annual_depreciation_spreads_cost() {
        let scope = CapexItem::new(12_000.0, 6); // oscilloscope
        assert!((scope.annual_depreciation() - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn residual_value_reduces_the_charge() {
        let item = CapexItem {
            residual_value_eur: 400.0,
            ..CapexItem::new(4_000.0, 4)
        };
        assert!((item.annual_depreciation() - 900.0).abs() < 1e-9);
    }

    #[test]
    fn zero_life_charges_everything_at_once() {
        let item = CapexItem::new(100.0, 0);
        assert_eq!(item.annual_depreciation(), 100.0);
    }

    #[test]
    fn sld_sums_over_items() {
        let items = vec![CapexItem::new(1_000.0, 2), CapexItem::new(3_000.0, 3)];
        assert!((straight_line_depreciation(&items) - 1_500.0).abs() < 1e-9);
    }

    #[test]
    fn typical_lab_is_plausible() {
        let lab = typical_adversary_lab();
        assert_eq!(lab.len(), 6);
        let sld = straight_line_depreciation(&lab);
        assert!(sld > 4_000.0 && sld < 12_000.0, "SLD {sld}");
    }

    #[test]
    fn empty_lab_has_zero_sld() {
        assert_eq!(straight_line_depreciation(&[]), 0.0);
    }
}
