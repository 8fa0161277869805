//! Calibrated datasets reproducing the paper's worked example.
//!
//! The paper's excavator case study reports, for DPF tampering on European soil
//! excavators:
//!
//! * `PAE` (potential attackers) = 1 406,
//! * `PPIA` (average defeat-device price) = 360 EUR,
//! * `MV = PAE · PPIA ≈ 506 160 EUR / year` (Equation 6),
//! * `PPIA − VCU = 310 EUR`, `n = 3` competitors,
//! * `FC = BEP · (PPIA − VCU) / n ≈ 145 286 EUR` (Equation 7).
//!
//! The proprietary inputs (Upstream report, sales statistics) are replaced here by
//! synthetic-but-calibrated records chosen so that the pipeline run end-to-end
//! reproduces those constants: 20 086 excavators sold in Europe in 2022 with a 7 %
//! emission-tampering prevalence gives `PAE = 1 406`.

use crate::reports::{CyberSecurityReport, IncidentStatistic};
use crate::sales::{SalesLedger, SalesRecord};
use crate::share::MarketStructure;

/// European excavator sales ledger (latest year calibrated to 20 086 units).
#[must_use]
pub fn excavator_sales_europe() -> SalesLedger {
    vec![
        SalesRecord::new("excavator", "Europe", 2019, 17_400),
        SalesRecord::new("excavator", "Europe", 2020, 16_100),
        SalesRecord::new("excavator", "Europe", 2021, 18_900),
        SalesRecord::new("excavator", "Europe", 2022, 20_086),
    ]
    .into_iter()
    .collect()
}

/// The synthetic annual report providing the emission-tampering prevalence
/// (`PEA` = 7 %) plus a few other categories used by the examples.
#[must_use]
pub fn annual_report() -> CyberSecurityReport {
    CyberSecurityReport::default()
        .with_statistic(IncidentStatistic::new(
            "emission tampering (DPF)",
            2021,
            0.064,
        ))
        .with_statistic(IncidentStatistic::new(
            "emission tampering (DPF)",
            2022,
            0.07,
        ))
        .with_statistic(IncidentStatistic::new(
            "emission tampering (EGR)",
            2022,
            0.045,
        ))
        .with_statistic(IncidentStatistic::new("ECU reprogramming", 2022, 0.11))
        .with_statistic(IncidentStatistic::new("AdBlue/SCR emulation", 2022, 0.03))
        .with_statistic(IncidentStatistic::new("keyless entry theft", 2022, 0.004))
        .with_statistic(IncidentStatistic::new(
            "odometer / hour-meter fraud",
            2022,
            0.02,
        ))
}

/// The market structure the paper assumes for the excavator example: a single major
/// manufacturer's fleet, treated as monopolistic for the `PAE` computation.
#[must_use]
pub fn excavator_market_structure() -> MarketStructure {
    MarketStructure::Monopolistic
}

/// The number of competing adversaries the paper's Equation 7 assumes.
pub const PAPER_COMPETITORS: u32 = 3;

/// The defeat-device street price the paper's NLP search returned (EUR).
pub const PAPER_PPIA_EUR: f64 = 360.0;

/// The potential-attacker estimate the paper reports.
pub const PAPER_PAE: f64 = 1_406.0;

/// The market value the paper reports for DPF tampering (Equation 6).
pub const PAPER_MV_EUR: f64 = 506_160.0;

/// The fixed-cost / investment bound the paper reports (Equation 7).
pub const PAPER_FC_EUR: f64 = 145_286.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bep::BreakEvenAnalysis;

    #[test]
    fn calibration_reproduces_pae() {
        let sales = excavator_sales_europe();
        let report = annual_report();
        let vs = sales.previous_year_sales("excavator", "Europe").unwrap();
        let pea = report
            .potential_attacker_share("emission tampering (DPF)")
            .unwrap();
        let pae = excavator_market_structure().exposed_units(vs) * pea;
        assert!((pae - PAPER_PAE).abs() < 1.5, "PAE = {pae}");
    }

    #[test]
    fn calibration_reproduces_equation_6_market_value() {
        let mv = PAPER_PAE * PAPER_PPIA_EUR;
        assert!((mv - PAPER_MV_EUR).abs() < 1.0);
    }

    #[test]
    fn calibration_reproduces_equation_7_fixed_cost() {
        let analysis = BreakEvenAnalysis::new(
            0.0,
            PAPER_PPIA_EUR,
            // The paper's unit margin `PPIA − VCU` is 310 EUR.
            PAPER_PPIA_EUR - 310.0,
            PAPER_COMPETITORS,
        );
        let fc = analysis.fixed_cost_for_break_even(PAPER_PAE);
        assert!((fc - PAPER_FC_EUR).abs() < 100.0, "FC = {fc}");
    }

    #[test]
    fn report_covers_the_example_categories() {
        let r = annual_report();
        assert!(r.potential_attacker_share("DPF").is_some());
        assert!(r.potential_attacker_share("reprogramming").is_some());
        assert!(r.potential_attacker_share("hour-meter").is_some());
    }

    #[test]
    fn sales_cover_four_years() {
        let s = excavator_sales_europe();
        let years = (2000..=2030)
            .filter(|y| s.units_in_year("excavator", "Europe", *y) > 0)
            .count();
        assert_eq!(years, 4);
        assert_eq!(s.latest_year("excavator", "Europe"), Some(2022));
    }
}
