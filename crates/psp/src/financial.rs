//! The financial attack-feasibility model (paper Figure 10, Equations 1–7).
//!
//! The workflow:
//!
//! 1. gather inputs — previous-year sales (`VS`) or market share (`MS`), the
//!    potential-attacker percentage (`PEA`) from cybersecurity annual reports, and
//!    the mined purchase price per insider attack (`PPIA`) and variable cost per
//!    unit (`VCU`);
//! 2. compute the market value `MV = PAE · PPIA` (Equation 1) with
//!    `PAE = VS · PEA` or `MS · PEA` (Equation 2);
//! 3. compute the break-even point (Equation 3) and, through the inverse function
//!    (Equation 5), the fixed-cost budget `FC` an attacker could justify — the
//!    investment the product's protections must withstand;
//! 4. map the result onto an attack-feasibility rating: attacks whose demand
//!    comfortably exceeds their break-even volume sit in the profitable blue zone
//!    of Figure 11 and are rated medium-to-high.

use crate::error::PspError;
use crate::sai::SaiList;
use iso21434::feasibility::AttackFeasibilityRating;
use market::bep::BreakEvenAnalysis;
use market::pricing::PricingStudy;
use market::reports::CyberSecurityReport;
use market::sales::SalesLedger;
use market::share::MarketStructure;
use serde::Serialize;
use textmine::cluster::{dominant_cluster, kmeans_1d};
use textmine::price::representative_price;

/// The inputs of a financial assessment for one insider-attack scenario.
#[derive(Debug, Clone)]
pub struct FinancialInputs {
    /// Free-text application name matching the sales ledger (e.g. "excavator").
    pub application: String,
    /// Free-text region name matching the sales ledger (e.g. "Europe").
    pub region: String,
    /// The attack-report category used to look up `PEA` (e.g. "emission tampering").
    pub report_category: String,
    /// Market structure (monopolistic → use `VS`, otherwise use `MS`).
    pub market: MarketStructure,
    /// Number of competing adversaries sharing the market (`n` in Equation 3).
    pub competitors: u32,
    /// Variable cost per unit if known; when `None` the pricing study's estimate
    /// (bare-component median or PPIA / 7) is used.
    pub vcu_override: Option<f64>,
    /// Engineering hours the adversary needs (`FTEH`, Equation 4); used to report
    /// the forward fixed cost alongside the inverse one.
    pub adversary_fte_hours: f64,
    /// Hourly cost of the adversary workforce (`ch`, Equation 4).
    pub adversary_hourly_cost: f64,
    /// Yearly straight-line depreciation of the adversary lab (`SLD`, Equation 4).
    pub adversary_sld: f64,
}

impl FinancialInputs {
    /// The inputs of the paper's excavator DPF-tampering example.
    #[must_use]
    pub fn paper_excavator_example() -> Self {
        Self {
            application: "excavator".to_string(),
            region: "Europe".to_string(),
            report_category: "emission tampering (DPF)".to_string(),
            market: market::datasets::excavator_market_structure(),
            competitors: market::datasets::PAPER_COMPETITORS,
            vcu_override: Some(50.0),
            adversary_fte_hours: 1_500.0,
            adversary_hourly_cost: 85.0,
            adversary_sld: market::depreciation::straight_line_depreciation(
                &market::depreciation::typical_adversary_lab(),
            ),
        }
    }
}

/// The outcome of the financial workflow for one scenario.
#[derive(Debug, Serialize)]
pub struct FinancialAssessment {
    /// The scenario assessed.
    pub scenario: String,
    /// Previous-year sales used as `VS`.
    pub vehicle_sales: u64,
    /// The potential-attacker percentage `PEA`.
    pub pea: f64,
    /// The potential-attacker estimation `PAE` (Equation 2).
    pub pae: f64,
    /// The purchase price per insider attack `PPIA` (EUR).
    pub ppia: f64,
    /// The variable cost per unit `VCU` (EUR).
    pub vcu: f64,
    /// The market value `MV = PAE · PPIA` (Equation 1, EUR per year).
    pub market_value: f64,
    /// The forward fixed cost from the effort model (Equation 4, EUR).
    pub forward_fixed_cost: f64,
    /// The break-even volume for the forward fixed cost (Equation 3, units).
    pub break_even_units: Option<f64>,
    /// The inverse fixed cost: the investment an attacker could justify when the
    /// break-even volume equals `PAE` (Equation 5, EUR).  This is the budget the
    /// product's protections must withstand.
    pub investment_bound: f64,
    /// Whether the attack sits in the profitable (blue) zone of Figure 11 at the
    /// demand level `PAE`.
    pub profitable: bool,
    /// The feasibility rating derived from the financial evidence.
    pub rating: AttackFeasibilityRating,
}

impl FinancialAssessment {
    /// Runs the financial workflow.
    ///
    /// `sai` provides the mined prices for the scenario; `sales` and `report`
    /// provide the market-size terms.
    ///
    /// # Errors
    ///
    /// * [`PspError::InvalidFinancialInput`] when sales, `PEA` or prices are missing
    ///   or non-positive.
    pub fn assess(
        scenario: &str,
        sai: &SaiList,
        sales: &SalesLedger,
        report: &CyberSecurityReport,
        inputs: &FinancialInputs,
    ) -> Result<Self, PspError> {
        let vehicle_sales = sales
            .previous_year_sales(&inputs.application, &inputs.region)
            .ok_or(PspError::InvalidFinancialInput {
                parameter: "VS",
                detail: format!(
                    "no sales data for {} / {}",
                    inputs.application, inputs.region
                ),
            })?;
        let pea = report
            .potential_attacker_share(&inputs.report_category)
            .ok_or(PspError::InvalidFinancialInput {
                parameter: "PEA",
                detail: format!("no report category matching `{}`", inputs.report_category),
            })?;
        if pea <= 0.0 {
            return Err(PspError::InvalidFinancialInput {
                parameter: "PEA",
                detail: "potential-attacker share must be positive".to_string(),
            });
        }

        // PPIA from the mined prices: the median of the dominant listing cluster.
        // Clustering first (k = 2) separates bare-component listings from
        // full-service listings when both are present; the median inside the
        // dominant cluster is then robust against the ±15 % listing noise.
        let prices = sai.scenario_prices(scenario);
        if prices.is_empty() {
            return Err(PspError::InvalidFinancialInput {
                parameter: "PPIA",
                detail: format!("no prices mined for scenario `{scenario}`"),
            });
        }
        let clusters = kmeans_1d(&prices, 2, 50);
        let well_separated = clusters.len() == 2
            && clusters[1].center > clusters[0].center * 2.0
            && !clusters[0].is_empty();
        let ppia = if well_separated {
            dominant_cluster(&clusters)
                .and_then(|c| representative_price(&c.members))
                .unwrap_or(0.0)
        } else {
            representative_price(&prices).unwrap_or(0.0)
        };
        if ppia <= 0.0 {
            return Err(PspError::InvalidFinancialInput {
                parameter: "PPIA",
                detail: "mined price is not positive".to_string(),
            });
        }
        let vcu = inputs.vcu_override.unwrap_or_else(|| {
            PricingStudy::from_observations(
                prices
                    .iter()
                    .map(|p| market::pricing::PriceObservation::service(*p)),
            )
            .vcu()
            .unwrap_or(ppia / 7.0)
        });

        // Equations 1 and 2.
        let pae = inputs.market.exposed_units(vehicle_sales) * pea;
        let market_value = pae * ppia;

        // Equations 3 to 5.
        let forward = BreakEvenAnalysis::from_effort(
            inputs.adversary_fte_hours,
            inputs.adversary_hourly_cost,
            inputs.adversary_sld,
            ppia,
            vcu,
            inputs.competitors,
        );
        let break_even_units = forward.break_even_units();
        let investment_bound = forward.fixed_cost_for_break_even(pae);
        let profitable = forward.is_profitable_at(pae);

        let rating = rate_financial_feasibility(pae, break_even_units);

        Ok(Self {
            scenario: scenario.to_string(),
            vehicle_sales,
            pea,
            pae,
            ppia,
            vcu,
            market_value,
            forward_fixed_cost: forward.fixed_cost,
            break_even_units,
            investment_bound,
            profitable,
            rating,
        })
    }
}

/// Maps the demand-to-break-even ratio onto the shared feasibility scale: demand at
/// twice the break-even volume (or more) is High, above break-even is Medium, above
/// half of it is Low, anything else Very Low.  This realises the paper's statement
/// that attacks in the profitable blue zone have a "feasibility rate ranging from
/// medium to high".
#[must_use]
pub fn rate_financial_feasibility(
    demand_units: f64,
    break_even_units: Option<f64>,
) -> AttackFeasibilityRating {
    let Some(bep) = break_even_units else {
        return AttackFeasibilityRating::VeryLow;
    };
    if bep <= 0.0 {
        return AttackFeasibilityRating::High;
    }
    let ratio = demand_units / bep;
    if ratio >= 2.0 {
        AttackFeasibilityRating::High
    } else if ratio >= 1.0 {
        AttackFeasibilityRating::Medium
    } else if ratio >= 0.5 {
        AttackFeasibilityRating::Low
    } else {
        AttackFeasibilityRating::VeryLow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PspConfig;
    use crate::keyword_db::KeywordDatabase;
    use socialsim::scenario;

    fn excavator_assessment() -> FinancialAssessment {
        let corpus = scenario::excavator_europe(42);
        let sai = SaiList::compute(
            &corpus,
            &KeywordDatabase::excavator_seed(),
            &PspConfig::excavator_europe(),
        );
        FinancialAssessment::assess(
            "dpf-tampering",
            &sai,
            &market::datasets::excavator_sales_europe(),
            &market::datasets::annual_report(),
            &FinancialInputs::paper_excavator_example(),
        )
        .expect("the calibrated excavator example always assesses")
    }

    #[test]
    fn equation_2_pae_matches_the_paper() {
        let a = excavator_assessment();
        assert!(
            (a.pae - market::datasets::PAPER_PAE).abs() < 5.0,
            "PAE = {}",
            a.pae
        );
    }

    #[test]
    fn equation_6_market_value_matches_the_paper_within_price_noise() {
        let a = excavator_assessment();
        // The mined PPIA carries ±15 % listing noise around 360 EUR, so MV lands
        // within roughly ±10 % of the paper's 506 160 EUR.
        let relative_error = (a.market_value - market::datasets::PAPER_MV_EUR).abs()
            / market::datasets::PAPER_MV_EUR;
        assert!(relative_error < 0.10, "MV = {}", a.market_value);
        assert!((300.0..=430.0).contains(&a.ppia), "PPIA = {}", a.ppia);
    }

    #[test]
    fn equation_7_investment_bound_matches_the_paper_within_price_noise() {
        let a = excavator_assessment();
        let relative_error = (a.investment_bound - market::datasets::PAPER_FC_EUR).abs()
            / market::datasets::PAPER_FC_EUR;
        assert!(relative_error < 0.15, "FC = {}", a.investment_bound);
    }

    #[test]
    fn dpf_tampering_is_profitable_and_highly_feasible() {
        let a = excavator_assessment();
        assert!(a.profitable);
        assert!(a.rating >= AttackFeasibilityRating::Medium);
        assert!(a.break_even_units.is_some());
    }

    #[test]
    fn missing_sales_data_is_reported() {
        let corpus = scenario::excavator_europe(42);
        let sai = SaiList::compute(
            &corpus,
            &KeywordDatabase::excavator_seed(),
            &PspConfig::excavator_europe(),
        );
        let mut inputs = FinancialInputs::paper_excavator_example();
        inputs.application = "submarine".to_string();
        let err = FinancialAssessment::assess(
            "dpf-tampering",
            &sai,
            &market::datasets::excavator_sales_europe(),
            &market::datasets::annual_report(),
            &inputs,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PspError::InvalidFinancialInput {
                parameter: "VS",
                ..
            }
        ));
    }

    #[test]
    fn scenario_without_prices_is_rejected() {
        let corpus = scenario::excavator_europe(42);
        let sai = SaiList::compute(
            &corpus,
            &KeywordDatabase::excavator_seed(),
            &PspConfig::excavator_europe(),
        );
        let err = FinancialAssessment::assess(
            "unknown-scenario",
            &sai,
            &market::datasets::excavator_sales_europe(),
            &market::datasets::annual_report(),
            &FinancialInputs::paper_excavator_example(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PspError::InvalidFinancialInput {
                parameter: "PPIA",
                ..
            }
        ));
    }

    #[test]
    fn rating_bands() {
        assert_eq!(
            rate_financial_feasibility(100.0, None),
            AttackFeasibilityRating::VeryLow
        );
        assert_eq!(
            rate_financial_feasibility(100.0, Some(40.0)),
            AttackFeasibilityRating::High
        );
        assert_eq!(
            rate_financial_feasibility(100.0, Some(80.0)),
            AttackFeasibilityRating::Medium
        );
        assert_eq!(
            rate_financial_feasibility(100.0, Some(150.0)),
            AttackFeasibilityRating::Low
        );
        assert_eq!(
            rate_financial_feasibility(100.0, Some(500.0)),
            AttackFeasibilityRating::VeryLow
        );
        assert_eq!(
            rate_financial_feasibility(10.0, Some(0.0)),
            AttackFeasibilityRating::High
        );
    }

    #[test]
    fn lower_demand_reduces_feasibility() {
        let corpus = scenario::excavator_europe(42);
        let sai = SaiList::compute(
            &corpus,
            &KeywordDatabase::excavator_seed(),
            &PspConfig::excavator_europe(),
        );
        let mut inputs = FinancialInputs::paper_excavator_example();
        inputs.market = MarketStructure::with_share(0.01);
        let small = FinancialAssessment::assess(
            "dpf-tampering",
            &sai,
            &market::datasets::excavator_sales_europe(),
            &market::datasets::annual_report(),
            &inputs,
        )
        .unwrap();
        let big = excavator_assessment();
        assert!(small.pae < big.pae);
        assert!(small.rating <= big.rating);
    }
}
