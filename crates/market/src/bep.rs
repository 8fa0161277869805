//! Break-even analysis (paper Equations 3–5 and Figure 11).
//!
//! The break-even point is the number of sold attack "units" at which the
//! adversary's revenue covers their cost:
//!
//! ```text
//! BEP = FC / ((PPIA − VCU) / n) = FC · n / (PPIA − VCU)          (Equation 3)
//! FC  = FTEH · ch + SLD                                           (Equation 4)
//! FC  = BEP · (PPIA − VCU) / n                                    (Equation 5, inverse)
//! ```
//!
//! Figure 11 plots the revenue and total-cost lines whose intersection is the BEP;
//! [`BreakEvenAnalysis::curve`] produces exactly those series.

/// One point of the revenue/cost curves of Figure 11.
#[derive(Debug, Clone, Copy)]
pub struct CostRevenuePoint {
    /// Units sold.
    pub units: f64,
    /// Cumulative revenue at that volume.
    pub revenue: f64,
    /// Cumulative total cost (fixed + variable) at that volume.
    pub cost: f64,
}

impl CostRevenuePoint {
    /// Whether the adversary is profitable at this volume (revenue ≥ cost) — the
    /// blue zone of Figure 11.
    #[must_use]
    pub fn is_profitable(&self) -> bool {
        self.revenue >= self.cost
    }
}

/// The parameters of a break-even analysis for one insider attack.
#[derive(Debug, Clone, Copy)]
pub struct BreakEvenAnalysis {
    /// Fixed cost `FC` of developing the attack (EUR).
    pub fixed_cost: f64,
    /// Purchase price per insider attack `PPIA` (EUR per unit).
    pub ppia: f64,
    /// Variable cost per unit `VCU` (EUR per unit).
    pub vcu: f64,
    /// Number of competing attackers `n` sharing the market.
    pub competitors: u32,
}

impl BreakEvenAnalysis {
    /// Creates an analysis.  `competitors` is clamped to at least 1.
    #[must_use]
    pub fn new(fixed_cost: f64, ppia: f64, vcu: f64, competitors: u32) -> Self {
        Self {
            fixed_cost,
            ppia,
            vcu,
            competitors: competitors.max(1),
        }
    }

    /// Computes `FC` from the effort model of Equation 4.
    ///
    /// * `fte_hours` — total engineering hours (`FTEH`),
    /// * `hourly_cost` — hourly cost of the adversary workforce (`ch`),
    /// * `sld` — yearly straight-line depreciation of the lab.
    #[must_use]
    pub fn from_effort(
        fte_hours: f64,
        hourly_cost: f64,
        sld: f64,
        ppia: f64,
        vcu: f64,
        competitors: u32,
    ) -> Self {
        Self::new(fte_hours * hourly_cost + sld, ppia, vcu, competitors)
    }

    /// The unit margin `(PPIA − VCU)`.
    #[must_use]
    pub fn unit_margin(&self) -> f64 {
        self.ppia - self.vcu
    }

    /// The break-even point of Equation 3 in units.  Returns `None` when the unit
    /// margin is not positive (the attack can never pay for itself).
    #[must_use]
    pub fn break_even_units(&self) -> Option<f64> {
        let margin = self.unit_margin();
        if margin <= 0.0 {
            return None;
        }
        Some(self.fixed_cost * f64::from(self.competitors) / margin)
    }

    /// The inverse function of Equation 5: the fixed cost (total investment) that a
    /// given break-even volume corresponds to.  The PSP framework sets the
    /// break-even volume to `PAE` to obtain the investment an attacker could justify
    /// — i.e. the budget the product's protections must withstand.
    #[must_use]
    pub fn fixed_cost_for_break_even(&self, break_even_units: f64) -> f64 {
        break_even_units * self.unit_margin() / f64::from(self.competitors)
    }

    /// Whether a sales volume lands in the profitable (blue) zone of Figure 11.
    #[must_use]
    pub fn is_profitable_at(&self, units: f64) -> bool {
        match self.break_even_units() {
            Some(bep) => units >= bep,
            None => false,
        }
    }

    /// The revenue and total-cost curves of Figure 11, sampled at `samples` evenly
    /// spaced volumes from 0 to `max_units`.  Each attacker only captures
    /// `1 / competitors` of the demand, which matches the per-attacker revenue split
    /// of Equation 3.
    #[must_use]
    pub fn curve(&self, max_units: f64, samples: usize) -> Vec<CostRevenuePoint> {
        let samples = samples.max(2);
        let mut out = Vec::with_capacity(samples);
        for i in 0..samples {
            let units = max_units * i as f64 / (samples - 1) as f64;
            let captured = units / f64::from(self.competitors);
            out.push(CostRevenuePoint {
                units,
                revenue: captured * self.ppia,
                cost: self.fixed_cost + captured * self.vcu,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's worked example: FC such that BEP equals PAE = 1 406 with
    /// PPIA − VCU = 310 EUR and n = 3 competitors gives FC ≈ 145 286 EUR.
    #[test]
    fn paper_equation_7_inverse_fixed_cost() {
        let analysis = BreakEvenAnalysis::new(0.0, 360.0, 50.0, 3);
        let fc = analysis.fixed_cost_for_break_even(1_406.0);
        assert!((fc - 145_286.0).abs() < 100.0, "FC = {fc}");
    }

    #[test]
    fn equation_3_break_even() {
        let analysis = BreakEvenAnalysis::new(145_286.0, 360.0, 50.0, 3);
        let bep = analysis.break_even_units().unwrap();
        assert!((bep - 1_406.0).abs() < 2.0, "BEP = {bep}");
    }

    #[test]
    fn equation_4_effort_model() {
        let analysis = BreakEvenAnalysis::from_effort(1_600.0, 85.0, 9_286.0, 360.0, 50.0, 3);
        assert!((analysis.fixed_cost - 145_286.0).abs() < 1.0);
    }

    #[test]
    fn non_positive_margin_never_breaks_even() {
        let analysis = BreakEvenAnalysis::new(10_000.0, 100.0, 120.0, 1);
        assert_eq!(analysis.break_even_units(), None);
        assert!(!analysis.is_profitable_at(1e9));
    }

    #[test]
    fn profitability_zones_around_the_bep() {
        let analysis = BreakEvenAnalysis::new(10_000.0, 300.0, 100.0, 2);
        let bep = analysis.break_even_units().unwrap();
        assert!(!analysis.is_profitable_at(bep * 0.5));
        assert!(analysis.is_profitable_at(bep * 1.5));
        assert!(analysis.is_profitable_at(bep));
    }

    #[test]
    fn curve_crosses_at_the_break_even_point() {
        let analysis = BreakEvenAnalysis::new(10_000.0, 300.0, 100.0, 1);
        let bep = analysis.break_even_units().unwrap();
        let points = analysis.curve(bep * 2.0, 201);
        // Below the BEP cost exceeds revenue; above, revenue exceeds cost.
        let below = points.iter().filter(|p| p.units < bep * 0.95);
        let above = points.iter().filter(|p| p.units > bep * 1.05);
        assert!(below.clone().count() > 0 && above.clone().count() > 0);
        assert!(below.clone().all(|p| !p.is_profitable()));
        assert!(above.clone().all(|p| p.is_profitable()));
    }

    #[test]
    fn competitors_are_clamped_to_one() {
        let analysis = BreakEvenAnalysis::new(1_000.0, 200.0, 100.0, 0);
        assert_eq!(analysis.competitors, 1);
        assert_eq!(analysis.break_even_units(), Some(10.0));
    }

    #[test]
    fn more_competitors_push_the_bep_out() {
        let solo = BreakEvenAnalysis::new(1_000.0, 200.0, 100.0, 1);
        let crowded = BreakEvenAnalysis::new(1_000.0, 200.0, 100.0, 4);
        assert!(crowded.break_even_units().unwrap() > solo.break_even_units().unwrap());
    }

    #[test]
    fn curve_has_requested_resolution() {
        let analysis = BreakEvenAnalysis::new(1_000.0, 200.0, 100.0, 1);
        assert_eq!(analysis.curve(100.0, 11).len(), 11);
        assert_eq!(analysis.curve(100.0, 1).len(), 2, "minimum two samples");
    }
}
