//! The serialisable PSP report bundling the run artefacts.
//!
//! A product-security team consuming PSP does not want to re-run the pipeline to
//! read its conclusions; the report gathers the SAI ranking, the generated weight
//! tables, the optional financial assessments and the static-vs-dynamic TARA deltas
//! into one JSON-serialisable document.

use crate::dynamic_tara::DynamicTaraComparison;
use crate::financial::FinancialAssessment;
use crate::workflow::PspOutcome;
use serde::Serialize;

/// The top-level PSP report.
#[derive(Debug, Serialize)]
pub struct PspReport {
    /// A caller-chosen title (e.g. "ECM reprogramming — EU passenger cars").
    pub title: String,
    /// The workflow outcome (SAI list, tables, learned keywords).
    pub outcome: PspOutcome,
    /// Financial assessments, one per analysed scenario.
    pub financial: Vec<FinancialAssessment>,
    /// Optional static-vs-dynamic TARA comparison.
    pub tara_comparison: Option<DynamicTaraComparison>,
}

impl PspReport {
    /// Creates a report from a workflow outcome.
    #[must_use]
    pub fn new(title: impl Into<String>, outcome: PspOutcome) -> Self {
        Self {
            title: title.into(),
            outcome,
            financial: Vec::new(),
            tara_comparison: None,
        }
    }

    /// Attaches a financial assessment.
    #[must_use]
    pub fn with_financial(mut self, assessment: FinancialAssessment) -> Self {
        self.financial.push(assessment);
        self
    }

    /// Serialises the report to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error if serialisation fails (it cannot
    /// for the types involved, but the signature keeps the caller honest).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// A short plain-text executive summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("PSP report: {}\n", self.title));
        out.push_str(&format!(
            "  SAI entries: {} ({} insider, {} outsider)\n",
            self.outcome.sai.len(),
            self.outcome.sai.insider_entries().len(),
            self.outcome.sai.outsider_entries().len()
        ));
        if let Some(top) = self.outcome.sai.top() {
            out.push_str(&format!(
                "  top attack topic: {} (scenario {}, probability {:.1}%)\n",
                top.keyword,
                top.scenario,
                top.probability * 100.0
            ));
        }
        out.push_str(&format!(
            "  learned keywords this run: {}\n",
            self.outcome.learned_count()
        ));
        for assessment in &self.financial {
            out.push_str(&format!(
                "  financial [{}]: MV = {:.0} EUR/yr, investment bound = {:.0} EUR, rating = {}\n",
                assessment.scenario,
                assessment.market_value,
                assessment.investment_bound,
                assessment.rating
            ));
        }
        if let Some(cmp) = &self.tara_comparison {
            out.push_str(&format!(
                "  TARA: {} of {} threats re-rated by the dynamic model\n",
                cmp.changed_count(),
                cmp.deltas.len()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PspConfig;
    use crate::dynamic_tara::{ecm_reference_tara, DynamicTaraComparison};
    use crate::financial::{FinancialAssessment, FinancialInputs};
    use crate::keyword_db::KeywordDatabase;
    use crate::sai::SaiList;
    use crate::workflow::PspWorkflow;
    use socialsim::scenario;

    fn full_report() -> PspReport {
        let corpus = scenario::excavator_europe(42);
        let config = PspConfig::excavator_europe();
        let db = KeywordDatabase::excavator_seed();
        let outcome = PspWorkflow::new(config.clone(), db.clone()).run(&corpus);
        let sai = SaiList::compute(&corpus, &db, &config);
        let financial = FinancialAssessment::assess(
            "dpf-tampering",
            &sai,
            &market::datasets::excavator_sales_europe(),
            &market::datasets::annual_report(),
            &FinancialInputs::paper_excavator_example(),
        )
        .unwrap();

        let car_outcome = PspWorkflow::new(
            PspConfig::passenger_car_europe(),
            KeywordDatabase::passenger_car_seed(),
        )
        .run(&scenario::passenger_car_europe(42));
        let comparison = DynamicTaraComparison::evaluate(
            &ecm_reference_tara("ECM"),
            &car_outcome,
            "ecm-reprogramming",
        )
        .unwrap();

        PspReport {
            tara_comparison: Some(comparison),
            ..PspReport::new("excavator study", outcome).with_financial(financial)
        }
    }

    #[test]
    fn summary_mentions_the_key_numbers() {
        let report = full_report();
        let summary = report.summary();
        assert!(summary.contains("excavator study"));
        assert!(summary.contains("top attack topic"));
        assert!(summary.contains("financial [dpf-tampering]"));
        assert!(summary.contains("TARA:"));
    }

    #[test]
    fn minimal_report_has_no_financial_or_tara_sections() {
        let outcome = PspWorkflow::new(
            PspConfig::excavator_europe(),
            KeywordDatabase::excavator_seed(),
        )
        .run(&scenario::excavator_europe(1));
        let report = PspReport::new("minimal", outcome);
        assert!(report.financial.is_empty());
        assert!(report.tara_comparison.is_none());
        assert!(!report.summary().contains("financial ["));
    }
}
