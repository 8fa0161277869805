//! Cross-crate integration tests: the full PSP pipeline from synthetic social
//! corpus to re-rated TARA, exercised the way a downstream user would.

use psp_suite::iso21434::feasibility::attack_vector::{AttackVectorModel, AttackVectorTable};
use psp_suite::iso21434::feasibility::AttackFeasibilityRating;
use psp_suite::market::datasets;
use psp_suite::psp::config::PspConfig;
use psp_suite::psp::dynamic_tara::{ecm_reference_tara, DynamicTaraComparison};
use psp_suite::psp::financial::{FinancialAssessment, FinancialInputs};
use psp_suite::psp::keyword_db::KeywordDatabase;
use psp_suite::psp::report::PspReport;
use psp_suite::psp::sai::SaiList;
use psp_suite::psp::workflow::PspWorkflow;
use psp_suite::socialsim::scenario;
use psp_suite::socialsim::time::DateWindow;
use psp_suite::vehicle::attack_surface::AttackVector;

#[test]
fn full_pipeline_passenger_car_static_vs_dynamic() {
    let corpus = scenario::passenger_car_europe(42);
    let outcome = PspWorkflow::new(
        PspConfig::passenger_car_europe(),
        KeywordDatabase::passenger_car_seed(),
    )
    .run(&corpus);

    let tara = ecm_reference_tara("ECM");
    let comparison = DynamicTaraComparison::evaluate(&tara, &outcome, "ecm-reprogramming").unwrap();

    // Static model under-rates the reprogramming threat; the dynamic model raises
    // both its feasibility and its risk.
    let delta = comparison.delta("ECM reprogramming").unwrap();
    assert_eq!(delta.static_feasibility, AttackFeasibilityRating::Low);
    assert_eq!(delta.dynamic_feasibility, AttackFeasibilityRating::High);
    assert!(delta.risk_raised());

    // The dynamic report generates at least one cybersecurity goal that the static
    // report missed.
    assert!(comparison.dynamic_report.goal_count() > comparison.static_report.goal_count());
}

#[test]
fn full_pipeline_excavator_financial_report() {
    let corpus = scenario::excavator_europe(42);
    let config = PspConfig::excavator_europe();
    let db = KeywordDatabase::excavator_seed();
    let outcome = PspWorkflow::new(config.clone(), db.clone()).run(&corpus);
    let sai = SaiList::compute(&corpus, &db, &config);

    let assessment = FinancialAssessment::assess(
        "dpf-tampering",
        &sai,
        &datasets::excavator_sales_europe(),
        &datasets::annual_report(),
        &FinancialInputs::paper_excavator_example(),
    )
    .unwrap();

    let report = PspReport::new("excavator DPF study", outcome).with_financial(assessment);
    let json = report.to_json().unwrap();
    assert!(json.contains("dpf-tampering"));
    assert!(report.summary().contains("financial [dpf-tampering]"));
}

#[test]
fn window_choice_flips_the_recommended_priority() {
    let corpus = scenario::passenger_car_europe(42);
    let db = KeywordDatabase::passenger_car_seed();

    let all_time = PspWorkflow::new(PspConfig::passenger_car_europe(), db.clone()).run(&corpus);
    let recent = PspWorkflow::new(
        PspConfig::passenger_car_europe().with_window(DateWindow::years(2021, 2023)),
        db,
    )
    .run(&corpus);

    let all_table = all_time.insider_table("ecm-reprogramming").unwrap();
    let recent_table = recent.insider_table("ecm-reprogramming").unwrap();
    assert_eq!(all_table.ranking()[0], AttackVector::Physical);
    assert_eq!(recent_table.ranking()[0], AttackVector::Local);
    assert!(!all_table.same_ratings_as(recent_table));
}

#[test]
fn outsider_threats_keep_the_standard_ratings_end_to_end() {
    let corpus = scenario::passenger_car_europe(42);
    let outcome = PspWorkflow::new(
        PspConfig::passenger_car_europe(),
        KeywordDatabase::passenger_car_seed(),
    )
    .run(&corpus);

    assert!(outcome
        .outsider_table
        .same_ratings_as(&AttackVectorTable::standard()));
    // No tuned table exists for the outsider scenarios.
    assert!(outcome.insider_table("vehicle-theft").is_none());
    assert!(outcome.insider_table("remote-exploitation").is_none());
}

#[test]
fn different_seeds_change_numbers_but_not_conclusions() {
    let db = KeywordDatabase::passenger_car_seed();
    for seed in [1_u64, 7, 99, 12345] {
        let corpus = scenario::passenger_car_europe(seed);
        let outcome = PspWorkflow::new(PspConfig::passenger_car_europe(), db.clone()).run(&corpus);
        let table = outcome.insider_table("ecm-reprogramming").unwrap();
        assert_eq!(
            table.ranking()[0],
            AttackVector::Physical,
            "seed {seed}: all-time evidence must keep the physical route on top"
        );
    }
}

#[test]
fn tuned_model_can_be_used_directly_with_the_tara_engine() {
    let corpus = scenario::passenger_car_europe(42);
    let outcome = PspWorkflow::new(
        PspConfig::passenger_car_europe(),
        KeywordDatabase::passenger_car_seed(),
    )
    .run(&corpus);
    let model =
        AttackVectorModel::with_table(outcome.insider_table("ecm-reprogramming").unwrap().clone());
    let report = ecm_reference_tara("ECM").evaluate(&model).unwrap();
    assert_eq!(report.assessments().len(), 3);
    assert!(report.model_name().contains("PSP insider table"));
}
