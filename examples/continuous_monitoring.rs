//! Continuous monitoring: the "runtime model environment" the paper's conclusion
//! aims for, run as a *live-ingest loop* — plus closing the loop with a control
//! plan sized to the financial investment bound.
//!
//! Instead of analysing a frozen corpus in hindsight, this example replays the
//! ECM-reprogramming scene as it would have arrived: posts stream in year by
//! year into one warm `LiveMonitor`, whose engine absorbs each batch in
//! amortised O(batch) (in-place index append, no signal-cache wipe) and
//! re-evaluates the sliding-window analysis after every ingest.  The trend
//! inversion of Figure 9 is reported the moment the evidence for it lands.
//! At the end, the warm series is checked bit-for-bit against a cold
//! full-rebuild run — the equivalence the property tests pin down.
//!
//! ```text
//! cargo run --example continuous_monitoring
//! ```

use psp_suite::iso21434::controls::{anti_tampering_catalogue, ControlPlan};
use psp_suite::market::datasets;
use psp_suite::psp::config::PspConfig;
use psp_suite::psp::engine::{SaiScorer, WindowAxis};
use psp_suite::psp::financial::{FinancialAssessment, FinancialInputs};
use psp_suite::psp::keyword_db::KeywordDatabase;
use psp_suite::psp::monitoring::{LiveMonitor, MonitoringSeries};
use psp_suite::psp::sai::SaiList;
use psp_suite::socialsim::corpus::Corpus;
use psp_suite::socialsim::post::Post;
use psp_suite::socialsim::scenario;
use psp_suite::socialsim::time::DateWindow;
use psp_suite::vehicle::attack_surface::AttackVector;
use std::collections::BTreeMap;

fn main() {
    // Part 1: live sliding-window monitoring of the ECM-reprogramming scene.
    // The generated scene is replayed as a stream: one ingest batch per year.
    let full = scenario::passenger_car_europe(42);
    let mut by_year: BTreeMap<i32, Vec<Post>> = BTreeMap::new();
    for post in full.posts() {
        by_year
            .entry(post.date().year())
            .or_default()
            .push(post.clone());
    }

    let db = KeywordDatabase::passenger_car_seed();
    let config = PspConfig::passenger_car_europe();
    let mut monitor = LiveMonitor::new(
        Corpus::new(),
        db.clone(),
        config.clone(),
        "ecm-reprogramming",
        2,
    );

    println!("ECM reprogramming, 2-year sliding windows, live ingestion:");
    let mut detected: Option<i32> = None;
    for (year, batch) in by_year {
        let receipt = monitor.ingest(batch);
        let series = monitor.series(2015, year);
        let latest = series
            .observations
            .last()
            .expect("at least one window per ingest year");
        let dominant = latest
            .dominant
            .map_or("no evidence".to_string(), |v| v.to_string());
        println!(
            "  [{year}] +{:<4} posts (total {:<5}, gen {:>2})  window {}-{}: posts={:<5} dominant={}",
            receipt.appended,
            monitor.post_count(),
            receipt.generation,
            latest.from_year,
            latest.to_year,
            latest.posts,
            dominant,
        );
        if detected.is_none() {
            if let Some(inversion) = series.inversion_year() {
                detected = Some(inversion);
                println!(
                    "  >> trend inversion (physical -> local) visible in the window starting \
                     {inversion}, flagged while ingesting {year}"
                );
            }
        }
    }
    match detected {
        Some(_) => {}
        None => println!("no trend inversion detected"),
    }

    // The warm, incrementally built series must be bit-identical to a cold
    // rebuild over the same grown corpus.
    let warm = monitor.series(2015, 2023);
    let cold = MonitoringSeries::run(
        monitor.engine().corpus(),
        &db,
        &config,
        "ecm-reprogramming",
        2015,
        2023,
        2,
    );
    assert_eq!(warm, cold, "live series diverged from a cold rebuild");
    println!(
        "warm live-ingest series == cold full-rebuild series over {} posts: bit-exact",
        monitor.post_count()
    );

    // The series rides the sweep plane (`sai_windows`): every window resolves
    // against prefix-summed columns instead of re-filtering the candidate
    // set.  Smoke-check that path against per-window batch scoring.
    let windows: Vec<DateWindow> = (2015..=2023)
        .map(|y| DateWindow::years(y, (y + 1).min(2023)))
        .collect();
    let axis = WindowAxis::each(&windows);
    let swept = monitor.engine().sai_windows(&db, &config, &axis);
    let per_window: Vec<PspConfig> = windows
        .iter()
        .map(|w| config.clone().with_window(*w))
        .collect();
    assert_eq!(
        swept,
        monitor.engine().sai_lists(&db, &per_window),
        "sweep plan diverged from per-window batch scoring"
    );
    println!(
        "sai_windows over {} windows == per-window sai_lists on the warm engine: bit-exact",
        axis.len()
    );

    // Part 2: size a control plan against the financial investment bound of the
    // excavator DPF case study.
    let excavator = scenario::excavator_europe(42);
    let sai = SaiList::compute(
        &excavator,
        &KeywordDatabase::excavator_seed(),
        &PspConfig::excavator_europe(),
    );
    let assessment = FinancialAssessment::assess(
        "dpf-tampering",
        &sai,
        &datasets::excavator_sales_europe(),
        &datasets::annual_report(),
        &FinancialInputs::paper_excavator_example(),
    )
    .expect("calibrated example assesses");

    println!(
        "\nDPF tampering investment bound (Eq. 7): {:.0} EUR — the protections must withstand at least this.",
        assessment.investment_bound
    );
    match ControlPlan::select_for(
        &anti_tampering_catalogue(),
        AttackVector::Local,
        assessment.investment_bound,
    ) {
        Some(plan) => {
            println!("selected controls (local / OBD attack route):");
            for control in plan.controls() {
                println!("  - {control}");
            }
            println!(
                "combined resistance {:.0} EUR at an implementation cost of {:.0} EUR",
                plan.resistance_for(AttackVector::Local),
                plan.total_cost()
            );
            println!(
                "residual feasibility for a Local attack initially rated High: {}",
                plan.residual_feasibility(
                    AttackVector::Local,
                    psp_suite::iso21434::feasibility::AttackFeasibilityRating::High
                )
            );
        }
        None => println!("the reference catalogue cannot reach the required resistance"),
    }
}
