//! Fleet sweep: how the PSP verdict changes across vehicle applications, market
//! structures and analysis windows.
//!
//! The paper motivates PSP with the diversity of the road-vehicle sector — the same
//! threat scenario has very different dynamics on a passenger car, a light truck
//! and an excavator.  This example sweeps the three reference architectures, runs
//! the reachability analysis, the PSP weight tuning and the financial model, and
//! prints one summary row per (application, window) combination.
//!
//! Parts 2–5 route their cross-products through the batch plane
//! ([`MatrixSpec`] / `sai_matrix`) and assert every cell bit-identical to the
//! hand-nested loops they replaced, so the example doubles as a CI smoke test
//! for the `SweepMatrix` scheduler.
//!
//! ```text
//! cargo run --example fleet_sweep
//! ```

use psp_suite::market::datasets;
use psp_suite::market::share::MarketStructure;
use psp_suite::psp::config::{PspConfig, SaiWeights};
use psp_suite::psp::engine::{LiveEngine, MatrixSpec, SaiScorer, WindowAxis};
use psp_suite::psp::financial::{rate_financial_feasibility, FinancialAssessment, FinancialInputs};
use psp_suite::psp::keyword_db::KeywordDatabase;
use psp_suite::psp::learning::learn_keywords;
use psp_suite::psp::sai::SaiList;
use psp_suite::psp::weights::WeightGenerator;
use psp_suite::psp::workflow::PspWorkflow;
use psp_suite::socialsim::scenario;
use psp_suite::socialsim::time::DateWindow;
use psp_suite::vehicle::attack_surface::AttackRange;
use psp_suite::vehicle::reachability::ReachabilityAnalysis;
use psp_suite::vehicle::reference::{excavator, light_truck, passenger_car};

fn main() {
    // Part 1: structural exposure of the three reference fleets (Figure 4 recap).
    println!("Structural exposure of the reference architectures:");
    for topology in [passenger_car(), light_truck(), excavator()] {
        let analysis = ReachabilityAnalysis::analyze(&topology);
        let grouped = analysis.grouped_by_dominant_range(1);
        let count = |range: AttackRange| grouped.get(&range).map_or(0, Vec::len);
        println!(
            "  {:<14} ECUs={:<3} long-range={:<3} short-range={:<3} physical-only={}",
            topology.name(),
            topology.ecu_count(),
            count(AttackRange::LongRange),
            count(AttackRange::ShortRange),
            count(AttackRange::Physical),
        );
    }

    // Part 2: PSP weight tuning per scene and window — one matrix over the
    // window axis instead of one workflow run per window.  Keyword learning is
    // window-independent (it sees the full corpus), so it is hoisted out of
    // the loop and the learned database feeds every cell.
    println!("\nDominant insider vector for ECM reprogramming (passenger car):");
    let car_corpus = scenario::passenger_car_europe(42);
    let base = PspConfig::passenger_car_europe();
    let mut learned_db = KeywordDatabase::passenger_car_seed();
    if base.keyword_learning {
        learn_keywords(&mut learned_db, &car_corpus, base.learning_min_support);
    }
    let window_axis = [
        ("all time", None),
        ("2021+", Some(DateWindow::years(2021, 2023))),
        ("2015-2019", Some(DateWindow::years(2015, 2019))),
    ];
    let windows: Vec<Option<DateWindow>> = window_axis.iter().map(|(_, w)| *w).collect();
    let spec = MatrixSpec::new()
        .scenario("ecm", learned_db.clone())
        .config("base", base.clone())
        .window_axis(&WindowAxis::spans(&windows));
    let car_engine = LiveEngine::new(car_corpus.clone());
    let cells = car_engine.sai_matrix(&spec);
    let generator = WeightGenerator::new();
    for (w, (label, window)) in window_axis.iter().enumerate() {
        let sai = cells.get(0, 0, w).expect("cell resolved");
        let table = generator.insider_table(sai, "ecm-reprogramming");
        // The old nested loop: one full workflow run per window.  The matrix
        // cell must reproduce it bit for bit.
        let mut config = base.clone();
        if let Some(w) = window {
            config = config.with_window(*w);
        }
        let outcome =
            PspWorkflow::new(config, KeywordDatabase::passenger_car_seed()).run(&car_corpus);
        assert_eq!(*sai, outcome.sai, "matrix cell diverged from the workflow");
        assert_eq!(
            Some(&table),
            outcome.insider_table("ecm-reprogramming"),
            "tuned table diverged from the workflow"
        );
        println!("  window {label:<10} -> ranking {:?}", table.ranking());
    }

    // Part 3: financial sweep over market structures for the excavator DPF attack.
    // The SAI evidence is one full-history matrix cell.
    println!("\nFinancial sweep for excavator DPF tampering:");
    let corpus = scenario::excavator_europe(42);
    let excavator_db = KeywordDatabase::excavator_seed();
    let excavator_config = PspConfig::excavator_europe();
    let excavator_cells = LiveEngine::new(corpus.clone()).sai_matrix(
        &MatrixSpec::new()
            .scenario("dpf", excavator_db.clone())
            .config("base", excavator_config.clone()),
    );
    let sai = excavator_cells.get(0, 0, 0).expect("cell resolved");
    assert_eq!(
        *sai,
        SaiList::compute(&corpus, &excavator_db, &excavator_config),
        "matrix cell diverged from the direct computation"
    );
    println!(
        "  {:<28} {:>10} {:>14} {:>14} {:>10}",
        "market structure", "PAE", "MV EUR/yr", "FC bound EUR", "rating"
    );
    for (label, market) in [
        ("monopolistic (full fleet)", MarketStructure::Monopolistic),
        ("40% market share", MarketStructure::with_share(0.40)),
        ("15% market share", MarketStructure::with_share(0.15)),
        ("5% market share", MarketStructure::with_share(0.05)),
    ] {
        let mut inputs = FinancialInputs::paper_excavator_example();
        inputs.market = market;
        let assessment = FinancialAssessment::assess(
            "dpf-tampering",
            sai,
            &datasets::excavator_sales_europe(),
            &datasets::annual_report(),
            &inputs,
        )
        .expect("sweep assesses");
        println!(
            "  {:<28} {:>10.0} {:>14.0} {:>14.0} {:>10}",
            label,
            assessment.pae,
            assessment.market_value,
            assessment.investment_bound,
            assessment.rating
        );
    }

    // Part 4: how the financial rating behaves as demand shrinks relative to the
    // break-even volume (the blue/red zones of Figure 11).
    println!("\nFinancial feasibility vs demand/break-even ratio:");
    for ratio in [3.0, 2.0, 1.2, 1.0, 0.7, 0.4, 0.1] {
        let rating = rate_financial_feasibility(ratio * 1_000.0, Some(1_000.0));
        println!("  demand = {ratio:>4.1} x BEP -> {rating}");
    }

    // Part 5: the merged multi-corpus fleet on one warm engine, resolving a
    // full (scenario × weights × windows) matrix in one request through
    // prefix-summed sweep plans.
    let mut fleet = scenario::passenger_car_europe(42);
    fleet.merge(scenario::excavator_europe(42));
    let engine = LiveEngine::new(fleet);
    println!("\nFleet matrix over {} posts:", engine.post_count());
    let windows: Vec<DateWindow> = (2018..=2023).map(|y| DateWindow::years(y, y)).collect();
    let car_db = KeywordDatabase::passenger_car_seed();
    let fleet_dbs = [car_db.clone(), excavator_db.clone()];
    let fleet_configs = [
        PspConfig::passenger_car_europe(),
        PspConfig::passenger_car_europe().with_weights(SaiWeights::views_only()),
    ];
    // The batch plane entry point: 2 scenarios × 2 weight sets × 6 windows in
    // one request, one plan per (db, scene).
    let fleet_spec = MatrixSpec::new()
        .scenario("passenger-car", fleet_dbs[0].clone())
        .scenario("excavator", fleet_dbs[1].clone())
        .config("balanced", fleet_configs[0].clone())
        .config("views-only", fleet_configs[1].clone())
        .window_axis(&WindowAxis::each(&windows));
    let fleet_cells = engine.sai_matrix(&fleet_spec);
    println!(
        "  resolved {} cells (2 scenarios x 2 weight sets x {} windows)",
        fleet_cells.len(),
        windows.len()
    );
    for (window, w) in windows.iter().zip(0..) {
        let sai = fleet_cells.get(0, 0, w).expect("cell resolved");
        let top = sai.top().map_or("no evidence".to_string(), |e| {
            format!("{} (SAI {:.0})", e.keyword, e.sai)
        });
        println!("  window {} -> top keyword {top}", window.from.year());
    }
    // The old nested loops — the per-window sweep and one `sai_list` per
    // cell — must agree with the matrix to the bit.
    let base = &fleet_configs[0];
    assert_eq!(
        (0..windows.len())
            .map(|w| fleet_cells.get(0, 0, w).expect("cell resolved").clone())
            .collect::<Vec<_>>(),
        engine.sai_windows(&car_db, base, &WindowAxis::each(&windows)),
        "matrix row diverged from the sweep"
    );
    for (id, sai) in fleet_cells.iter() {
        let config = fleet_configs[id.config]
            .clone()
            .with_window(windows[id.window]);
        assert_eq!(
            *sai,
            engine.sai_list(&fleet_dbs[id.scenario], &config),
            "cell {id:?} diverged from the per-cell list"
        );
    }
    println!(
        "  matrix == sweep == nested per-cell lists over {} cells: bit-exact",
        fleet_cells.len()
    );
}
