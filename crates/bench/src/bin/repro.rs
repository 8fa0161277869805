//! Experiment regeneration binary.
//!
//! ```text
//! cargo run -p psp-bench --bin repro -- all
//! cargo run -p psp-bench --bin repro -- fig9
//! ```
//!
//! One sub-command per paper artefact (see DESIGN.md's experiment index); `all`
//! runs every experiment in order.  The output is the plain-text equivalent of the
//! corresponding table or figure.

use iso21434::cal::CalMatrix;
use iso21434::feasibility::attack_vector::AttackVectorTable;
use iso21434::impact::ImpactRating;
use iso21434::tables;
use market::bep::BreakEvenAnalysis;
use market::datasets;
use psp::config::PspConfig;
use psp::dynamic_tara::{ecm_reference_tara, DynamicTaraComparison};
use psp::financial::{FinancialAssessment, FinancialInputs};
use psp::keyword_db::KeywordDatabase;
use psp::timewindow::compare_windows;
use psp::weights::WeightGenerator;
use psp_bench::{excavator_sai, passenger_corpus, passenger_outcome, passenger_sai, recent_window};
use vehicle::attack_surface::AttackVector;
use vehicle::lifecycle::{DevelopmentLifecycle, LifecyclePhase};
use vehicle::reachability::ReachabilityAnalysis;
use vehicle::reference::passenger_car;
use vehicle::standards_graph::{RelationshipStrength, StandardsGraph};

fn main() {
    let experiments: Vec<String> = std::env::args().skip(1).collect();
    let requested: Vec<&str> = if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        vec![
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "fig11", "fig12", "eq6", "eq7",
        ]
    } else {
        experiments.iter().map(String::as_str).collect()
    };

    for experiment in requested {
        match experiment {
            "fig1" => fig1(),
            "fig2" => fig2(),
            "fig3" => fig3(),
            "fig4" => fig4(),
            "fig5" => fig5(),
            "fig6" => fig6(),
            "fig7" => fig7(),
            "fig8" => fig8(),
            "fig9" => fig9(),
            "fig10" => fig10(),
            "fig11" => fig11(),
            "fig12" => fig12(),
            "eq6" => eq6(),
            "eq7" => eq7(),
            other => eprintln!("unknown experiment `{other}` (use fig1..fig12, eq6, eq7, all)"),
        }
    }
}

fn header(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

fn fig1() {
    header("E1 / Figure 1 — standards contribution list to ISO/SAE-21434");
    let graph = StandardsGraph::paper_figure_1();
    println!("target: {}", graph.target().designation);
    for strength in [RelationshipStrength::Strong, RelationshipStrength::Medium] {
        let contributors = graph.contributors_with(strength);
        println!("{strength} relationships ({}):", contributors.len());
        for std in contributors {
            println!(
                "  {:<28} automotive-specific: {}",
                std.designation, std.automotive_specific
            );
        }
    }
    println!(
        "non-automotive contributor fraction: {:.0}%",
        graph.non_automotive_fraction() * 100.0
    );
}

fn fig2() {
    header("E2 / Figure 2 — ISO/SAE-21434 development life cycle");
    for phase in LifecyclePhase::ALL {
        println!(
            "  {:<45} {:<18} TARA reprocessing: {}",
            phase.label(),
            phase.clause(),
            if phase.triggers_tara_reprocessing() {
                "yes"
            } else {
                "no"
            }
        );
    }
    println!(
        "total TARA passes over the life cycle: {}",
        DevelopmentLifecycle::new().run_to_completion()
    );
}

fn fig3() {
    header("E3 / Figure 3 — attack-potential weights model (Clause 15 / Annex G)");
    let mut current = "";
    for row in tables::attack_potential_rows() {
        if row.parameter != current {
            current = row.parameter;
            println!("{current}:");
        }
        println!("  {:<36} {:>3}", row.level, row.value);
    }
    println!("aggregation bands:");
    for (lo, hi, rating) in tables::ATTACK_POTENTIAL_BANDS {
        let hi_label = if hi == u32::MAX {
            "+".to_string()
        } else {
            hi.to_string()
        };
        println!("  {lo:>3} ..= {hi_label:<4} -> {rating}");
    }
}

fn fig4() {
    header("E4 / Figure 4 — ECU attack-range classification (reference passenger car)");
    let car = passenger_car();
    let analysis = ReachabilityAnalysis::analyze(&car);
    println!(
        "{:<10} {:<34} {:<22} {:<22} reachable (through gateways)",
        "ECU", "full name", "domain", "dominant (no gateway)"
    );
    for ecu in car.ecus() {
        let classification = analysis.classification_of(ecu.name()).expect("classified");
        let reachable: Vec<String> = classification
            .reachable_ranges()
            .iter()
            .map(ToString::to_string)
            .collect();
        println!(
            "{:<10} {:<34} {:<22} {:<22} {}",
            ecu.name(),
            ecu.full_name(),
            ecu.domain().to_string(),
            classification
                .dominant_range(0)
                .map_or("-".to_string(), |r| r.to_string()),
            reachable.join(", ")
        );
    }
    println!("\ncolour groups of Figure 4 (dominant range, no gateway traversal):");
    for (range, ecus) in analysis.grouped_by_dominant_range(0) {
        println!("  {:<22} {}", range.to_string(), ecus.join(", "));
    }
}

fn fig5() {
    header("E5 / Figure 5 & 8-A & 9-A — attack-vector-based approach (standard G.9)");
    print!("{}", AttackVectorTable::standard());
}

fn fig6() {
    header("E6 / Figure 6 — CAL determination (impact x attack vector)");
    let matrix = CalMatrix::new();
    print!("{:<14}", "impact \\ AV");
    for vector in AttackVector::ALL {
        print!("{:<12}", vector.to_string());
    }
    println!();
    for impact in ImpactRating::ALL {
        print!("{:<14}", impact.to_string());
        for vector in AttackVector::ALL {
            let cell = matrix
                .cal(impact, vector)
                .map_or("-".to_string(), |c| c.to_string());
            print!("{cell:<12}");
        }
        println!();
    }
    println!(
        "max CAL reachable through the Physical vector: {}",
        matrix.max_cal_for_vector(AttackVector::Physical)
    );
}

fn fig7() {
    header("E7 / Figure 7 — PSP workflow (blocks 1-12) on the passenger-car scene");
    let corpus = passenger_corpus();
    println!("block 1   target application input: PassengerCar / Europe");
    println!("blocks 2-4 corpus queried: {} posts", corpus.len());
    let outcome = passenger_outcome(None);
    println!(
        "block 5   keyword learning: {} new keywords ({} total in DB)",
        outcome.learned_count(),
        outcome.database.len()
    );
    println!("blocks 6-7 SAI list ({} entries):", outcome.sai.len());
    for entry in outcome.sai.entries() {
        println!(
            "  {:<16} scenario={:<20} vector={:<9} origin={:<8} posts={:<5} SAI={:>12.1} p={:>5.1}%",
            entry.keyword,
            entry.scenario,
            entry.vector.to_string(),
            entry.origin.to_string(),
            entry.posts,
            entry.sai,
            entry.probability * 100.0
        );
    }
    println!(
        "blocks 8-9 insider entries: {}, outsider entries: {}",
        outcome.sai.insider_entries().len(),
        outcome.sai.outsider_entries().len()
    );
    println!(
        "blocks 10-12 generated insider tables: {:?}",
        outcome.insider_scenarios()
    );
}

fn fig8() {
    header("E8 / Figure 8 — outsider (A) vs PSP-tuned insider (B) weights, ECM reprogramming");
    let outcome = passenger_outcome(None);
    println!("A) outsider threats (standard G.9):");
    print!("{}", outcome.outsider_table);
    println!("B) insider threats (PSP corrective factors, full history):");
    print!(
        "{}",
        outcome
            .insider_table("ecm-reprogramming")
            .expect("scenario tuned")
    );
    let factors =
        WeightGenerator::new().corrective_factors(&passenger_sai(None), "ecm-reprogramming");
    println!("corrective factors (SAI share per vector):");
    for (vector, share) in factors {
        // A vector without evidence has share -0.0 (an empty f64 sum), and
        // `f64::max(-0.0, 0.0)` may return either zero: the comparison
        // clamps it to +0.0 in every build profile.
        let percent = if share > 0.0 { share * 100.0 } else { 0.0 };
        println!("  {:<9} {:>6.1}%", vector.to_string(), percent);
    }
}

fn fig9() {
    header("E9 / Figure 9 — G.9 revisions: all-history (B) vs since-2021 (C)");
    let comparison = compare_windows(
        &passenger_corpus(),
        &KeywordDatabase::passenger_car_seed(),
        &PspConfig::passenger_car_europe(),
        "ecm-reprogramming",
        recent_window(),
    );
    println!("A) original G.9 table:");
    print!("{}", AttackVectorTable::standard());
    println!("B) PSP revision, full history:");
    print!("{}", comparison.baseline_table);
    println!("C) PSP revision, posts since 2021 only:");
    print!("{}", comparison.recent_table);
    println!(
        "dominant vector: {} (full history) -> {} (2021+); trend inversion: {}",
        comparison.baseline_dominant(),
        comparison.recent_dominant(),
        comparison.trend_inverted()
    );

    println!("\nimpact on the reference ECM TARA (static vs dynamic):");
    let outcome = passenger_outcome(None);
    let tara_cmp =
        DynamicTaraComparison::evaluate(&ecm_reference_tara("ECM"), &outcome, "ecm-reprogramming")
            .expect("reference TARA evaluates");
    for delta in tara_cmp.deltas.values() {
        println!(
            "  {:<38} feasibility {:>8} -> {:<8} risk {} -> {}",
            delta.threat_title,
            delta.static_feasibility.to_string(),
            delta.dynamic_feasibility.to_string(),
            delta.static_risk,
            delta.dynamic_risk
        );
    }
}

fn excavator_assessment() -> FinancialAssessment {
    FinancialAssessment::assess(
        "dpf-tampering",
        &excavator_sai(),
        &datasets::excavator_sales_europe(),
        &datasets::annual_report(),
        &FinancialInputs::paper_excavator_example(),
    )
    .expect("calibrated example assesses")
}

fn fig10() {
    header("E10 / Figure 10 — financial attack-feasibility workflow (excavator DPF)");
    let a = excavator_assessment();
    println!("block 1  threat scenario: {}", a.scenario);
    println!("block 2  PPIA (price mining): {:.0} EUR", a.ppia);
    println!(
        "block 3  cybersecurity annual report PEA: {:.1}%",
        a.pea * 100.0
    );
    println!("block 4  previous-year sales VS: {}", a.vehicle_sales);
    println!("block 5  PAE = VS x PEA = {:.0}", a.pae);
    println!("block 6  MV = PAE x PPIA = {:.0} EUR/yr", a.market_value);
    println!(
        "block 7  VCU = {:.0} EUR, FC (Eq.4) = {:.0} EUR, BEP (Eq.3) = {}",
        a.vcu,
        a.forward_fixed_cost,
        a.break_even_units
            .map_or("n/a".into(), |v| format!("{v:.0} units"))
    );
    println!(
        "         investment bound FC (Eq.5, BEP=PAE) = {:.0} EUR",
        a.investment_bound
    );
    println!(
        "         profitable: {}, financial feasibility rating: {}",
        a.profitable, a.rating
    );
}

fn fig11() {
    header("E11 / Figure 11 — break-even diagram (revenue vs cost)");
    let a = excavator_assessment();
    let analysis = BreakEvenAnalysis::new(
        a.forward_fixed_cost,
        a.ppia,
        a.vcu,
        datasets::PAPER_COMPETITORS,
    );
    println!(
        "FC = {:.0} EUR, PPIA = {:.0} EUR, VCU = {:.0} EUR, n = {}",
        a.forward_fixed_cost,
        a.ppia,
        a.vcu,
        datasets::PAPER_COMPETITORS
    );
    println!(
        "{:>8} {:>14} {:>14} {:>6}",
        "units", "revenue", "cost", "zone"
    );
    for point in analysis.curve(a.pae * 2.0, 11) {
        println!(
            "{:>8.0} {:>14.0} {:>14.0} {:>6}",
            point.units,
            point.revenue,
            point.cost,
            if point.is_profitable() { "blue" } else { "red" }
        );
    }
    println!(
        "break-even point: {} units",
        analysis
            .break_even_units()
            .map_or("n/a".into(), |v| format!("{v:.0}"))
    );
}

fn fig12() {
    header("E12 / Figure 12 — SAI ranking for excavator insider attacks (Europe)");
    let sai = excavator_sai();
    println!(
        "{:<22} {:>12} {:>8} {:>12} {:>8}",
        "scenario", "SAI", "posts", "views", "prob"
    );
    for (scenario_name, score) in sai.scenario_ranking() {
        let entries = sai.scenario_entries(&scenario_name);
        let posts: usize = entries.iter().map(|e| e.posts).sum();
        let views: u64 = entries.iter().map(|e| e.views).sum();
        let prob: f64 = entries.iter().map(|e| e.probability).sum();
        println!(
            "{:<22} {:>12.1} {:>8} {:>12} {:>7.1}%",
            scenario_name,
            score,
            posts,
            views,
            prob * 100.0
        );
    }
}

fn eq6() {
    header("E13 / Equation 6 — market value of DPF tampering");
    let a = excavator_assessment();
    println!(
        "MV = PAE x PPIA = {:.0} x {:.0} EUR = {:.0} EUR/yr  (paper: 1406 x 360 = 506160 EUR)",
        a.pae, a.ppia, a.market_value
    );
}

fn eq7() {
    header("E14 / Equation 7 — attacker investment bound");
    let a = excavator_assessment();
    println!(
        "FC = BEP x (PPIA - VCU) / n = {:.0} x ({:.0} - {:.0}) / {} = {:.0} EUR  (paper: ~145286 EUR)",
        a.pae,
        a.ppia,
        a.vcu,
        datasets::PAPER_COMPETITORS,
        a.investment_bound
    );
    println!(
        "-> the anti-tampering architecture should withstand an adversary investment of {:.0} EUR",
        a.investment_bound
    );
}
