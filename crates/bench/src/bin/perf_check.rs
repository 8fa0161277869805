//! Enforces the committed perf baselines.
//!
//! For each bench name given on the command line (default: `engine_scaling
//! engine_ingest`), loads the committed baseline from
//! `crates/bench/baselines/<bench>.json` and the fresh run from
//! `target/perf/<bench>.json` (written by `cargo bench --bench <bench>`), and
//! fails when any row present in both regressed by more than the allowed
//! factor (default 2x; override with `--max-regression <factor>` or the
//! `PSP_PERF_MAX_REGRESSION` environment variable), when a baseline ratio
//! row is missing at a size the fresh run covered, or when a ratio reads more
//! than 4x its baseline ("baseline stale: re-bless").  With `--ratios-only`,
//! the absolute nanosecond rows are skipped and only the machine-portable
//! speedup ratios are enforced — what CI does, since its hardware differs
//! from the machine that blessed the baseline.
//!
//! ```text
//! PSP_BENCH_SIZES=1000,10000 cargo bench --bench engine_scaling
//! PSP_BENCH_SIZES=10000 cargo bench --bench engine_ingest
//! cargo run --release -p psp-bench --bin perf_check -- --ratios-only
//! ```

use psp_bench::perf::{baseline_path, compare_with, fresh_report_path, PerfReport};

const DEFAULT_BENCHES: [&str; 2] = ["engine_scaling", "engine_ingest"];
const DEFAULT_MAX_REGRESSION: f64 = 2.0;

fn main() {
    let mut benches: Vec<String> = Vec::new();
    let mut include_metrics = true;
    let mut max_regression = std::env::var("PSP_PERF_MAX_REGRESSION")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(DEFAULT_MAX_REGRESSION);

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-regression" => {
                let value = args
                    .next()
                    .and_then(|raw| raw.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--max-regression expects a number");
                        std::process::exit(2);
                    });
                max_regression = value;
            }
            // Absolute nanoseconds only bound runs on the machine that blessed
            // the baseline; CI (different hardware) checks the machine-portable
            // speedup ratios only.
            "--ratios-only" => include_metrics = false,
            name => benches.push(name.to_string()),
        }
    }
    if !(max_regression.is_finite() && max_regression >= 1.0) {
        eprintln!("max regression factor must be >= 1.0, got {max_regression}");
        std::process::exit(2);
    }
    if benches.is_empty() {
        benches = DEFAULT_BENCHES.iter().map(ToString::to_string).collect();
    }

    let mut failed = false;
    for bench in &benches {
        let baseline = match PerfReport::load(&baseline_path(bench)) {
            Ok(report) => report,
            Err(err) => {
                eprintln!("{bench}: cannot load committed baseline: {err}");
                failed = true;
                continue;
            }
        };
        let fresh = match PerfReport::load(&fresh_report_path(bench)) {
            Ok(report) => report,
            Err(err) => {
                eprintln!(
                    "{bench}: cannot load fresh report ({err}); run `cargo bench --bench {bench}` first"
                );
                failed = true;
                continue;
            }
        };
        let outcome = compare_with(&baseline, &fresh, max_regression, include_metrics);
        if outcome.checked == 0 {
            eprintln!(
                "{bench}: no overlapping rows between the baseline and the fresh run — \
                 the bench sizes or row names diverged"
            );
            failed = true;
            continue;
        }
        // Always print the measured-vs-baseline values, pass or fail, so
        // perf-smoke logs double as a trend record across runs.
        for row in &outcome.rows {
            println!("{bench}:   {row}");
        }
        if outcome.passed() {
            println!(
                "{bench}: OK — {} rows within {max_regression}x of the committed baseline, \
                 none stale",
                outcome.checked
            );
        } else {
            eprintln!(
                "{bench}: failed against the committed baseline ({} rows checked, \
                 {max_regression}x tolerance):",
                outcome.checked
            );
            for failure in outcome.failures() {
                eprintln!("  {failure}");
            }
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
