//! Golden wire transcript: every response, event and error line shape the
//! daemon writes, plus one pretty-printed report, pinned byte for byte
//! against `tests/fixtures/wire_v1.jsonl`.
//!
//! The fixture was written by the encoder that built a `Value` tree before
//! rendering it; the streaming serializer must reproduce every byte of it.
//! Each fixture line is one wire line, except the last, which is the pretty
//! report document encoded as one JSON string.

use psp_suite::psp::config::PspConfig;
use psp_suite::psp::engine::WindowAxis;
use psp_suite::psp::error::PspError;
use psp_suite::psp::keyword_db::KeywordDatabase;
use psp_suite::psp::report::PspReport;
use psp_suite::psp::service::wire::{encode_event, encode_response, error_line, WireResponse};
use psp_suite::psp::service::{
    MonitorSpec, ServiceEvent, ServiceRegistry, ServiceRequest, ServiceResponse, TaraService,
};
use psp_suite::psp::workflow::PspWorkflow;
use psp_suite::psp::LiveEngine;
use psp_suite::socialsim::scenario;
use psp_suite::socialsim::time::DateWindow;
use std::path::Path;
use std::time::Duration;

fn axis() -> WindowAxis {
    WindowAxis::new()
        .full_history()
        .window(DateWindow::years(2019, 2021))
        .window(DateWindow::years(2021, 2023))
}

/// One error of every kind, with details that exercise string escaping
/// (quotes, backslashes, control characters, non-ASCII).
fn every_error_kind() -> Vec<PspError> {
    vec![
        PspError::InvalidFinancialInput {
            parameter: "market_value",
            detail: "must be > 0, got -1.5".into(),
        },
        PspError::UnknownDatabase {
            name: "naïve café 😀".into(),
        },
        PspError::UnknownConfig {
            name: "back\\slash".into(),
        },
        PspError::BadRequest {
            detail: "tab\there, newline\nthere, cr\r, bell\u{7}, unit sep\u{1f}".into(),
        },
        PspError::ServiceStopped,
        PspError::Internal {
            detail: "worker panicked at 'index out of bounds'".into(),
        },
        PspError::NotSchedulable { request: "Ingest" },
        PspError::NotDurable,
        PspError::Durability {
            detail: "fsync wal.log: injected fault".into(),
        },
        PspError::Overloaded {
            queued: 64,
            capacity: 64,
        },
        PspError::ConnectionLimit {
            open: 256,
            cap: 256,
        },
        PspError::LineTooLong { limit: 1_048_576 },
    ]
}

/// Every line the fixture pins, rebuilt from deterministic inputs.
fn golden_lines() -> Vec<String> {
    let corpus = scenario::excavator_europe(7);
    let base = PspConfig::excavator_europe();
    let registry = ServiceRegistry::new()
        .database("excavator", KeywordDatabase::excavator_seed())
        .database("passenger", KeywordDatabase::passenger_car_seed())
        .config("excavator", base.clone())
        .config(
            "windowed",
            base.clone().with_window(DateWindow::years(2020, 2022)),
        );
    let service = TaraService::with_workers(LiveEngine::new(corpus), registry, 1);
    let mut lines = Vec::new();
    let answer =
        |id: u64, response: ServiceResponse| encode_response(&WireResponse { id, response });

    let score = service.handle(ServiceRequest::Score {
        db: "excavator".into(),
        config: "excavator".into(),
    });
    assert!(matches!(score, ServiceResponse::Score { .. }), "{score:?}");
    lines.push(answer(1, score.clone()));
    let sweep = service.handle(ServiceRequest::Sweep {
        db: "excavator".into(),
        config: "excavator".into(),
        windows: axis(),
    });
    assert!(matches!(sweep, ServiceResponse::Sweep { .. }), "{sweep:?}");
    lines.push(answer(2, sweep));
    let matrix = service.handle(ServiceRequest::Matrix {
        scenarios: vec!["excavator".into(), "passenger".into()],
        configs: vec!["excavator".into(), "windowed".into()],
        windows: axis(),
    });
    match &matrix {
        ServiceResponse::Matrix { cells, .. } => assert_eq!(cells.len(), 12),
        other => panic!("unexpected matrix response: {other:?}"),
    }
    lines.push(answer(3, matrix));

    // A monitor subscription sees the ingest below as one delta event.
    let subscription = service
        .subscribe(MonitorSpec {
            db: "excavator".into(),
            config: "excavator".into(),
            scenario: "dpf-tampering".into(),
            from_year: 2019,
            to_year: 2023,
            window_years: 2,
            alert_threshold: 0.25,
        })
        .expect("subscribe");
    let ingested = service.handle(ServiceRequest::Ingest {
        posts: scenario::excavator_europe(8).into_posts()[..5].to_vec(),
    });
    assert!(
        matches!(ingested, ServiceResponse::Ingested { .. }),
        "{ingested:?}"
    );
    lines.push(answer(4, ingested));
    lines.push(answer(
        5,
        ServiceResponse::Checkpointed {
            generation: 1,
            posts: 125,
            path: "/data/checkpoints/ckpt-1".into(),
        },
    ));
    let cache = service.handle(ServiceRequest::ExportCache);
    assert!(matches!(cache, ServiceResponse::Cache { .. }), "{cache:?}");
    lines.push(answer(6, cache));
    // Ids 100, 101, 103 and 104 belonged to error kinds that no longer exist;
    // every other error line keeps its id.
    for (id, error) in std::iter::once(102).chain(105..).zip(every_error_kind()) {
        lines.push(answer(
            id,
            ServiceResponse::Error {
                error: error.into(),
            },
        ));
    }
    // The transport's own fallback for an unparseable line.
    lines.push(error_line(
        r#"{"id": 77, "request": "Checkpoi"#,
        PspError::BadRequest {
            detail: "unparseable request line".into(),
        },
    ));

    let delta = subscription
        .recv_timeout(Duration::from_secs(30))
        .expect("monitor delta after ingest");
    assert!(
        matches!(delta, ServiceEvent::MonitorDelta { .. }),
        "{delta:?}"
    );
    lines.push(encode_event(&delta));
    lines.push(encode_event(&ServiceEvent::ScheduledRun {
        job: 3,
        response: score,
    }));
    lines.push(encode_event(&ServiceEvent::Draining { generation: 1 }));

    let outcome = PspWorkflow::new(base, KeywordDatabase::excavator_seed())
        .run(&scenario::excavator_europe(7));
    let report = PspReport::new("Golden report: \"excavator\" — Europe", outcome)
        .to_json()
        .expect("reports serialize");
    lines.push(serde_json::to_string(&report).unwrap());
    lines
}

fn fixture_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire_v1.jsonl")
}

#[test]
fn every_wire_line_matches_the_golden_fixture_byte_for_byte() {
    let fixture = std::fs::read_to_string(fixture_path()).expect("fixture present");
    let expected: Vec<&str> = fixture.lines().collect();
    let actual = golden_lines();
    assert_eq!(actual.len(), expected.len(), "line count");
    for (index, (actual, expected)) in actual.iter().zip(&expected).enumerate() {
        if actual != expected {
            let at = actual
                .bytes()
                .zip(expected.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| actual.len().min(expected.len()));
            let from = at.saturating_sub(40);
            panic!(
                "line {} differs at byte {at}:\n  actual:   …{}\n  expected: …{}",
                index + 1,
                String::from_utf8_lossy(&actual.as_bytes()[from..(at + 40).min(actual.len())]),
                String::from_utf8_lossy(&expected.as_bytes()[from..(at + 40).min(expected.len())]),
            );
        }
    }
    // The last line is the pretty report, which must stay multi-line.
    let report: String = serde_json::from_str(expected.last().unwrap()).unwrap();
    assert!(report.starts_with("{\n  \"title\": "), "{}", &report[..40]);
}
