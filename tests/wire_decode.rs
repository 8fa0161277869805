//! The JSON decoder on the payloads the daemon reads: request lines, journal
//! records and signal caches.
//!
//! Random values survive `to_string` then `from_str` unchanged, every strict
//! prefix of a request line is a `bad-request`, and hostile lines answer
//! `bad-request` without overflowing the stack.  On the wire, unknown keys
//! are skipped but still validated, the first of duplicate keys wins and a
//! missing field names itself.

use proptest::prelude::*;
use psp_suite::psp::engine::{SignalCacheFile, WindowAxis};
use psp_suite::psp::service::journal::WalRecord;
use psp_suite::psp::service::wire::{decode_request, encode_request, WireRequest};
use psp_suite::psp::service::{MonitorSpec, ServiceRequest};
use psp_suite::socialsim::engagement::Engagement;
use psp_suite::socialsim::hashtag::Hashtag;
use psp_suite::socialsim::post::{Post, Region, TargetApplication};
use psp_suite::socialsim::time::{DateWindow, SimDate};
use psp_suite::socialsim::user::User;
use psp_suite::textmine::sentiment::IntentLexicon;

/// Characters that exercise every string path of the codec: plain runs,
/// escaped quotes, backslashes and control bytes, multi-byte UTF-8.
const CHARS: [char; 14] = [
    'a', 'Z', ' ', '#', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', 'é', '😀', '/', '7',
];

/// Any `u64`: the shim's range strategies span at most `2^64 - 1` values,
/// so the bits are drawn as two halves.
fn arb_u64() -> impl Strategy<Value = u64> {
    (0..=u32::MAX, 0..=u32::MAX).prop_map(|(hi, lo)| u64::from(hi) << 32 | u64::from(lo))
}

fn arb_text(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0..CHARS.len(), 0..max)
        .prop_map(|picks| picks.into_iter().map(|k| CHARS[k]).collect())
}

fn arb_post() -> impl Strategy<Value = Post> {
    (
        arb_u64(),
        arb_text(12),
        arb_text(60),
        prop::collection::vec(arb_text(8), 0..3),
        (1990_i32..2030, 1_u8..13, 1_u8..29),
        prop_oneof![
            Just(Region::Europe),
            Just(Region::NorthAmerica),
            Just(Region::AsiaPacific)
        ],
        prop_oneof![
            Just(TargetApplication::PassengerCar),
            Just(TargetApplication::Excavator)
        ],
        (0_u64..1 << 40, 0..=u32::MAX),
    )
        .prop_map(
            |(id, handle, text, tags, (y, m, d), region, application, (views, age))| {
                Post::new(
                    id,
                    User::new(handle, views / 3, age),
                    text,
                    tags.iter().map(|tag| Hashtag::new(tag)).collect(),
                    SimDate::new(y, m, d),
                    region,
                    application,
                    Engagement::new(views, views / 7, views / 11, views / 13),
                )
            },
        )
}

fn arb_posts() -> impl Strategy<Value = Vec<Post>> {
    prop::collection::vec(arb_post(), 0..4)
}

fn arb_axis() -> impl Strategy<Value = WindowAxis> {
    prop::collection::vec((0_u8..3, 1990_i32..2030, 0_i32..5), 0..4).prop_map(|spans| {
        WindowAxis::spans(
            &spans
                .into_iter()
                .map(|(kind, from, len)| (kind > 0).then(|| DateWindow::years(from, from + len)))
                .collect::<Vec<_>>(),
        )
    })
}

fn arb_names() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_text(10), 0..3)
}

/// Every request shape but `Schedule`, which wraps one of these.
fn arb_plain_request() -> impl Strategy<Value = ServiceRequest> {
    prop_oneof![
        (arb_text(10), arb_text(10)).prop_map(|(db, config)| ServiceRequest::Score { db, config }),
        (arb_text(10), arb_text(10), arb_axis()).prop_map(|(db, config, windows)| {
            ServiceRequest::Sweep {
                db,
                config,
                windows,
            }
        }),
        (arb_names(), arb_names(), arb_axis()).prop_map(|(scenarios, configs, windows)| {
            ServiceRequest::Matrix {
                scenarios,
                configs,
                windows,
            }
        }),
        arb_posts().prop_map(|posts| ServiceRequest::Ingest { posts }),
        Just(ServiceRequest::ExportCache),
        Just(ServiceRequest::Checkpoint),
        Just(ServiceRequest::Status),
        (
            arb_text(6),
            (-3000_i32..3000, -3000_i32..3000, -5_i32..5),
            -1e6_f64..1e6
        )
            .prop_map(
                |(name, (from_year, to_year, window_years), alert_threshold)| {
                    ServiceRequest::Subscribe {
                        spec: MonitorSpec {
                            db: name.clone(),
                            config: name.clone(),
                            scenario: name,
                            from_year,
                            to_year,
                            window_years,
                            alert_threshold,
                        },
                    }
                }
            ),
        arb_u64().prop_map(|id| ServiceRequest::Unsubscribe { id }),
        arb_u64().prop_map(|id| ServiceRequest::Unschedule { id }),
    ]
}

fn arb_request() -> impl Strategy<Value = WireRequest> {
    (arb_u64(), arb_plain_request(), 0_u8..4, arb_u64()).prop_map(
        |(id, request, wrap, every_ms)| WireRequest {
            id,
            request: if wrap == 0 {
                ServiceRequest::Schedule {
                    every_ms,
                    request: Box::new(request),
                }
            } else {
                request
            },
        },
    )
}

fn arb_signal_cache() -> impl Strategy<Value = SignalCacheFile> {
    (
        0..=u32::MAX,
        (-10.0_f64..10.0, -10.0_f64..10.0, -10.0_f64..10.0),
        prop::collection::vec((arb_u64(), -1e3_f64..1e3, 0_u32..3), 0..6),
        prop::collection::vec(0.0_f64..1e5, 0..6),
    )
        .prop_map(|(version, (e, d, c), rows, prices)| SignalCacheFile {
            version,
            lexicon: IntentLexicon {
                engagement_weight: e,
                deterrent_weight: d,
                commerce_weight: c,
            },
            post_ids: rows.iter().map(|row| row.0).collect(),
            intents: rows.iter().map(|row| row.1).collect(),
            price_counts: rows.iter().map(|row| row.2).collect(),
            prices,
        })
}

proptest! {
    #[test]
    fn post_batches_round_trip(posts in arb_posts()) {
        let text = serde_json::to_string(&posts).unwrap();
        prop_assert_eq!(serde_json::from_str::<Vec<Post>>(&text).unwrap(), posts);
    }

    #[test]
    fn requests_round_trip_through_the_wire(request in arb_request()) {
        let line = encode_request(&request);
        prop_assert_eq!(decode_request(&line).unwrap(), request);
    }

    #[test]
    fn journal_records_round_trip(generation in arb_u64(), posts in arb_posts()) {
        let record = WalRecord { generation, posts };
        let text = serde_json::to_string(&record).unwrap();
        prop_assert_eq!(serde_json::from_str::<WalRecord>(&text).unwrap(), record);
    }

    #[test]
    fn signal_caches_round_trip(cache in arb_signal_cache()) {
        let text = serde_json::to_string(&cache).unwrap();
        prop_assert_eq!(serde_json::from_str::<SignalCacheFile>(&text).unwrap(), cache);
    }

    #[test]
    fn every_strict_prefix_of_a_request_line_is_a_bad_request(request in arb_request()) {
        let line = encode_request(&request);
        for (end, _) in line.char_indices() {
            match decode_request(&line[..end]) {
                Err(error) => prop_assert_eq!(error.kind(), "bad-request"),
                Ok(decoded) => prop_assert!(false, "prefix {:?} decoded as {:?}", &line[..end], decoded),
            }
        }
    }
}

const STATUS: &str = r#"{"id":5,"request":"Status"}"#;

/// `STATUS` with `extra` spliced in as its first entry.
fn with(extra: &str) -> String {
    format!("{{{extra},{}", &STATUS[1..])
}

fn assert_bad_request(line: &str) {
    match decode_request(line) {
        Err(error) => assert_eq!(error.kind(), "bad-request", "{line:.200}"),
        Ok(request) => panic!("accepted {line:.200} as {request:?}"),
    }
}

#[test]
fn a_line_nested_100_000_deep_is_a_bad_request() {
    let deep = "[".repeat(100_000);
    // Inside a field the request does not have, so it is skipped untyped.
    let line = with(&format!(r#""extra":{deep}"#));
    assert_bad_request(&line);
    assert!(decode_request(&line)
        .unwrap_err()
        .to_string()
        .contains("recursion"));
    // Inside typed fields.
    assert_bad_request(&format!(r#"{{"id":5,"request":{deep}"#));
    assert_bad_request(&format!(
        r#"{{"id":5,"request":{{"Sweep":{{"db":"d","config":"c","windows":{deep}"#
    ));
    assert_bad_request(&format!(
        r#"{{"id":5,"request":{{"Ingest":{{"posts":[{{"id":1,"author":{deep}"#
    ));
}

#[test]
fn malformed_json_inside_an_ignored_field_is_a_bad_request() {
    for extra in [
        r#""extra":[1,"#,
        r#""extra":{"a":}"#,
        r#""extra":"\x""#,
        r#""extra":01.2.3"#,
        r#""extra":undefined"#,
    ] {
        assert_bad_request(&with(extra));
    }
}

#[test]
fn unknown_fields_are_ignored_on_the_wire() {
    let expected = WireRequest {
        id: 5,
        request: ServiceRequest::Status,
    };
    assert_eq!(decode_request(STATUS).unwrap(), expected);
    let line = with(r#""trace":{"parent":[1,2.5,null,"x"],"sampled":true}"#);
    assert_eq!(decode_request(&line).unwrap(), expected);
    let line = r#"{"id":5,"request":{"Unsubscribe":{"id":8,"why":"done"}}}"#;
    assert_eq!(
        decode_request(line).unwrap().request,
        ServiceRequest::Unsubscribe { id: 8 }
    );
}

#[test]
fn the_first_of_duplicate_keys_wins_on_the_wire() {
    assert_eq!(decode_request(&with(r#""id":1"#)).unwrap().id, 1);
    let line = r#"{"id":5,"request":"Status","request":"Checkpoint"}"#;
    assert_eq!(
        decode_request(line).unwrap().request,
        ServiceRequest::Status
    );
}

#[test]
fn a_missing_field_names_itself_on_the_wire() {
    let error = decode_request(r#"{"request":"Status"}"#).unwrap_err();
    assert_eq!(error.kind(), "bad-request");
    assert!(
        error
            .to_string()
            .contains("missing field `id` for WireRequest"),
        "{error}"
    );
    let error = decode_request(r#"{"id":1,"request":{"Score":{"db":"d"}}}"#).unwrap_err();
    assert!(
        error
            .to_string()
            .contains("missing field `config` for ServiceRequest::Score"),
        "{error}"
    );
}

#[test]
fn trailing_characters_escapes_and_overflow_are_bad_requests() {
    for line in [
        format!("{STATUS} x"),
        format!("{STATUS}{STATUS}"),
        r#"{"id":18446744073709551616,"request":"Status"}"#.to_string(),
        r#"{"id":-1,"request":"Status"}"#.to_string(),
        r#"{"id":1.5,"request":"Status"}"#.to_string(),
        r#"{"id":1,"request":{"Score":{"db":"\u00","config":"c"}}}"#.to_string(),
        r#"{"id":1,"request":{"Score":{"db":"\ud83d","config":"c"}}}"#.to_string(),
        r#"{"id":1,"request":{"Score":{"db":"\udc00","config":"c"}}}"#.to_string(),
        r#"{"id":1,"request":{"Subscribe":{"spec":{"db":"d","config":"c","scenario":"s","from_year":2147483648,"to_year":1,"window_years":1,"alert_threshold":0.1}}}}"#.to_string(),
    ] {
        assert_bad_request(&line);
    }
    assert_eq!(
        decode_request(&format!(" {STATUS}\r\n")).unwrap().id,
        5,
        "surrounding whitespace is not trailing garbage"
    );
}
