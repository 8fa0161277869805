//! The line-JSON wire format: one request or response per line, each tagged
//! with a caller-chosen correlation id.
//!
//! This is deliberately thin — the service surface is
//! [`ServiceRequest`]/[`ServiceResponse`]; the wire layer only adds the `id`
//! envelope and the rule that *every* line in produces exactly one line out,
//! even when the line cannot be parsed (a `bad-request` error response with
//! the id recovered when possible, `0` otherwise).  Any framed transport can
//! reuse it; `examples/tara_daemon.rs` runs it over stdin/stdout.

use super::{ServiceEvent, ServiceRequest, ServiceResponse};
use crate::error::PspError;
use serde::{Deserialize, Serialize};

/// One request line: a correlation id and the request itself.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct WireRequest {
    /// Caller-chosen correlation id, echoed on the response.
    pub id: u64,
    /// The request to execute.
    pub request: ServiceRequest,
}

/// One response line, carrying the id of the request it answers.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct WireResponse {
    /// The correlation id of the answered request.
    pub id: u64,
    /// The response.
    pub response: ServiceResponse,
}

/// Parses one request line.
///
/// # Errors
///
/// [`PspError::BadRequest`] when the line is not a JSON [`WireRequest`]; the
/// detail carries the parser's message so clients can see what was wrong.
pub fn decode_request(line: &str) -> Result<WireRequest, PspError> {
    serde_json::from_str(line).map_err(|error| PspError::BadRequest {
        detail: format!("unparseable request line: {error}"),
    })
}

/// Encodes one request line (no trailing newline) — the client half of the
/// wire format, for drivers scripting a daemon (e.g. the daemon's own
/// `--gen-batch` helper emitting ingest lines for the CI recovery smoke).
#[must_use]
pub fn encode_request(request: &WireRequest) -> String {
    serde_json::to_string(request).expect("wire requests always serialize")
}

/// Encodes one response line (no trailing newline).
#[must_use]
pub fn encode_response(response: &WireResponse) -> String {
    let mut out = String::new();
    encode_response_into(&mut out, response);
    out
}

/// Appends one response line (no trailing newline) to `out`, so a
/// connection can encode every response into one reused buffer.
///
/// Serialization of a well-formed response cannot fail on this surface
/// (every payload type round-trips and scores are finite); if it ever does,
/// no partial bytes remain and the failure itself is encoded as an error
/// response, so the one-line-out invariant holds.
pub fn encode_response_into(out: &mut String, response: &WireResponse) {
    if let Err(error) = serde_json::to_string_into(out, response) {
        let fallback = WireResponse {
            id: response.id,
            response: ServiceResponse::Error {
                error: PspError::BadRequest {
                    detail: format!("response failed to serialize: {error}"),
                }
                .into(),
            },
        };
        serde_json::to_string_into(out, &fallback).expect("error responses always serialize");
    }
}

/// One push-event line: an out-of-band [`ServiceEvent`] (monitor delta or
/// scheduled run), distinguishable from response lines by its `event` key —
/// events answer no request, so they carry no correlation id.
#[derive(Debug, Deserialize)]
pub struct WireEvent {
    /// The pushed event.
    pub event: ServiceEvent,
}

/// Encodes one event line (no trailing newline).
#[must_use]
pub fn encode_event(event: &ServiceEvent) -> String {
    let mut out = String::new();
    encode_event_into(&mut out, event);
    out
}

/// [`WireEvent`]'s line shape over a borrowed event, so encoding a pushed
/// event copies nothing.  Written by hand: the derive has no lifetimes.
struct WireEventRef<'a>(&'a ServiceEvent);

impl Serialize for WireEventRef<'_> {
    fn serialize<S: serde::Serializer>(&self, s: &mut S) {
        s.serialize_struct("WireEvent");
        s.serialize_field("event", self.0);
        s.end_struct();
    }
}

/// Appends one event line (no trailing newline) to `out`, with the same
/// cannot-fail-silently fallback as [`encode_response_into`].
pub fn encode_event_into(out: &mut String, event: &ServiceEvent) {
    if let Err(error) = serde_json::to_string_into(out, &WireEventRef(event)) {
        out.push_str(&error_line(
            "",
            PspError::BadRequest {
                detail: format!("event failed to serialize: {error}"),
            },
        ));
    }
}

/// Best-effort recovery of the correlation id from a line that failed to
/// parse as a [`WireRequest`]: finds the first `"id"` key and reads the
/// unsigned integer after its colon.  Returns `0` when no id can be
/// recovered — by construction `decode_request` accepted every line with a
/// syntactically valid id field, so anything goes on malformed input; this
/// keeps the promise that clients get their id echoed back whenever it was
/// legible at all.
#[must_use]
pub fn recover_id(line: &str) -> u64 {
    let bytes = line.as_bytes();
    let mut search = 0;
    while let Some(found) = line[search..].find("\"id\"") {
        let mut at = search + found + "\"id\"".len();
        search = at;
        while at < bytes.len() && bytes[at].is_ascii_whitespace() {
            at += 1;
        }
        if at >= bytes.len() || bytes[at] != b':' {
            continue;
        }
        at += 1;
        while at < bytes.len() && bytes[at].is_ascii_whitespace() {
            at += 1;
        }
        let digits_start = at;
        while at < bytes.len() && bytes[at].is_ascii_digit() {
            at += 1;
        }
        if at > digits_start {
            if let Ok(id) = line[digits_start..at].parse::<u64>() {
                return id;
            }
        }
    }
    0
}

/// A convenience for transports: the `bad-request` response line for an
/// unparseable input line.  The correlation id is recovered from the
/// offending line when legible ([`recover_id`]), `0` otherwise, so a client
/// pipelining requests can still match the failure to what it sent.
#[must_use]
pub fn error_line(line: &str, error: PspError) -> String {
    encode_response(&WireResponse {
        id: recover_id(line),
        response: ServiceResponse::Error {
            error: error.into(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SignalCacheFile;
    use textmine::sentiment::IntentLexicon;

    #[test]
    fn request_lines_round_trip() {
        let request = WireRequest {
            id: 42,
            request: ServiceRequest::Status,
        };
        let line = serde_json::to_string(&request).unwrap();
        assert_eq!(decode_request(&line).unwrap(), request);
    }

    #[test]
    fn garbage_lines_decode_to_bad_request() {
        let error = decode_request("{not json").unwrap_err();
        assert_eq!(error.kind(), "bad-request");
        let line = error_line("{not json", error);
        assert!(line.contains("\"bad-request\""));
        assert!(line.contains("\"id\":0"));
    }

    /// The satellite fix: the module docs always promised the id is
    /// "recovered when possible", but `error_line` hardcoded `0`.  A
    /// malformed line whose id field is still legible now gets it echoed.
    #[test]
    fn bad_request_lines_echo_a_recoverable_id() {
        // Truncated JSON — unparseable, but the id field is intact.
        let line = r#"{"id": 42, "request": {"Score": {"db": "excava"#;
        let error = decode_request(line).unwrap_err();
        let out = error_line(line, error);
        assert!(out.contains("\"id\":42"), "recovered id in {out}");
        assert!(out.contains("\"bad-request\""));
    }

    #[test]
    fn id_recovery_is_best_effort_and_never_panics() {
        assert_eq!(recover_id(r#"{"id":7,"request":"Status"}"#), 7);
        assert_eq!(recover_id(r#"{ "id" : 123 garbage"#), 123);
        // A first "id" without a number is skipped, the next one read.
        assert_eq!(recover_id(r#""id" nope "id": 9"#), 9);
        assert_eq!(recover_id(""), 0);
        assert_eq!(recover_id("no id at all"), 0);
        assert_eq!(recover_id(r#"{"id": "string"}"#), 0);
        assert_eq!(recover_id(r#"{"id": -4}"#), 0, "negative ids don't parse");
        // Number too large for u64: digits found but parse fails, falls
        // through to 0 without panicking.
        assert_eq!(recover_id(r#"{"id": 99999999999999999999999999}"#), 0);
        // Multi-byte UTF-8 around the field must not split a char boundary.
        assert_eq!(recover_id(r#"{"café": "naïve", "id": 5"#), 5);
    }

    #[test]
    fn checkpoint_requests_and_responses_round_trip() {
        let request = WireRequest {
            id: 5,
            request: ServiceRequest::Checkpoint,
        };
        let line = encode_request(&request);
        assert_eq!(decode_request(&line).unwrap(), request);
        let response = WireResponse {
            id: 5,
            response: ServiceResponse::Checkpointed {
                generation: 3,
                posts: 120,
                path: "/data/checkpoints/ckpt-3".into(),
            },
        };
        let line = encode_response(&response);
        assert_eq!(
            serde_json::from_str::<WireResponse>(&line).unwrap(),
            response
        );
    }

    /// Durability failures travel the wire as structured error lines: the
    /// stable kind is machine-matchable and the id is echoed, including
    /// when the offending request line itself was malformed.
    #[test]
    fn checkpoint_and_recovery_error_lines_carry_kind_and_id() {
        for (error, kind) in [
            (
                PspError::Durability {
                    detail: "fsync wal.log: injected fault".into(),
                },
                "durability",
            ),
            (PspError::NotDurable, "not-durable"),
            (
                PspError::NotSchedulable {
                    request: "Checkpoint",
                },
                "not-schedulable",
            ),
        ] {
            let detail = error.to_string();
            let line = encode_response(&WireResponse {
                id: 11,
                response: ServiceResponse::Error {
                    error: error.into(),
                },
            });
            assert!(line.contains("\"id\":11"), "id echoed in {line}");
            assert!(line.contains(&format!("\"{kind}\"")), "kind in {line}");
            let decoded: WireResponse = serde_json::from_str(&line).unwrap();
            match decoded.response {
                ServiceResponse::Error { error: wire } => {
                    assert_eq!(wire.kind, kind);
                    assert_eq!(wire.detail, detail);
                }
                other => panic!("unexpected response: {other:?}"),
            }
        }

        // A Checkpoint request line torn mid-transmission still answers
        // bad-request with its id recovered.
        let broken = r#"{"id": 77, "request": "Checkpoi"#;
        let error = decode_request(broken).unwrap_err();
        let out = error_line(broken, error);
        assert!(out.contains("\"id\":77"), "recovered id in {out}");
        assert!(out.contains("\"bad-request\""));
    }

    #[test]
    fn event_lines_round_trip_and_carry_no_id() {
        let event = ServiceEvent::ScheduledRun {
            job: 3,
            response: ServiceResponse::Ingested {
                appended: 0,
                generation: 2,
            },
        };
        let line = encode_event(&event);
        assert!(line.contains("\"event\""));
        let decoded: WireEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(format!("{:?}", decoded.event), format!("{event:?}"));
    }

    /// Satellite: the adversarial inputs the chaos harness generates must
    /// all answer structured errors — never panic, never kill the decoder.
    #[test]
    fn adversarial_lines_answer_structured_errors_and_never_panic() {
        // Invalid UTF-8 reaches the decoder lossily (the transports decode
        // bytes with `from_utf8_lossy`), as replacement characters.
        let lossy = String::from_utf8_lossy(b"\xff\xfe{\"id\": 3, \xf0\x28\x8c\x28").into_owned();
        let error = decode_request(&lossy).unwrap_err();
        assert_eq!(error.kind(), "bad-request");
        let out = error_line(&lossy, error);
        assert!(
            out.contains("\"id\":3"),
            "id recovered through noise: {out}"
        );

        // NUL bytes: valid UTF-8, hostile content.
        let nulls = "\0\0{\"id\":9,\0\"request\":\"Status\"}\0";
        let error = decode_request(nulls).unwrap_err();
        assert_eq!(error.kind(), "bad-request");
        assert_eq!(recover_id(nulls), 9);

        // Deeply nested JSON: a structured parse error (the parser's
        // recursion limit), not a stack overflow.
        let nested = format!("{}{}", "{\"id\":4,\"request\":", "[".repeat(200_000));
        let error = decode_request(&nested).unwrap_err();
        assert_eq!(error.kind(), "bad-request");
        assert!(error.to_string().contains("recursion"), "{error}");
        assert_eq!(recover_id(&nested), 4);

        // Duplicate `id` keys: decoding is deterministic (one of them wins,
        // no panic), and recovery reads the first syntactically valid one.
        let duplicate = r#"{"id": 1, "id": 2, "request": "Status"}"#;
        match decode_request(duplicate) {
            Ok(request) => assert!(request.id == 1 || request.id == 2),
            Err(error) => assert_eq!(error.kind(), "bad-request"),
        }
        assert_eq!(recover_id(r#"{"id": nope, "id": 2}"#), 2);
    }

    /// A response that cannot serialize (a non-finite float) still answers
    /// exactly one line: the bad-request fallback with the request's id, and
    /// none of the failed attempt's bytes, even in a reused buffer.
    #[test]
    fn a_non_finite_float_answers_one_bad_request_line_with_its_id() {
        let response = WireResponse {
            id: 31,
            response: ServiceResponse::Cache {
                generation: 2,
                cache: SignalCacheFile {
                    version: 1,
                    lexicon: IntentLexicon::default(),
                    post_ids: vec![1, 2],
                    intents: vec![0.5, f64::NAN],
                    price_counts: vec![0, 0],
                    prices: Vec::new(),
                },
            },
        };
        let mut out = String::from("previous line\n");
        encode_response_into(&mut out, &response);
        let line = out
            .strip_prefix("previous line\n")
            .expect("earlier bytes kept");
        assert!(!line.contains('\n'), "one line: {line}");
        assert_eq!(line, encode_response(&response));
        let decoded: WireResponse = serde_json::from_str(line).unwrap();
        assert_eq!(decoded.id, 31);
        match decoded.response {
            ServiceResponse::Error { error } => {
                assert_eq!(error.kind, "bad-request");
                assert!(error.detail.contains("non-finite"), "{}", error.detail);
            }
            other => panic!("unexpected response: {other:?}"),
        }

        let event = ServiceEvent::ScheduledRun {
            job: 4,
            response: response.response,
        };
        let line = encode_event(&event);
        assert!(line.starts_with("{\"id\":0,"), "{line}");
        assert!(line.contains("event failed to serialize"), "{line}");
    }

    #[test]
    fn responses_encode_with_their_id() {
        let response = WireResponse {
            id: 7,
            response: ServiceResponse::Ingested {
                appended: 3,
                generation: 1,
            },
        };
        let line = encode_response(&response);
        assert_eq!(
            serde_json::from_str::<WireResponse>(&line).unwrap(),
            response
        );
        assert!(line.contains("\"id\":7"));
    }
}
