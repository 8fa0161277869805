//! Cheap classification of the daemon's output lines.
//!
//! A subscribed connection carries two kinds of line: responses
//! (`{"id":N,"response":{"<Kind>":{...}}}`) and push events
//! (`{"event":{"<Kind>":{...}}}`).  Matrix responses run to a megabyte, so the
//! load clients read the envelope (id, variant, stamped generation) without
//! decoding the payload.

/// What one output line is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line<'a> {
    /// A response to request `id`: its variant name and stamped generation.
    Response {
        id: u64,
        kind: &'a str,
        generation: Option<u64>,
    },
    /// A push event: its variant name and stamped generation.
    Event {
        kind: &'a str,
        generation: Option<u64>,
    },
    /// Anything else.
    Unknown,
}

/// Classifies one line (without its newline).
pub fn classify(line: &str) -> Line<'_> {
    if let Some(rest) = line.strip_prefix("{\"event\":{\"") {
        return match variant(rest) {
            Some((kind, body)) => Line::Event {
                kind,
                generation: generation(body),
            },
            None => Line::Unknown,
        };
    }
    let Some(rest) = line.strip_prefix("{\"id\":") else {
        return Line::Unknown;
    };
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let Ok(id) = rest[..digits].parse() else {
        return Line::Unknown;
    };
    let Some(rest) = rest[digits..].strip_prefix(",\"response\":{\"") else {
        return Line::Unknown;
    };
    match variant(rest) {
        Some((kind, body)) => Line::Response {
            id,
            kind,
            // Errors and expiries stamp no generation; their free-text detail
            // must not be searched for one.
            generation: if matches!(kind, "Error" | "Expired") {
                None
            } else {
                generation(body)
            },
        },
        None => Line::Unknown,
    }
}

/// The error kind of an `Error` response line, e.g. `overloaded`.
pub fn error_kind(line: &str) -> Option<&str> {
    let at = line.find("\"error\":{\"kind\":\"")? + "\"error\":{\"kind\":\"".len();
    let end = line[at..].find('"')?;
    Some(&line[at..at + end])
}

/// Splits `Kind":{...` into the variant name and the text after it.
fn variant(rest: &str) -> Option<(&str, &str)> {
    let end = rest.find('"')?;
    Some((&rest[..end], &rest[end + 1..]))
}

/// The first `"generation":N` in `body`.  Every stamped variant serialises
/// its generation before any payload that could contain the word.
fn generation(body: &str) -> Option<u64> {
    let at = body.find("\"generation\":")? + "\"generation\":".len();
    let digits = body[at..].bytes().take_while(u8::is_ascii_digit).count();
    body[at..at + digits].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psp::engine::LiveEngine;
    use psp::error::PspError;
    use psp::service::wire::{encode_event, encode_response, error_line, WireResponse};
    use psp::service::{ServiceEvent, ServiceResponse};
    use psp::{KeywordDatabase, PspConfig};
    use socialsim::scenario;

    fn response(id: u64, response: ServiceResponse) -> String {
        encode_response(&WireResponse { id, response })
    }

    #[test]
    fn classifies_encoded_responses() {
        let engine = LiveEngine::new(scenario::excavator_europe(7));
        let sai = engine.sai_list(
            &KeywordDatabase::excavator_seed(),
            &PspConfig::excavator_europe(),
        );
        let line = response(
            12,
            ServiceResponse::Score {
                generation: 3,
                sai: sai.clone(),
            },
        );
        assert_eq!(
            classify(&line),
            Line::Response {
                id: 12,
                kind: "Score",
                generation: Some(3)
            }
        );
        let line = response(
            4,
            ServiceResponse::Sweep {
                generation: 9,
                lists: vec![sai.clone(), sai],
            },
        );
        assert_eq!(
            classify(&line),
            Line::Response {
                id: 4,
                kind: "Sweep",
                generation: Some(9)
            }
        );
        let line = response(
            77,
            ServiceResponse::Ingested {
                appended: 100,
                generation: 41,
            },
        );
        assert_eq!(
            classify(&line),
            Line::Response {
                id: 77,
                kind: "Ingested",
                generation: Some(41)
            }
        );
    }

    #[test]
    fn errors_and_expiries_carry_no_generation() {
        let line = response(
            5,
            ServiceResponse::Error {
                error: PspError::Overloaded {
                    queued: 128,
                    capacity: 128,
                }
                .into(),
            },
        );
        assert_eq!(
            classify(&line),
            Line::Response {
                id: 5,
                kind: "Error",
                generation: None
            }
        );
        assert_eq!(error_kind(&line), Some("overloaded"));
        let line = response(6, ServiceResponse::Expired { waited_ms: 10 });
        assert_eq!(
            classify(&line),
            Line::Response {
                id: 6,
                kind: "Expired",
                generation: None
            }
        );
        // A bad-request line for an unparseable input echoes id 0.
        let line = error_line(
            "{not json",
            PspError::BadRequest {
                detail: "generation\":1".into(),
            },
        );
        assert!(matches!(
            classify(&line),
            Line::Response {
                id: 0,
                kind: "Error",
                generation: None
            }
        ));
    }

    #[test]
    fn classifies_push_events() {
        let engine = LiveEngine::new(scenario::excavator_europe(7));
        let series = psp::monitoring::MonitoringSeries::run_on(
            &engine,
            &KeywordDatabase::excavator_seed(),
            &PspConfig::excavator_europe(),
            "dpf-tampering",
            2019,
            2023,
            2,
        );
        let line = encode_event(&ServiceEvent::MonitorDelta {
            subscription: 2,
            generation: 17,
            series,
            alerts: Vec::new(),
        });
        assert_eq!(
            classify(&line),
            Line::Event {
                kind: "MonitorDelta",
                generation: Some(17)
            }
        );
        let line = encode_event(&ServiceEvent::Draining { generation: 18 });
        assert_eq!(
            classify(&line),
            Line::Event {
                kind: "Draining",
                generation: Some(18)
            }
        );
    }

    #[test]
    fn rejects_other_lines() {
        assert_eq!(classify(""), Line::Unknown);
        assert_eq!(classify("{\"id\":x}"), Line::Unknown);
        assert_eq!(classify("{\"id\":3,\"request\":\"Status\"}"), Line::Unknown);
        assert_eq!(classify("garbage"), Line::Unknown);
    }
}
