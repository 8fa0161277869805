//! The traced run's in-process replay: the workload's seeded requests sent
//! again through the public functions of each layer, one span per call, and
//! the per-layer metrics and attribution report computed from the spans.

use crate::daemon::Inputs;
use crate::load::{self, Bodies, Kind, Mix, Samples};
use crate::stats::{median, percentile};
use crate::trace::{SpanId, Tracer};
use crate::Metric;
use psp::engine::{SaiScorer, StreamingScorer};
use psp::monitoring::MonitoringSeries;
use psp::service::durability::DurableStore;
use psp::service::journal::FaultFs;
use psp::service::net::NetStatus;
use psp::service::runtime::CancelToken;
use psp::service::wire::{decode_request, encode_response, WireResponse};
use psp::service::{ServiceRequest, ServiceResponse, TaraService};
use socialsim::corpus::Corpus;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What to replay.
pub struct Plan<'a> {
    pub tracer: &'a Tracer,
    pub service: &'a TaraService,
    pub bodies: &'a Bodies,
    /// The reads, in the order the workload's first reader sent them.
    pub mix: Mix,
    /// Ingest lines to replay.
    pub ingests: &'a [String],
    /// `Some(k)`: one ingest after every `k` reads (the feed's ratio);
    /// `None`: every ingest after the reads (the write probe).
    pub interleave: Option<usize>,
    pub deadline: Instant,
    /// An empty directory for the stand-alone journal the `journal` layer
    /// is timed on, so the daemon's own journal is never written twice.
    pub scratch: &'a Path,
}

/// Byte and size counts recorded beside the spans, by metric name.
pub type Counts = BTreeMap<String, Vec<f64>>;

pub struct Replayed {
    pub counts: Counts,
    pub violations: Vec<String>,
}

pub fn run(plan: &Plan<'_>) -> Result<Replayed, String> {
    let inputs = Inputs::new();
    let (journal, _, _) = DurableStore::recover(
        plan.scratch,
        FaultFs::none(),
        || psp::engine::LiveEngine::new(Corpus::new()),
        |corpus, _| psp::engine::LiveEngine::new(corpus),
    )
    .map_err(|error| format!("scratch journal: {error}"))?;
    let mut replay = Replay {
        plan,
        inputs,
        journal,
        journal_generation: 0,
        counts: Counts::new(),
        violations: Vec::new(),
        next_id: 1,
        reads: 0,
        ingests: 0,
    };
    let mut ingests = plan.ingests.iter();
    for (reads, kind) in (1..).zip(plan.mix.clone()) {
        if Instant::now() >= plan.deadline {
            break;
        }
        replay.read(kind);
        if plan.interleave.is_some_and(|every| reads % every == 0) {
            if let Some(line) = ingests.next() {
                replay.ingest(line);
            }
        }
    }
    if plan.interleave.is_none() {
        for line in ingests {
            replay.ingest(line);
        }
    }
    Ok(Replayed {
        counts: replay.counts,
        violations: replay.violations,
    })
}

struct Replay<'a> {
    plan: &'a Plan<'a>,
    inputs: Inputs,
    journal: std::sync::Arc<DurableStore>,
    journal_generation: u64,
    counts: Counts,
    violations: Vec<String>,
    next_id: u64,
    /// Reads and ingests replayed so far; their parity picks the order of
    /// the paired calls.
    reads: u64,
    ingests: u64,
}

fn answers(kind: Kind, response: &ServiceResponse) -> bool {
    matches!(
        (kind, response),
        (Kind::Score, ServiceResponse::Score { .. })
            | (Kind::Sweep, ServiceResponse::Sweep { .. })
            | (Kind::Matrix, ServiceResponse::Matrix { .. })
            | (Kind::Ingest, ServiceResponse::Ingested { .. })
    )
}

impl Replay<'_> {
    fn count(&mut self, name: String, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    fn check(&mut self, kind: Kind, response: &ServiceResponse) {
        if !answers(kind, response) && self.violations.len() < 8 {
            self.violations
                .push(format!("replayed {} answered {response:?}", kind.name()));
        }
    }

    /// One read: the wire pipeline (decode → submit/wait → encode) once
    /// untraced and once with a span per step, and the service and engine
    /// calls on their own.  The order alternates between requests, so
    /// neither side of a difference always runs on the warmer caches.
    fn read(&mut self, kind: Kind) {
        let id = self.next_id;
        self.next_id += 1;
        let root = self
            .plan
            .tracer
            .open(&format!("request.{}", kind.name()), id, None);
        let line = self.plan.bodies.line(kind, id);
        self.reads += 1;
        if self.reads.is_multiple_of(2) {
            self.direct_calls(kind, id, root, &line);
            self.pipelines(kind, id, root, &line);
        } else {
            self.pipelines(kind, id, root, &line);
            self.direct_calls(kind, id, root, &line);
        }
        self.plan.tracer.close(root);
    }

    fn pipelines(&mut self, kind: Kind, id: u64, root: SpanId, line: &str) {
        let tracer = self.plan.tracer;
        let service = self.plan.service;
        let k = kind.name();
        let untraced = |tracer: &Tracer| {
            let started = Instant::now();
            if let Ok(wire) = decode_request(line) {
                let response = service.submit(wire.request).wait();
                black_box(encode_response(&WireResponse { id, response }).len());
            }
            tracer.record(
                &format!("pipeline_untraced.{k}"),
                id,
                Some(root),
                started,
                Instant::now(),
            );
        };
        let untraced_first = self.reads % 4 < 2;
        if untraced_first {
            untraced(tracer);
        }
        let pipeline = tracer.open(&format!("pipeline.{k}"), id, Some(root));
        let decoded = tracer.span(&format!("wire.decode.{k}"), id, Some(pipeline), || {
            decode_request(line)
        });
        let Ok(wire) = decoded else {
            self.violations
                .push(format!("replayed {k} line did not decode"));
            return;
        };
        let response = tracer.span(
            &format!("runtime.submit_wait.{k}"),
            id,
            Some(pipeline),
            || service.submit(wire.request).wait(),
        );
        self.check(kind, &response);
        let out = tracer.span(&format!("wire.encode.{k}"), id, Some(pipeline), || {
            encode_response(&WireResponse { id, response })
        });
        tracer.close(pipeline);
        self.count(format!("wire.response_bytes.{k}"), out.len() as f64);
        if !untraced_first {
            untraced(tracer);
        }
    }

    fn direct_calls(&mut self, kind: Kind, id: u64, root: SpanId, line: &str) {
        let tracer = self.plan.tracer;
        let service = self.plan.service;
        let k = kind.name();
        let Ok(wire) = decode_request(line) else {
            return; // Reported by `pipelines`.
        };
        let request = wire.request;
        let response = tracer.span(&format!("service.handle.{k}"), id, Some(root), || {
            service.handle(request.clone())
        });
        self.check(kind, &response);
        let snapshot = service.snapshot();
        let inputs = &self.inputs;
        tracer.span(&format!("engine.{k}"), id, Some(root), || match kind {
            Kind::Score => black_box(snapshot.sai_list(&inputs.db, &inputs.config).len()),
            Kind::Sweep => black_box(
                snapshot
                    .sai_windows(&inputs.db, &inputs.config, &inputs.windows)
                    .len(),
            ),
            _ => black_box(snapshot.sai_matrix(&inputs.spec).len()),
        });
        if matches!(kind, Kind::Sweep | Kind::Matrix) {
            let token = CancelToken::with_deadline(load::EMBEDDED_DEADLINE);
            let response = tracer.span(
                &format!("service.handle_with_token.{k}"),
                id,
                Some(root),
                || service.handle_with_token(request, &token),
            );
            self.check(kind, &response);
        }
    }

    /// One ingest: decode, the publish's copy and append on a private clone,
    /// the journal append on the scratch journal, the real ingest (through
    /// `handle` and `submit` alternately), the monitor delta and the first
    /// reads on the new generation, and the encode.
    fn ingest(&mut self, line: &str) {
        let tracer = self.plan.tracer;
        let service = self.plan.service;
        let id = self.next_id;
        self.next_id += 1;
        let root = tracer.open("request.ingest", id, None);
        self.count("wire.request_bytes.ingest".into(), line.len() as f64);
        let Ok(wire) = tracer.span("wire.decode.ingest", id, Some(root), || {
            decode_request(line)
        }) else {
            self.violations
                .push("replayed ingest line did not decode".into());
            return;
        };
        let ServiceRequest::Ingest { posts } = &wire.request else {
            self.violations
                .push("replayed ingest line is not an Ingest".into());
            return;
        };
        let mut next = tracer.span("snapshot.clone", id, Some(root), || {
            (*service.snapshot()).clone()
        });
        let batch = posts.clone();
        tracer.span("engine.append", id, Some(root), || next.ingest_batch(batch));
        drop(next);

        self.journal_generation += 1;
        let before = self.journal.stats().wal_bytes;
        let logged = tracer.span("journal.append", id, Some(root), || {
            self.journal.log_ingest(posts, self.journal_generation)
        });
        if let Err(error) = logged {
            self.violations
                .push(format!("scratch journal append: {error}"));
        }
        let grown = self.journal.stats().wal_bytes.saturating_sub(before);
        self.count(
            "journal.bytes_per_post".into(),
            grown as f64 / posts.len().max(1) as f64,
        );

        let request = wire.request;
        self.ingests += 1;
        let response = if self.ingests.is_multiple_of(2) {
            tracer.span("runtime.submit_wait.ingest", id, Some(root), || {
                service.submit(request).wait()
            })
        } else {
            tracer.span("service.handle.ingest", id, Some(root), || {
                service.handle(request)
            })
        };
        self.check(Kind::Ingest, &response);
        // What follows a publish, in the service's order: the subscriber's
        // monitor delta (the replay registers no subscriber, so `handle`
        // leaves it cold for this span), then the first reads.  Only the
        // Score is a metric; the sweep and matrix leave the replayed reads
        // that follow warm, as on `read-mix`.
        let snapshot = service.snapshot();
        let inputs = &self.inputs;
        tracer.span("monitoring.delta", id, Some(root), || {
            let spec = &inputs.monitor;
            let series = MonitoringSeries::run_on(
                &*snapshot,
                &inputs.db,
                &inputs.config,
                &spec.scenario,
                spec.from_year,
                spec.to_year,
                spec.window_years,
            );
            black_box(series.sai_alerts(spec.alert_threshold).len())
        });
        tracer.span("engine.first_score", id, Some(root), || {
            black_box(snapshot.sai_list(&inputs.db, &inputs.config).len())
        });
        tracer.span("engine.first_sweep", id, Some(root), || {
            black_box(
                snapshot
                    .sai_windows(&inputs.db, &inputs.config, &inputs.windows)
                    .len(),
            )
        });
        tracer.span("engine.first_matrix", id, Some(root), || {
            black_box(snapshot.sai_matrix(&inputs.spec).len())
        });
        let out = tracer.span("wire.encode.ingest", id, Some(root), || {
            encode_response(&WireResponse { id, response })
        });
        self.count("wire.response_bytes.ingest".into(), out.len() as f64);
        tracer.close(root);
    }
}

/// Inputs of the per-layer metrics and the attribution report.
pub struct Attribution<'a> {
    pub tracer: &'a Tracer,
    pub workload_name: &'a str,
    /// Whether a kind reached the daemon through the embedded client.
    pub embedded: &'a dyn Fn(Kind) -> bool,
    /// End-to-end latencies of the socket phase, by kind.
    pub socket: &'a Samples,
    pub ingest_ms: &'a [f64],
    pub counts: &'a Counts,
    pub queued_max: usize,
    pub net: NetStatus,
    pub gen_late_ms: &'a [f64],
    pub checkpoint_bytes: u64,
}

/// The per-layer metrics (see `README.md`), and the attribution report on
/// stdout: per kind, the layers' sum against the end-to-end median.
pub fn layer_metrics(input: &Attribution<'_>) -> Result<Vec<Metric>, String> {
    let span_ms = |name: &str| -> Result<f64, String> {
        median(&input.tracer.durations_ms(name))
            .ok_or_else(|| format!("no `{name}` spans were recorded"))
    };
    let count = |name: &str| -> Result<f64, String> {
        input
            .counts
            .get(name)
            .and_then(|values| median(values))
            .ok_or_else(|| format!("no `{name}` counts were recorded"))
    };
    let mut metrics = Vec::new();
    let mut push = |name: String, value: f64, unit: &'static str| {
        metrics.push(Metric { name, value, unit });
    };

    for kind in Kind::ALL {
        let k = kind.name();
        let decode = span_ms(&format!("wire.decode.{k}"))?;
        let encode = span_ms(&format!("wire.encode.{k}"))?;
        let handle = span_ms(&format!("service.handle.{k}"))?;
        let queue = span_ms(&format!("runtime.submit_wait.{k}"))? - handle;
        push(format!("wire.decode_ms.{k}"), decode, "ms");
        push(format!("wire.encode_ms.{k}"), encode, "ms");
        push(
            format!("wire.response_bytes.{k}"),
            count(&format!("wire.response_bytes.{k}"))?,
            "B",
        );
        push(format!("service.handle_ms.{k}"), handle, "ms");
        push(format!("runtime.queue_ms.{k}"), queue, "ms");
        let engine = match kind {
            Kind::Ingest => {
                span_ms("snapshot.clone")? + span_ms("engine.append")? + span_ms("journal.append")?
            }
            _ => span_ms(&format!("engine.{k}"))?,
        };
        push(format!("service.dispatch_ms.{k}"), handle - engine, "ms");
        let deadline = match kind {
            Kind::Sweep | Kind::Matrix => {
                let deadline = span_ms(&format!("service.handle_with_token.{k}"))? - handle;
                push(format!("service.deadline_ms.{k}"), deadline, "ms");
                deadline
            }
            _ => 0.0,
        };

        // Attribution: what the in-process layers add up to, against what
        // the socket phase's clients saw.
        let embedded = (input.embedded)(kind);
        let (sum, parts) = if kind == Kind::Ingest {
            // The ack leaves after the subscriber's delta is computed.
            let delta = span_ms("monitoring.delta")?;
            (
                decode + queue + handle + delta + encode,
                format!("decode {decode:.3} + queue {queue:.3} + handle {handle:.3} + delta {delta:.3} + encode {encode:.3}"),
            )
        } else if embedded {
            (
                queue + handle + deadline,
                format!("queue {queue:.3} + handle {handle:.3} + deadline {deadline:.3}"),
            )
        } else {
            (
                decode + queue + handle + encode,
                format!("decode {decode:.3} + queue {queue:.3} + handle {handle:.3} + encode {encode:.3}"),
            )
        };
        let observed = match kind {
            Kind::Ingest => input.ingest_ms,
            _ => input.socket.get(kind),
        };
        let end_to_end = median(observed).ok_or_else(|| format!("no end-to-end {k} samples"))?;
        push(format!("net.transport_ms.{k}"), end_to_end - sum, "ms");
        let overhead = match kind {
            Kind::Ingest => None,
            _ => Some(
                span_ms(&format!("pipeline.{k}"))? - span_ms(&format!("pipeline_untraced.{k}"))?,
            ),
        };
        if let Some(overhead) = overhead {
            push(format!("trace.overhead_ms.{k}"), overhead, "ms");
        }
        println!(
            "attribution {} {k}: layers {sum:.3} ms ({parts}) | end-to-end p50 {end_to_end:.3} ms | residual {:.3} ms | tracing overhead {}",
            input.workload_name,
            end_to_end - sum,
            overhead.map_or_else(|| "n/a".to_string(), |overhead| format!("{overhead:.4} ms")),
        );
    }
    push(
        "wire.request_bytes.ingest".into(),
        count("wire.request_bytes.ingest")?,
        "B",
    );
    for k in ["score", "sweep", "matrix", "append", "first_score", "build"] {
        push(
            format!("engine.{k}_ms"),
            span_ms(&format!("engine.{k}"))?,
            "ms",
        );
    }
    push(
        "runtime.queued_max".into(),
        input.queued_max as f64,
        "count",
    );
    push("snapshot.clone_ms".into(), span_ms("snapshot.clone")?, "ms");
    push("journal.append_ms".into(), span_ms("journal.append")?, "ms");
    push(
        "journal.bytes_per_post".into(),
        count("journal.bytes_per_post")?,
        "B",
    );
    push("journal.scan_ms".into(), span_ms("journal.scan")?, "ms");
    push(
        "durability.checkpoint_ms".into(),
        span_ms("durability.checkpoint")?,
        "ms",
    );
    push(
        "durability.checkpoint_bytes".into(),
        input.checkpoint_bytes as f64,
        "B",
    );
    push(
        "durability.recover_ms".into(),
        span_ms("durability.recover")?,
        "ms",
    );
    push(
        "durability.load_ms".into(),
        span_ms("durability.load")?,
        "ms",
    );
    push(
        "durability.replay_ms".into(),
        span_ms("durability.replay")?,
        "ms",
    );
    push(
        "durability.cache.load_ms".into(),
        span_ms("durability.cache.load")?,
        "ms",
    );
    push(
        "monitoring.delta_ms".into(),
        span_ms("monitoring.delta")?,
        "ms",
    );
    let net = input.net;
    push(
        "net.bytes_in_per_req".into(),
        net.bytes_in as f64 / net.requests_admitted.max(1) as f64,
        "B",
    );
    push(
        "net.bytes_out_per_req".into(),
        net.bytes_out as f64 / net.requests_answered.max(1) as f64,
        "B",
    );
    push("net.admitted".into(), net.requests_admitted as f64, "count");
    push("net.answered".into(), net.requests_answered as f64, "count");
    push(
        "net.rejected".into(),
        (net.admissions_rejected + net.connections_rejected) as f64,
        "count",
    );
    push(
        "feed.gen_late_ms".into(),
        percentile(input.gen_late_ms, 100.0).unwrap_or(0.0),
        "ms",
    );
    Ok(metrics)
}
