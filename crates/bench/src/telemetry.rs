//! Telemetry artifact builder: runs the standard flaky-device overload
//! workload and renders the three `reproduce trace` artifacts — Chrome
//! Trace Event JSON, the Prometheus metrics exposition, and a JSON
//! summary. Every byte is a pure function of `(profile, seed)`: the
//! exporter determinism tests pin that the same artifacts come out for
//! any worker count and host-pool width.

use cusfft::observe;
use cusfft_telemetry::json::{self, JsonValue};
use gpu_sim::DeviceSpec;

/// The rendered artifacts plus the report they came from.
pub struct TelemetryArtifacts {
    /// The serve report the artifacts were derived from.
    pub report: cusfft::ServeReport,
    /// Chrome/Perfetto Trace Event JSON (`results/trace.json`).
    pub trace_json: String,
    /// Prometheus text exposition (`results/metrics.prom`).
    pub metrics_prom: String,
    /// Run summary (`results/BENCH_telemetry.json`).
    pub summary_json: String,
    /// Spans in the tree.
    pub spans: usize,
    /// Events in the emitted trace (validated).
    pub trace_events: usize,
    /// Distinct (pid, tid) tracks carrying timed events.
    pub trace_tracks: usize,
}

/// Runs the telemetry workload — the overload trace at 2.0× offered
/// load on flaky devices (so faults, retries, hedges and breaker
/// activity all show up) — and renders the artifacts. The span tree and
/// the emitted trace are validated before returning, so a schema
/// regression fails loudly here rather than in a viewer.
pub fn telemetry_artifacts(
    log2_n: u32,
    k: usize,
    batch: usize,
    seed: u64,
    workers: usize,
) -> TelemetryArtifacts {
    let trace = crate::experiments::overload_trace(log2_n, k, batch, seed, 2.0);
    let policy = crate::experiments::overload_policy(batch);
    let engine = cusfft::ServeEngine::new(
        DeviceSpec::tesla_k20x(),
        cusfft::ServeConfig {
            workers,
            cache_capacity: 8,
            faults: Some(gpu_sim::FaultConfig::uniform(seed, 0.01).with_sdc(0.01)),
            ..cusfft::ServeConfig::default()
        },
    ).expect("serve config is valid");
    let report = engine.serve_overload(&trace, &policy);

    let tree = observe::span_tree(&report);
    tree.validate(report.timeline.ops.len())
        .expect("span tree covers every timeline op");
    let registry = observe::metrics_registry(&report);
    let trace_json = observe::chrome_trace_json(&report);
    let summary =
        cusfft_telemetry::validate_chrome_trace(&trace_json).expect("emitted trace validates");
    let metrics_prom = registry.render_prometheus();

    let mut done = 0u64;
    let mut failed = 0u64;
    for o in &report.outcomes {
        match o.response() {
            Some(_) => done += 1,
            None if o.is_rejected() => {}
            None => failed += 1,
        }
    }

    // `workers` is deliberately absent from the profile: the summary,
    // like the trace and the exposition, is byte-identical across worker
    // counts, and recording one would belie that.
    let summary_doc = JsonValue::object([
        ("experiment", "telemetry".into()),
        (
            "profile",
            JsonValue::object([
                ("n", (1u64 << log2_n).into()),
                ("k", k.into()),
                ("batch", batch.into()),
                ("seed", seed.into()),
                ("offered_load", 2.0.into()),
            ]),
        ),
        (
            "trace",
            JsonValue::object([
                ("events", summary.events.into()),
                ("tracks", summary.tracks.into()),
                ("bytes", trace_json.len().into()),
            ]),
        ),
        (
            "spans",
            JsonValue::object([
                ("total", tree.spans.len().into()),
                ("timeline_ops", report.timeline.ops.len().into()),
            ]),
        ),
        (
            "outcomes",
            JsonValue::object([
                ("done", done.into()),
                ("failed", failed.into()),
                ("shed", report.overload.shed.into()),
                (
                    "deadline_exceeded",
                    report.overload.deadline_exceeded.into(),
                ),
            ]),
        ),
        (
            "path_latency",
            report
                .path_latency
                .iter()
                .map(|pl| {
                    JsonValue::object([
                        ("path", pl.path.label().into()),
                        ("qos", pl.qos.label().into()),
                        ("count", pl.count.into()),
                        ("p50", pl.p50.into()),
                        ("p95", pl.p95.into()),
                        ("p99", pl.p99.into()),
                    ])
                })
                .collect(),
        ),
        (
            "metrics",
            json::parse(&registry.to_json()).expect("the registry snapshot is valid JSON"),
        ),
    ]);

    TelemetryArtifacts {
        report,
        trace_json,
        metrics_prom,
        summary_json: json::write(&summary_doc),
        spans: tree.spans.len(),
        trace_events: summary.events,
        trace_tracks: summary.tracks,
    }
}
