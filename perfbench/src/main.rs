//! The repository benchmark: one command runs one named workload with a
//! seed, checks the program's outputs, and prints its metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`. The
//! line before it is the full result record (metadata, both metric
//! kinds, workload details) that `compare.py` reads. A traced run also
//! writes its spans to `.bench_out/spans-<workload>-<seed>.jsonl`.
//!
//! Every layer is reached through its public API from here; the program
//! under test carries no benchmark code.

mod cluster;
mod fig6c;
mod grid;
mod serve_mix;
mod trace;
mod util;

use crn_serve::protocol::{parse_request, Request, RunSpec};
use crn_sim::{Probe, TraceEvent};
use crn_workloads::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;
use util::Outcome;

/// Input size of a run: the benchmark's own, or the smoke size its
/// tests use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few seconds end to end, for the benchmark's own tests.
    Smoke,
}

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["grid_scale", "fig6c_scaled", "serve_mix", "cluster_stream"];

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_events_per_s", "events/s"),
    ("sweep_points_per_s", "runs/s"),
    ("resweep_points_per_s", "runs/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("serve_max_rps", "req/s"),
];

/// Engine trace-event kinds counted in traced runs.
pub const EVENT_KINDS: [&str; 11] = [
    "backoff_start",
    "backoff_freeze",
    "backoff_resume",
    "tx_start",
    "tx_end",
    "fairness_wait",
    "delivery",
    "queue_depth",
    "pu_on",
    "pu_off",
    "packet_generated",
];

/// Per-layer metrics that are not span self times or event kinds: name
/// and unit. Self times (`<span>_s`) follow from [`SPAN_LAYERS`].
pub const LAYER_COUNTERS: [(&str, &str); 26] = [
    ("sim.radio.gain_table_bytes", "bytes"),
    ("sim.engine.events", "count"),
    ("sim.engine.success_ratio", "ratio"),
    ("sim.engine.sir_losses", "count"),
    ("sim.engine.pu_handoffs", "count"),
    ("workloads.runner.busy_share", "ratio"),
    ("workloads.runner.slowest_group_s", "s"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.exec.topology_hit_ratio", "ratio"),
    ("serve.latency_ms.fresh", "ms"),
    ("serve.latency_ms.repeat", "ms"),
    ("serve.latency_ms.variant", "ms"),
    ("serve.store.hits", "count"),
    ("serve.store.bytes", "bytes"),
    ("serve.store.evictions", "count"),
    ("serve.server.rejected", "count"),
    ("serve.server.timed_out", "count"),
    ("serve.server.coalesced", "count"),
    ("serve.server.p50_ms", "ms"),
    ("serve.server.p99_ms", "ms"),
    ("loadgen.lateness_ms", "ms"),
    ("cluster.coordinator.dispatched", "count"),
    ("cluster.coordinator.redispatched", "count"),
    ("cluster.coordinator.late_duplicates", "count"),
    ("cluster.coordinator.inline_fallbacks", "count"),
    ("cluster.ring.imbalance", "ratio"),
];

/// Spans recorded around public layer calls; each gives a
/// `<name>_s` self-time metric.
pub const SPAN_LAYERS: [&str; 17] = [
    "sim.topology.build",
    "sim.radio.customize",
    "sim.radio.recustomize",
    "core.scenario.generate",
    "core.scenario.world",
    "sim.engine.run",
    "workloads.runner.sweep",
    "serve.server.start",
    "serve.client.request",
    "serve.exec.execute",
    "serve.store.open",
    "serve.store.get",
    "serve.store.put",
    "cluster.coordinator.start",
    "cluster.coordinator.shutdown",
    "cluster.worker.join",
    "cluster.client.stream",
];

/// Metrics about the trace itself.
pub const TRACE_METRICS: [(&str, &str); 4] = [
    ("trace.phase_s", "s"),
    ("trace.uncovered_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Every per-layer metric name with its unit, in a fixed order.
#[must_use]
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    v.extend(SPAN_LAYERS.iter().map(|n| (format!("{n}_s"), "s")));
    v.extend(LAYER_COUNTERS.iter().map(|&(n, u)| (n.to_owned(), u)));
    v.extend(
        EVENT_KINDS
            .iter()
            .map(|k| (format!("sim.engine.events.{k}"), "count")),
    );
    v.extend(TRACE_METRICS.iter().map(|&(n, u)| (n.to_owned(), u)));
    v
}

/// Counts engine trace events by kind.
#[derive(Default)]
pub struct KindCounter(BTreeMap<&'static str, u64>);

impl Probe for KindCounter {
    fn on_event(&mut self, event: &TraceEvent) {
        *self.0.entry(event.kind.label()).or_default() += 1;
    }
}

/// Records the per-kind event counts of one counting run.
pub fn count_events(out: &mut Outcome, kinds: &KindCounter) {
    for (kind, n) in &kinds.0 {
        out.layer(&format!("sim.engine.events.{kind}"), *n as f64);
    }
}

/// The run spec the service derives from a generated `run` request line.
///
/// # Panics
///
/// Panics if the line is not a valid run request (a benchmark bug).
#[must_use]
pub fn run_spec(line: &str) -> RunSpec {
    match parse_request(line) {
        Ok(Request::Run { spec, .. }) => spec,
        other => panic!("generated request does not parse as a run: {other:?}"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(mut args: Vec<String>) -> Result<Args, String> {
    let mut take = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        let value = args.get(i + 1).cloned();
        args.drain(i..(i + 2).min(args.len()));
        value
    };
    let workload = take("--workload").ok_or("--workload NAME is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' ({})",
            WORKLOADS.join("|")
        ));
    }
    let seed = take("--seed")
        .map_or(Ok(1), |s| s.parse())
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("--seconds")
        .map_or(Ok(10.0), |s| s.parse())
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match take("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    let smoke = args.iter().position(|a| a == "--smoke");
    let size = match smoke {
        Some(i) => {
            args.remove(i);
            Size::Smoke
        }
        None => Size::Full,
    };
    if !args.is_empty() {
        return Err(format!("unrecognized arguments: {args:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        size,
    })
}

fn metrics_json(values: impl Iterator<Item = (String, &'static str, f64)>) -> Json {
    let mut m = Json::obj();
    for (name, unit, value) in values {
        let mut v = Json::obj();
        v.set("value", Json::float(value))
            .set("unit", Json::Str(unit.into()));
        m.set(&name, v);
    }
    m
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--worker-process") {
        return match cluster::worker_process(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let mut out = Outcome::default();
    let mut span_cost_s = 0.0;
    if args.trace {
        trace::enable();
        span_cost_s = trace::calibrate_span_cost_s();
    }
    let dir = util::run_dir(&args.workload, args.seed);
    let _ = std::fs::remove_dir_all(&dir);
    match args.workload.as_str() {
        "grid_scale" => grid::run(args.seed, args.seconds, args.size, &mut out),
        "fig6c_scaled" => fig6c::run(args.seed, args.seconds, args.size, &mut out),
        "serve_mix" => serve_mix::run(args.seed, args.seconds, args.size, &mut out, &dir),
        _ => cluster::run(args.seed, args.seconds, args.size, &mut out, &dir),
    }
    let _ = std::fs::remove_dir_all(&dir);

    if args.trace {
        let summary = trace::summarize();
        for name in SPAN_LAYERS {
            if let Some(&s) = summary.self_s.get(name) {
                out.layer(&format!("{name}_s"), s);
            }
        }
        out.layer("trace.phase_s", summary.phase_s);
        out.layer(
            "trace.uncovered_share",
            summary.uncovered_s / summary.phase_s.max(1e-9),
        );
        out.layer(
            "trace.overhead_share",
            summary.spans as f64 * span_cost_s / summary.phase_s.max(1e-9),
        );
        out.layer("trace.spans", summary.spans as f64);
        let mut counts = Json::obj();
        for (name, n) in &summary.counts {
            counts.set(name, Json::UInt(*n));
        }
        out.extra("span_counts", counts);
        out.extra("span_cost_s", Json::float(span_cost_s));
        let path = std::path::Path::new(".bench_out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::write_spans(&path) {
            eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            );
        }
    }

    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    let e2e = metrics_json(END_TO_END.iter().map(|&(name, unit)| {
        (
            name.to_owned(),
            unit,
            out.e2e.get(name).copied().unwrap_or(0.0),
        )
    }));
    let layer = metrics_json(layer_metrics().into_iter().map(|(name, unit)| {
        let v = out.layer.get(&name).copied().unwrap_or(0.0);
        (name, unit, v)
    }));

    let mut record = Json::obj();
    record
        .set(
            "meta",
            util::run_metadata(
                &args.workload,
                args.seed,
                args.seconds,
                args.trace,
                args.size == Size::Smoke,
            ),
        )
        .set("correct", Json::Bool(correct))
        .set("attempted", Json::UInt(out.attempted.max(1)))
        .set("failed", Json::UInt(out.failed))
        .set("end_to_end", e2e.clone())
        .set("details", std::mem::replace(&mut out.extra, Json::Null));
    if args.trace {
        record.set("per_layer", layer.clone());
    }
    let mut wrapped = Json::obj();
    wrapped.set("perfbench_record", record);
    println!("{wrapped}");

    let mut last = Json::obj();
    last.set("correct", Json::Bool(correct))
        .set("attempted", Json::UInt(out.attempted.max(1)))
        .set("failed", Json::UInt(out.failed))
        .set("metrics", if args.trace { layer } else { e2e });
    println!("{last}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
