//! `fig6c_scaled`: the paper's p_t panel (Fig. 6c) at the scaled preset,
//! ADDC against Coolest at n = 600 with `Exact` dense tables, so the
//! Scan SIR path runs. The sweep goes through `run_sweep` with one
//! thread per core and at least as many repetitions as threads.
//!
//! The inputs are the preset's own deployments, the figure as users
//! regenerate it; `--seed` does not change them. Per-repetition cost
//! varies from about 1 s to 19 s across deployment seeds, so a sweep over
//! seed-chosen deployments could not give a steady figure within one run.
//!
//! After the timed sweep, a fixed sample of its jobs (rep 0 at two p_t
//! values, both algorithms) is recomputed in-process through
//! `Scenario::generate` → `recustomized` → `world` → `run`; the sample's
//! records must equal the sweep's, and its engine time gives
//! `sim_events_per_s`. Part of the sample reruns under the oracle.
//!
//! The latency counterparts come from that sample too: one round
//! re-derives and runs the sample's four figure points, as a service
//! re-serving a radio-axis change would. The sweep's own job completion
//! times are no use here: job costs grow geometrically along the p_t
//! axis, so half the jobs finish within the sweep's first second and
//! any quantile of them times the host over that second alone.

use crate::trace::span;
use crate::util::{
    median, nproc, process_cpu_s, secs, tail, tail_q, vm_hwm_mb, Outcome, FNV_OFFSET,
};
use crate::{count_events, Size};
use crn_core::{CollectionAlgorithm, CollectionOutcome, Scenario};
use crn_workloads::export::record_jsonl;
use crn_workloads::json::Json;
use crn_workloads::presets::fig6_spec;
use crn_workloads::{run_sweep, Fig6Panel, PresetKind, RunRecord, SweepOptions, SweepSpec};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Axis values recomputed in-process after the sweep.
const SAMPLE_PTS: [f64; 2] = [0.2, 0.3];
/// Of those, the value also rerun under the invariant oracle.
const ORACLE_PT: f64 = 0.3;
/// Rounds of the in-process sample (about 0.6 s each on a 2-core host).
const SAMPLE_ROUNDS: usize = 16;

/// Checks one in-process sample run against the sweep's record for the
/// same job, and reruns it under the oracle at [`ORACLE_PT`].
fn check_sample(
    out: &mut Outcome,
    spec: &SweepSpec,
    records: &[RunRecord],
    pt: f64,
    alg: CollectionAlgorithm,
    derived: &Scenario,
    outcome: &CollectionOutcome,
) {
    let mine = record_jsonl(&RunRecord::from_outcome(
        &spec.figure,
        spec.axis.kind.label(),
        pt,
        0,
        outcome,
    ));
    let theirs = records
        .iter()
        .find(|r| r.rep == 0 && r.x == pt && r.algorithm == alg)
        .map(record_jsonl);
    out.check(theirs.as_deref() == Some(mine.as_str()), || {
        format!("sweep record p_t={pt} {alg} differs from Scenario::run")
    });
    if pt != ORACLE_PT {
        return;
    }
    let checked = derived.run_checked(alg);
    out.check(
        matches!(&checked, Ok((o, _)) if o.report == outcome.report),
        || format!("oracle rerun p_t={pt} {alg}: {:?}", checked.err()),
    );
    if crate::trace::enabled() && alg == CollectionAlgorithm::Addc {
        let sim_seed = spec.base.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        if let Ok((_, kinds)) = derived.run_probed(
            alg,
            sim_seed,
            crn_sim::Traffic::Snapshot,
            crate::KindCounter::default(),
        ) {
            count_events(out, &kinds);
        }
    }
}

fn spec(size: Size, reps: u32) -> SweepSpec {
    match size {
        Size::Full => {
            let mut s = fig6_spec(PresetKind::Scaled, Fig6Panel::C);
            s.reps = reps;
            s
        }
        Size::Smoke => {
            let mut s = fig6_spec(PresetKind::Tiny, Fig6Panel::C);
            s.reps = reps;
            s
        }
    }
}

/// Runs the workload.
#[allow(clippy::too_many_lines)]
pub fn run(_seed: u64, seconds: f64, size: Size, out: &mut Outcome) {
    let threads = nproc();
    let reps = u32::try_from(threads.max(2)).unwrap_or(2);

    // Set-up is the spec construction alone; it is timed in batches so
    // the figure is well above the clock's resolution.
    const BATCH: usize = 200;
    let mut setup = Vec::new();
    let mut spec_built = None;
    span("phase.setup", 0, || {
        for _ in 0..50 {
            let t = Instant::now();
            for _ in 0..BATCH {
                spec_built = Some(std::hint::black_box(spec(size, reps)));
            }
            setup.push(secs(t) / BATCH as f64);
        }
    });
    let spec = spec_built.expect("spec built");
    let jobs = spec.jobs().len();

    // Completion instants per worker thread, from the progress callback
    // (which `run_sweep` calls on the thread that finished the job).
    type Done = Arc<Mutex<Vec<(ThreadId, Instant)>>>;
    let mut sweeps = 0u64;
    let mut records: Vec<RunRecord> = Vec::new();
    let mut busy_share = Vec::new();
    let mut slowest_group = 0.0f64;
    let t0 = Instant::now();
    let cpu0 = process_cpu_s();
    let mut last_wall = 0.0;
    span("phase.sweep", 0, || {
        // Another sweep starts only if it should end within the window.
        while sweeps == 0 || secs(t0) + last_wall <= seconds {
            let done: Done = Arc::new(Mutex::new(Vec::new()));
            let sink = done.clone();
            let opts = SweepOptions::with_threads(threads).on_progress(move |_, _| {
                sink.lock()
                    .expect("progress log poisoned")
                    .push((std::thread::current().id(), Instant::now()));
            });
            let start = Instant::now();
            let result = span("workloads.runner.sweep", 0, || run_sweep(&spec, opts));
            let wall = secs(start);
            last_wall = wall;
            sweeps += 1;
            match result {
                Ok(r) => {
                    out.check(r.len() == jobs, || {
                        format!("sweep returned {} of {jobs} records", r.len())
                    });
                    if records.is_empty() {
                        records = r;
                    } else {
                        let same = r
                            .iter()
                            .map(record_jsonl)
                            .eq(records.iter().map(record_jsonl));
                        out.check(same, || "repeated sweep changed its records".into());
                    }
                }
                Err(e) => out.check(false, || format!("sweep failed: {e}")),
            }
            let done = done.lock().expect("progress log poisoned");
            let mut per_thread: HashMap<ThreadId, f64> = HashMap::new();
            for &(tid, at) in done.iter() {
                let since = at.duration_since(start).as_secs_f64();
                let e = per_thread.entry(tid).or_default();
                *e = e.max(since);
            }
            busy_share.push(per_thread.values().sum::<f64>() / (threads as f64 * wall));
            slowest_group = slowest_group.max(per_thread.values().copied().fold(0.0, f64::max));
        }
    });
    let sweep_wall = secs(t0);
    let sweep_cpu = process_cpu_s() - cpu0;
    out.attempted += sweeps * jobs as u64;

    // In-process sample: same inputs, direct layer calls, repeated so the
    // rates are medians over rounds. The first round's records are checked.
    let mut rates = Vec::new();
    let mut resweep_rates = Vec::new();
    let mut round_ms = Vec::new();
    let mut events = 0u64;
    // Rep 0 of a radio-axis sweep deploys with the base seed.
    let base_params = spec.base.clone();
    match span("core.scenario.generate", 0, || {
        Scenario::generate(&base_params)
    }) {
        Err(e) => out.check(false, || format!("generate failed: {e}")),
        Ok(scenario) => {
            for round in 0..SAMPLE_ROUNDS {
                let (mut engine_s, mut total_s, mut round_events, mut runs) =
                    (0.0, 0.0, 0u64, 0u64);
                for pt in SAMPLE_PTS {
                    let point = spec.axis.apply(&base_params, pt);
                    let t = Instant::now();
                    let derived =
                        span("sim.radio.recustomize", 0, || scenario.recustomized(&point));
                    total_s += secs(t);
                    let derived = match derived {
                        Ok(d) => d,
                        Err(e) => {
                            out.check(false, || format!("recustomize to p_t={pt}: {e}"));
                            continue;
                        }
                    };
                    for &alg in &spec.algorithms {
                        let t = Instant::now();
                        let world = span("core.scenario.world", 0, || derived.world(alg));
                        total_s += secs(t);
                        let t = Instant::now();
                        let outcome = span("sim.engine.run", 0, || derived.run(alg));
                        engine_s += secs(t);
                        let (Ok(_), Ok(outcome)) = (world, outcome) else {
                            out.check(false, || format!("sample run p_t={pt} {alg} failed"));
                            continue;
                        };
                        runs += 1;
                        round_events += outcome.report.events_processed;
                        if round == 0 {
                            check_sample(out, &spec, &records, pt, alg, &derived, &outcome);
                        }
                    }
                }
                rates.push(round_events as f64 / engine_s.max(1e-9));
                resweep_rates.push(runs as f64 / (total_s + engine_s).max(1e-9));
                round_ms.push((total_s + engine_s) * 1e3);
                events = round_events;
            }
        }
    }

    let runs_per_s = (sweeps * jobs as u64) as f64 / sweep_wall;
    out.e2e.insert("setup_s", median(&setup));
    out.e2e
        .insert("peak_rss_mb", vm_hwm_mb(None).unwrap_or(0.0));
    out.e2e.insert("sim_events_per_s", median(&rates));
    out.e2e.insert("sweep_points_per_s", runs_per_s);
    out.e2e
        .insert("resweep_points_per_s", median(&resweep_rates));
    out.e2e.insert("serve_p50_ms", median(&round_ms));
    out.e2e.insert("serve_p99_ms", tail(&round_ms));
    out.e2e.insert("serve_max_rps", runs_per_s);

    out.layer("workloads.runner.busy_share", median(&busy_share));
    out.layer("workloads.runner.slowest_group_s", slowest_group);
    out.layer("sim.engine.events", events as f64);
    let attempts: u64 = records.iter().map(|r| r.attempts).sum();
    let successes: u64 = records.iter().map(|r| r.successes).sum();
    out.layer(
        "sim.engine.success_ratio",
        successes as f64 / attempts.max(1) as f64,
    );
    out.layer(
        "sim.engine.sir_losses",
        records.iter().map(|r| r.sir_failures as f64).sum(),
    );
    out.layer(
        "sim.engine.pu_handoffs",
        records.iter().map(|r| r.pu_aborts as f64).sum(),
    );

    let digest = records.iter().fold(FNV_OFFSET, |h, r| {
        crate::util::fnv(h, record_jsonl(r).as_bytes())
    });
    let mut x = Json::obj();
    x.set("figure", Json::Str(spec.figure.clone()))
        .set("n", Json::UInt(spec.base.num_sus as u64))
        .set("reps", Json::UInt(u64::from(spec.reps)))
        .set("threads", Json::UInt(threads as u64))
        .set("jobs_per_sweep", Json::UInt(jobs as u64))
        .set("sweeps", Json::UInt(sweeps))
        .set("sweep_cpu_s", Json::float(sweep_cpu))
        .set("sample_rounds", Json::UInt(rates.len() as u64))
        .set("latency_samples", Json::UInt(round_ms.len() as u64))
        .set("tail_quantile", Json::float(tail_q(round_ms.len())))
        .set("digest", Json::Str(format!("{digest:016x}")));
    out.extra("fig6c_scaled", x);
}
