//! `grid_scale`: the deterministic synthetic grid world at tens of
//! thousands of SUs under `Truncated{0.1}`, so radio customization and
//! the delta SIR engine do nearly all the work.
//!
//! Set-up builds the world (`Topology` + `SimWorld::new`) several times
//! and reports the median. The measured window alternates cold runs
//! (`Simulator` runs to a fixed simulated horizon on the built world)
//! with re-sweep runs, which first re-customize the world to the next SU
//! power of the Fig. 6(f) axis.
//! The seed drives the simulator RNG only; the world is the same for
//! every seed.

use crate::trace::span;
use crate::util::{fnv, median, secs, tail, tail_q, vm_hwm_mb, Outcome, Rng, FNV_OFFSET};
use crate::{count_events, Size};
use crn_bench::synthetic::{grid_radio, grid_topology};
use crn_interference::PhyParams;
use crn_sim::{InterferenceModel, InvariantChecker, MacConfig, SimReport, SimWorld, Simulator};
use crn_workloads::json::Json;
use std::sync::Arc;
use std::time::Instant;

/// SU powers of the re-sweep, the paper's Fig. 6(f) axis.
const SU_POWERS: [f64; 4] = [10.0, 15.0, 20.0, 25.0];

struct Params {
    n: usize,
    horizon: f64,
    setup_reps: usize,
    verify_horizon: f64,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            n: 20_000,
            horizon: 0.005,
            setup_reps: 3,
            verify_horizon: 0.0003,
        },
        Size::Smoke => Params {
            n: 400,
            horizon: 0.01,
            setup_reps: 2,
            verify_horizon: 0.005,
        },
    }
}

fn model() -> InterferenceModel {
    InterferenceModel::Truncated { epsilon: 0.1 }
}

fn with_su_power(phy: &PhyParams, su_power: f64) -> PhyParams {
    let mut b = PhyParams::builder();
    b.alpha(phy.alpha())
        .pu_power(phy.pu_power())
        .su_power(su_power)
        .pu_radius(phy.pu_radius())
        .su_radius(phy.su_radius())
        .pu_sir_threshold(phy.pu_sir_threshold())
        .su_sir_threshold(phy.su_sir_threshold());
    b.build().expect("Fig. 6(f) SU powers are valid")
}

fn build_world(n: usize) -> Arc<SimWorld> {
    let topology = span("sim.topology.build", 0, || Arc::new(grid_topology(n)));
    let world = span("sim.radio.customize", 0, || {
        SimWorld::new(topology, grid_radio(model())).expect("grid world is valid")
    });
    Arc::new(world)
}

fn run_once(world: &Arc<SimWorld>, mac: MacConfig, seed: u64) -> SimReport {
    span("sim.engine.run", 0, || {
        Simulator::builder(world.clone())
            .mac(mac)
            .seed(seed)
            .build()
            .expect("capped grid run is valid")
            .run()
    })
}

#[derive(Default)]
struct Totals {
    runs: u64,
    events: u64,
    /// Engine events per second of each run.
    rates: Vec<f64>,
    attempts: u64,
    successes: u64,
    sir_losses: u64,
    pu_aborts: u64,
    latencies_ms: Vec<f64>,
}

impl Totals {
    fn add(&mut self, r: &SimReport, wall: f64) {
        self.runs += 1;
        self.events += r.events_processed;
        self.rates.push(r.events_processed as f64 / wall);
        self.attempts += r.attempts;
        self.successes += r.successes;
        self.sir_losses += r.sir_failures;
        self.pu_aborts += r.pu_aborts;
        self.latencies_ms.push(wall * 1e3);
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, size: Size, out: &mut Outcome) {
    let p = params(size);
    let mut rng = Rng::new(seed, 1);

    let mut setup = Vec::new();
    let mut world = None;
    span("phase.setup", 0, || {
        for _ in 0..p.setup_reps {
            let t = Instant::now();
            world = Some(build_world(p.n));
            setup.push(secs(t));
        }
    });
    let world = world.expect("at least one set-up");
    let mac = MacConfig {
        max_sim_time: p.horizon,
        ..MacConfig::default()
    };

    // Cold runs and re-sweep runs alternate, so both sample the whole
    // window rather than one half of it each.
    let mut cold = Totals::default();
    let mut resweep = Totals::default();
    let mut first: Option<(u64, SimReport)> = None;
    let base = *world.radio_params();
    let t0 = Instant::now();
    span("phase.measure", 0, || {
        while resweep.runs == 0 || secs(t0) < seconds {
            let s = rng.next_u64();
            let t = Instant::now();
            let r = run_once(&world, mac, s);
            cold.add(&r, secs(t));
            first.get_or_insert((s, r));

            let power = SU_POWERS[resweep.runs as usize % SU_POWERS.len()];
            let t = Instant::now();
            let derived = span("sim.radio.recustomize", 0, || {
                world.recustomize(base.phy(with_su_power(&base.phy, power)))
            });
            match derived {
                Ok(w) => {
                    let r = run_once(&Arc::new(w), mac, rng.next_u64());
                    resweep.add(&r, secs(t));
                }
                Err(e) => out.check(false, || format!("recustomize to P_s={power}: {e}")),
            }
        }
    });
    out.attempted += cold.runs + resweep.runs;

    // Output checks: a rerun of the first input reproduces its report
    // bit for bit, and every run made progress.
    let (s0, r0) = first.expect("one cold run");
    let again = run_once(&world, mac, s0);
    out.check(again == r0, || {
        "grid rerun diverged from its first run".into()
    });
    out.check(cold.attempts > 0 && resweep.attempts > 0, || {
        "grid runs made no transmission attempts".into()
    });
    // Untimed verify pass under the invariant oracle.
    let vmac = MacConfig {
        max_sim_time: p.verify_horizon,
        ..MacConfig::default()
    };
    let checker = InvariantChecker::new(world.clone(), vmac).with_repro(s0, "perfbench grid_scale");
    let (_, oracle) = Simulator::builder(world.clone())
        .mac(vmac)
        .seed(s0)
        .probe(checker)
        .build()
        .expect("verify run is valid")
        .run_with_probe();
    out.check(oracle.is_clean(), || {
        format!("oracle violation: {:?}", oracle.first_violation())
    });

    // Runs go back to back, so rates come from the median run: a burst
    // of contention from outside the benchmark moves a few runs, not
    // the figure.
    let runs_per_s = 1e3 / median(&cold.latencies_ms);
    out.e2e.insert("setup_s", median(&setup));
    out.e2e
        .insert("peak_rss_mb", vm_hwm_mb(None).unwrap_or(0.0));
    out.e2e.insert("sim_events_per_s", median(&cold.rates));
    out.e2e.insert("sweep_points_per_s", runs_per_s);
    out.e2e
        .insert("resweep_points_per_s", 1e3 / median(&resweep.latencies_ms));
    out.e2e.insert("serve_p50_ms", median(&cold.latencies_ms));
    out.e2e.insert("serve_p99_ms", tail(&cold.latencies_ms));
    out.e2e.insert("serve_max_rps", runs_per_s);

    out.layer(
        "sim.radio.gain_table_bytes",
        world.gain_table_bytes() as f64,
    );
    let all = [&cold, &resweep];
    out.layer(
        "sim.engine.events",
        all.iter().map(|t| t.events as f64).sum(),
    );
    let attempts: u64 = all.iter().map(|t| t.attempts).sum();
    let successes: u64 = all.iter().map(|t| t.successes).sum();
    out.layer(
        "sim.engine.success_ratio",
        successes as f64 / attempts.max(1) as f64,
    );
    out.layer(
        "sim.engine.sir_losses",
        all.iter().map(|t| t.sir_losses as f64).sum(),
    );
    out.layer(
        "sim.engine.pu_handoffs",
        all.iter().map(|t| t.pu_aborts as f64).sum(),
    );
    if crate::trace::enabled() {
        let (_, kinds) = Simulator::builder(world.clone())
            .mac(mac)
            .seed(s0)
            .probe(crate::KindCounter::default())
            .build()
            .expect("counting run is valid")
            .run_with_probe();
        count_events(out, &kinds);
    }

    let mut x = Json::obj();
    x.set("n", Json::UInt(p.n as u64))
        .set("horizon_s", Json::float(p.horizon))
        .set(
            "setup_samples_s",
            Json::Arr(setup.iter().map(|&s| Json::float(s)).collect()),
        )
        .set("cold_runs", Json::UInt(cold.runs))
        .set("resweep_runs", Json::UInt(resweep.runs))
        .set(
            "latency_samples",
            Json::UInt(cold.latencies_ms.len() as u64),
        )
        .set(
            "tail_quantile",
            Json::float(tail_q(cold.latencies_ms.len())),
        )
        .set(
            "digest",
            Json::Str(format!(
                "{:016x}",
                fnv(FNV_OFFSET, format!("{r0:?}").as_bytes())
            )),
        );
    out.extra("grid_scale", x);
}
