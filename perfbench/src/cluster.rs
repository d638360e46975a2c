//! `cluster_stream`: a `crn_cluster::Coordinator` with a persistent
//! store plus joined worker processes (this binary, re-executed with
//! `--worker-process`), one per core but one: the coordinator, its store
//! and the streaming client keep a core, so the fleet's rate follows the
//! program rather than the scheduler. On a 2-core host one worker has
//! two jobs in flight (the streaming window is twice the live workers);
//! a busy neighbour on the other core cut a 2-worker fleet's rate by
//! about 30% and left a 1-worker fleet's unchanged.
//!
//! Set-up brings the fleet up several times (coordinator start, worker
//! spawn, every worker joined) and reports the median. Output checks
//! compare the fleet's rows with a single-process `crn_serve::Server`
//! streaming the same sweep. Streamed sweeps of fresh seeds run cold;
//! after each, the whole fleet shuts down, restarts on the coordinator's
//! store, and the same sweep re-streams warm, timed from the restart to
//! the last row so the store scan counts. Rates are rows over the summed
//! wall of all timed sweeps (or restarts), which averages the host's
//! second-scale speed swings.

use crate::trace::span;
use crate::util::{fnv, median, nproc, secs, tail, tail_q, vm_hwm_mb, Outcome, Rng, FNV_OFFSET};
use crate::Size;
use crn_cluster::{ClusterConfig, Coordinator, WorkerConfig, WorkerNode};
use crn_core::{Scenario, ScenarioError};
use crn_serve::client::Client;
use crn_serve::server::{outcome_record_json, ServeConfig, Server};
use crn_serve::store::StoreConfig;
use crn_workloads::json::Json;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Rows are 200-SU scenarios (about 17 ms of compute each on a 2-core
/// host), so a sweep's rate follows the compute the fleet spreads over its
/// workers more than the fsyncs each stored row costs; with 80-SU rows
/// the rate tracked the shared disk.
const SUS: usize = 200;
const PUS: usize = 21;
const SIDE: f64 = 80.0;
/// Timed cold sweeps per second of run length (about 1.6 s each with
/// one worker, plus two restarts of about 0.6 s with the shutdown).
const SWEEPS_PER_SECOND: f64 = 0.3;
/// Untimed cold sweeps at the start of the run: the first sweeps after
/// set-up ran slower than the rest (by about a third with two workers).
const WARMUP_SWEEPS: u64 = 2;
/// Warm restarts after each cold sweep. A restart takes about 0.1 s,
/// most of it the coordinator's store scan, and single restarts follow
/// the host's speed closely, so the warm rate needs many of them.
const RESTARTS_PER_SWEEP: usize = 2;
/// Oracle reruns among the reference rows (untimed).
const ORACLE_SAMPLES: usize = 4;

struct Params {
    points: u64,
    setup_reps: usize,
    reference_samples: usize,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            points: 100,
            setup_reps: 9,
            reference_samples: 120,
        },
        Size::Smoke => Params {
            points: 20,
            setup_reps: 2,
            reference_samples: 10,
        },
    }
}

/// A coordinator and its worker processes; dropping it kills and reaps
/// any worker still running.
struct Fleet {
    coordinator: Option<Coordinator>,
    children: Vec<Child>,
}

impl Fleet {
    fn start(workers: usize, root: &Path) -> Fleet {
        let coordinator = span("cluster.coordinator.start", 0, || {
            Coordinator::start(ClusterConfig {
                store: Some(StoreConfig {
                    dir: root.join("coordinator"),
                    max_bytes: 0,
                }),
                ..ClusterConfig::default()
            })
            .expect("start the coordinator")
        });
        let addr = coordinator.local_addr();
        let exe = std::env::current_exe().expect("own executable path");
        let mut fleet = Fleet {
            coordinator: Some(coordinator),
            children: Vec::new(),
        };
        span("cluster.worker.join", 0, || {
            for i in 0..workers {
                let name = format!("perfbench-worker-{i}");
                let child = Command::new(&exe)
                    .arg("--worker-process")
                    .arg(addr.to_string())
                    .arg(&name)
                    .stdin(Stdio::null())
                    .spawn()
                    .expect("spawn a worker process");
                fleet.children.push(child);
            }
            let mut client = Client::connect(addr).expect("connect to the coordinator");
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                let status = client
                    .request_line(r#"{"v":1,"cmd":"status"}"#)
                    .expect("coordinator status");
                if status.get("workers").and_then(Json::as_u64) == Some(workers as u64) {
                    break;
                }
                assert!(Instant::now() < deadline, "workers never joined: {status}");
                // Fleet-up takes a few ms; a coarser poll would show in
                // `setup_s`.
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        fleet
    }

    fn addr(&self) -> SocketAddr {
        self.coordinator
            .as_ref()
            .expect("coordinator running")
            .local_addr()
    }

    fn stats(&self) -> Json {
        Client::connect(self.addr())
            .and_then(|mut c| c.stats())
            .expect("coordinator stats")
    }

    /// Peak RSS of every worker process, in MB.
    fn worker_hwm_mb(&self) -> f64 {
        self.children
            .iter()
            .filter_map(|c| vm_hwm_mb(Some(c.id())))
            .sum()
    }

    fn shutdown(mut self) {
        span("cluster.coordinator.shutdown", 0, || {
            if let Some(coordinator) = self.coordinator.take() {
                coordinator.shutdown();
                coordinator.wait();
            }
            for mut child in self.children.drain(..) {
                let _ = child.wait();
            }
        });
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The `--worker-process ADDR NAME` entry: one fleet worker that runs
/// until the coordinator hangs up. Workers keep no store of their own:
/// the coordinator's store serves the warm restarts, and a worker store
/// would only add two fsyncs per row on the shared disk.
pub fn worker_process(args: &[String]) -> std::io::Result<()> {
    let [addr, name] = args else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "usage: --worker-process ADDR NAME",
        ));
    };
    WorkerNode::run(WorkerConfig {
        coordinator: addr.clone(),
        name: name.clone(),
        threads: 1,
        store: None,
        ..WorkerConfig::default()
    })
}

struct Stream {
    rows: Vec<Json>,
    arrivals_ms: Vec<f64>,
    wall: f64,
    summary: Result<Json, String>,
}

fn stream_sweep(addr: SocketAddr, line: &str, layer: &'static str) -> Stream {
    let mut rows = Vec::new();
    let mut arrivals_ms = Vec::new();
    let t0 = Instant::now();
    let summary = Client::connect(addr)
        .and_then(|mut c| {
            c.set_read_timeout(Some(Duration::from_secs(120)))?;
            span(layer, 1, || {
                c.request_stream(line, |row| {
                    arrivals_ms.push(secs(t0) * 1e3);
                    rows.push(row);
                })
            })
        })
        .map_err(|e| e.to_string());
    Stream {
        rows,
        arrivals_ms,
        wall: secs(t0),
        summary,
    }
}

/// Streams `line` through an in-process `crn_serve::Server` (one worker
/// per core, no store): the single-process rows the fleet must match.
fn single_process_rows(line: &str) -> Stream {
    let server = span("serve.server.start", 0, || {
        Server::start(ServeConfig {
            workers: nproc(),
            ..ServeConfig::default()
        })
        .expect("start the reference server")
    });
    let rows = stream_sweep(server.local_addr(), line, "serve.client.request");
    server.shutdown();
    server.wait();
    rows
}

/// Checks that `stream` delivered exactly the `expected` seeds, in order
/// and all ok, and returns its row records.
fn check_stream(out: &mut Outcome, phase: &str, stream: &Stream, expected: &[u64]) -> Vec<String> {
    out.check(stream.summary.is_ok(), || {
        format!("{phase} sweep failed: {:?}", stream.summary.as_ref().err())
    });
    let seeds: Vec<u64> = stream
        .rows
        .iter()
        .filter_map(|r| r.get("seed").and_then(Json::as_u64))
        .collect();
    out.check(seeds == expected, || {
        format!("{phase} rows are not every seed once in order")
    });
    let mut records = Vec::new();
    for (i, row) in stream.rows.iter().enumerate() {
        let record = row.get("record").map(ToString::to_string);
        out.check(record.is_some(), || {
            format!("{phase} row {i} failed: {row}")
        });
        records.extend(record);
    }
    records
}

/// The spec the coordinator derives for the sweep point at `seed`.
fn point_spec(seed: u64) -> crn_serve::RunSpec {
    crate::run_spec(&format!(
        r#"{{"v":1,"cmd":"run","params":{{"sus":{SUS},"pus":{PUS},"side":{SIDE},"seed":{seed}}}}}"#
    ))
}

/// The record of the sweep point at `seed` run in-process through
/// `Scenario`, adding its engine events and time; `None` if `oracle` is
/// set and the rerun under the invariant oracle reports otherwise.
fn reference_record(
    seed: u64,
    oracle: bool,
    events: &mut u64,
    engine_s: &mut f64,
) -> Result<Option<String>, ScenarioError> {
    let spec = point_spec(seed);
    let sc = span("core.scenario.generate", 0, || {
        Scenario::generate(&spec.params)
    })?;
    span("core.scenario.world", 0, || sc.world(spec.algorithm))?;
    let t = Instant::now();
    let o = span("sim.engine.run", 0, || sc.run(spec.algorithm))?;
    *engine_s += secs(t);
    *events += o.report.events_processed;
    if oracle && sc.run_checked(spec.algorithm)?.0.report != o.report {
        return Ok(None);
    }
    Ok(Some(
        outcome_record_json("seed", seed as f64, &o).to_string(),
    ))
}

/// Runs the workload.
#[allow(clippy::too_many_lines)]
pub fn run(seed: u64, seconds: f64, size: Size, out: &mut Outcome, dir: &Path) {
    let p = params(size);
    let workers = nproc().saturating_sub(1).max(1);
    // Sweep j streams its own fresh seed range.
    let first_seed = |j: u64| seed.wrapping_mul(1 << 32).wrapping_add(j * p.points);
    let sweep_line = |j: u64| {
        format!(
            r#"{{"v":1,"cmd":"sweep","params":{{"sus":{SUS},"pus":{PUS},"side":{SIDE}}},"seed_start":{},"seed_count":{},"stream":true}}"#,
            first_seed(j),
            p.points
        )
    };

    let mut setup = Vec::new();
    let mut fleet = None;
    span("phase.setup", 0, || {
        for i in 0..p.setup_reps {
            let t = Instant::now();
            let f = Fleet::start(workers, dir);
            setup.push(secs(t));
            if i + 1 < p.setup_reps {
                f.shutdown();
            } else {
                fleet = Some(f);
            }
        }
    });
    let mut fleet = fleet.expect("fleet started");

    // Cold sweeps of fresh seeds alternate with warm restarts: after each
    // cold sweep the fleet restarts on its store and re-streams that
    // sweep, timed from the restart to the last row, and the restarted
    // fleet runs the next cold sweep. Both rates so sample the whole run,
    // not one end of it, and the host's speed drifts over tens of
    // seconds. The number of sweeps follows the run length, not the
    // clock, so every run scans stores of the same sizes. The first
    // sweeps run while the fleet's caches fill and are checked but not
    // timed. After each cold sweep, while the fleet idles, a few of its
    // points rerun in-process; their engine time gives `sim_events_per_s`.
    let sweeps = WARMUP_SWEEPS + ((seconds * SWEEPS_PER_SECOND).round() as u64).max(2);
    let per_sweep = p.reference_samples.div_ceil(sweeps as usize);
    let mut references = Vec::new();
    let (mut events, mut engine_s) = (0u64, 0.0);
    let mut pick = Rng::new(seed, 6);
    let mut cold: Vec<Stream> = Vec::new();
    let mut warm: Vec<(Stream, f64)> = Vec::new();
    // Each fleet's `stats`, taken before it shuts down.
    let mut stats: Vec<Json> = Vec::new();
    let mut rss = 0.0f64;
    span("phase.measure", 0, || {
        let mut retire = |fleet: Fleet, stats: &mut Vec<Json>| {
            stats.push(fleet.stats());
            rss = rss.max(vm_hwm_mb(None).unwrap_or(0.0) + fleet.worker_hwm_mb());
            fleet.shutdown();
        };
        for j in 0..sweeps {
            cold.push(stream_sweep(
                fleet.addr(),
                &sweep_line(j),
                "cluster.client.stream",
            ));
            for _ in 0..per_sweep {
                let s = first_seed(j) + pick.below(p.points as usize) as u64;
                let oracle = references.len() < ORACLE_SAMPLES;
                let record = reference_record(s, oracle, &mut events, &mut engine_s);
                references.push((s, record));
            }
            for _ in 0..RESTARTS_PER_SWEEP {
                retire(fleet, &mut stats);
                let t = Instant::now();
                fleet = Fleet::start(workers, dir);
                let stream = stream_sweep(fleet.addr(), &sweep_line(j), "cluster.client.stream");
                warm.push((stream, secs(t)));
            }
        }
        retire(fleet, &mut stats);
    });

    // Output checks: each sweep streams every seed exactly once, in
    // order, all ok; warm rows equal cold rows byte for byte; a sample
    // equals the single-process record for the same run.
    let mut cold_records: Vec<(u64, String)> = Vec::new();
    let mut warm_cached = 0u64;
    for (j, c) in cold.iter().enumerate() {
        let expected: Vec<u64> = (0..p.points).map(|i| first_seed(j as u64) + i).collect();
        let records = check_stream(out, "cold", c, &expected);
        for (w, _) in &warm[j * RESTARTS_PER_SWEEP..(j + 1) * RESTARTS_PER_SWEEP] {
            let again = check_stream(out, "warm", w, &expected);
            warm_cached += w
                .rows
                .iter()
                .filter(|r| r.get("cached").and_then(Json::as_bool) == Some(true))
                .count() as u64;
            out.check(again == records, || {
                format!("warm sweep {j} differs from cold")
            });
        }
        if j as u64 == WARMUP_SWEEPS {
            // The same sweep through a single-process server must stream
            // the same rows.
            let single = single_process_rows(&sweep_line(j as u64));
            let reference = check_stream(out, "single-process", &single, &expected);
            out.check(reference == records, || {
                format!("cluster sweep {j} differs from the single-process server")
            });
        }
        cold_records.extend(expected.into_iter().zip(records));
    }

    let served: HashMap<u64, &String> = cold_records.iter().map(|(s, r)| (*s, r)).collect();
    for (s, reference) in &references {
        out.check(
            matches!((reference, served.get(s)), (Ok(Some(r)), Some(x)) if r == *x),
            || format!("cluster row for seed {s} differs from the single-process record"),
        );
    }

    if crate::trace::enabled() {
        // The warm path's store reads, replayed from outside.
        let store = span("serve.store.open", 0, || {
            crn_serve::ResultStore::open(StoreConfig {
                dir: dir.join("coordinator"),
                max_bytes: 0,
            })
        });
        if let Ok(mut store) = store {
            for (s, _) in cold_records.iter().take(200) {
                let key = point_spec(*s).cache_key();
                span("serve.store.get", 0, || store.get(key));
            }
        }
    }

    // Rates are rows over the summed wall of the timed sweeps (or
    // restarts); latencies are quantiles of every timed row's arrival,
    // from the start of its sweep.
    let timed = &cold[WARMUP_SWEEPS as usize..];
    let cold_rates: Vec<f64> = timed.iter().map(|c| c.rows.len() as f64 / c.wall).collect();
    let warm_rates: Vec<f64> = warm
        .iter()
        .map(|(w, wall)| w.rows.len() as f64 / wall)
        .collect();
    let rate = |rows: usize, wall: f64| rows as f64 / wall.max(1e-9);
    let arrivals_ms: Vec<f64> = timed
        .iter()
        .flat_map(|c| c.arrivals_ms.iter().copied())
        .collect();
    let rows_per_s = rate(
        timed.iter().map(|c| c.rows.len()).sum(),
        timed.iter().map(|c| c.wall).sum(),
    );
    out.e2e.insert("setup_s", median(&setup));
    out.e2e.insert("peak_rss_mb", rss);
    out.e2e
        .insert("sim_events_per_s", events as f64 / engine_s.max(1e-9));
    out.e2e.insert("sweep_points_per_s", rows_per_s);
    out.e2e.insert(
        "resweep_points_per_s",
        rate(
            warm.iter().map(|(w, _)| w.rows.len()).sum(),
            warm.iter().map(|(_, wall)| wall).sum(),
        ),
    );
    out.e2e.insert("serve_p50_ms", median(&arrivals_ms));
    out.e2e.insert("serve_p99_ms", tail(&arrivals_ms));
    out.e2e.insert("serve_max_rps", rows_per_s);

    // Counters summed over every fleet of the run; `store_bytes` is a
    // level, so it comes from the last fleet.
    let block = |s: &Json, block: &str, name: &str| {
        s.get(block)
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    let total = |b: &str, name: &str| stats.iter().map(|s| block(s, b, name)).sum::<f64>();
    out.layer(
        "cluster.coordinator.dispatched",
        total("cluster", "dispatched"),
    );
    out.layer(
        "cluster.coordinator.redispatched",
        total("cluster", "redispatches"),
    );
    out.layer(
        "cluster.coordinator.late_duplicates",
        total("cluster", "late_duplicates"),
    );
    out.layer(
        "cluster.coordinator.inline_fallbacks",
        total("cluster", "local_fallbacks"),
    );
    let mut per_worker = vec![0.0; workers];
    for s in &stats {
        let ws = s
            .get("cluster")
            .and_then(|c| c.get("workers"))
            .and_then(Json::as_arr);
        for (i, w) in ws.into_iter().flatten().enumerate().take(workers) {
            per_worker[i] += w.get("dispatched").and_then(Json::as_u64).unwrap_or(0) as f64;
        }
    }
    let mean = per_worker.iter().sum::<f64>() / workers as f64;
    out.layer(
        "cluster.ring.imbalance",
        per_worker.iter().copied().fold(0.0, f64::max) / mean.max(1e-9),
    );
    out.layer("serve.store.hits", total("store", "store_hits"));
    out.layer(
        "serve.store.bytes",
        stats
            .last()
            .map_or(0.0, |s| block(s, "store", "store_bytes")),
    );
    out.layer("serve.store.evictions", total("store", "store_evictions"));

    let mut x = Json::obj();
    x.set("points_per_sweep", Json::UInt(p.points))
        .set("sweeps", Json::UInt(cold.len() as u64))
        .set("workers", Json::UInt(workers as u64))
        .set(
            "cold_rows_per_s",
            Json::Arr(cold_rates.iter().map(|&r| Json::float(r)).collect()),
        )
        .set(
            "warm_rows_per_s",
            Json::Arr(warm_rates.iter().map(|&r| Json::float(r)).collect()),
        )
        .set(
            "digest",
            Json::Str(format!(
                "{:016x}",
                cold_records
                    .iter()
                    .fold(FNV_OFFSET, |h, (_, r)| fnv(h, r.as_bytes()))
            )),
        )
        .set(
            "warm_cached_share",
            Json::float(
                warm_cached as f64
                    / warm.iter().map(|(w, _)| w.rows.len()).sum::<usize>().max(1) as f64,
            ),
        )
        .set("latency_samples", Json::UInt(arrivals_ms.len() as u64))
        .set("tail_quantile", Json::float(tail_q(arrivals_ms.len())))
        .set(
            "setup_samples_s",
            Json::Arr(setup.iter().map(|&s| Json::float(s)).collect()),
        );
    out.extra("cluster_stream", x);
}
