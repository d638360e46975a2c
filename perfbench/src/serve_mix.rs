//! `serve_mix`: an in-process `crn_serve::Server` (one worker per core,
//! a persistent store, a memory cache smaller than the key working set)
//! under an open-loop, seeded arrival schedule.
//!
//! The protocol carries one request per connection at a time, so the due
//! queue lives client-side (as in wrk2): `nproc` connections take
//! requests in due order, each waits until its request is due, and every
//! latency is timed from the **due** time, so a stall also charges the
//! requests queued behind it. How late the generator sent is reported
//! separately.
//!
//! Requests are small scenarios in a fixed mix of three classes:
//! - fresh keys: compute, memory-cache insert and store put;
//! - exact repeats of any earlier key: memory hits, or store gets once
//!   the key has left the memory cache;
//! - radio-only variants (another p_t over an earlier deployment): a
//!   topology-tier hit that re-customizes a cached scenario.
//!
//! Phases: set-up starts the server several times over a pre-populated
//! store (the store scan counts); a nominal-rate phase gives the latency
//! figures; a ladder of rising rates gives the highest rate whose p99
//! stays under the limit; buffered `sweep` requests over every key seen
//! so far give the warm re-sweep rate.

use crate::trace::span;
use crate::util::{
    fnv, median, nproc, quantile, secs, tail, tail_q, vm_hwm_mb, Outcome, Rng, FNV_OFFSET,
};
use crate::Size;
use crn_core::Scenario;
use crn_serve::client::Client;
use crn_serve::exec::Executor;
use crn_serve::protocol::report_json;
use crn_serve::server::{ServeConfig, Server, LATENCY_BUCKETS_MS};
use crn_serve::store::{ResultStore, StoreConfig};
use crn_workloads::json::Json;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SUS: usize = 80;
const PUS: usize = 8;
const SIDE: f64 = 52.0;
/// p_t values requests draw from (the Fig. 6c axis).
const PTS: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];
/// Shares of fresh keys and exact repeats; the rest are radio variants.
/// One request in twenty computes, so the median is a cache hit and the
/// 99th percentile falls inside the bulk of the compute path's latencies
/// rather than at their far tail; a share near 50% would put the median
/// on the edge between the two and make it jump from run to run.
const FRESH_SHARE: f64 = 0.03;
const REPEAT_SHARE: f64 = 0.95;
/// Radio variants re-customize one of this many most recent requests,
/// whose deployments the topology tier still holds.
const VARIANT_WINDOW: usize = 32;
/// p99 latency limit, from the due time, for a ladder step to pass.
/// Above the stalls a shared disk's fsync adds now and then (tens of ms),
/// below what a quarter of overload piles up within one ladder step.
pub const P99_LIMIT_MS: f64 = 250.0;
/// The nominal phase is judged in this many equal windows; its latency
/// figures are medians over them, so one stalled window does not decide
/// the run.
const NOMINAL_WINDOWS: usize = 4;
/// Oracle reruns of sampled keys in the verify pass.
const ORACLE_SAMPLES: usize = 4;

struct Params {
    prepopulate: usize,
    nominal_rps: f64,
    ladder_rps: &'static [f64],
    cache_cap: usize,
    setup_reps: usize,
    reference_samples: usize,
    replay_cap: usize,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            prepopulate: 300,
            nominal_rps: 200.0,
            ladder_rps: &[
                800.0, 1000.0, 1250.0, 1600.0, 2000.0, 2500.0, 3200.0, 4000.0, 5000.0, 6400.0,
                8000.0, 10000.0, 12800.0,
            ],
            cache_cap: 256,
            setup_reps: 3,
            reference_samples: 1000,
            replay_cap: 1500,
        },
        Size::Smoke => Params {
            prepopulate: 20,
            nominal_rps: 100.0,
            ladder_rps: &[200.0],
            cache_cap: 16,
            setup_reps: 2,
            reference_samples: 10,
            replay_cap: 100,
        },
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Class {
    Fresh,
    Repeat,
    Variant,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Fresh => "fresh",
            Class::Repeat => "repeat",
            Class::Variant => "variant",
        }
    }
}

/// A request key: deployment seed and p_t.
type Key = (u64, u64);

fn key(seed: u64, pt: f64) -> Key {
    (seed, pt.to_bits())
}

fn request_line(seed: u64, pt: f64) -> String {
    format!(
        r#"{{"v":1,"cmd":"run","params":{{"sus":{SUS},"pus":{PUS},"side":{SIDE},"seed":{seed},"pt":{pt}}}}}"#
    )
}

#[derive(Clone)]
struct Req {
    due_s: f64,
    class: Class,
    seed: u64,
    pt: f64,
    id: u64,
}

struct Generator {
    rng: Rng,
    history: Vec<(u64, f64)>,
    next_fresh: u64,
    next_id: u64,
}

impl Generator {
    fn new(seed: u64) -> Self {
        Generator {
            rng: Rng::new(seed, 3),
            history: Vec::new(),
            // Fresh deployment seeds live in a range of their own per
            // workload seed, so no two seeds share keys.
            next_fresh: seed.wrapping_mul(1 << 32),
            next_id: 1,
        }
    }

    fn fresh(&mut self) -> (u64, f64) {
        let s = self.next_fresh;
        self.next_fresh += 1;
        (s, PTS[self.rng.below(PTS.len())])
    }

    fn draw(&mut self) -> (Class, u64, f64) {
        let u = self.rng.unit();
        let (class, seed, pt) = if self.history.is_empty() || u < FRESH_SHARE {
            let (s, pt) = self.fresh();
            (Class::Fresh, s, pt)
        } else if u < FRESH_SHARE + REPEAT_SHARE {
            let (s, pt) = self.history[self.rng.below(self.history.len())];
            (Class::Repeat, s, pt)
        } else {
            let window = self.history.len().min(VARIANT_WINDOW);
            let (s, pt) = self.history[self.history.len() - 1 - self.rng.below(window)];
            let mut other = PTS[self.rng.below(PTS.len())];
            if other.to_bits() == pt.to_bits() {
                other = PTS[(PTS.iter().position(|&p| p == pt).unwrap_or(0) + 1) % PTS.len()];
            }
            (Class::Variant, s, other)
        };
        self.history.push((seed, pt));
        (class, seed, pt)
    }

    /// Poisson arrivals at `rate` per second for `duration` seconds.
    fn schedule(&mut self, rate: f64, duration: f64) -> Vec<Req> {
        let mut out = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - self.rng.unit()).ln() / rate;
            if t >= duration {
                return out;
            }
            let (class, seed, pt) = self.draw();
            out.push(Req {
                due_s: t,
                class,
                seed,
                pt,
                id: self.next_id,
            });
            self.next_id += 1;
        }
    }
}

struct Done {
    class: Class,
    seed: u64,
    pt: f64,
    latency_ms: f64,
    /// Send to response, without the wait for the due time.
    service_ms: f64,
    lateness_ms: f64,
    /// Digest of the response's report, or the error kind.
    report: Result<u64, String>,
}

/// Sleeps until shortly before `due`, then spins the rest of the way, so
/// the generator's own wake-up delay stays out of the latencies.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Sends `reqs` over the `clients`' connections, each request at its due
/// time (or as soon as a connection frees up after it); returns the
/// results in schedule order and the phase's wall time.
fn drive(clients: &mut [Client], reqs: &[Req]) -> (Vec<Done>, f64) {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Done>>> = Mutex::new((0..reqs.len()).map(|_| None).collect());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            let (next, results) = (&next, &results);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(r) = reqs.get(i) else { break };
                wait_until(t0 + Duration::from_secs_f64(r.due_s));
                let sent = t0.elapsed();
                let line = request_line(r.seed, r.pt);
                let resp = span("serve.client.request", r.id, || client.request_line(&line));
                let finished = t0.elapsed();
                let report = match resp {
                    Ok(j) if j.get("ok").and_then(Json::as_bool) == Some(true) => j
                        .get("report")
                        .map(|r| fnv(FNV_OFFSET, r.to_string().as_bytes()))
                        .ok_or_else(|| "ok response without a report".to_owned()),
                    Ok(j) => Err(j
                        .get("error")
                        .and_then(|e| e.get("kind"))
                        .and_then(Json::as_str)
                        .unwrap_or("unknown")
                        .to_owned()),
                    Err(e) => Err(e.to_string()),
                };
                let done = Done {
                    class: r.class,
                    seed: r.seed,
                    pt: r.pt,
                    latency_ms: (finished.as_secs_f64() - r.due_s) * 1e3,
                    service_ms: (finished - sent).as_secs_f64() * 1e3,
                    lateness_ms: (sent.as_secs_f64() - r.due_s).max(0.0) * 1e3,
                    report,
                };
                results.lock().expect("results poisoned")[i] = Some(done);
            });
        }
    });
    let wall = secs(t0);
    let done = results
        .into_inner()
        .expect("results poisoned")
        .into_iter()
        .map(|d| d.expect("every request ran"))
        .collect();
    (done, wall)
}

fn stats(addr: SocketAddr) -> Json {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .expect("stats from the bench server")
}

fn counter(stats: &Json, block: &str, name: &str) -> f64 {
    stats
        .get(block)
        .and_then(|b| b.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0) as f64
}

/// Quantile of the server's latency histogram between two snapshots,
/// read as the upper edge of the bucket holding it.
fn hist_quantile(before: &Json, after: &Json, q: f64) -> f64 {
    let counts = |s: &Json| -> Vec<u64> {
        s.get("latency_ms")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .map(|b| b.get("count").and_then(Json::as_u64).unwrap_or(0))
                    .collect()
            })
            .unwrap_or_default()
    };
    let (b, a) = (counts(before), counts(after));
    let delta: Vec<u64> = a
        .iter()
        .enumerate()
        .map(|(i, &c)| c - b.get(i).copied().unwrap_or(0))
        .collect();
    let total: u64 = delta.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (q * total as f64).ceil() as u64;
    let mut seen = 0;
    for (i, c) in delta.iter().enumerate() {
        seen += c;
        if seen >= target {
            return LATENCY_BUCKETS_MS
                .get(i)
                .copied()
                .unwrap_or(2.0 * LATENCY_BUCKETS_MS[LATENCY_BUCKETS_MS.len() - 1]);
        }
    }
    0.0
}

fn start_server(dir: &Path, p: &Params) -> Server {
    span("serve.server.start", 0, || {
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: nproc(),
            queue_cap: 64,
            cache_cap: p.cache_cap,
            topo_cache_cap: 64,
            store: Some(StoreConfig {
                dir: dir.to_path_buf(),
                max_bytes: 0,
            }),
        })
        .expect("start the bench server")
    })
}

/// The rate at which the tail latency crosses [`P99_LIMIT_MS`], from
/// ladder steps `(rate, tail_ms, passed)`: interpolated (log latency,
/// linear rate) between the last step that met the limit and the first
/// that missed it. With no miss it is the top step's rate; with no pass,
/// the first rate scaled down by how far it missed.
fn max_rate(steps: &[(f64, f64, bool)]) -> f64 {
    let Some(fail) = steps.iter().position(|s| !s.2) else {
        return steps.last().map_or(0.0, |s| s.0);
    };
    let (r1, l1, _) = steps[fail];
    if fail == 0 {
        return r1 * (P99_LIMIT_MS / l1).min(1.0);
    }
    let (r0, l0, _) = steps[fail - 1];
    if l1 <= P99_LIMIT_MS || l1 <= l0 {
        // Missed on errors, not latency: no crossing to interpolate.
        return r0;
    }
    r0 + (r1 - r0) * ((P99_LIMIT_MS / l0.max(1e-9)).ln() / (l1 / l0.max(1e-9)).ln()).clamp(0.0, 1.0)
}

/// Runs the workload.
#[allow(clippy::too_many_lines)]
pub fn run(seed: u64, seconds: f64, size: Size, out: &mut Outcome, dir: &Path) {
    let p = params(size);
    let conns = nproc();
    let store_dir = dir.join("store");
    let mut gen = Generator::new(seed);

    // Pre-populate the store the server will scan at start-up.
    let prepop: Vec<(u64, f64)> = (0..p.prepopulate).map(|_| gen.fresh()).collect();
    {
        let exec = Executor::new(0);
        let mut store = ResultStore::open(StoreConfig {
            dir: store_dir.clone(),
            max_bytes: 0,
        })
        .expect("open the store to pre-populate");
        for &(s, pt) in &prepop {
            let spec = crate::run_spec(&request_line(s, pt));
            let outcome = exec.execute(&spec).expect("pre-population run");
            store
                .put(spec.cache_key(), &outcome)
                .expect("pre-populate store");
        }
    }
    gen.history.extend(prepop.iter().copied());

    let mut setup = Vec::new();
    let mut server = None;
    span("phase.setup", 0, || {
        for i in 0..p.setup_reps {
            let t = Instant::now();
            let s = start_server(&store_dir, &p);
            setup.push(secs(t));
            if i + 1 < p.setup_reps {
                s.shutdown();
                s.wait();
            } else {
                server = Some(s);
            }
        }
    });
    let server = server.expect("server started");
    let addr = server.local_addr();
    // The same connections serve every phase.
    let mut clients: Vec<Client> = (0..conns)
        .map(|_| Client::connect(addr).expect("connect to the bench server"))
        .collect();

    // The nominal phase takes two fifths of the run, each ladder step and
    // the replay a twentieth.
    let share = seconds / 20.0;
    let s0 = stats(addr);
    let nominal_span = 8.0 * share;
    let nominal = gen.schedule(p.nominal_rps, nominal_span);
    let (nominal_done, nominal_wall) = span("phase.nominal", 0, || drive(&mut clients, &nominal));
    let s1 = stats(addr);

    // Ladder: rising rates until one misses the limit. Every step
    // (the nominal rate first) is judged on its tail latency from the due
    // time, which a growing backlog drives up.
    let latencies = |done: &[Done]| done.iter().map(|d| d.latency_ms).collect::<Vec<_>>();
    let judge = |rate: f64, done: &[Done]| {
        let p99 = tail(&latencies(done));
        (
            rate,
            p99,
            p99 <= P99_LIMIT_MS && done.iter().all(|d| d.report.is_ok()),
        )
    };
    let mut steps = vec![judge(p.nominal_rps, &nominal_done)];
    let mut all_done: Vec<Done> = Vec::new();
    if steps[0].2 {
        for &rate in p.ladder_rps {
            let reqs = gen.schedule(rate, share);
            let (done, _) = span("phase.ladder", 0, || drive(&mut clients, &reqs));
            steps.push(judge(rate, &done));
            all_done.extend(done);
            if !steps[steps.len() - 1].2 {
                break;
            }
        }
    }
    let max_rps = max_rate(&steps);
    let ladder: Vec<Json> = steps
        .iter()
        .map(|&(rate, p99, pass)| {
            let mut step = Json::obj();
            step.set("rps", Json::float(rate))
                .set("p99_ms", Json::float(p99))
                .set("pass", Json::Bool(pass));
            step
        })
        .collect();

    // Warm re-sweep: the distinct keys seen so far, as one buffered
    // `sweep` request per p_t value, repeated for a twentieth of the run.
    let mut seen_set = std::collections::HashSet::new();
    let mut by_pt: Vec<Vec<u64>> = vec![Vec::new(); PTS.len()];
    for &(s, pt) in &gen.history {
        if seen_set.insert(key(s, pt)) && seen_set.len() <= p.replay_cap {
            let i = PTS
                .iter()
                .position(|&x| x == pt)
                .expect("p_t from the axis");
            by_pt[i].push(s);
        }
    }
    let mut resweep_rates = Vec::new();
    let mut resweep_points = 0u64;
    let mut resweep_failed = 0u64;
    let t = Instant::now();
    span("phase.replay", 0, || {
        while resweep_rates.is_empty() || secs(t) < share {
            for (pt, seeds) in PTS.iter().zip(&by_pt).filter(|(_, s)| !s.is_empty()) {
                let list: Vec<String> = seeds.iter().map(u64::to_string).collect();
                let line = format!(
                    r#"{{"v":1,"cmd":"sweep","params":{{"sus":{SUS},"pus":{PUS},"side":{SIDE},"pt":{pt}}},"seeds":[{}]}}"#,
                    list.join(",")
                );
                let sent = Instant::now();
                let resp = span("serve.client.request", 0, || clients[0].request_line(&line));
                let wall = secs(sent);
                let ok = resp
                    .ok()
                    .and_then(|r| {
                        r.get("results")
                            .and_then(Json::as_arr)
                            .map(|a| a.iter().filter(|e| e.get("record").is_some()).count())
                    })
                    .unwrap_or(0);
                resweep_points += seeds.len() as u64;
                resweep_failed += (seeds.len() - ok.min(seeds.len())) as u64;
                resweep_rates.push(ok as f64 / wall);
            }
        }
    });
    let s2 = stats(addr);
    drop(clients);
    server.shutdown();
    server.wait();

    // Output checks: every ok record for a key is byte-identical however
    // it was served, and failures count.
    let mut by_key: HashMap<Key, u64> = HashMap::new();
    let mut mismatched = 0u64;
    let mut failures: HashMap<String, u64> = HashMap::new();
    out.attempted += resweep_points;
    out.failed += resweep_failed;
    if resweep_failed > 0 {
        out.errors
            .push(format!("{resweep_failed} warm re-sweep points failed"));
    }
    for d in nominal_done.iter().chain(&all_done) {
        out.attempted += 1;
        match &d.report {
            Ok(r) => {
                let first = by_key.entry(key(d.seed, d.pt)).or_insert(*r);
                if first != r {
                    mismatched += 1;
                }
            }
            Err(kind) => *failures.entry(kind.clone()).or_default() += 1,
        }
    }
    let failed_requests: u64 = failures.values().sum();
    out.failed += failed_requests + mismatched;
    if failed_requests > 0 {
        out.errors.push(format!("non-ok responses: {failures:?}"));
    }
    if mismatched > 0 {
        out.errors.push(format!(
            "{mismatched} responses differ from the first record for their key"
        ));
    }

    // A sampled subset against in-process `Scenario::run`; the first few
    // also under the oracle.
    let mut keys: Vec<(&Key, &u64)> = by_key.iter().collect();
    keys.sort_by_key(|(k, _)| **k);
    let mut pick = Rng::new(seed, 5);
    for i in (1..keys.len()).rev() {
        keys.swap(i, pick.below(i + 1));
    }
    let mut rates = Vec::new();
    for (n, (&(s, ptb), &served)) in keys.iter().take(p.reference_samples).enumerate() {
        let spec = crate::run_spec(&request_line(s, f64::from_bits(ptb)));
        let reference = span("core.scenario.generate", 0, || {
            Scenario::generate(&spec.params)
        })
        .and_then(|sc| {
            span("core.scenario.world", 0, || sc.world(spec.algorithm))?;
            let t = Instant::now();
            let o = span("sim.engine.run", 0, || sc.run(spec.algorithm))?;
            rates.push(o.report.events_processed as f64 / secs(t));
            if n < ORACLE_SAMPLES {
                let (checked, _) = sc.run_checked(spec.algorithm)?;
                if checked.report != o.report {
                    return Ok(None);
                }
            }
            Ok(Some(fnv(
                FNV_OFFSET,
                report_json(&o).to_string().as_bytes(),
            )))
        });
        out.check(matches!(reference, Ok(Some(d)) if d == served), || {
            format!("served record for seed {s} differs from Scenario::run")
        });
    }

    // Per-layer replays of the served work, from outside the server.
    if crate::trace::enabled() {
        let store = span("serve.store.open", 0, || {
            ResultStore::open(StoreConfig {
                dir: store_dir.clone(),
                max_bytes: 0,
            })
        });
        if let Ok(mut store) = store {
            for d in nominal_done
                .iter()
                .filter(|d| d.class == Class::Repeat)
                .take(200)
            {
                let k = crate::run_spec(&request_line(d.seed, d.pt)).cache_key();
                span("serve.store.get", 0, || store.get(k));
            }
        }
        let exec = Executor::new(64);
        let mut replay_store = ResultStore::open(StoreConfig {
            dir: dir.join("replay-store"),
            max_bytes: 0,
        })
        .expect("open the replay store");
        for d in nominal_done
            .iter()
            .filter(|d| d.class != Class::Repeat)
            .take(200)
        {
            let spec = crate::run_spec(&request_line(d.seed, d.pt));
            if let Ok(o) = span("serve.exec.execute", 0, || exec.execute(&spec)) {
                let _ = span("serve.store.put", 0, || {
                    replay_store.put(spec.cache_key(), &o)
                });
            }
        }
    }

    let lat = |class: Option<Class>| -> Vec<f64> {
        nominal_done
            .iter()
            .filter(|d| class.is_none_or(|c| d.class == c))
            .map(|d| d.latency_ms)
            .collect()
    };
    let nominal_lat = lat(None);
    let service: Vec<f64> = nominal_done.iter().map(|d| d.service_ms).collect();
    let lateness: Vec<f64> = nominal_done.iter().map(|d| d.lateness_ms).collect();
    let ok_nominal = nominal_done.iter().filter(|d| d.report.is_ok()).count();
    out.e2e.insert("setup_s", median(&setup));
    out.e2e
        .insert("peak_rss_mb", vm_hwm_mb(None).unwrap_or(0.0));
    out.e2e.insert("sim_events_per_s", median(&rates));
    out.e2e
        .insert("sweep_points_per_s", ok_nominal as f64 / nominal_wall);
    out.e2e
        .insert("resweep_points_per_s", median(&resweep_rates));
    let window_s = nominal_span / NOMINAL_WINDOWS as f64;
    let windowed = |q: fn(&[f64]) -> f64| {
        let per_window: Vec<f64> = (0..NOMINAL_WINDOWS)
            .map(|w| {
                let lat: Vec<f64> = nominal
                    .iter()
                    .zip(&nominal_done)
                    .filter(|(r, _)| (r.due_s / window_s) as usize == w)
                    .map(|(_, d)| d.latency_ms)
                    .collect();
                q(&lat)
            })
            .collect();
        median(&per_window)
    };
    out.e2e.insert("serve_p50_ms", windowed(median));
    out.e2e.insert("serve_p99_ms", windowed(tail));
    out.e2e.insert("serve_max_rps", max_rps);

    let c = |s: &Json, name: &str| counter(s, "counters", name);
    let received = c(&s2, "received") - c(&s0, "received");
    let computed = c(&s2, "computed") - c(&s0, "computed");
    out.layer(
        "serve.cache.hit_ratio",
        (c(&s2, "cache_hits") - c(&s0, "cache_hits")) / received.max(1.0),
    );
    out.layer(
        "serve.exec.topology_hit_ratio",
        (c(&s2, "topology_hits") - c(&s0, "topology_hits")) / computed.max(1.0),
    );
    for class in [Class::Fresh, Class::Repeat, Class::Variant] {
        out.layer(
            &format!("serve.latency_ms.{}", class.name()),
            quantile(&lat(Some(class)), 0.5).unwrap_or(0.0),
        );
    }
    out.layer("serve.store.hits", counter(&s2, "store", "store_hits"));
    out.layer("serve.store.bytes", counter(&s2, "store", "store_bytes"));
    out.layer(
        "serve.store.evictions",
        counter(&s2, "store", "store_evictions"),
    );
    out.layer("serve.server.rejected", c(&s2, "rejected"));
    out.layer("serve.server.timed_out", c(&s2, "timed_out"));
    out.layer("serve.server.coalesced", c(&s2, "coalesced"));
    out.layer("serve.server.p50_ms", hist_quantile(&s0, &s1, 0.5));
    out.layer("serve.server.p99_ms", hist_quantile(&s0, &s1, 0.99));
    out.layer(
        "loadgen.lateness_ms",
        quantile(&lateness, 0.99).unwrap_or(0.0),
    );

    // Every served record, in key order.
    let mut served: Vec<(&Key, &u64)> = by_key.iter().collect();
    served.sort();
    let digest = served.iter().fold(FNV_OFFSET, |h, ((s, pt), d)| {
        [*s, *pt, **d]
            .iter()
            .fold(h, |h, v| fnv(h, &v.to_le_bytes()))
    });

    // Measured traffic-class shares at the nominal rate: as issued, and
    // as the server resolved them.
    let n_nom = nominal_done.len().max(1) as f64;
    let mut issued = Json::obj();
    for class in [Class::Fresh, Class::Repeat, Class::Variant] {
        let k = nominal_done.iter().filter(|d| d.class == class).count();
        issued.set(class.name(), Json::float(k as f64 / n_nom));
    }
    let nom_received = (c(&s1, "received") - c(&s0, "received")).max(1.0);
    let mut resolved = Json::obj();
    for name in [
        "computed",
        "cache_hits",
        "store_hits",
        "coalesced",
        "topology_hits",
    ] {
        resolved.set(
            name,
            Json::float((c(&s1, name) - c(&s0, name)) / nom_received),
        );
    }
    let mut x = Json::obj();
    x.set("nominal_rps", Json::float(p.nominal_rps))
        .set("nominal_requests", Json::UInt(nominal_done.len() as u64))
        .set(
            "nominal_service_ms_p50_p99",
            Json::Arr(
                [0.5, 0.99]
                    .iter()
                    .map(|&q| Json::float(quantile(&service, q).unwrap_or(0.0)))
                    .collect(),
            ),
        )
        .set(
            "nominal_lateness_ms_p50_p99",
            Json::Arr(
                [0.5, 0.99]
                    .iter()
                    .map(|&q| Json::float(quantile(&lateness, q).unwrap_or(0.0)))
                    .collect(),
            ),
        )
        .set(
            "tail_quantile",
            Json::float(tail_q(nominal_done.len() / NOMINAL_WINDOWS)),
        )
        .set(
            "nominal_p99_ms_whole_phase",
            Json::float(tail(&nominal_lat)),
        )
        .set("connections", Json::UInt(conns as u64))
        .set("p99_limit_ms", Json::float(P99_LIMIT_MS))
        .set("class_shares_issued", issued)
        .set("class_shares_resolved", resolved)
        .set("ladder", Json::Arr(ladder))
        .set("resweep_points", Json::UInt(resweep_points))
        .set("distinct_keys", Json::UInt(by_key.len() as u64))
        .set("digest", Json::Str(format!("{digest:016x}")))
        .set("prepopulated", Json::UInt(p.prepopulate as u64))
        .set(
            "setup_samples_s",
            Json::Arr(setup.iter().map(|&s| Json::float(s)).collect()),
        );
    out.extra("serve_mix", x);
}
