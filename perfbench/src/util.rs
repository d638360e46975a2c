//! Small measurement helpers shared by the workloads: quantiles, peak
//! memory, output digests, a seeded RNG, and the run's metadata.

use crn_workloads::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Quantile `q` in `[0, 1]` of `values` by linear interpolation between
/// order statistics (the "R-7" rule); `None` for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The tail percentile a run reports as its "p99": 0.99 when the run has
/// at least 1000 samples, otherwise the highest quantile that still has
/// ten samples beyond it (never below the median).
#[must_use]
pub fn tail_q(samples: usize) -> f64 {
    (1.0 - 10.0 / samples.max(1) as f64).clamp(0.5, 0.99)
}

/// `values` at [`tail_q`] (0 when empty).
#[must_use]
pub fn tail(values: &[f64]) -> f64 {
    quantile(values, tail_q(values.len())).unwrap_or(0.0)
}

/// Median of `values` (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Seconds since `t`.
#[must_use]
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `VmHWM` (peak resident set) of a process in MB: `None` for this
/// process, `Some(pid)` for a child. `None` when `/proc` has no entry.
#[must_use]
pub fn vm_hwm_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        None => "/proc/self/status".to_owned(),
        Some(pid) => format!("/proc/{pid}/status"),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds (user + system) this process has used so far, from
/// `/proc/self/stat`; 0 when unavailable.
#[must_use]
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 Hz on Linux).
    let Some(rest) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// FNV-1a 64-bit digest, chained from `h` (start with [`FNV_OFFSET`]).
#[must_use]
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64: the benchmark's own input generator, so generated inputs
/// depend only on `--seed` and never on the program under test.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Worker threads the host offers.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Digest of the program's sources (every file under `crates/`, plus the
/// lock file), so a result names the code it measured even in a checkout
/// that is not a git repository.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h = FNV_OFFSET;
    for f in &files {
        h = fnv(h, f.to_string_lossy().as_bytes());
        h = fnv(h, &std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

/// Metadata recorded with every result.
#[must_use]
pub fn run_metadata(workload: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Json {
    let mut m = Json::obj();
    m.set("workload", Json::Str(workload.into()))
        .set("seed", Json::UInt(seed))
        .set("seconds", Json::float(seconds))
        .set("trace", Json::Bool(trace))
        .set("smoke", Json::Bool(smoke))
        .set("nproc", Json::UInt(nproc() as u64))
        .set(
            "git_rev",
            command_line("git", &["rev-parse", "HEAD"]).map_or(Json::Null, Json::Str),
        )
        .set("source_digest", Json::Str(source_digest(Path::new("."))))
        .set(
            "rustc",
            command_line("rustc", &["--version"]).map_or(Json::Null, Json::Str),
        );
    m
}

/// What one workload run produced: operation counts, check failures and
/// the metrics of both kinds.
pub struct Outcome {
    /// Operations attempted (runs, requests, rows, checks).
    pub attempted: u64,
    /// Operations that errored or whose output failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs).
    pub layer: BTreeMap<String, f64>,
    /// Workload-specific details recorded with the result.
    pub extra: Json,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            extra: Json::obj(),
        }
    }
}

impl Outcome {
    /// Records one checked operation; `ok == false` counts it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_owned(), value);
    }

    /// Adds a workload-specific detail.
    pub fn extra(&mut self, key: &str, value: Json) {
        self.extra.set(key, value);
    }
}

/// Directory for this run's stores, inside the
/// current directory so the benchmark never writes outside its checkout.
#[must_use]
pub fn run_dir(workload: &str, seed: u64) -> std::path::PathBuf {
    Path::new(".bench_out").join(format!("{workload}-{seed}-{}", std::process::id()))
}
