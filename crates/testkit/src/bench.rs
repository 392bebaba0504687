//! A criterion-compatible micro-bench harness: warmup, calibrated
//! iteration counts, mean/p50/p99 statistics, and machine-readable JSON
//! output for `BENCH_*.json` trajectory tracking.
//!
//! Surface kept source-compatible with the criterion subset the bench
//! files use: [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`Throughput`], `criterion_group!`, `criterion_main!`, [`black_box`].
//!
//! A bench declares each bound on a headline number exactly once, where
//! the number is computed: [`Criterion::floor`] and
//! [`Criterion::ceiling`]. [`Criterion::final_summary`] checks every
//! declared bound against the value the document prints; a broken bound
//! is named on stderr, the document is not persisted, and the process
//! exits non-zero.
//!
//! Environment knobs:
//! - `EREBOR_BENCH_SMOKE=1` — smoke mode: minimal warmup/samples, for CI.
//! - `EREBOR_BENCH_JSON=<path>` — also write the JSON document to a file
//!   (only when every declared bound holds; a failed write exits non-zero).
//! - `EREBOR_BENCH_SAMPLES=<n>` — override the per-benchmark sample count.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Per-benchmark throughput annotation.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Whether smoke mode (tiny iteration budgets) is active.
#[must_use]
pub fn smoke() -> bool {
    std::env::var("EREBOR_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Summary statistics over per-iteration sample means, in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct Stats {
    /// Mean of sample means.
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: f64,
    /// 99th percentile.
    pub p99_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
}

/// Compute [`Stats`] from raw per-iteration sample means.
///
/// Percentiles use the nearest-rank method on the sorted samples:
/// `p50` is the element at ceil(0.50·n)−1, `p99` at ceil(0.99·n)−1.
///
/// # Panics
/// Panics if `samples` is empty.
#[must_use]
pub fn stats_of(samples: &[f64]) -> Stats {
    assert!(!samples.is_empty(), "stats of empty sample set");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
    let rank = |p: f64| -> f64 {
        let n = sorted.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        sorted[idx]
    };
    Stats {
        mean_ns: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p50_ns: rank(0.50),
        p99_ns: rank(0.99),
        min_ns: sorted[0],
        max_ns: sorted[sorted.len() - 1],
    }
}

/// One finished benchmark.
#[derive(Clone, Debug)]
struct Record {
    group: Option<String>,
    name: String,
    iters_per_sample: u64,
    samples: usize,
    stats: Stats,
    throughput: Option<Throughput>,
}

impl Record {
    fn full_name(&self) -> String {
        match &self.group {
            Some(g) => format!("{g}/{}", self.name),
            None => self.name.clone(),
        }
    }

    fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .field("name", self.full_name())
            .field("iters_per_sample", self.iters_per_sample)
            .field("samples", self.samples)
            .field("mean_ns", self.stats.mean_ns)
            .field("p50_ns", self.stats.p50_ns)
            .field("p99_ns", self.stats.p99_ns)
            .field("min_ns", self.stats.min_ns)
            .field("max_ns", self.stats.max_ns);
        match self.throughput {
            Some(Throughput::Bytes(b)) => {
                j = j.field("throughput_bytes", b).field(
                    "mib_per_s",
                    b as f64 / (1 << 20) as f64 / (self.stats.mean_ns * 1e-9),
                );
            }
            Some(Throughput::Elements(e)) => {
                j = j
                    .field("throughput_elements", e)
                    .field("elements_per_s", e as f64 / (self.stats.mean_ns * 1e-9));
            }
            None => {}
        }
        j
    }
}

/// The timing loop handle passed to benchmark closures.
pub struct Bencher {
    warmup: Duration,
    sample_target: Duration,
    samples: usize,
    result: Option<(u64, Vec<f64>)>,
}

impl core::fmt::Debug for Bencher {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Bencher")
            .field("samples", &self.samples)
            .finish_non_exhaustive()
    }
}

impl Bencher {
    /// Run `f` under warmup + calibrated sampling; records the result.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Warmup: run until the warmup budget is spent, counting runs to
        // seed the calibration.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        loop {
            black_box(f());
            warm_iters += 1;
            if warm_start.elapsed() >= self.warmup {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        // Calibrate iterations per sample to hit the sample target.
        let iters = ((self.sample_target.as_secs_f64() / per_iter.max(1e-9)) as u64).max(1);
        let mut sample_means = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed().as_nanos() as f64;
            sample_means.push(elapsed / iters as f64);
        }
        self.result = Some((iters, sample_means));
    }
}

/// Which side of its limit a bounded meta value must stay on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    Floor,
    Ceiling,
}

impl Side {
    fn name(self) -> &'static str {
        match self {
            Side::Floor => "floor",
            Side::Ceiling => "ceiling",
        }
    }
}

/// A declared bound on the meta value recorded under `key`.
#[derive(Clone, Debug)]
struct Bound {
    key: String,
    side: Side,
    limit: f64,
}

impl Bound {
    /// Edges are inclusive; a NaN or infinite value never holds.
    fn holds(&self, value: f64) -> bool {
        value.is_finite()
            && match self.side {
                Side::Floor => value >= self.limit,
                Side::Ceiling => value <= self.limit,
            }
    }
}

/// Why a finished run fails.
#[derive(Debug)]
enum SummaryError {
    /// Declared bounds the recorded values break, one description each
    /// (`key = value (floor limit)`). Nothing was persisted.
    Violated(Vec<String>),
    /// The document could not be written to the requested path.
    Write(PathBuf, std::io::Error),
}

impl core::fmt::Display for SummaryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SummaryError::Violated(lines) => {
                write!(f, "{} bound(s) violated, nothing persisted:", lines.len())?;
                for line in lines {
                    write!(f, "\n  {line}")?;
                }
                Ok(())
            }
            SummaryError::Write(path, e) => write!(f, "could not write {}: {e}", path.display()),
        }
    }
}

/// Global benchmark driver (criterion-compatible subset).
pub struct Criterion {
    records: Vec<Record>,
    meta: Vec<(String, Json)>,
    bounds: Vec<Bound>,
    warmup: Duration,
    sample_target: Duration,
    samples: usize,
}

impl core::fmt::Debug for Criterion {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Criterion")
            .field("records", &self.records.len())
            .finish_non_exhaustive()
    }
}

impl Default for Criterion {
    fn default() -> Criterion {
        let smoke = smoke();
        let samples = std::env::var("EREBOR_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if smoke { 5 } else { 30 });
        Criterion {
            records: Vec::new(),
            meta: Vec::new(),
            bounds: Vec::new(),
            warmup: Duration::from_millis(if smoke { 2 } else { 150 }),
            sample_target: Duration::from_millis(if smoke { 1 } else { 10 }),
            samples,
        }
    }
}

impl Criterion {
    /// Run one named benchmark.
    pub fn bench_function(&mut self, name: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        self.run_one(None, name.into(), None, None, f);
    }

    /// Attach an extra top-level JSON field to the final summary (emitted
    /// under `"meta"`). Benchmarks use this for simulator-side counters —
    /// deterministic cycle costs, TLB hit rates — that wall-clock stats
    /// can't carry. Re-using a key overwrites the earlier value.
    pub fn meta(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        let key = key.into();
        self.meta.retain(|(k, _)| *k != key);
        self.meta.push((key, value.into()));
    }

    /// Record `key = value` in `meta` together with `{key}_floor`; the
    /// run fails unless `value >= floor` (see [`Criterion::final_summary`]).
    /// Re-declaring a key's floor replaces the earlier one.
    pub fn floor(&mut self, key: impl Into<String>, value: f64, floor: f64) {
        self.bound(key.into(), value, Side::Floor, floor);
    }

    /// Record `key = value` in `meta` together with `{key}_ceiling`; the
    /// run fails unless `value <= ceiling`. Re-declaring a key's ceiling
    /// replaces the earlier one.
    pub fn ceiling(&mut self, key: impl Into<String>, value: f64, ceiling: f64) {
        self.bound(key.into(), value, Side::Ceiling, ceiling);
    }

    fn bound(&mut self, key: String, value: f64, side: Side, limit: f64) {
        self.meta(format!("{key}_{}", side.name()), limit);
        self.meta(key.clone(), value);
        self.bounds.retain(|b| b.key != key || b.side != side);
        self.bounds.push(Bound { key, side, limit });
    }

    /// Each declared bound checked against the value the document
    /// prints for its key (a non-numeric value reads as NaN), with a
    /// one-line description.
    fn checked_bounds(&self) -> Vec<(bool, String)> {
        self.bounds
            .iter()
            .map(|b| {
                let value = match self.meta.iter().find(|(k, _)| *k == b.key) {
                    Some((_, Json::Num(v))) => *v,
                    _ => f64::NAN,
                };
                let line = format!("{} = {value} ({} {})", b.key, b.side.name(), b.limit);
                (b.holds(value), line)
            })
            .collect()
    }

    /// Open a named group (for throughput / sample-size annotations).
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
            throughput: None,
            sample_size: None,
        }
    }

    fn run_one(
        &mut self,
        group: Option<String>,
        name: String,
        throughput: Option<Throughput>,
        sample_size: Option<usize>,
        mut f: impl FnMut(&mut Bencher),
    ) {
        let mut b = Bencher {
            warmup: self.warmup,
            sample_target: self.sample_target,
            samples: sample_size.unwrap_or(self.samples),
            result: None,
        };
        f(&mut b);
        let Some((iters, sample_means)) = b.result else {
            // Closure never called iter(); record nothing.
            return;
        };
        let stats = stats_of(&sample_means);
        let rec = Record {
            group,
            name,
            iters_per_sample: iters,
            samples: sample_means.len(),
            stats,
            throughput,
        };
        eprintln!(
            "bench {:<40} mean {:>12.1} ns  p50 {:>12.1} ns  p99 {:>12.1} ns  ({} iters/sample)",
            rec.full_name(),
            stats.mean_ns,
            stats.p50_ns,
            stats.p99_ns,
            iters
        );
        self.records.push(rec);
    }

    /// Print the JSON document on stdout, then check every declared
    /// bound: each one is reported on stderr, and a broken bound or a
    /// failed `EREBOR_BENCH_JSON` write exits the process non-zero
    /// (nothing is persisted when a bound is broken). Called by
    /// `criterion_main!` after all groups run.
    pub fn final_summary(&self) {
        // The `EREBOR_JSON:` marker lets CI extract the document with a
        // grep instead of assuming it is the last stdout line (which
        // breaks silently the moment anything prints after it).
        println!("EREBOR_JSON:{}", self.document());
        for (_, line) in self.checked_bounds().iter().filter(|(held, _)| *held) {
            eprintln!("bench: bound held: {line}");
        }
        let path = std::env::var_os("EREBOR_BENCH_JSON")
            .filter(|p| !p.is_empty())
            .map(PathBuf::from);
        if let Err(e) = self.conclude(path.as_deref()) {
            eprintln!("bench: {e}");
            std::process::exit(1);
        }
    }

    /// Check every declared bound; when all hold, write the document to
    /// `path` (if given). A broken bound writes nothing.
    fn conclude(&self, path: Option<&Path>) -> Result<(), SummaryError> {
        let violated: Vec<String> = self
            .checked_bounds()
            .into_iter()
            .filter_map(|(held, line)| (!held).then_some(line))
            .collect();
        if !violated.is_empty() {
            return Err(SummaryError::Violated(violated));
        }
        match path {
            Some(path) => std::fs::write(path, self.document())
                .map_err(|e| SummaryError::Write(path.to_path_buf(), e)),
            None => Ok(()),
        }
    }

    /// The JSON document: harness, smoke flag, per-benchmark records and
    /// the `meta` block.
    #[must_use]
    pub fn document(&self) -> String {
        let mut doc = Json::obj()
            .field("harness", "erebor-testkit")
            .field("smoke", smoke())
            .field(
                "benchmarks",
                Json::Arr(self.records.iter().map(Record::to_json).collect()),
            );
        if !self.meta.is_empty() {
            let mut m = Json::obj();
            for (k, v) in &self.meta {
                m = m.field(k, v.clone());
            }
            doc = doc.field("meta", m);
        }
        doc.to_string()
    }
}

/// A group of related benchmarks sharing annotations.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: Option<usize>,
}

impl core::fmt::Debug for BenchmarkGroup<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BenchmarkGroup").finish_non_exhaustive()
    }
}

impl BenchmarkGroup<'_> {
    /// Annotate per-iteration throughput.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Override the sample count for this group.
    pub fn sample_size(&mut self, n: usize) {
        self.sample_size = Some(n);
    }

    /// Run one benchmark within the group.
    pub fn bench_function(&mut self, name: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        let (group, t, s) = (self.name.clone(), self.throughput, self.sample_size);
        self.c.run_one(Some(group), name.into(), t, s, f);
    }

    /// Close the group (no-op; kept for criterion compatibility).
    pub fn finish(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_synthetic_sample() {
        // 1..=100: mean 50.5, p50 = 50 (nearest rank), p99 = 99.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = stats_of(&xs);
        assert!((s.mean_ns - 50.5).abs() < 1e-9);
        assert!((s.p50_ns - 50.0).abs() < 1e-9);
        assert!((s.p99_ns - 99.0).abs() < 1e-9);
        assert!((s.min_ns - 1.0).abs() < 1e-9);
        assert!((s.max_ns - 100.0).abs() < 1e-9);
    }

    #[test]
    fn stats_single_sample() {
        let s = stats_of(&[7.0]);
        assert_eq!(s.mean_ns, 7.0);
        assert_eq!(s.p50_ns, 7.0);
        assert_eq!(s.p99_ns, 7.0);
    }

    /// The names of the bounds `c` breaks, or an empty list.
    fn violated(c: &Criterion) -> Vec<String> {
        match c.conclude(None) {
            Ok(()) => Vec::new(),
            Err(SummaryError::Violated(lines)) => lines,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    /// A file path under the system temp dir that no other test uses.
    fn scratch_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("erebor-bench-{}-{name}", std::process::id()))
    }

    #[test]
    fn bound_edges_are_inclusive_and_recorded_in_meta() {
        let mut c = Criterion::default();
        c.floor("speedup", 5.0, 5.0);
        c.ceiling("overhead", 1.1, 1.1);
        assert!(violated(&c).is_empty());
        let doc = c.document();
        for field in [
            "\"speedup\":5",
            "\"speedup_floor\":5",
            "\"overhead\":1.1",
            "\"overhead_ceiling\":1.1",
        ] {
            assert!(doc.contains(field), "{field} missing from {doc}");
        }
        c.floor("speedup", 4.999, 5.0);
        c.ceiling("overhead", 1.1001, 1.1);
        let lines = violated(&c);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            lines[0].starts_with("speedup = 4.999 (floor 5)"),
            "{lines:?}"
        );
        assert!(
            lines[1].starts_with("overhead = 1.1001 (ceiling 1.1)"),
            "{lines:?}"
        );
    }

    #[test]
    fn non_finite_values_violate_either_side() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut c = Criterion::default();
            c.floor("lo", v, f64::MIN);
            c.ceiling("hi", v, f64::MAX);
            assert_eq!(violated(&c).len(), 2, "{v} must break both bounds");
        }
        // A bounded key later overwritten by a non-number reads as NaN.
        let mut c = Criterion::default();
        c.floor("rate", 0.9, 0.5);
        c.meta("rate", "n/a");
        assert_eq!(violated(&c).len(), 1);
    }

    #[test]
    fn redeclared_bound_overwrites_the_earlier_one() {
        let mut c = Criterion::default();
        c.floor("rate", 0.1, 0.5);
        c.floor("rate", 0.7, 0.5);
        assert!(violated(&c).is_empty(), "the earlier value must not linger");
        c.floor("rate", 0.7, 0.8);
        assert_eq!(violated(&c), vec!["rate = 0.7 (floor 0.8)".to_string()]);
        assert_eq!(c.bounds.len(), 1);
        assert_eq!(c.document().matches("\"rate_floor\"").count(), 1);
        // A floor and a ceiling on one key are two bounds.
        c.ceiling("rate", 0.7, 0.6);
        assert_eq!(violated(&c).len(), 2);
    }

    #[test]
    fn violating_document_is_not_persisted() {
        let path = scratch_path("violating.json");
        let _ = std::fs::remove_file(&path);
        let mut c = Criterion::default();
        c.floor("throughput", 1.0, 2.0);
        match c.conclude(Some(&path)) {
            Err(SummaryError::Violated(lines)) => {
                assert!(lines[0].starts_with("throughput = 1"), "{lines:?}");
            }
            other => panic!("expected a violation, got {other:?}"),
        }
        assert!(!path.exists(), "a failing document must not be written");
        c.floor("throughput", 3.0, 2.0);
        c.conclude(Some(&path)).expect("passing document persists");
        let written = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).expect("clean up");
        assert_eq!(written, c.document());
    }

    #[test]
    fn unwritable_path_is_an_error() {
        let path = scratch_path("missing-dir").join("BENCH.json");
        let c = Criterion::default();
        match c.conclude(Some(&path)) {
            Err(e @ SummaryError::Write(..)) => {
                assert!(e.to_string().contains("missing-dir"), "{e}");
            }
            other => panic!("expected a write error, got {other:?}"),
        }
    }
}
