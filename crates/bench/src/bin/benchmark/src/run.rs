//! The workload-independent runner: repeated set-up, the timed op loop,
//! correctness tallies and the metrics computed from them.

use std::collections::BTreeMap;
use std::time::Instant;

use erebor::{Bucket, Platform, Snapshot};

use crate::spans::Tracer;
use crate::stats::{fnv1a, median_f64, nearest_rank, sorted, tail};
use crate::{fleet, paper, td};

/// One workload's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Ops whose simulated counters are reported (full, smoke). The
    /// loop always completes them, so simulated metrics are exact
    /// functions of the seed; host metrics use every op of the window.
    pub sim_ops: (u64, u64),
    /// Ops per tracing round: a traced run alternates traced and
    /// untraced rounds so both see the same mix of ops.
    pub round: u64,
    /// Ops per timing group (about half a second here). Host metrics are
    /// medians over groups, so a burst of interference from other tenants
    /// of the machine that covers fewer than half the groups leaves them
    /// unchanged.
    pub group: u64,
}

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "paper",
        why: "the paper's Fig. 9 matrix on fresh 128 MiB platforms: gate, kernel, LibOS and workload kernels work; fleet tables, audit and migration idle",
        sim_ops: (50, 50),
        round: 25,
        group: 25,
    },
    Spec {
        name: "serve",
        why: "closed-loop requests over a 768-sandbox 10 GiB fleet: channel sealing, interposition, LibOS I/O and TLB paths; allocator, kill, audit and migration idle",
        sim_ops: (150_000, 2_000),
        round: 1,
        group: 16_384,
    },
    Spec {
        name: "churn",
        why: "kill+redeploy of fleet slots between requests: frame allocator, page-table build and teardown, sandbox table and shootdowns",
        sim_ops: (1_500, 40),
        round: 1,
        group: 160,
    },
    Spec {
        name: "audit",
        why: "state audits of a live 64-sandbox 512 MiB TD between requests: the auditor's page-table walk dominates",
        sim_ops: (2, 2),
        round: 1,
        group: 1,
    },
    Spec {
        name: "migrate",
        why: "live-migration round trips of a 64-sandbox 512 MiB TD between requests: export, AEAD sealing, wire decoding and import",
        sim_ops: (20, 3),
        round: 1,
        group: 4,
    },
];

/// The spec named `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How one run is shaped.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Input seed.
    pub seed: u64,
    /// Minimum measured window; the loop also completes the sim ops.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Shrunken shapes and a single set-up, for tests.
    pub smoke: bool,
}

/// Attempted and failed operations.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation that passed iff `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Count one fallible operation, keeping its value.
    pub fn record<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Simulated counters of one op (or a sum of ops).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Sim {
    pub cycles: u64,
    pub attr: [u64; 6],
    pub emc_calls: u64,
    pub pte_updates: u64,
    pub user_copies: u64,
    pub sandbox_exits: u64,
    pub tdcalls: u64,
    pub ve_injected: u64,
    pub syscalls: u64,
    pub page_faults: u64,
    pub timer_ticks: u64,
    pub tlb_hits: u64,
    pub tlb_misses: u64,
    pub tlb_flushes: u64,
    pub shootdown_ipis: u64,
}

impl Sim {
    /// The counters of a snapshot delta.
    pub fn of(d: &Snapshot) -> Sim {
        Sim {
            cycles: d.cycles,
            attr: Bucket::ALL.map(|b| d.attribution.get(b)),
            emc_calls: d.monitor.emc_calls,
            pte_updates: d.monitor.pte_updates,
            user_copies: d.monitor.user_copies,
            sandbox_exits: d.monitor.sandbox_total_exits(),
            tdcalls: d.tdx.tdcalls,
            ve_injected: d.tdx.ve_injected,
            syscalls: d.kernel.syscalls,
            page_faults: d.kernel.page_faults,
            timer_ticks: d.kernel.timer_ticks,
            tlb_hits: d.hw.tlb_hits,
            tlb_misses: d.hw.tlb_misses,
            tlb_flushes: d.hw.tlb_flushes,
            shootdown_ipis: d.hw.tlb_shootdown_ipis,
        }
    }

    fn add(&mut self, o: &Sim) {
        self.cycles += o.cycles;
        for (a, b) in self.attr.iter_mut().zip(o.attr) {
            *a += b;
        }
        self.emc_calls += o.emc_calls;
        self.pte_updates += o.pte_updates;
        self.user_copies += o.user_copies;
        self.sandbox_exits += o.sandbox_exits;
        self.tdcalls += o.tdcalls;
        self.ve_injected += o.ve_injected;
        self.syscalls += o.syscalls;
        self.page_faults += o.page_faults;
        self.timer_ticks += o.timer_ticks;
        self.tlb_hits += o.tlb_hits;
        self.tlb_misses += o.tlb_misses;
        self.tlb_flushes += o.tlb_flushes;
        self.shootdown_ipis += o.shootdown_ipis;
    }
}

/// Host-side counters that live outside `Snapshot`.
#[derive(Debug, Default, Clone, Copy)]
pub struct HostCounters {
    /// Frame-allocator summary words scanned.
    pub words_scanned: u64,
    /// Trace records written.
    pub trace_records: u64,
}

/// Per-layer values only some workloads produce.
pub type Extras = BTreeMap<String, f64>;

/// A set-up workload, ready to run ops.
pub trait Workload {
    /// Run op `i` and return its simulated counters.
    fn op(&mut self, i: u64, tr: &mut Tracer, tally: &mut Tally) -> Sim;
    /// Host-side counters, read before and after the sim ops.
    fn host_counters(&self) -> HostCounters {
        HostCounters::default()
    }
    /// Digest of the simulated state, taken after the sim ops.
    fn sim_digest(&self) -> u64;
    /// End-of-run checks and workload-specific per-layer values.
    fn finish(&mut self, tally: &mut Tally, extras: &mut Extras);
}

fn build(
    name: &str,
    cfg: &RunCfg,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Option<Box<dyn Workload>> {
    match name {
        "paper" => paper::Paper::setup(cfg, tr, tally).map(|w| Box::new(w) as _),
        "serve" => fleet::Fleet::setup(cfg, false, tr, tally).map(|w| Box::new(w) as _),
        "churn" => fleet::Fleet::setup(cfg, true, tr, tally).map(|w| Box::new(w) as _),
        "audit" => td::Td::setup(cfg, false, tr, tally).map(|w| Box::new(w) as _),
        "migrate" => td::Td::setup(cfg, true, tr, tally).map(|w| Box::new(w) as _),
        _ => None,
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Metric values by name (end-to-end or per-layer, per the mode).
    pub metrics: BTreeMap<String, f64>,
    /// Correctness tally.
    pub tally: Tally,
    /// Digest of the simulated state after the sim ops.
    pub sim_digest: u64,
    /// Label of the tail percentile behind the `*_tail` metrics.
    pub tail_label: &'static str,
    /// The span document, for a traced run.
    pub spans: Option<String>,
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups per run: at least `MIN_SETUPS`, repeated while the set-ups
/// so far took under `SETUP_SECONDS`, at most `MAX_SETUPS`.
const MIN_SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 1.5;
const MAX_SETUPS: usize = 15;

/// Run workload `spec` under `cfg`.
pub fn run(spec: &Spec, cfg: &RunCfg) -> Outcome {
    let mut tr = Tracer::new();
    let mut tally = Tally::default();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    let (min_setups, setup_budget) = if cfg.smoke {
        (1, 0.0)
    } else {
        (MIN_SETUPS, SETUP_SECONDS)
    };
    while setup_s.len() < min_setups
        || (setup_s.iter().sum::<f64>() < setup_budget && setup_s.len() < MAX_SETUPS)
    {
        drop(w.take());
        tr.set_on(cfg.trace, setup_s.len() as u64);
        let t = Instant::now();
        w = tr.span("bench", "setup", |tr| build(spec.name, cfg, tr, &mut tally));
        setup_s.push(t.elapsed().as_secs_f64());
        if w.is_none() {
            break;
        }
    }
    let mut metrics = BTreeMap::new();
    let Some(mut w) = w else {
        tally.check(false, || format!("{}: set-up failed", spec.name));
        return Outcome {
            metrics,
            tally,
            sim_digest: 0,
            tail_label: "p50",
            spans: None,
        };
    };

    let sim_ops = if cfg.smoke {
        spec.sim_ops.1
    } else {
        spec.sim_ops.0
    };
    let host_start = w.host_counters();
    let mut host_end = host_start;
    let mut sim_digest = w.sim_digest();
    let mut sim_total = Sim::default();
    let mut sim_cycles = Vec::with_capacity(sim_ops as usize);
    let mut sim_attr = Vec::with_capacity(sim_ops as usize);
    // Host op times, untraced and traced, in nanoseconds.
    let mut host_ns: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    // Per timing group: op rate and median untraced op time.
    let mut group_rate = Vec::new();
    let mut group_p50 = Vec::new();
    let mut group_start = (Instant::now(), 0);
    let group = if cfg.smoke { 1 } else { spec.group };
    let t0 = Instant::now();
    let mut i = 0u64;
    while i < sim_ops || t0.elapsed().as_secs_f64() < cfg.seconds || !i.is_multiple_of(group) {
        let traced = cfg.trace && (i / spec.round) % 2 == 1;
        tr.set_on(traced, i);
        let t = Instant::now();
        let sim = tr.span("bench", "op", |tr| w.op(i, tr, &mut tally));
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        host_ns[usize::from(traced)].push(ns);
        if i < sim_ops {
            sim_total.add(&sim);
            sim_cycles.push(sim.cycles);
            sim_attr.push(sim.attr);
            if i + 1 == sim_ops {
                host_end = w.host_counters();
                sim_digest = w.sim_digest();
            }
        }
        i += 1;
        if i.is_multiple_of(group) {
            let (start, first) = group_start;
            group_rate.push(group as f64 / start.elapsed().as_secs_f64());
            let ops = sorted(&host_ns[0][first..]);
            group_p50.push(nearest_rank(&ops, 0.5).unwrap_or(0) as f64);
            group_start = (Instant::now(), host_ns[0].len());
        }
    }
    tr.set_on(false, i);
    let mut extras = Extras::new();
    w.finish(&mut tally, &mut extras);

    let n_sim = sim_cycles.len().max(1) as f64;
    let sim_sorted = sorted(&sim_cycles);
    let (sim_tail, _) = tail(&sim_sorted).unwrap_or((0, "p50"));
    let untraced = sorted(&host_ns[0]);
    let (host_tail, tail_label) = tail(&untraced).unwrap_or((0, "p50"));
    let mut put = |k: &str, v: f64| {
        metrics.insert(k.to_owned(), v);
    };
    if !cfg.trace {
        put("setup_s", median_f64(&setup_s));
        put("ops_per_s", median_f64(&group_rate));
        put("op_host_us_p50", median_f64(&group_p50) / 1e3);
        put(
            "op_sim_cycles_p50",
            nearest_rank(&sim_sorted, 0.5).unwrap_or(0) as f64,
        );
        put("peak_rss_mb", peak_rss_mb());
    } else {
        let mut host = BTreeMap::new();
        for (prefix, root) in [("", "op"), ("setup.", "setup")] {
            let selfs = tr.self_times(root);
            let total = selfs.iter().map(|(_, ns)| *ns).sum::<u64>().max(1) as f64;
            for ((layer, name), ns) in selfs {
                let key = match (prefix, layer, name) {
                    ("setup.", "bench", _) => "setup.harness_pct".to_owned(),
                    (
                        "setup.",
                        "platform" | "libos" | "workloads",
                        "request" | "client_send" | "client_recv" | "input" | "output" | "serve",
                    ) => "setup.warmup_pct".to_owned(),
                    ("setup.", _, _) => format!("setup.{name}_pct"),
                    (_, "bench", _) => "bench.harness_pct".to_owned(),
                    _ => format!("{layer}.{name}_pct"),
                };
                *host.entry(key).or_insert(0.0) += ns as f64 / total * 100.0;
            }
        }
        for (k, v) in host {
            put(&k, v);
        }
        put("op_host_us_tail", host_tail as f64 / 1e3);
        put("host_ops", i as f64);
        put("sim_ops", sim_cycles.len() as f64);
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        if !host_ns[0].is_empty() && !host_ns[1].is_empty() {
            put(
                "trace.overhead_pct",
                (mean(&host_ns[1]) / mean(&host_ns[0]) - 1.0) * 100.0,
            );
        }
        put("op_sim_cycles_tail", sim_tail as f64);
        put("sim_cycles_per_op", sim_total.cycles as f64 / n_sim);
        // Attribution of the whole sim-op set and of its tail set: the
        // ops whose simulated cost is at or above the tail percentile.
        let tailset: Vec<&[u64; 6]> = sim_cycles
            .iter()
            .zip(&sim_attr)
            .filter(|(c, _)| **c >= sim_tail)
            .map(|(_, a)| a)
            .collect();
        for (j, b) in Bucket::ALL.iter().enumerate() {
            put(
                &format!("attr.{}_per_op", b.name()),
                sim_total.attr[j] as f64 / n_sim,
            );
            let sum: u64 = tailset.iter().map(|a| a[j]).sum();
            put(
                &format!("attr.{}_tailset", b.name()),
                sum as f64 / tailset.len().max(1) as f64,
            );
        }
        let per = |v: u64| v as f64 / n_sim;
        let s = &sim_total;
        put("core.emc_calls_per_op", per(s.emc_calls));
        put("core.pte_updates_per_op", per(s.pte_updates));
        put("core.user_copies_per_op", per(s.user_copies));
        put("core.sandbox_exits_per_op", per(s.sandbox_exits));
        let lookups = s.tlb_hits + s.tlb_misses;
        put("hw.tlb_hit_rate", s.tlb_hits as f64 / lookups.max(1) as f64);
        put("hw.tlb_misses_per_op", per(s.tlb_misses));
        put("hw.tlb_flushes_per_op", per(s.tlb_flushes));
        put("hw.shootdown_ipis_per_op", per(s.shootdown_ipis));
        put(
            "hw.alloc_words_scanned_per_op",
            per(host_end.words_scanned - host_start.words_scanned),
        );
        put("tdx.tdcalls_per_op", per(s.tdcalls));
        put("tdx.ve_injected_per_op", per(s.ve_injected));
        put("kernel.syscalls_per_op", per(s.syscalls));
        put("kernel.page_faults_per_op", per(s.page_faults));
        put("kernel.timer_ticks_per_op", per(s.timer_ticks));
        put(
            "trace.records_per_op",
            per(host_end.trace_records - host_start.trace_records),
        );
        for (k, v) in extras {
            put(&k, v);
        }
        // Per-layer metrics a workload does not exercise read 0.
        for m in crate::metrics::per_layer() {
            metrics.entry(m.name.to_owned()).or_insert(0.0);
        }
    }
    Outcome {
        metrics,
        tally,
        sim_digest,
        tail_label,
        spans: cfg.trace.then(|| tr.to_json()),
    }
}

/// Digest of a platform's simulated state: its counters snapshot and its
/// trace document.
pub fn platform_digest(p: &Platform) -> u64 {
    fnv1a(format!("{:?}", p.snapshot()).as_bytes())
        ^ fnv1a(p.trace_json().as_bytes()).rotate_left(1)
}

/// End-of-run sizes of a platform's sandbox table and frame pool.
pub fn platform_gauges(p: &Platform, extras: &mut Extras) {
    extras.insert(
        "core.sandbox_table_len".into(),
        p.cvm.monitor.sandboxes.len() as f64,
    );
    extras.insert(
        "hw.allocated_frames".into(),
        p.cvm.machine.mem.allocated_frames() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use std::collections::BTreeSet;

    fn smoke_run(name: &str, seed: u64, trace: bool) -> Outcome {
        let cfg = RunCfg {
            seed,
            seconds: 0.0,
            trace,
            smoke: true,
        };
        let out = run(spec(name).expect("known workload"), &cfg);
        assert_eq!(out.tally.failed, 0, "{name}: {:?}", out.tally.notes);
        assert!(out.tally.attempted > 0);
        out
    }

    fn names(out: &Outcome) -> BTreeSet<&str> {
        out.metrics.keys().map(String::as_str).collect()
    }

    /// Per workload: a traced run (alternate ops decomposed into the
    /// calls `serve_request` makes, under spans) leaves exactly the
    /// simulated state an untraced run does; each mode emits exactly its
    /// half of the metric table; the workload's own layers read non-zero.
    #[test]
    fn traced_and_untraced_runs_agree() {
        let own: [(&str, &[&str]); 5] = [
            (
                "paper",
                &[
                    "paper.fig9_overhead_pct",
                    "paper.emc_sim_cycles",
                    "platform.run_workload_pct",
                ],
            ),
            (
                "serve",
                &[
                    "libos.input_pct",
                    "workloads.serve_pct",
                    "platform.client_send_pct",
                ],
            ),
            (
                "churn",
                &[
                    "core.kill_pct",
                    "platform.deploy_pct",
                    "hw.alloc_words_scanned_per_op",
                ],
            ),
            (
                "audit",
                &["analyze.pte_reads", "analyze.audit_pct", "setup.warmup_pct"],
            ),
            (
                "migrate",
                &[
                    "migrate.pages_per_trip",
                    "tdx.migrate_to_pct",
                    "tdx.migrate_from_pct",
                ],
            ),
        ];
        let e2e: BTreeSet<&str> = metrics::end_to_end().map(|m| m.name).collect();
        let layers: BTreeSet<&str> = metrics::per_layer().map(|m| m.name).collect();
        for (name, nonzero) in own {
            let plain = smoke_run(name, 1, false);
            let traced = smoke_run(name, 1, true);
            assert_eq!(
                plain.sim_digest, traced.sim_digest,
                "{name}: tracing changed the simulation"
            );
            assert_eq!(names(&plain), e2e, "{name}");
            assert_eq!(names(&traced), layers, "{name}");
            assert!(
                plain.metrics.values().all(|v| *v > 0.0),
                "{name}: {:?}",
                plain.metrics
            );
            for m in nonzero {
                assert!(traced.metrics[*m] > 0.0, "{name}: {m} is zero");
            }
            let spans = traced.spans.expect("traced run keeps spans");
            assert!(spans.contains("\"name\":\"op\""), "{name}");
        }
    }

    #[test]
    fn same_seed_repeats_simulation_and_new_seed_changes_it() {
        let a = smoke_run("serve", 7, false);
        let b = smoke_run("serve", 7, false);
        let c = smoke_run("serve", 8, false);
        assert_eq!(a.sim_digest, b.sim_digest);
        let p50 = |o: &Outcome| o.metrics["op_sim_cycles_p50"].to_bits();
        assert_eq!(p50(&a), p50(&b));
        assert_ne!(
            a.sim_digest, c.sim_digest,
            "the seed must drive the schedule"
        );
    }
}
