//! The one table of metric names. Every metric the benchmark prints is
//! declared here, and `BENCHMARK.json` at the repository root lists the
//! same names (checked by a test).
//!
//! An *op* is each workload's unit of work (README.md has the table):
//! one Fig. 9 run on `paper`, one request on `serve`, four requests plus
//! a kill and redeploy on `churn`, four requests plus a state audit on
//! `audit`, and four requests plus a migration round trip on `migrate`.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric declaration.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median; `Some` marks
    /// an end-to-end metric, `None` a per-layer one.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Every metric, end-to-end first.
pub const METRICS: &[Metric] = &[
    // --- end to end: printed by untraced runs -----------------------
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_host_us_p50", "us", Lower, 0.25),
    e2e("op_sim_cycles_p50", "cycles", Lower, 0.02),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
    // --- host self time by span, share of traced op time ------------
    layer("bench.harness_pct", "%", Lower),
    layer("platform.boot_pct", "%", Lower),
    layer("platform.deploy_pct", "%", Lower),
    layer("platform.connect_pct", "%", Lower),
    layer("platform.request_pct", "%", Lower),
    layer("platform.client_send_pct", "%", Lower),
    layer("platform.client_recv_pct", "%", Lower),
    layer("platform.run_workload_pct", "%", Lower),
    layer("libos.input_pct", "%", Lower),
    layer("libos.output_pct", "%", Lower),
    layer("workloads.serve_pct", "%", Lower),
    layer("core.kill_pct", "%", Lower),
    layer("analyze.audit_pct", "%", Lower),
    layer("tdx.offer_pct", "%", Lower),
    layer("tdx.migrate_to_pct", "%", Lower),
    layer("tdx.migrate_from_pct", "%", Lower),
    // --- host self time by span, share of traced set-up time --------
    layer("setup.boot_pct", "%", Lower),
    layer("setup.deploy_pct", "%", Lower),
    layer("setup.connect_pct", "%", Lower),
    layer("setup.warmup_pct", "%", Lower),
    layer("setup.harness_pct", "%", Lower),
    // --- host tail, sample counts, tracing cost ---------------------
    layer("op_host_us_tail", "us", Lower),
    layer("host_ops", "count", Higher),
    layer("sim_ops", "count", Higher),
    layer("trace.overhead_pct", "%", Lower),
    // --- simulated cycles: tail and attribution (`trace` crate) -----
    layer("op_sim_cycles_tail", "cycles", Lower),
    layer("sim_cycles_per_op", "cycles", Lower),
    layer("attr.monitor_per_op", "cycles", Lower),
    layer("attr.kernel_per_op", "cycles", Lower),
    layer("attr.sandbox_per_op", "cycles", Lower),
    layer("attr.tdcall_per_op", "cycles", Lower),
    layer("attr.page_walk_per_op", "cycles", Lower),
    layer("attr.other_per_op", "cycles", Lower),
    layer("attr.monitor_tailset", "cycles", Lower),
    layer("attr.kernel_tailset", "cycles", Lower),
    layer("attr.sandbox_tailset", "cycles", Lower),
    layer("attr.tdcall_tailset", "cycles", Lower),
    layer("attr.page_walk_tailset", "cycles", Lower),
    layer("attr.other_tailset", "cycles", Lower),
    // --- core (monitor) ---------------------------------------------
    layer("core.emc_calls_per_op", "count", Lower),
    layer("core.pte_updates_per_op", "count", Lower),
    layer("core.user_copies_per_op", "count", Lower),
    layer("core.sandbox_exits_per_op", "count", Lower),
    layer("core.sandbox_table_len", "count", Lower),
    // --- hw ------------------------------------------------------------
    layer("hw.tlb_hit_rate", "ratio", Higher),
    layer("hw.tlb_misses_per_op", "count", Lower),
    layer("hw.tlb_flushes_per_op", "count", Lower),
    layer("hw.shootdown_ipis_per_op", "count", Lower),
    layer("hw.alloc_words_scanned_per_op", "count", Lower),
    layer("hw.allocated_frames", "count", Lower),
    // --- tdx and kernel -----------------------------------------------
    layer("tdx.tdcalls_per_op", "count", Lower),
    layer("tdx.ve_injected_per_op", "count", Lower),
    layer("kernel.syscalls_per_op", "count", Lower),
    layer("kernel.page_faults_per_op", "count", Lower),
    layer("kernel.timer_ticks_per_op", "count", Lower),
    layer("trace.records_per_op", "count", Lower),
    // --- analyze (audit workload) -------------------------------------
    layer("analyze.roots_walked", "count", Lower),
    layer("analyze.pte_reads", "count", Lower),
    layer("analyze.leaf_mappings", "count", Lower),
    layer("analyze.pte_reads_per_s", "1/s", Higher),
    // --- tdx / wire migration (migrate workload) ----------------------
    layer("migrate.pages_per_trip", "count", Lower),
    layer("migrate.records_per_trip", "count", Lower),
    layer("migrate.stream_kib_per_trip", "KiB", Lower),
    // --- paper rows (paper workload; simulated) -----------------------
    layer("paper.emc_sim_cycles", "cycles", Lower),
    layer("paper.fig8_ratio_geomean", "x", Lower),
    layer("paper.fig9_overhead_pct", "%", Lower),
    layer("paper.fig10_rel_tput", "ratio", Higher),
    layer("paper.fig9.libos_only_geomean_pct", "%", Lower),
    layer("paper.fig9.libos_mmu_geomean_pct", "%", Lower),
    layer("paper.fig9.libos_exit_geomean_pct", "%", Lower),
    layer("paper.fig9.llama_cpp_overhead_pct", "%", Lower),
    layer("paper.fig9.yolo_overhead_pct", "%", Lower),
    layer("paper.fig9.drugbank_overhead_pct", "%", Lower),
    layer("paper.fig9.graphchi_overhead_pct", "%", Lower),
    layer("paper.fig9.unicorn_overhead_pct", "%", Lower),
    layer("paper.table4.mmu_ratio", "x", Lower),
    layer("paper.table4.cr_ratio", "x", Lower),
    layer("paper.table4.idt_ratio", "x", Lower),
    layer("paper.table4.msr_ratio", "x", Lower),
    layer("paper.table4.smap_ratio", "x", Lower),
    layer("paper.table4.ghci_ratio", "x", Lower),
    layer("paper.fig8.null_ratio", "x", Lower),
    layer("paper.fig8.read_ratio", "x", Lower),
    layer("paper.fig8.write_ratio", "x", Lower),
    layer("paper.fig8.sig_install_ratio", "x", Lower),
    layer("paper.fig8.sig_catch_ratio", "x", Lower),
    layer("paper.fig8.mmap_ratio", "x", Lower),
    layer("paper.fig8.pagefault_ratio", "x", Lower),
    layer("paper.fig8.fork_ratio", "x", Lower),
];

/// The declaration of `name`, if there is one.
pub fn find(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The end-to-end metrics, in table order.
pub fn end_to_end() -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(|m| m.bound.is_some())
}

/// The per-layer metrics, in table order.
pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(|m| m.bound.is_none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const BENCHMARK_JSON: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../../../../BENCHMARK.json"
    ));

    /// How `BENCHMARK.json` spells one metric entry.
    fn entry(m: &Metric) -> String {
        match m.bound {
            Some(b) => format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {b}}}",
                m.name,
                m.unit,
                m.better.as_str()
            ),
            None => format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            ),
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for m in METRICS {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(end_to_end().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = find("setup_s").expect("setup_s declared");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let largest = end_to_end().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_this_table() {
        for m in METRICS {
            assert!(
                BENCHMARK_JSON.contains(&entry(m)),
                "BENCHMARK.json lacks {}",
                entry(m)
            );
        }
        // Nothing else: every `"name"` is a metric here or a workload.
        let names = BENCHMARK_JSON.matches("\"name\":").count();
        assert_eq!(names, METRICS.len() + crate::run::WORKLOADS.len());
        for w in crate::run::WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains(['"', '\\', '\n']));
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(
                BENCHMARK_JSON.contains(&entry),
                "BENCHMARK.json lacks {entry}"
            );
        }
    }
}
