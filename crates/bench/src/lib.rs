//! # erebor-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§9):
//!
//! | Experiment | Paper artifact | Entry point |
//! |---|---|---|
//! | Privilege-transition costs | Table 3 | [`table3::run`] |
//! | Privileged-operation costs | Table 4 | [`table4::run`] |
//! | LMBench system benchmarks | Fig. 8  | [`fig8::run`] |
//! | Real-world workload overhead | Fig. 9 | [`fig9::run`] |
//! | Program execution statistics | Table 6 | [`table6::run`] |
//! | Background server throughput | Fig. 10 | [`fig10::run`] |
//! | Common-memory savings | §9.2 claim | [`memsave::run`] |
//!
//! Each module returns structured rows; the `src/bin/*` binaries print
//! them in the paper's layout. All measurements are deterministic
//! simulated cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use erebor::platform::Platform;
use erebor::Mode;
use erebor_core::stats::MonitorStats;
use erebor_hw::HwStats;
use erebor_testkit::json::Json;
use erebor_trace::{Attribution, Bucket};
use erebor_workloads::Workload;

/// Translation-path and monitor counters captured from one benchmark
/// platform, for the machine-readable `stats` block of the bench
/// binaries (Table 3 / Fig. 8 JSON).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Hardware-model counters (TLB hits/misses/flushes/shootdowns).
    pub hw: HwStats,
    /// Monitor event counters (EMCs, PTE updates, exits).
    pub monitor: MonitorStats,
    /// Per-bucket cycle attribution (sums to the machine's total).
    pub attribution: Attribution,
    /// Trace events recorded on the platform (retained + evicted).
    pub trace_events: u64,
}

impl RunStats {
    /// Snapshot the counters of a platform after a run.
    #[must_use]
    pub fn capture(p: &Platform) -> RunStats {
        RunStats {
            hw: p.cvm.machine.stats,
            monitor: p.cvm.monitor.stats,
            attribution: p.cvm.machine.cycles.attribution(),
            trace_events: p.cvm.machine.trace.recorded(),
        }
    }

    /// Render as the `stats` JSON block.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let hw = Json::obj()
            .field("tlb_hits", self.hw.tlb_hits)
            .field("tlb_misses", self.hw.tlb_misses)
            .field("tlb_hit_rate", self.hw.hit_rate())
            .field("tlb_flushes", self.hw.tlb_flushes)
            .field("tlb_page_invalidations", self.hw.tlb_page_invalidations)
            .field("tlb_shootdown_ipis", self.hw.tlb_shootdown_ipis);
        let monitor = Json::obj()
            .field("emc_calls", self.monitor.emc_calls)
            .field("pte_updates", self.monitor.pte_updates)
            .field("user_copies", self.monitor.user_copies)
            .field("ghci_ops", self.monitor.ghci_ops)
            .field("sandbox_exits", self.monitor.sandbox_total_exits())
            .field("emc_denied", self.monitor.emc_denied);
        let mut attribution = Json::obj();
        for b in Bucket::ALL {
            attribution = attribution.field(b.name(), self.attribution.get(b));
        }
        attribution = attribution.field("total", self.attribution.total());
        Json::obj()
            .field("hw", hw)
            .field("monitor", monitor)
            .field("attribution", attribution)
            .field("trace_events", self.trace_events)
    }
}

/// A fresh-instance constructor for one workload.
pub type WorkloadCtor = Box<dyn Fn() -> Box<dyn Workload>>;

/// Construct the five Table 5 workloads with their standard requests.
#[must_use]
pub fn paper_workloads() -> Vec<(WorkloadCtor, Vec<u8>)> {
    vec![
        (
            Box::new(|| Box::new(erebor_workloads::llm::LlmInference::default()) as _),
            b"gen=12;translate the following text into french".to_vec(),
        ),
        (
            Box::new(|| Box::new(erebor_workloads::imgproc::ImageProc::default()) as _),
            b"n=2;7".to_vec(),
        ),
        (
            Box::new(|| Box::new(erebor_workloads::retrieval::Retrieval::default()) as _),
            b"q=20000;3".to_vec(),
        ),
        (
            Box::new(|| Box::new(erebor_workloads::graph::GraphRank) as _),
            b"iters=4;9".to_vec(),
        ),
        (
            Box::new(|| Box::new(erebor_workloads::ids::Ids::default()) as _),
            erebor_workloads::ids::synthetic_log(3500, 11, true),
        ),
    ]
}

/// Put the driving core back into kernel execution context (ring 0,
/// kernel domain) — the state from which the kernel issues EMCs. Bench
/// code needs this after driving user-mode activity.
pub fn kernel_ctx(p: &mut Platform) {
    p.enter_kernel_mode();
}

/// Geometric mean of a slice.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Table 3: privilege-transition round-trip costs.
pub mod table3 {
    use super::{Mode, Platform};
    use erebor_core::emc::EmcRequest;
    use erebor_tdx::tdcall::{tdcall, TdcallLeaf, VmcallOp};

    /// One transition class.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Transition name.
        pub name: &'static str,
        /// Round-trip cycles.
        pub cycles: u64,
    }

    /// Measure all four transitions of Table 3 with the default
    /// iteration count (reduced under `EREBOR_BENCH_SMOKE`).
    ///
    /// # Panics
    /// Panics on platform failures (bench binary context).
    #[must_use]
    pub fn run() -> Vec<Row> {
        run_with_iters(if erebor_testkit::bench::smoke() { 8 } else { 64 })
    }

    /// Like [`run`], but also returns the counters of the Full platform
    /// used for the EMC measurement.
    ///
    /// # Panics
    /// Panics on platform failures (bench binary context).
    #[must_use]
    pub fn run_with_stats() -> (Vec<Row>, super::RunStats) {
        inner(if erebor_testkit::bench::smoke() { 8 } else { 64 })
    }

    /// Measure all four transitions of Table 3, averaging over `iters`
    /// round trips each.
    ///
    /// # Panics
    /// Panics on platform failures (bench binary context).
    #[must_use]
    pub fn run_with_iters(iters: u64) -> Vec<Row> {
        inner(iters).0
    }

    fn inner(iters: u64) -> (Vec<Row>, super::RunStats) {
        let iters = iters.max(1);
        let mut rows = Vec::new();

        // Empty EMC round trip.
        let mut p = Platform::boot(Mode::Full).expect("boot full");
        let before = p.cvm.machine.cycles.total();
        for _ in 0..iters {
            p.cvm
                .monitor
                .emc(&mut p.cvm.machine, &mut p.cvm.tdx, 0, EmcRequest::Nop)
                .expect("nop emc");
        }
        rows.push(Row {
            name: "EMC",
            cycles: (p.cvm.machine.cycles.total() - before) / iters,
        });
        let stats = super::RunStats::capture(&p);

        // Empty syscall (native, no interposition, no timer noise).
        let mut p = Platform::boot(Mode::Native).expect("boot native");
        p.cvm.monitor.cfg.timer_quantum_cycles = u64::MAX / 4;
        let pid = p.spawn_native().expect("spawn");
        {
            use erebor_libos::api::Sys;
            // Warm the dispatch path once.
            p.proc(pid)
                .syscall(erebor_kernel::syscall::nr::GETPID, [0; 6])
                .expect("getpid");
            let before = p.cvm.machine.cycles.total();
            for _ in 0..iters {
                p.proc(pid)
                    .syscall(erebor_kernel::syscall::nr::GETPID, [0; 6])
                    .expect("getpid");
            }
            rows.push(Row {
                name: "SYSCALL",
                cycles: (p.cvm.machine.cycles.total() - before) / iters,
            });
        }

        // tdcall round trip: measured from the (privileged) native guest
        // kernel — the hardware cost is identical in every configuration.
        let mut p = Platform::boot(Mode::Native).expect("boot native");
        let before = p.cvm.machine.cycles.total();
        for _ in 0..iters {
            tdcall(
                &mut p.cvm.tdx,
                &mut p.cvm.machine,
                0,
                TdcallLeaf::VmCall(VmcallOp::Halt),
            )
            .expect("tdcall");
        }
        let tdcall_cycles = (p.cvm.machine.cycles.total() - before) / iters;
        rows.push(Row {
            name: "TDCALL",
            cycles: tdcall_cycles,
        });

        // vmcall in a normal (non-TD) guest: no TDX-module context
        // protection, straight VMM round trip (modelled composite).
        let c = &p.cvm.machine.costs;
        rows.push(Row {
            name: "VMCALL",
            cycles: 2 * c.vm_transition + c.vmm_dispatch,
        });

        (rows, stats)
    }
}

/// Table 4: individual privileged-operation costs, native vs Erebor.
pub mod table4 {
    use super::{Mode, Platform};
    use erebor_core::emc::{CopyDir, EmcRequest, EmcResponse};
    use erebor_hw::paging;
    use erebor_hw::regs::{Cr0, Msr};
    use erebor_hw::VirtAddr;
    use erebor_tdx::tdcall::{tdcall, TdcallLeaf};

    /// One operation class.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Operation name (Table 4 row).
        pub op: &'static str,
        /// Native cycles.
        pub native: u64,
        /// Erebor (EMC-delegated) cycles.
        pub erebor: u64,
    }

    impl Row {
        /// Erebor/native ratio.
        #[must_use]
        pub fn times(&self) -> f64 {
            self.erebor as f64 / self.native as f64
        }
    }

    fn measure(
        machine: &mut erebor_hw::cpu::Machine,
        mut f: impl FnMut(&mut erebor_hw::cpu::Machine),
    ) -> u64 {
        const ITERS: u64 = 32;
        let before = machine.cycles.total();
        for _ in 0..ITERS {
            f(machine);
        }
        (machine.cycles.total() - before) / ITERS
    }

    /// Measure all six operation classes.
    ///
    /// # Panics
    /// Panics on platform failures (bench binary context).
    #[allow(clippy::too_many_lines)]
    #[must_use]
    pub fn run() -> Vec<Row> {
        // --- native numbers (privileged kernel) -------------------------
        let mut native = Platform::boot(Mode::Native).expect("boot native");
        let nm = &mut native.cvm.machine;
        // MMU: native_set_pte — one ordered store to a PTE slot.
        let root = nm.cpus[0].cr3;
        let slot = paging::pte_slot(root, VirtAddr(0x7f55_0000_0000), 4);
        let n_mmu = measure(nm, |m| {
            let v = m.mem.read_u64(slot).unwrap_or(0);
            m.mem.write_u64(slot, v).ok();
            m.cycles.charge(m.costs.pte_store);
        });
        let n_cr = measure(nm, |m| {
            m.write_cr0(0, Cr0::WP | Cr0::PG).expect("cr0");
        });
        let n_idt = measure(nm, |m| {
            m.lidt(0, erebor_core::boot::IDT_VA).expect("lidt");
        });
        let n_msr = measure(nm, |m| {
            m.wrmsr(0, Msr::Lstar, erebor_kernel::entry::SYSCALL.0)
                .expect("wrmsr");
        });
        let n_smap = measure(nm, |m| {
            m.stac(0).expect("stac");
            m.clac(0).expect("clac");
        });
        let n_ghci = {
            let before = native.cvm.machine.cycles.total();
            tdcall(
                &mut native.cvm.tdx,
                &mut native.cvm.machine,
                0,
                TdcallLeaf::TdReport {
                    report_data: Box::new([0u8; 64]),
                },
            )
            .expect("tdreport");
            native.cvm.machine.cycles.total() - before
        };

        // --- Erebor numbers (EMC-delegated) -----------------------------
        let mut p = Platform::boot(Mode::Full).expect("boot full");
        // A user page to protect-toggle (the MMU row's PTE update).
        let pid = p.spawn_native().expect("spawn");
        let uroot = p.kernel.task(pid).expect("task").root;
        {
            use erebor_libos::api::Sys;
            let va = p
                .proc(pid)
                .syscall(erebor_kernel::syscall::nr::MMAP, [0, 4096, 3, 0, 0, 0])
                .expect("mmap");
            p.proc(pid).touch(va, true).expect("touch");
            super::kernel_ctx(&mut p);
            let e_mmu = {
                const ITERS: u64 = 32;
                let before = p.cvm.machine.cycles.total();
                for i in 0..ITERS {
                    p.cvm
                        .monitor
                        .emc(
                            &mut p.cvm.machine,
                            &mut p.cvm.tdx,
                            0,
                            EmcRequest::ProtectUserPage {
                                root: uroot,
                                va: VirtAddr(va),
                                writable: i % 2 == 0,
                            },
                        )
                        .expect("protect");
                }
                (p.cvm.machine.cycles.total() - before) / ITERS
            };
            let emc = |p: &mut Platform, req: EmcRequest| -> u64 {
                const ITERS: u64 = 32;
                let before = p.cvm.machine.cycles.total();
                for _ in 0..ITERS {
                    p.cvm
                        .monitor
                        .emc(&mut p.cvm.machine, &mut p.cvm.tdx, 0, req.clone())
                        .expect("emc");
                }
                (p.cvm.machine.cycles.total() - before) / ITERS
            };
            let e_cr = emc(
                &mut p,
                EmcRequest::WriteCr {
                    which: 0,
                    value: Cr0::WP | Cr0::PG,
                },
            );
            let e_idt = emc(
                &mut p,
                EmcRequest::SetVectorHandler {
                    vec: erebor_hw::idt::vector::TIMER,
                    handler: erebor_kernel::entry::TIMER,
                },
            );
            let e_msr = emc(
                &mut p,
                EmcRequest::WrMsr {
                    msr: Msr::Lstar,
                    value: erebor_kernel::entry::SYSCALL.0,
                },
            );
            let e_smap = emc(
                &mut p,
                EmcRequest::UserCopy {
                    dir: CopyDir::FromUser,
                    root: uroot,
                    user_va: VirtAddr(va),
                    bytes: vec![0u8; 8],
                },
            );
            let e_ghci = {
                let before = p.cvm.machine.cycles.total();
                match p
                    .cvm
                    .monitor
                    .emc(
                        &mut p.cvm.machine,
                        &mut p.cvm.tdx,
                        0,
                        EmcRequest::AttestReport {
                            report_data: Box::new([0u8; 64]),
                        },
                    )
                    .expect("attest")
                {
                    EmcResponse::Report(_) => {}
                    other => panic!("unexpected response {other:?}"),
                }
                p.cvm.machine.cycles.total() - before
            };

            vec![
                Row {
                    op: "MMU",
                    native: n_mmu,
                    erebor: e_mmu,
                },
                Row {
                    op: "CR",
                    native: n_cr,
                    erebor: e_cr,
                },
                Row {
                    op: "IDT",
                    native: n_idt,
                    erebor: e_idt,
                },
                Row {
                    op: "MSR",
                    native: n_msr,
                    erebor: e_msr,
                },
                Row {
                    op: "SMAP",
                    native: n_smap,
                    erebor: e_smap,
                },
                Row {
                    op: "GHCI",
                    native: n_ghci,
                    erebor: e_ghci,
                },
            ]
        }
    }
}

/// Fig. 8: LMBench system benchmarks, native vs Erebor.
pub mod fig8 {
    use super::{Mode, Platform};
    use erebor_workloads::lmbench;

    /// One benchmark's pair of latencies.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Benchmark name.
        pub name: &'static str,
        /// Native cycles/op.
        pub native: f64,
        /// Erebor cycles/op.
        pub erebor: f64,
    }

    impl Row {
        /// Erebor/native latency ratio (the Fig. 8 bar height).
        #[must_use]
        pub fn ratio(&self) -> f64 {
            self.erebor / self.native
        }
    }

    /// Run the suite under both configurations.
    ///
    /// # Panics
    /// Panics on platform failures (bench binary context).
    #[must_use]
    pub fn run(ops: u64) -> Vec<Row> {
        run_with_stats(ops).0
    }

    /// Like [`run`], but also returns the counters of the Full (Erebor)
    /// configuration's run.
    ///
    /// # Panics
    /// Panics on platform failures (bench binary context).
    #[must_use]
    pub fn run_with_stats(ops: u64) -> (Vec<Row>, super::RunStats) {
        let run_one = |mode: Mode| -> (Vec<lmbench::BenchResult>, super::RunStats) {
            let mut p = Platform::boot(mode).expect("boot");
            // LMBench isolates per-op latency; suppress timer noise.
            p.cvm.monitor.cfg.timer_quantum_cycles = u64::MAX / 4;
            p.driver.reclaim_period_ticks = 0;
            let pid = p.spawn_native().expect("spawn");
            let mut h = p.proc(pid);
            let results = lmbench::run_suite(&mut h, ops).expect("suite");
            let stats = super::RunStats::capture(&p);
            (results, stats)
        };
        let (native, _) = run_one(Mode::Native);
        let (erebor, stats) = run_one(Mode::Full);
        let rows = native
            .iter()
            .zip(erebor.iter())
            .map(|(n, e)| {
                debug_assert_eq!(n.name, e.name);
                Row {
                    name: n.name,
                    native: n.cycles_per_op,
                    erebor: e.cycles_per_op,
                }
            })
            .collect();
        (rows, stats)
    }
}

/// Fig. 9: real-world workload runtime overhead across configurations.
pub mod fig9 {
    use super::{geomean, paper_workloads, Mode};
    use erebor::runner::run_workload;

    /// One workload's normalized runtimes.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Workload name.
        pub workload: &'static str,
        /// Serve cycles per mode, in [`Mode::ALL`] order.
        pub cycles: [u64; 5],
    }

    impl Row {
        /// Overhead of mode index `i` relative to native.
        #[must_use]
        pub fn overhead(&self, i: usize) -> f64 {
            self.cycles[i] as f64 / self.cycles[0] as f64 - 1.0
        }
    }

    /// Run every workload under every mode.
    ///
    /// # Panics
    /// Panics on platform failures (bench binary context).
    #[must_use]
    pub fn run() -> Vec<Row> {
        let mut rows = Vec::new();
        for (ctor, request) in paper_workloads() {
            let mut cycles = [0u64; 5];
            let mut name = "";
            for (i, mode) in Mode::ALL.iter().enumerate() {
                let report = run_workload(*mode, ctor(), &request).expect("run");
                cycles[i] = report.cycles();
                name = report.workload;
            }
            rows.push(Row {
                workload: name,
                cycles,
            });
        }
        rows
    }

    /// Geomean full-system overhead across workloads (the paper's 8.1%).
    #[must_use]
    pub fn geomean_full_overhead(rows: &[Row]) -> f64 {
        geomean(&rows.iter().map(|r| 1.0 + r.overhead(4)).collect::<Vec<_>>()) - 1.0
    }
}

/// Table 6: program execution statistics under the full system.
pub mod table6 {
    use super::{paper_workloads, Mode};
    use erebor::runner::run_workload;

    /// One workload's statistics row.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Workload name.
        pub workload: &'static str,
        /// Page-fault exits per second.
        pub pf_rate: f64,
        /// Timer exits per second.
        pub timer_rate: f64,
        /// `#VE` exits per second.
        pub ve_rate: f64,
        /// EMCs per second.
        pub emc_rate: f64,
        /// Serve time (simulated seconds).
        pub time: f64,
        /// Confined logical MB.
        pub conf_mb: u64,
        /// Common logical MB.
        pub com_mb: u64,
        /// Initialization overhead vs native (fraction).
        pub init_overhead: f64,
    }

    impl Row {
        /// Total sandbox exits per second.
        #[must_use]
        pub fn total_rate(&self) -> f64 {
            self.pf_rate + self.timer_rate + self.ve_rate
        }
    }

    /// Run every workload under the full system and collect rates.
    ///
    /// # Panics
    /// Panics on platform failures (bench binary context).
    #[must_use]
    pub fn run() -> Vec<Row> {
        let mut rows = Vec::new();
        for (ctor, request) in paper_workloads() {
            let native = run_workload(Mode::Native, ctor(), &request).expect("native");
            let full = run_workload(Mode::Full, ctor(), &request).expect("full");
            let d = &full.serve;
            rows.push(Row {
                workload: full.workload,
                pf_rate: full.rate(d.monitor.sandbox_pf_exits),
                timer_rate: full.rate(d.monitor.sandbox_timer_exits),
                ve_rate: full.rate(d.monitor.sandbox_ve_exits),
                emc_rate: full.rate(d.monitor.emc_calls),
                time: full.seconds(),
                conf_mb: full.params.logical_private >> 20,
                com_mb: full.params.logical_shared >> 20,
                init_overhead: full.init_cycles as f64 / native.init_cycles.max(1) as f64 - 1.0,
            });
        }
        rows
    }
}

/// Fig. 10: background server throughput across file sizes.
pub mod fig10 {
    use super::{Mode, Platform};
    use erebor_workloads::servers;

    /// One (server, size) pair.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// "openssh" or "nginx".
        pub server: &'static str,
        /// File size in bytes.
        pub size: u64,
        /// Native throughput (bytes per simulated cycle).
        pub native_tput: f64,
        /// Erebor throughput.
        pub erebor_tput: f64,
    }

    impl Row {
        /// Relative throughput (the Fig. 10 y-axis).
        #[must_use]
        pub fn relative(&self) -> f64 {
            self.erebor_tput / self.native_tput
        }
    }

    fn requests_for(size: u64) -> u64 {
        // Keep total transferred volume roughly constant across sizes.
        (32 * 1024 * 1024 / size).clamp(2, 256)
    }

    /// Run the sweep for both servers under both configurations.
    ///
    /// # Panics
    /// Panics on platform failures (bench binary context).
    #[must_use]
    pub fn run() -> Vec<Row> {
        let mut rows = Vec::new();
        type ServerFn = fn(
            &mut dyn erebor_libos::api::Sys,
            u64,
            u64,
        ) -> Result<servers::TransferResult, erebor_libos::api::SysError>;
        for (server, f) in [
            ("openssh", servers::openssh as ServerFn),
            ("nginx", servers::nginx as ServerFn),
        ] {
            for size in servers::fig10_sizes() {
                let reqs = requests_for(size);
                let measure = |mode: Mode| -> f64 {
                    let mut p = Platform::boot(mode).expect("boot");
                    let pid = p.spawn_native().expect("spawn");
                    let mut h = p.proc(pid);
                    let r = f(&mut h, size, reqs).expect("serve");
                    r.bytes_per_cycle
                };
                rows.push(Row {
                    server,
                    size,
                    native_tput: measure(Mode::Native),
                    erebor_tput: measure(Mode::Full),
                });
            }
        }
        rows
    }
}

/// §9.2 memory-saving claim: common sharing across sandboxes.
pub mod memsave {
    use super::{Mode, Platform};
    use erebor_workloads::llm::LlmInference;
    use erebor_workloads::{SandboxedWorkload, Workload};

    /// The memory comparison for N concurrent instances.
    #[derive(Debug, Clone)]
    pub struct Report {
        /// Instances deployed.
        pub instances: u64,
        /// Logical GB with Erebor's common sharing.
        pub shared_gb: f64,
        /// Logical GB with native per-process replication.
        pub replicated_gb: f64,
        /// Physical frames actually holding common data (shared once).
        pub common_frames: u64,
        /// Physical frames holding confined data (per sandbox).
        pub confined_frames: u64,
    }

    impl Report {
        /// Fraction of memory saved by sharing.
        #[must_use]
        pub fn saving(&self) -> f64 {
            1.0 - self.shared_gb / self.replicated_gb
        }
    }

    /// Deploy `n` llama instances in one CVM and account memory.
    ///
    /// # Panics
    /// Panics on platform failures (bench binary context).
    #[must_use]
    pub fn run(n: u64) -> Report {
        let mut platform = Platform::boot(Mode::Full).expect("boot");
        let params = LlmInference::default().params();
        let mut services = Vec::new();
        for _ in 0..n {
            let svc = platform
                .deploy(
                    Box::new(SandboxedWorkload::new(LlmInference::default())),
                    1 << 20,
                )
                .expect("deploy");
            services.push(svc);
        }
        let conf_logical = params.logical_private as f64 / (1u64 << 30) as f64;
        let com_logical = params.logical_shared as f64 / (1u64 << 30) as f64;
        let common_frames = platform
            .cvm
            .monitor
            .frames
            .count_kind(|k| matches!(k, erebor_core::policy::FrameKind::Common { .. }));
        let confined_frames = platform
            .cvm
            .monitor
            .frames
            .count_kind(|k| matches!(k, erebor_core::policy::FrameKind::Confined { .. }));
        Report {
            instances: n,
            shared_gb: n as f64 * conf_logical + com_logical,
            replicated_gb: n as f64 * (conf_logical + com_logical),
            common_frames,
            confined_frames,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }
}
