//! The Fig. 9 mode matrix: every workload runs in every configuration, and
//! the protection levels order the overhead as the paper's ablation does.

use erebor::ekernel::nr;
use erebor::elibos::api::{Sys, SysError};
use erebor::runner::run_workload;
use erebor::{Mode, Platform};
use erebor_workloads::llm::LlmInference;
use erebor_workloads::retrieval::Retrieval;
use erebor_workloads::Workload;

fn retrieval() -> Box<dyn Workload> {
    Box::new(Retrieval::default())
}

#[test]
fn all_modes_run_retrieval() {
    for mode in Mode::ALL {
        let r = run_workload(mode, retrieval(), b"q=2000;5").expect("run");
        assert!(r.cycles() > 0, "{mode:?} produced no work");
        assert!(
            String::from_utf8_lossy(&r.output).contains("queries=2000"),
            "{mode:?} output wrong"
        );
    }
}

#[test]
fn overheads_are_ordered_and_in_band() {
    let native = run_workload(Mode::Native, retrieval(), b"q=8000;5")
        .expect("run")
        .cycles() as f64;
    let libos = run_workload(Mode::LibOsOnly, retrieval(), b"q=8000;5")
        .expect("run")
        .cycles() as f64;
    let full = run_workload(Mode::Full, retrieval(), b"q=8000;5")
        .expect("run")
        .cycles() as f64;
    let ovh_libos = libos / native - 1.0;
    let ovh_full = full / native - 1.0;
    assert!(
        ovh_full > 0.0,
        "full must cost more than native ({ovh_full:.3})"
    );
    assert!(
        ovh_full > ovh_libos,
        "full ({ovh_full:.3}) must exceed LibOS-only ({ovh_libos:.3})"
    );
    // Paper Fig. 9 band is 4.5%–13.2%; allow simulator tolerance.
    assert!(
        (0.01..0.30).contains(&ovh_full),
        "full overhead {ovh_full:.3} outside a plausible band"
    );
}

#[test]
fn ablations_sit_between_libos_and_full() {
    let native = run_workload(Mode::Native, retrieval(), b"q=8000;5")
        .expect("run")
        .cycles() as f64;
    let libos = run_workload(Mode::LibOsOnly, retrieval(), b"q=8000;5")
        .expect("run")
        .cycles() as f64;
    let mmu = run_workload(Mode::LibOsMmu, retrieval(), b"q=8000;5")
        .expect("run")
        .cycles() as f64;
    let exit = run_workload(Mode::LibOsExit, retrieval(), b"q=8000;5")
        .expect("run")
        .cycles() as f64;
    let full = run_workload(Mode::Full, retrieval(), b"q=8000;5")
        .expect("run")
        .cycles() as f64;
    assert!(mmu >= libos * 0.999, "MMU adds over LibOS-only");
    assert!(exit >= libos * 0.999, "Exit adds over LibOS-only");
    assert!(
        full >= mmu.max(exit) * 0.999,
        "Full dominates each ablation"
    );
    assert!(native <= libos, "native is the cheapest");
}

#[test]
fn llm_runs_under_full_protection_with_events() {
    let r = run_workload(
        Mode::Full,
        Box::new(LlmInference::default()),
        b"gen=12;translate this text please",
    )
    .expect("run");
    let d = &r.serve;
    assert!(d.monitor.sandbox_timer_exits > 0, "timer exits");
    assert!(d.monitor.sandbox_ve_exits > 0, "#VE exits");
    assert!(d.monitor.sandbox_pf_exits > 0, "common-page faults");
    assert!(d.monitor.emc_calls > 0, "EMCs");
    assert!(r.seconds() > 0.05, "run long enough for rates");
    // Rates should be in the Table 6 neighbourhood (order of magnitude).
    let timer_rate = r.rate(d.monitor.sandbox_timer_exits);
    assert!(
        (100.0..5000.0).contains(&timer_rate),
        "timer rate {timer_rate:.0}/s far from Table 6"
    );
}

/// A plain process that maps four pages and writes each leaves the
/// platform auditable in every mode: the kernel's native page tables are
/// its own, so the monitor's frame table does not claim them. And
/// `mprotect`, which the kernel does not implement, answers `ENOSYS` in
/// every mode.
#[test]
fn plain_process_audits_clean_and_mprotect_is_enosys_in_every_mode() {
    const MPROTECT: u64 = 10; // Linux x86-64
    const ENOSYS: i64 = -38;
    for mode in Mode::ALL {
        let mut p = Platform::boot(mode).expect("boot");
        let pid = p.spawn_native().expect("spawn");
        let mut proc = p.proc(pid);
        let base = proc
            .syscall(nr::MMAP, [0, 4 * 4096, 3, 0, 0, 0])
            .expect("mmap");
        for page in 0..4 {
            proc.write_mem(base + page * 4096, b"data").expect("write");
        }
        let downgrade = proc.syscall(MPROTECT, [base, 4 * 4096, 1, 0, 0, 0]);
        assert_eq!(downgrade, Err(SysError::Errno(ENOSYS)), "{mode:?}");
        let report = p.audit();
        assert!(report.is_clean(), "{mode:?}: {}", report.json());
    }
}
