//! Determinism: the entire platform is a pure function of its seeds — two
//! identical runs produce identical cycle counts, counters, outputs and
//! wire bytes.

use erebor::ecore::emc::{EmcError, EmcRequest};
use erebor::ehw::cpu::{CpuMode, Domain};
use erebor::ehw::fault::Fault;
use erebor::ehw::inject::{self, InjectionPoint, Injector};
use erebor::ekernel::{nr, Pid};
use erebor::elibos::api::Sys;
use erebor::runner::run_workload;
use erebor::{BootConfig, Bucket, Mode, Platform};
use erebor_core::config::ExecConfig;
use erebor_workloads::hello::HelloWorld;
use erebor_workloads::retrieval::Retrieval;

#[test]
fn identical_runs_are_bit_identical() {
    let run = || {
        let r = run_workload(Mode::Full, Box::new(Retrieval::default()), b"q=3000;9").expect("run");
        (
            r.cycles(),
            r.init_cycles,
            r.output.clone(),
            r.serve.monitor.emc_calls,
            r.serve.monitor.sandbox_pf_exits,
            r.serve.kernel.page_faults,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_change_keys_but_not_results() {
    let run = |seed: u64| {
        let cfg = BootConfig {
            seed,
            config: ExecConfig::new(Mode::Full),
            ..BootConfig::default()
        };
        let mut p = Platform::boot_with(cfg).expect("boot");
        let mut svc = p
            .deploy(Box::new(HelloWorld { len: 5 }), 4096)
            .expect("deploy");
        let mut client = p.connect_client(&svc, [1; 32]).expect("attest");
        p.client_send(&svc, &mut client, b"r").expect("send");
        let pid = svc.pid;
        let req = svc.os.input(&mut p.proc(pid)).expect("input");
        let res = svc
            .program
            .serve(&mut svc.os, &mut p.proc(pid), &req)
            .expect("serve");
        svc.os.output(&mut p.proc(pid), &res).expect("output");
        let record = p.cvm.monitor.fetch_output(svc.sandbox).expect("record");
        let reply = client.open_result(&record).expect("open");
        (reply, record, p.cvm.tdx.attest.mrtd())
    };
    let (r1, w1, m1) = run(1);
    let (r2, w2, m2) = run(2);
    // Application results are seed-independent...
    assert_eq!(r1, r2);
    // ...but keys and measurements (and thus wire bytes) differ.
    assert_ne!(
        w1, w2,
        "different root seeds must give different ciphertexts"
    );
    assert_ne!(m1, m2, "firmware filler differs with seed");
}

/// Boot with an explicit root seed, drive one full workload round trip
/// (deploy → attest → send → serve → fetch), and return every observable
/// as bytes: the Debug-formatted platform snapshot (all monitor, kernel
/// and TDX counters plus the cycle count), the decrypted reply, and the
/// encrypted wire record the host saw.
fn seeded_trace(seed: u64) -> (String, Vec<u8>, Vec<u8>) {
    let cfg = BootConfig {
        seed,
        config: ExecConfig::new(Mode::Full),
        ..BootConfig::default()
    };
    let mut p = Platform::boot_with(cfg).expect("boot");
    let mut svc = p
        .deploy(
            Box::new(erebor_workloads::SandboxedWorkload::new(
                Retrieval::default(),
            )),
            1 << 20,
        )
        .expect("deploy");
    let mut client = p.connect_client(&svc, [9; 32]).expect("attest");
    let reply = p
        .serve_request(&mut svc, &mut client, b"q=2000;4")
        .expect("serve");
    let record = p
        .cvm
        .tdx
        .host
        .observed
        .last()
        .cloned()
        .unwrap_or_default();
    (format!("{:?}", p.snapshot()), reply, record)
}

#[test]
fn same_seed_full_trace_is_byte_identical() {
    // The strongest determinism statement the simulator can make: boot +
    // workload under the same seed reproduces the *entire* observable
    // state byte for byte — every counter in the monitor/kernel/TDX
    // snapshot, the application output, and the ciphertext on the wire.
    let (snap1, out1, wire1) = seeded_trace(0xeb0e);
    let (snap2, out2, wire2) = seeded_trace(0xeb0e);
    assert_eq!(snap1, snap2, "snapshot Debug trace diverged");
    assert_eq!(out1, out2, "workload output diverged");
    assert_eq!(wire1, wire2, "wire record diverged");
    assert!(!wire1.is_empty(), "host observed no wire traffic");
}

#[test]
fn different_seeds_diverge_on_the_wire_but_not_in_results() {
    // Negative control for the test above: a different root seed must
    // actually change the key-dependent observables (otherwise the
    // byte-identical check would pass vacuously on a constant), while
    // deterministic application results and scheduling stay identical.
    let (snap1, out1, wire1) = seeded_trace(1);
    let (snap2, out2, wire2) = seeded_trace(2);
    assert_eq!(out1, out2, "application results must be seed-independent");
    assert_eq!(
        snap1, snap2,
        "counters/cycles must be seed-independent (seed feeds keys, not scheduling)"
    );
    assert_ne!(wire1, wire2, "different seeds must give different ciphertexts");
}

/// PR 4 acceptance: the event trace and the cycle-attribution profile
/// are part of the deterministic observable state. Two identical runs
/// must export byte-identical trace JSON, and the attribution buckets
/// must sum exactly to the cycle total (every charged cycle lands in a
/// bucket by construction — no residual).
#[test]
fn trace_json_is_byte_identical_and_buckets_sum_to_total() {
    let run = |seed: u64| {
        let cfg = BootConfig {
            seed,
            config: ExecConfig::new(Mode::Full),
            ..BootConfig::default()
        };
        let mut p = Platform::boot_with(cfg).expect("boot");
        let mut svc = p
            .deploy(Box::new(HelloWorld { len: 4 }), 4096)
            .expect("deploy");
        let mut client = p.connect_client(&svc, [5; 32]).expect("attest");
        p.serve_request(&mut svc, &mut client, b"hi").expect("serve");

        let attr = p.cvm.machine.cycles.attribution();
        assert_eq!(
            attr.total(),
            p.cvm.machine.cycles.total(),
            "attribution buckets must sum to the machine's cycle total"
        );
        assert!(attr.monitor > 0, "gates/EMCs must charge the monitor bucket");
        assert!(attr.tdcall > 0, "attestation must charge the tdcall bucket");
        assert!(
            p.cvm.machine.trace.recorded() > 0,
            "the round trip must record trace events"
        );
        p.trace_json()
    };
    let a = run(0xeb07);
    let b = run(0xeb07);
    assert_eq!(a, b, "same-seed trace JSON must be byte-identical");
    assert!(
        a.contains("\"gate_enter\"") && a.contains("\"gate_exit\""),
        "trace must hold both gate events"
    );
    // Negative control: the trace reflects scheduling, not key material —
    // a different seed reproduces the same schedule.
    let c = run(0xeb08);
    assert_eq!(a, c, "seed feeds keys, not scheduling");
}

/// The driving core's `(mode, domain, bucket)`.
fn core_context(p: &Platform) -> (CpuMode, Domain, Bucket) {
    let c = &p.cvm.machine.cpus[p.active_cpu()];
    (c.mode, c.domain, p.cvm.machine.cycles.bucket())
}

/// Every scoped context switch hands the caller's bucket back: a native
/// process's `cpuid`, trapped into the kernel's own `#VE` handler when
/// no monitor runs, returns to user code still charging the sandbox
/// bucket, so the `iret` and what follows are billed to the process.
#[test]
fn native_cpuid_leaves_the_bucket_as_it_found_it() {
    for mode in [Mode::Native, Mode::LibOsOnly] {
        let mut p = Platform::boot(mode).expect("boot");
        let pid = p.spawn_native().expect("spawn");
        p.proc(pid).syscall(nr::GETPID, [0; 6]).expect("getpid");
        let user = core_context(&p);
        assert_eq!(user.2, Bucket::Sandbox, "{mode:?}: user bucket");
        p.proc(pid).cpuid(1).expect("cpuid");
        assert_eq!(core_context(&p), user, "{mode:?}");
    }
}

/// A syscall through a pid the kernel does not know fails while the
/// driver schedules it, and the failed scheduling entry still restores
/// the core's mode, domain and bucket.
#[test]
fn syscall_through_an_unknown_pid_restores_the_core() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let pid = p.spawn_native().expect("spawn");
    p.proc(pid).syscall(nr::GETPID, [0; 6]).expect("getpid");
    let before = core_context(&p);
    assert_eq!(before, (CpuMode::User, Domain::User, Bucket::Sandbox));
    assert!(p.proc(Pid(u32::MAX)).syscall(nr::GETPID, [0; 6]).is_err());
    assert_eq!(core_context(&p), before);
}

/// Faults every `wrmsr` while installed.
struct FaultEveryWrmsr;

impl Injector for FaultEveryWrmsr {
    fn inject_fault(&mut self, p: InjectionPoint) -> Option<Fault> {
        matches!(p, InjectionPoint::Wrmsr { .. })
            .then_some(Fault::GeneralProtection("injected fault"))
    }
}

/// An EMC whose gate entry faults on the PKRS grant returns the fault
/// and the caller's bucket.
#[test]
fn emc_with_a_faulted_gate_entry_returns_the_callers_bucket() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    p.enter_kernel_mode();
    let before = p.cvm.machine.cycles.bucket();
    p.install_injector(inject::handle(FaultEveryWrmsr));
    let cpu = p.active_cpu();
    let r = p
        .cvm
        .monitor
        .emc(&mut p.cvm.machine, &mut p.cvm.tdx, cpu, EmcRequest::Nop);
    p.clear_injector();
    assert!(matches!(r, Err(EmcError::Fault(_))), "{r:?}");
    assert_eq!(p.cvm.machine.cycles.bucket(), before);
}

#[test]
fn counters_are_stable_across_reboots_of_same_seed() {
    let snap = || {
        let mut p = Platform::boot(Mode::Full).expect("boot");
        let mut svc = p
            .deploy(Box::new(HelloWorld::default()), 4096)
            .expect("deploy");
        let mut c = p.connect_client(&svc, [3; 32]).expect("attest");
        p.serve_request(&mut svc, &mut c, b"x").expect("serve");
        let s = p.snapshot();
        (
            s.cycles,
            s.monitor.emc_calls,
            s.tdx.tdcalls,
            s.kernel.syscalls,
        )
    };
    assert_eq!(snap(), snap());
}
