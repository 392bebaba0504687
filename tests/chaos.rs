//! Cross-crate chaos harness tests (ISSUE 3 acceptance).
//!
//! Exercises the deterministic fault-injection engine end to end: the
//! state auditor flags the states the pre-fix gate bugs produced (red),
//! the fixed gate survives the same adversity (green), random
//! seeded interleavings across 2–4 cores never let the kernel observe a
//! monitor-mode PKRS, and a ≥500-case fixed-seed campaign is clean and
//! replays byte-identically.

use erebor::eanalyze::detect_races;
use erebor::ecore::policy;
use erebor::ehw::cpu::Domain;
use erebor::ehw::fault::{AccessKind, Fault};
use erebor::ehw::idt::vector;
use erebor::ehw::inject::{handle, InjectionPoint, Injector};
use erebor::ehw::layout;
use erebor::ehw::regs::Msr;
use erebor::ehw::VirtAddr;
use erebor::TraceEvent;
use erebor::etdx::tdcall::{tdcall, TdcallError, TdcallLeaf, TdcallResult};
use erebor::{Mode, Platform};
use erebor_chaos::{case_seed, exec_case, run, ChaosConfig, ChaosWorld};
use erebor_testkit::collection;
use erebor_testkit::prelude::*;

/// One-shot injector faulting the next operation at a chosen point.
struct Bomb {
    armed: bool,
    wrmsr: bool,
    branch: bool,
}

impl Injector for Bomb {
    fn inject_fault(&mut self, p: InjectionPoint) -> Option<Fault> {
        let hit = match p {
            InjectionPoint::Wrmsr { .. } => self.wrmsr,
            InjectionPoint::DirectBranch { .. } => self.branch,
            _ => false,
        };
        if self.armed && hit {
            self.armed = false;
            return Some(Fault::GeneralProtection("injected fault"));
        }
        None
    }
}

/// Injector failing every tdcall with a host-contention status.
struct BusyTdcall;

impl Injector for BusyTdcall {
    fn tdcall_status(&mut self, _cpu: usize) -> Option<u64> {
        Some(erebor::etdx::tdcall::status::OPERAND_BUSY)
    }
}

/// The checks the state auditor fails on the world, in report order.
fn failed_checks(w: &ChaosWorld) -> Vec<&'static str> {
    w.audit().findings.iter().map(|f| f.check).collect()
}

/// Assert that the world audits clean, printing the report if not.
fn assert_clean(w: &ChaosWorld) {
    let report = w.audit();
    assert!(report.is_clean(), "{}", report.json());
}

/// Injector losing every TLB-shootdown IPI in flight.
struct DropAllIpis;

impl Injector for DropAllIpis {
    fn drop_shootdown_ipi(&mut self, _initiator: usize, _target: usize) -> bool {
        true
    }
}

// --- satellite 1: transactional gate entry/exit ---------------------

/// A faulted PKRS grant mid-`enter` must leave the core exactly where
/// the caller had it (the pre-fix gate stranded it in Monitor domain
/// with the gate disarmed).
#[test]
fn failed_enter_rolls_back_completely() {
    let mut w = ChaosWorld::new(2);
    let pre_domain = w.machine.cpus[0].domain;
    let pre_rip = w.machine.cpus[0].ctx.rip;
    let pre_pkrs = w.machine.cpus[0].msr(Msr::Pkrs);

    w.machine.set_injector(handle(Bomb {
        armed: true,
        wrmsr: true,
        branch: false,
    }));
    w.gate.enter(&mut w.machine, 0).unwrap_err();
    w.machine.clear_injector();

    assert!(!w.gate.in_emc(0));
    assert_eq!(w.machine.cpus[0].domain, pre_domain);
    assert_eq!(w.machine.cpus[0].ctx.rip, pre_rip);
    assert_eq!(w.machine.cpus[0].msr(Msr::Pkrs), pre_pkrs);
    assert_clean(&w);
}

/// A faulted return branch mid-`exit` must leave the core inside the
/// EMC (monitor PKRS, Monitor domain, gate still armed) so the exit can
/// be retried — the pre-fix gate had already flipped `in_emc` off.
#[test]
fn failed_exit_keeps_core_inside_emc() {
    let mut w = ChaosWorld::new(2);
    w.gate.enter(&mut w.machine, 0).unwrap();

    w.machine.set_injector(handle(Bomb {
        armed: true,
        wrmsr: false,
        branch: true,
    }));
    w.gate
        .exit(&mut w.machine, 0, layout::KERNEL_BASE)
        .unwrap_err();
    w.machine.clear_injector();

    assert!(w.gate.in_emc(0));
    assert_eq!(w.machine.cpus[0].domain, Domain::Monitor);
    assert_eq!(w.machine.cpus[0].pkrs(), policy::monitor_mode_pkrs());
    assert_clean(&w);
    // And the retry goes through.
    w.gate.exit(&mut w.machine, 0, layout::KERNEL_BASE).unwrap();
    assert_clean(&w);
}

// --- satellite 2: nested-interrupt PKRS restore ----------------------

/// Red: the state the pre-fix unbalanced restore produced — PKRS put
/// back to the normal-mode value while the core is still inside the EMC
/// — is flagged by the auditor's `emc-consistency` check.
#[test]
fn early_pkrs_restore_inside_emc_is_flagged() {
    let mut w = ChaosWorld::new(2);
    w.gate.enter(&mut w.machine, 0).unwrap();
    assert_clean(&w);

    // Simulate the old bug's aftermath: an inner interrupt return
    // restored the saved PKRS at the wrong nesting depth.
    w.machine
        .restore_msr(0, Msr::Pkrs, policy::normal_mode_pkrs().0);
    assert_eq!(failed_checks(&w), ["emc-consistency"]);

    // Undo and the audit passes again.
    w.machine
        .restore_msr(0, Msr::Pkrs, policy::monitor_mode_pkrs().0);
    assert_clean(&w);
}

/// Red: a kernel-domain core holding a monitor-mode PKRS (what the
/// pre-fix interrupt gate leaked to the preempting handler) trips the
/// auditor's `msr-pinning` check.
#[test]
fn kernel_domain_with_monitor_pkrs_is_flagged() {
    let mut w = ChaosWorld::new(2);
    assert_eq!(w.machine.cpus[1].domain, Domain::Kernel);
    w.machine
        .restore_msr(1, Msr::Pkrs, policy::monitor_mode_pkrs().0);
    let report = w.audit();
    let checks: Vec<&str> = report.findings.iter().map(|f| f.check).collect();
    assert_eq!(checks, ["msr-pinning"]);
    assert!(
        report.findings[0].detail.contains("cpu 1"),
        "{}",
        report.json()
    );

    w.machine
        .restore_msr(1, Msr::Pkrs, policy::normal_mode_pkrs().0);
    assert_clean(&w);
}

/// Green: the fixed gate keeps the PKRS revoked across nested
/// interrupts and restores it only at the matching return.
#[test]
fn nested_interrupts_restore_at_matching_depth_only() {
    let mut w = ChaosWorld::new(2);
    w.gate.enter(&mut w.machine, 0).unwrap();

    // Each gate half runs inside a hardware delivery and its `iret`, so
    // the gate's depth pairs with the hardware's at every audit.
    // Outer preemption: save + revoke.
    let (_, outer) = w.machine.deliver_interrupt(0, vector::TIMER).unwrap();
    w.gate.interrupt_entry(&mut w.machine, 0).unwrap();
    assert!(w.gate.saved_pkrs(0).is_some());
    assert_clean(&w);

    // Inner (nested) interrupt: return at the inner depth must NOT
    // restore the saved value.
    let (_, inner) = w.machine.deliver_interrupt(0, vector::TIMER).unwrap();
    w.gate.interrupt_entry(&mut w.machine, 0).unwrap();
    w.gate.interrupt_return(&mut w.machine, 0).unwrap();
    w.machine.iret(0, inner).unwrap();
    assert!(w.gate.saved_pkrs(0).is_some());
    assert_ne!(w.machine.cpus[0].pkrs(), policy::monitor_mode_pkrs());
    assert_clean(&w);

    // The matching outer return restores it.
    w.gate.interrupt_return(&mut w.machine, 0).unwrap();
    w.machine.iret(0, outer).unwrap();
    assert!(w.gate.saved_pkrs(0).is_none());
    assert_eq!(w.machine.cpus[0].pkrs(), policy::monitor_mode_pkrs());
    assert_clean(&w);
}

// --- satellite 3: tdcall error completions, not panics ---------------

/// An injected `TDX_OPERAND_BUSY` completion surfaces as
/// `TdcallResult::Failed` (the pre-fix path panicked on unexpected
/// statuses) and the same leaf succeeds once the host backs off.
#[test]
fn injected_tdcall_failure_is_surfaced_not_panicked() {
    let mut w = ChaosWorld::new(2);
    let frame = w.machine.mem.alloc_frame().unwrap();
    w.module.sept.accept_private(frame);
    // `tdcall` is a sensitive instruction: issue it from the monitor.
    w.gate.enter(&mut w.machine, 0).unwrap();

    w.machine.set_injector(handle(BusyTdcall));
    let r = tdcall(
        &mut w.module,
        &mut w.machine,
        0,
        TdcallLeaf::MapGpa {
            frame,
            shared: true,
        },
    )
    .unwrap();
    assert_eq!(r.error(), Some(TdcallError::Busy));
    // The failed completion changed nothing: the frame is still private.
    assert!(!w.module.sept.is_shared(frame));
    w.machine.clear_injector();

    let r = tdcall(
        &mut w.module,
        &mut w.machine,
        0,
        TdcallLeaf::MapGpa {
            frame,
            shared: true,
        },
    )
    .unwrap();
    assert!(matches!(r, TdcallResult::Ok));
    assert!(w.module.sept.is_shared(frame));
}

// --- TLB staleness accounting ----------------------------------------

/// A dropped shootdown IPI is not a violation — the machine records the
/// staleness — and a re-issued shootdown that lands clears it.
#[test]
fn dropped_ipi_is_recorded_then_cleared_by_landing_shootdown() {
    let mut w = ChaosWorld::new(2);
    let va = VirtAddr(layout::KERNEL_BASE.0 + 0x20_0000);
    // Warm both cores' TLBs on a data page.
    for cpu in 0..2 {
        w.machine
            .probe(cpu, va, erebor::ehw::fault::AccessKind::Read)
            .unwrap();
    }

    w.machine.set_injector(handle(DropAllIpis));
    w.machine.tlb_shootdown(0, va).unwrap();
    assert!(
        w.machine.pending_shootdowns().contains(&(1, va.0 >> 12)),
        "dropped IPI must be recorded as pending staleness"
    );
    assert_clean(&w);
    w.machine.clear_injector();

    w.machine.tlb_shootdown(0, va).unwrap();
    assert!(w.machine.pending_shootdowns().is_empty());
    assert_clean(&w);
}

// --- satellite 4: property test over random interleavings ------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Random seeded interleavings of gate entries/exits, interrupts,
    // shootdowns, tdcalls and allocations across 2–4 cores — with
    // faults injected throughout — never fail an audit or a driver
    // check; in particular the kernel never observes a monitor-mode
    // PKRS and `in_emc` stays consistent with the live PKRS. Failures
    // shrink to a minimal op trace.
    #[test]
    fn random_interleavings_preserve_confinement(
        seed in any::<u64>(),
        ops in collection::vec(any::<u8>(), 1..160),
    ) {
        let cfg = ChaosConfig::default();
        let out = exec_case(&cfg, seed, &ops);
        prop_assert!(
            out.violation.is_none(),
            "violation: {:?}\ntrace: {:?}",
            out.violation,
            out.trace
        );
    }
}

// --- fixed-seed campaign: clean and byte-identical -------------------

/// ≥500-case fixed-seed campaign finds no violations, and running the
/// same seed again replays byte-identically (same digest, same event
/// count). The default 500-case campaign's digest and event count are
/// pinned.
#[test]
fn fixed_seed_500_case_campaign_is_clean_and_replays() {
    // Honors EREBOR_CHAOS_SEED / EREBOR_CHAOS_CASES / EREBOR_CHAOS_OPS
    // (the CI stage sets the case budget), with the acceptance floor of
    // 500 cases enforced.
    let mut cfg = ChaosConfig::from_env();
    cfg.cases = cfg.cases.max(500);
    let a = run(&cfg);
    assert!(a.passed(), "{}", a.summary());
    assert!(a.total_events > 0);

    let b = run(&cfg);
    assert_eq!(a.digest, b.digest, "same seed must replay byte-identically");
    assert_eq!(a.total_events, b.total_events);
    let default_campaign = ChaosConfig {
        cases: 500,
        ..ChaosConfig::default()
    };
    if cfg == default_campaign {
        // The default-seed schedule. A checker reads state and never
        // draws from the plan, so changing what is checked moves neither
        // number; a change to the world, the plan or the op decoder does.
        assert_eq!((a.digest, a.total_events), (0x1c64_6c41_fca7_39b3, 59_785));
    }

    // And per-case replays are exact, including the op→event schedule.
    let cs = case_seed(cfg.seed, 7);
    let ops: Vec<u8> = (0..64).map(|i| i * 3).collect();
    assert_eq!(exec_case(&cfg, cs, &ops), exec_case(&cfg, cs, &ops));
}

// --- platform wiring --------------------------------------------------

/// The platform exposes the injector hook-up: a chaos injector
/// installed through `Platform::install_injector` reaches the machine's
/// choke points, and `clear_injector` detaches it.
#[test]
fn platform_injector_wiring_reaches_the_machine() {
    let mut p = Platform::boot(Mode::Full).unwrap();
    p.enter_kernel_mode();
    let va = VirtAddr(layout::KERNEL_BASE.0);
    let cores = p.cvm.machine.cpus.len();
    for cpu in 0..cores {
        let _ = p.cvm.machine.probe(cpu, va, erebor::ehw::fault::AccessKind::Read);
    }

    p.install_injector(handle(DropAllIpis));
    p.cvm.machine.tlb_shootdown(0, va).unwrap();
    assert!(
        !p.cvm.machine.pending_shootdowns().is_empty(),
        "installed injector must reach the shootdown path"
    );

    p.clear_injector();
    p.cvm.machine.tlb_shootdown(0, va).unwrap();
    assert!(p.cvm.machine.pending_shootdowns().is_empty());
}

// --- PR 4: machine-trace dump alongside chaos failures -----------------

/// A case driven with injections must capture the machine's cycle-stamped
/// trace tail, and that tail must contain the injected `ChaosFault`
/// events — the dump situates a violation in hardware time.
#[test]
fn case_outcome_captures_machine_trace_with_injected_faults() {
    let cfg = ChaosConfig {
        rates: erebor_chaos::ChaosRates {
            fault: 1000, // every instrumented point faults
            ..erebor_chaos::ChaosRates::default()
        },
        ..ChaosConfig::default()
    };
    let cs = case_seed(cfg.seed, 0);
    let ops: Vec<u8> = (0..96u32).map(|i| i as u8).collect();
    let outcome = exec_case(&cfg, cs, &ops);

    assert!(
        !outcome.machine_trace.is_empty(),
        "the case must capture the machine's trace tail"
    );
    assert!(
        outcome
            .trace
            .iter()
            .any(|e| matches!(e, erebor_chaos::ChaosEvent::Fault(_))),
        "rate 1000 must inject faults into the schedule"
    );
    assert!(
        outcome
            .machine_trace
            .iter()
            .any(|r| matches!(r.event, erebor::TraceEvent::ChaosFault { .. })),
        "the machine trace tail must contain the injected fault events: {:?}",
        outcome.machine_trace
    );
    // Cycle stamps are monotone in sequence order (merged across cores).
    for w in outcome.machine_trace.windows(2) {
        assert!(w[0].seq < w[1].seq, "trace tail must be seq-ordered");
    }
}

/// The failure report prints the machine-trace tail: a reader of a chaos
/// failure sees the faulting event without re-running the case.
#[test]
fn failure_dump_contains_the_faulting_event() {
    let cfg = ChaosConfig {
        rates: erebor_chaos::ChaosRates {
            fault: 1000,
            ..erebor_chaos::ChaosRates::default()
        },
        ..ChaosConfig::default()
    };
    let cs = case_seed(cfg.seed, 7);
    let ops: Vec<u8> = (0..64u32).map(|i| (i * 5) as u8).collect();
    let outcome = exec_case(&cfg, cs, &ops);
    // Build the failure exactly the way `run` does from a replayed case
    // (campaigns are clean, so the violation itself is synthesized).
    let report = erebor_chaos::ChaosReport {
        seed: cfg.seed,
        cases: 1,
        total_events: outcome.trace.len() as u64,
        digest: 0,
        failures: vec![erebor_chaos::CaseFailure {
            case: 7,
            case_seed: cs,
            ops,
            violation: erebor_chaos::Violation {
                invariant: "dump-format",
                detail: "synthesized to exercise the failure dump".to_owned(),
            },
            trace: outcome.trace,
            machine_trace: outcome.machine_trace,
        }],
    };
    let s = report.summary();
    assert!(s.contains("machine trace (last"), "summary must dump the tail:\n{s}");
    assert!(
        s.contains("ChaosFault"),
        "dump must contain the faulting machine event:\n{s}"
    );
    assert!(s.contains("EREBOR_CHAOS_SEED="), "dump must keep the replay line");
}

// --- access campaign: register faults and dropped IPIs ----------------

/// Deterministic seeded adversary for the access campaign: drops a
/// fraction of shootdown IPIs and faults a fraction of register writes,
/// drawing from a splitmix64 stream so a case replays byte-identically.
struct SeededChaos {
    state: u64,
}

impl SeededChaos {
    fn new(seed: u64) -> SeededChaos {
        SeededChaos {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn roll(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Injector for SeededChaos {
    fn inject_fault(&mut self, p: InjectionPoint) -> Option<Fault> {
        match p {
            InjectionPoint::Wrmsr { .. } | InjectionPoint::WriteCr { .. } => {
                if self.roll() % 100 < 25 {
                    Some(Fault::GeneralProtection("chaos: register write"))
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn drop_shootdown_ipi(&mut self, _initiator: usize, _target: usize) -> bool {
        self.roll() % 100 < 30
    }
}

/// A kernel data-page VA in the `ChaosWorld` direct map (8 RW pages at
/// `KERNEL_BASE + 0x20_0000`).
fn chaos_data_va(r: u64) -> VirtAddr {
    VirtAddr(layout::KERNEL_BASE.0 + 0x20_0000 + (r % 8) * 0x1000)
}

/// Drive one seeded access case: rounds of probes, loads and stores to
/// the shared data pages with `wrmsr`/`invlpg` mixed in (run from the
/// monitor domain every third round so they pass the sensitive guard and
/// reach the injector's fault points), each round stopping at its first
/// fault, interleaved with cross-core shootdowns whose IPIs the injector
/// may drop. Returns how many register writes the injector faulted.
fn drive_access_case(w: &mut ChaosWorld, seed: u64) -> u64 {
    let cores = w.cores();
    let mut s = SeededChaos::new(seed.rotate_left(17));
    let mut injected = 0;
    for round in 0..10u32 {
        let cpu = (s.roll() as usize) % cores;
        let monitor_round = round % 3 == 0;
        if monitor_round {
            w.machine.cpus[cpu].domain = Domain::Monitor;
        }
        for _ in 0..8 {
            let r = s.roll();
            let va = chaos_data_va(r >> 8);
            let step = match r % 10 {
                0..=3 => w.machine.probe(cpu, va, AccessKind::Read),
                4 | 5 => w.machine.read_u64(cpu, va).map(drop),
                6 | 7 => w.machine.write_u64(cpu, va, r),
                8 => w
                    .machine
                    .wrmsr(cpu, Msr::Pkrs, policy::normal_mode_pkrs().0),
                _ => w.machine.invalidate_page(cpu, va),
            };
            match step {
                Ok(()) => {}
                Err(Fault::GeneralProtection("chaos: register write")) => {
                    injected += 1;
                    break;
                }
                Err(_) => break,
            }
        }
        if monitor_round {
            w.machine.cpus[cpu].domain = Domain::Kernel;
        }
        if s.roll().is_multiple_of(2) {
            let initiator = (s.roll() as usize) % cores;
            let va = chaos_data_va(s.roll());
            w.machine.cpus[initiator].domain = Domain::Monitor;
            let _ = w.machine.tlb_shootdown(initiator, va);
            w.machine.cpus[initiator].domain = Domain::Kernel;
        }
    }
    injected
}

/// ≥500-case access campaign under injected register-write faults and
/// dropped shootdown IPIs. Per case the state auditor must pass, and
/// every race-detector finding must be explained
/// by a dropped IPI. The aggregates show the adversity was real: faults
/// were injected and IPIs were dropped.
#[test]
fn access_campaign_under_register_faults_and_dropped_ipis_stays_green() {
    let cfg = ChaosConfig::from_env();
    let cases = cfg.cases.max(500);
    let (mut injected, mut dropped) = (0u64, 0u64);
    for case in 0..cases {
        let seed = case_seed(cfg.seed, case);
        let cores = 2 + (seed as usize % 3);
        let mut w = ChaosWorld::new(cores);
        w.machine.mmu_trace = true;
        w.machine.set_injector(handle(SeededChaos::new(seed)));
        injected += drive_access_case(&mut w, seed);
        w.machine.clear_injector();

        let report = w.audit();
        assert!(report.is_clean(), "case {case}: {}", report.json());

        let records = w.machine.trace.last_n(w.machine.trace.len());
        for f in detect_races(&records, cores) {
            assert!(
                f.dropped,
                "case {case}: race finding not explained by an injected drop: {f:?}"
            );
        }
        dropped += records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::IpiDropped { .. }))
            .count() as u64;
    }
    assert!(injected > 0, "campaign never saw an injected register fault");
    assert!(dropped > 0, "campaign never dropped a shootdown IPI");
}

// --- fleet campaign: coalesced shootdowns under IPI chaos -------------

/// Seeded injector for the fleet campaign: drops a deterministic
/// quarter of shootdown IPIs in flight and sprinkles spurious full
/// flushes — the adversarial host mistreating the coalesced batches.
struct FleetIpiChaos {
    rng: u64,
}

impl FleetIpiChaos {
    fn new(seed: u64) -> FleetIpiChaos {
        FleetIpiChaos { rng: seed }
    }

    fn roll(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Injector for FleetIpiChaos {
    fn drop_shootdown_ipi(&mut self, _initiator: usize, _target: usize) -> bool {
        self.roll().is_multiple_of(4)
    }

    fn spurious_shootdown(&mut self, _cpu: usize) -> bool {
        self.roll().is_multiple_of(16)
    }
}

/// Fleet-scale chaos campaign body, parameterized over the isolation
/// backend and fleet size: kill/redeploy churn issues full-mm coalesced
/// teardown batches while the injector drops IPIs and delivers spurious
/// flushes. The dropped full-flush batches must land in the per-ASID
/// pending ledger, the full audit (TLB coherence is its C8) must stay
/// green (every stale window is accounted), and every
/// race-detector finding must be explained by an injected drop —
/// identical findings semantics under PKS and TME-MK.
fn run_fleet_chaos_campaign(backend: erebor::ehw::isolation::BackendKind, slots: usize) {
    use erebor::ehw::inject::handle as inject_handle;
    use erebor_workloads::env::SandboxedWorkload;
    use erebor_workloads::fleet::FleetClass;

    assert!(slots > 8, "churn needs non-client victim slots");
    let mut cfg = erebor::BootConfig {
        cores: 4,
        dram_bytes: 512 * 1024 * 1024,
        ..erebor::BootConfig::default()
    };
    cfg.config.backend = backend;
    let mut p = Platform::boot_with(cfg).unwrap();
    p.install_injector(inject_handle(FleetIpiChaos::new(0xf1ee_7caf)));

    // 40 confined pages per server: past the full-flush ceiling (32),
    // so every churn kill coalesces into one full-mm batch per core.
    const PAGES: u64 = 40;
    let mut svcs = Vec::new();
    for slot in 0..slots {
        let class = if slot.is_multiple_of(2) {
            FleetClass::Nginx
        } else {
            FleetClass::Openssh
        };
        let program = SandboxedWorkload::new(class.workload(PAGES));
        svcs.push(p.deploy(Box::new(program), 4096).unwrap());
    }
    let mut clients = Vec::new();
    for (slot, svc) in svcs.iter().take(8).enumerate() {
        clients.push(p.connect_client(svc, [slot as u8; 32]).unwrap());
    }
    let mut rng = FleetIpiChaos::new(0x5eed);
    for i in 0..96usize {
        let c = rng.roll() as usize % clients.len();
        p.serve_request(&mut svcs[c], &mut clients[c], b"f=4096")
            .unwrap();
        if i % 4 == 3 {
            // Churn a non-client slot: coalesced kill + redeploy.
            let victim = 8 + rng.roll() as usize % (svcs.len() - 8);
            let id = svcs[victim].sandbox;
            p.cvm.monitor.kill_sandbox(&mut p.cvm.machine, id, "chaos churn");
            let class = if rng.roll().is_multiple_of(2) {
                FleetClass::Nginx
            } else {
                FleetClass::Openssh
            };
            let program = SandboxedWorkload::new(class.workload(PAGES));
            svcs[victim] = p.deploy(Box::new(program), 4096).unwrap();
        }
    }

    // The chaos must have actually happened: IPIs dropped during the
    // seeded phase.
    let records = p
        .cvm
        .machine
        .trace
        .last_n(p.cvm.machine.trace.len());
    let dropped = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::IpiDropped { .. }))
        .count();
    assert!(dropped > 0, "campaign never dropped a shootdown IPI");

    // A kill whose coalesced full-mm batch is dropped on a remote core
    // still holding the victim's CR3 must land in the per-ASID pending
    // ledger (the coalesced ledger, not the per-page one). Park the
    // victim's address space on core 1 by serving its client there,
    // then kill from core 0 with every IPI lost. MMU tracing is on from
    // here so the race detector sees the revocation edges.
    p.clear_injector();
    p.cvm.machine.mmu_trace = true;
    p.set_active_cpu(1);
    p.serve_request(&mut svcs[5], &mut clients[5], b"f=4096")
        .unwrap();
    p.set_active_cpu(0);
    p.install_injector(inject_handle(DropAllIpis));
    let id = svcs[5].sandbox;
    p.cvm
        .monitor
        .kill_sandbox(&mut p.cvm.machine, id, "ledger probe");
    assert!(
        !p.cvm.machine.pending_asid_shootdowns().is_empty(),
        "dropped coalesced kill must land in the per-ASID ledger"
    );

    // Staleness is *detectable*, not hidden: re-park core 1 on a live
    // root, warm its TLB on a kernel page, then drop a coalesced
    // broadcast batch (33 pages > the full-flush ceiling) from core 0.
    // Core 1's subsequent TLB-served access is exactly the stale window
    // the race detector must flag — and attribute to the injected drop.
    p.clear_injector();
    p.set_active_cpu(1);
    p.serve_request(&mut svcs[6], &mut clients[6], b"f=4096")
        .unwrap();
    p.set_active_cpu(0);
    let kva = VirtAddr(layout::DIRECT_MAP_BASE.0 + 0x1000);
    p.cvm.machine.cpus[0].mode = erebor::ehw::CpuMode::Supervisor;
    p.cvm.machine.cpus[1].mode = erebor::ehw::CpuMode::Supervisor;
    p.cvm
        .machine
        .probe(1, kva, erebor::ehw::fault::AccessKind::Read)
        .unwrap();
    p.install_injector(inject_handle(DropAllIpis));
    let vas: Vec<VirtAddr> = (0..33).map(|i| VirtAddr(kva.0 + i * 4096)).collect();
    p.cvm.machine.tlb_shootdown_batch(0, &vas).unwrap();
    p.cvm
        .machine
        .probe(1, kva, erebor::ehw::fault::AccessKind::Read)
        .unwrap();

    // Staleness is accounted, not hidden: the full audit (C1–C8, TLB
    // coherence included) and every race finding explained by a drop.
    let report = p.audit();
    assert!(report.is_clean(), "{}", report.json());
    let records = p.cvm.machine.trace.last_n(p.cvm.machine.trace.len());
    let findings = detect_races(&records, p.cvm.machine.cpus.len());
    assert!(
        !findings.is_empty(),
        "the dropped coalesced batches must leave detectable stale windows"
    );
    for f in &findings {
        assert!(
            f.dropped,
            "race finding not explained by an injected drop: {f:?}"
        );
    }

    // A landed full flush on every core clears the ledgers and leaves
    // no cached entry that could be stale.
    p.clear_injector();
    for cpu in 0..p.cvm.machine.cpus.len() {
        p.cvm.machine.flush_tlb(cpu);
    }
    assert!(p.cvm.machine.pending_shootdowns().is_empty());
    assert!(p.cvm.machine.pending_asid_shootdowns().is_empty());
    assert!(p.cvm.machine.tlbs.iter().all(|t| t.occupancy() == 0));
}

/// The keyed-memory backend runs the campaign at full fleet scale: 64
/// concurrent sandboxes is past the PKS pkey ceiling and needs TME-MK
/// key-IDs.
#[test]
fn fleet_coalesced_campaign_under_ipi_chaos() {
    run_fleet_chaos_campaign(erebor::ehw::isolation::BackendKind::TmeMk, 64);
}

/// The PKS backend runs the identical campaign at its capacity: 10
/// sandbox pkeys (16 minus the monitor's 6 reserved keys), with churn
/// kills recycling domains through the backend free list.
#[test]
fn fleet_coalesced_campaign_under_ipi_chaos_pks() {
    run_fleet_chaos_campaign(erebor::ehw::isolation::BackendKind::Pks, 10);
}
