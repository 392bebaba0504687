//! Red-team tests for `erebor-analyze`: every auditor check is exercised
//! with a deliberately corrupted snapshot (asserting exactly that check
//! fires) next to a clean snapshot (asserting none do), and the
//! happens-before race detector is shown reproducing the hand-written
//! stale-TLB attack from `tests/tlb_shootdown.rs` unprompted, from the
//! machine trace alone.

use erebor::eanalyze::{detect_races, Finding};
use erebor::ecore::emc::{EmcRequest, EmcResponse};
use erebor::ecore::policy::{self, FrameKind};
use erebor::ehw::cpu::Domain;
use erebor::ehw::fault::AccessKind;
use erebor::ehw::idt::{self, vector, Idtr};
use erebor::ehw::isolation::BackendKind;
use erebor::ehw::layout;
use erebor::ehw::paging::{self, intermediate_for, map_raw, Pte, PteFlags};
use erebor::ehw::regs::{Cr0, Msr};
use erebor::ehw::{CpuMode, Frame, VirtAddr};
use erebor::{Mode, Platform, TraceEvent, TraceRecord};

/// A kernel-half VA far from anything boot maps (text, data, direct map).
const SCRATCH_VA: VirtAddr = VirtAddr(layout::KERNEL_BASE.0 + 0x4000_0000);
const USER_VA: VirtAddr = VirtAddr(0x40_0000);

fn booted() -> Platform {
    // `boot` itself runs the auditor and fails on findings, so every
    // successful boot doubles as the clean-snapshot half of each test.
    Platform::boot(Mode::Full).expect("boot")
}

/// Boot Full under a specific isolation backend (the corrupted-snapshot
/// suite runs generically over `Pks | TmeMk`).
fn booted_with(backend: BackendKind) -> Platform {
    let mut config = erebor::ExecConfig::new(Mode::Full);
    config.backend = backend;
    let cfg = erebor::BootConfig {
        config,
        ..erebor::BootConfig::default()
    };
    Platform::boot_with(cfg).expect("boot")
}

/// Run a corrupted-snapshot body under both backends: the findings
/// semantics (which check fires, and that only it fires) must be
/// identical whether confinement is PKS pkeys or TME-MK key-IDs.
fn for_both_backends(body: impl Fn(&mut Platform)) {
    for backend in [BackendKind::Pks, BackendKind::TmeMk] {
        let mut p = booted_with(backend);
        body(&mut p);
    }
}

fn only_check(findings: &[Finding], check: &str) {
    assert!(
        findings.iter().any(|f| f.check == check),
        "expected a {check} finding, got {findings:?}"
    );
    assert!(
        findings.iter().all(|f| f.check == check),
        "expected only {check} findings, got {findings:?}"
    );
}

// ====================================================================
// Clean snapshots
// ====================================================================

#[test]
fn boot_snapshot_audits_clean() {
    for_both_backends(|p| {
        let report = p.audit();
        assert!(report.is_clean(), "{}", report.json());
        assert!(report.roots_walked >= 1);
        assert!(report.leaf_mappings > 0);
        assert!(report.idt_entries > 0);
        assert!(report.work() > 0);
    });
}

/// Regression for the seed bug the auditor caught: the syscall and
/// interrupt interposers are hardware entry points into the monitor and
/// must be `endbr64` landing pads (the monitor image only tagged the EMC
/// gate).
#[test]
fn hardware_entry_points_are_endbr_pads() {
    let p = booted();
    let mon = &p.cvm.monitor;
    for (what, va) in [
        ("gate entry", mon.gate.entry),
        ("syscall interposer", mon.syscall_interposer),
        ("interrupt interposer", mon.interrupt_interposer),
    ] {
        assert!(
            p.cvm.machine.endbr.is_target(va),
            "{what} {va:?} must be an ENDBR pad"
        );
    }
}

// ====================================================================
// Corrupted snapshots: one per auditor check
// ====================================================================

#[test]
fn c1_writable_executable_mapping_is_flagged() {
    for_both_backends(|p| {
        let f = p.cvm.machine.mem.alloc_frame().expect("frame");
        // present + writable + executable (nx unset): the W^X violation.
        let wx = PteFlags {
            present: true,
            writable: true,
            ..PteFlags::default()
        };
        map_raw(
            &mut p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            SCRATCH_VA,
            Pte::encode(f, wx),
            intermediate_for(PteFlags::kernel_rw(0)),
        )
        .expect("map");
        only_check(&p.audit().findings, "wx-exclusive");
    });
}

#[test]
fn c2_monitor_frame_under_default_key_is_flagged() {
    for_both_backends(|p| {
        // Alias the monitor's text frame into the kernel half read-only
        // under the *default* key — normal mode could then read monitor
        // memory.
        let mon_frame = paging::lookup_raw(
            &p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            layout::MONITOR_BASE,
        )
        .expect("walk")
        .expect("monitor text mapped")
        .frame();
        assert_eq!(p.cvm.monitor.frames.kind(mon_frame), FrameKind::Monitor);
        map_raw(
            &mut p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            SCRATCH_VA,
            Pte::encode(mon_frame, PteFlags::kernel_ro(policy::PK_DEFAULT)),
            intermediate_for(PteFlags::kernel_ro(0)),
        )
        .expect("map");
        only_check(&p.audit().findings, "pkey-tagging");
    });
}

/// C2, keyed half: a live sandbox's confined frame aliased with the right
/// pkey but the *wrong key-ID* (or wrong pkey under PKS) is a tagging
/// violation — the backend decides what the correct `(pkey, keyid)` tag
/// is, and the auditor holds every confined alias to it.
#[test]
fn c2_confined_frame_with_wrong_domain_tag_is_flagged() {
    for_both_backends(|p| {
        p.enter_kernel_mode();
        let budget = 4;
        let id = p
            .cvm
            .monitor
            .create_sandbox(&mut p.cvm.machine, 0, budget)
            .expect("create sandbox");
        let f = p.cvm.machine.mem.alloc_frame().expect("frame");
        p.cvm
            .monitor
            .frames
            .set_kind(f, FrameKind::Confined { sandbox: id.0 })
            .expect("typed");
        // Tag the alias as ordinary kernel data with key-ID zero: under
        // PKS the pkey is wrong, under TME-MK the key-ID is wrong (the
        // frame's hardware key was never programmed, so the keyed walk
        // check also sees a mismatch). Both must surface as findings.
        map_raw(
            &mut p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            SCRATCH_VA,
            Pte::encode(f, PteFlags::kernel_ro(policy::PK_DEFAULT)),
            intermediate_for(PteFlags::kernel_ro(0)),
        )
        .expect("map");
        let findings = p.audit().findings;
        assert!(
            findings
                .iter()
                .any(|f| f.check == "pkey-tagging" || f.check == "confined-unreachable"),
            "wrong domain tag must be flagged: {findings:?}"
        );
    });
}

#[test]
fn c3_confined_frame_reachable_from_kernel_root_is_flagged() {
    for_both_backends(|p| {
        let f = p.cvm.machine.mem.alloc_frame().expect("frame");
        p.cvm
            .monitor
            .frames
            .set_kind(f, FrameKind::Confined { sandbox: 9 })
            .expect("typed");
        map_raw(
            &mut p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            SCRATCH_VA,
            Pte::encode(f, PteFlags::kernel_ro(policy::PK_DEFAULT)),
            intermediate_for(PteFlags::kernel_ro(0)),
        )
        .expect("map");
        only_check(&p.audit().findings, "confined-unreachable");
    });
}

#[test]
fn c4_writable_shadow_stack_frame_is_flagged() {
    for_both_backends(|p| {
        let f = p.cvm.machine.mem.alloc_frame().expect("frame");
        p.cvm
            .monitor
            .frames
            .set_kind(f, FrameKind::ShadowStack)
            .expect("typed");
        // Retag the frame's direct-map alias the way boot does for real
        // shadow-stack frames, so only the corrupted scratch mapping
        // below is wrong.
        let dm_slot = paging::leaf_slot(
            &p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            layout::direct_map(erebor::ehw::PhysAddr(f.0 << 12)),
        )
        .expect("walk")
        .expect("direct-map leaf");
        p.cvm
            .machine
            .mem
            .write_u64(dm_slot, Pte::encode(f, PteFlags::kernel_ro(policy::PK_SSTK)).0)
            .expect("retag");
        // Writable under a non-SSTK, non-monitor key (kernel-text key
        // keeps the weak pkey-tagging check quiet, isolating the sstk
        // finding).
        map_raw(
            &mut p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            SCRATCH_VA,
            Pte::encode(f, PteFlags::kernel_rw(policy::PK_KTEXT)),
            intermediate_for(PteFlags::kernel_rw(0)),
        )
        .expect("map");
        only_check(&p.audit().findings, "sstk-protected");
    });
}

#[test]
fn c4_unbalanced_shadow_stack_is_flagged() {
    for backend in [BackendKind::Pks, BackendKind::TmeMk] {
        let mut config = erebor::ExecConfig::new(Mode::Full);
        config.backend = backend;
        config.shadow_stacks = true;
        let mut p = Platform::boot_with(erebor::BootConfig {
            config,
            ..erebor::BootConfig::default()
        })
        .expect("boot");
        // A return address pushed with no interrupt in flight: the next
        // `iret` would pop it instead of the one its delivery pushed.
        p.cvm.machine.sstk[1].push(VirtAddr(layout::KERNEL_BASE.0 + 0x100));
        only_check(&p.audit().findings, "sstk-balance");
    }
}

#[test]
fn c5_idt_vector_rewritten_into_kernel_half_is_flagged() {
    for_both_backends(|p| {
        let idtr = Idtr {
            base: p.cvm.monitor.idt_base,
        };
        // A DMA-style backdoor store retargets the timer vector at kernel
        // text — delivery would bypass the monitor's #INT interposer.
        idt::write_entry_raw(
            &mut p.cvm.machine.mem,
            p.cvm.monitor.kernel_root,
            idtr,
            vector::TIMER,
            VirtAddr(layout::KERNEL_BASE.0 + 0x100),
        )
        .expect("backdoor IDT store");
        only_check(&p.audit().findings, "control-transfer");
    });
}

#[test]
fn c6_cleared_wp_is_flagged() {
    for_both_backends(|p| {
        p.cvm.machine.cpus[1].cr0 = Cr0(Cr0::PG); // WP off under paging
        only_check(&p.audit().findings, "msr-pinning");
    });
}

#[test]
fn c6_torn_emc_state_is_flagged() {
    for_both_backends(|p| {
        p.cvm.machine.cpus[1].domain = Domain::Kernel;
        p.cvm.machine.cpus[1].mode = CpuMode::Supervisor;
        p.cvm
            .monitor
            .gate
            .enter(&mut p.cvm.machine, 1)
            .expect("enter");
        let report = p.audit();
        assert!(report.is_clean(), "{}", report.json());
        // The gate still says the EMC is live, but PKRS is back at the
        // normal-mode value: the monitor runs without its own key.
        p.cvm
            .machine
            .restore_msr(1, Msr::Pkrs, policy::normal_mode_pkrs().0);
        only_check(&p.audit().findings, "emc-consistency");
    });
}

#[test]
fn c7_shared_device_frame_still_private_is_flagged() {
    for_both_backends(|p| {
        // A frame typed SharedDevice that is still sEPT-private: the
        // frame table and the sEPT disagree, and the direct-map alias
        // already makes it a mapped frame the walk visits.
        let f = p.cvm.machine.mem.alloc_frame().expect("frame");
        p.cvm
            .monitor
            .frames
            .set_kind(f, FrameKind::SharedDevice)
            .expect("typed");
        p.cvm.tdx.sept.accept_private(f);
        only_check(&p.audit().findings, "sept-consistency");
    });
}

#[test]
fn c8_stale_tlb_entry_after_backdoor_unmap_is_flagged() {
    for backend in [BackendKind::Pks, BackendKind::TmeMk] {
        let (mut p, root) = platform_with_user_page_on(backend);
        run_user(&mut p, 0, root);
        p.cvm
            .machine
            .probe(0, USER_VA, AccessKind::Read)
            .expect("cache the translation");
        // Zero the PTE without any shootdown: the cached entry is now a
        // ledger inconsistency (no pending-shootdown record explains it).
        let slot = paging::leaf_slot(&p.cvm.machine.mem, root, USER_VA)
            .expect("walk")
            .expect("leaf");
        p.cvm.machine.mem.write_u64(slot, 0).expect("backdoor store");
        only_check(&p.audit().findings, "ledger-consistency");
    }
}

// ====================================================================
// The trace race detector
// ====================================================================

fn rec(seq: u64, cpu: u32, event: TraceEvent) -> TraceRecord {
    TraceRecord {
        seq,
        cycles: seq * 100,
        cpu,
        event,
    }
}

#[test]
fn synthetic_unmap_without_invalidation_is_a_race() {
    let records = vec![
        rec(0, 1, TraceEvent::TlbHit { root: 7, page: 5 }),
        rec(1, 0, TraceEvent::Emc { op: "unmap", arg: 5 }),
        rec(2, 1, TraceEvent::TlbHit { root: 7, page: 5 }),
    ];
    let findings = detect_races(&records, 2);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].cpu, 1);
    assert_eq!(findings[0].page, 5);
    assert!(!findings[0].dropped, "no injected drop explains this window");
}

#[test]
fn synthetic_acked_shootdown_is_clean() {
    let records = vec![
        rec(0, 1, TraceEvent::TlbHit { root: 7, page: 5 }),
        rec(1, 0, TraceEvent::TlbShootdown { root: 7, page: 5 }),
        rec(2, 0, TraceEvent::IpiSent { to: 1 }),
        rec(3, 1, TraceEvent::IpiReceived { from: 0 }),
        rec(4, 1, TraceEvent::TlbInvlpg { page: 5 }),
        rec(5, 1, TraceEvent::TlbHit { root: 7, page: 6 }),
    ];
    assert!(detect_races(&records, 2).is_empty());
}

/// Boot Full, create a fresh user address space through EMC, and map one
/// writable page at [`USER_VA`] (the `tests/tlb_shootdown.rs` setup).
fn platform_with_user_page() -> (Platform, Frame) {
    platform_with_user_page_on(BackendKind::Pks)
}

fn platform_with_user_page_on(backend: BackendKind) -> (Platform, Frame) {
    let mut p = booted_with(backend);
    p.enter_kernel_mode();
    let root = match p.cvm.monitor.emc(
        &mut p.cvm.machine,
        &mut p.cvm.tdx,
        0,
        EmcRequest::CreateAddressSpace { asid: 77 },
    ) {
        Ok(EmcResponse::Root(r)) => r,
        other => panic!("create address space: {other:?}"),
    };
    p.cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::MapUserPage {
                root,
                va: USER_VA,
                frame: None,
                writable: true,
                executable: false,
            },
        )
        .expect("map user page");
    (p, root)
}

fn run_user(p: &mut Platform, cpu: usize, root: Frame) {
    p.cvm.machine.cpus[cpu].cr3 = root;
    p.cvm.machine.flush_tlb(cpu);
    p.cvm.machine.cpus[cpu].mode = CpuMode::User;
    p.cvm.machine.cpus[cpu].domain = Domain::User;
}

/// The headline claim: given only the machine trace of the cross-core
/// stale-TLB attack (monitor unmaps, the shootdown IPI is dropped, the
/// victim core keeps reading), the vector-clock pass flags the exact
/// core, page, and revocation — no hand-written assertion about TLB
/// internals required.
#[test]
fn race_detector_reproduces_dropped_ipi_stale_read_unprompted() {
    struct DropAllIpis;
    impl erebor::ehw::inject::Injector for DropAllIpis {
        fn drop_shootdown_ipi(&mut self, _initiator: usize, _target: usize) -> bool {
            true
        }
    }

    let (mut p, root) = platform_with_user_page();
    p.cvm.machine.mmu_trace = true;
    // Victim core 1 runs the sandbox and caches the translation.
    run_user(&mut p, 1, root);
    p.cvm
        .machine
        .probe(1, USER_VA, AccessKind::Read)
        .expect("mapped page readable on core 1");

    // The monitor revokes the page, but the host eats the IPI.
    p.enter_kernel_mode();
    p.install_injector(erebor::ehw::inject::handle(DropAllIpis));
    p.cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::UnmapUserPage { root, va: USER_VA },
        )
        .expect("delegated unmap");
    p.clear_injector();

    // The victim still reads through the dead mapping...
    p.cvm.machine.cpus[1].mode = CpuMode::User;
    p.cvm.machine.cpus[1].domain = Domain::User;
    p.cvm
        .machine
        .probe(1, USER_VA, AccessKind::Read)
        .expect("stale TLB entry still serves the unmapped page");

    // ...and the detector reconstructs the whole attack from the trace.
    let records = p.cvm.machine.trace.last_n(usize::MAX);
    let findings = detect_races(&records, p.cvm.machine.cpus.len());
    let hit = findings
        .iter()
        .find(|f| f.cpu == 1 && f.page == USER_VA.0 >> 12)
        .unwrap_or_else(|| panic!("no stale-window finding for core 1: {findings:?}"));
    assert_eq!(hit.root, root.0, "window names the revoked address space");
    assert!(hit.dropped, "attributed to the dropped shootdown IPI");
    assert!(hit.access_seq > hit.revoke_seq);
}

/// Same schedule without the drop: the shootdown lands, the stale read
/// faults, the detector stays quiet — no false positives on the honest
/// path.
#[test]
fn race_detector_quiet_when_shootdown_lands() {
    let (mut p, root) = platform_with_user_page();
    p.cvm.machine.mmu_trace = true;
    run_user(&mut p, 1, root);
    p.cvm
        .machine
        .probe(1, USER_VA, AccessKind::Read)
        .expect("mapped page readable on core 1");

    p.enter_kernel_mode();
    p.cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::UnmapUserPage { root, va: USER_VA },
        )
        .expect("delegated unmap");

    p.cvm.machine.cpus[1].mode = CpuMode::User;
    p.cvm.machine.cpus[1].domain = Domain::User;
    p.cvm
        .machine
        .probe(1, USER_VA, AccessKind::Read)
        .expect_err("shootdown landed; the unmap is visible");

    let records = p.cvm.machine.trace.last_n(usize::MAX);
    let findings = detect_races(&records, p.cvm.machine.cpus.len());
    assert!(findings.is_empty(), "{findings:?}");
}

// ====================================================================
// The privilege-separation auditor (DESIGN.md §14)
// ====================================================================

/// The CI baseline: the whole workspace satisfies the declared privilege
/// manifest with zero findings and zero effective waivers, and the graph
/// attributes privileged-core references where they belong.
#[test]
fn workspace_satisfies_the_privilege_manifest() {
    use erebor::eanalyze::privilege::{scan_workspace, WaiverPolicy};
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let report = scan_workspace(&root, WaiverPolicy::Refuse);
    assert!(
        report.findings.is_empty(),
        "privilege boundary violated:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(report.waivers_seen, 0, "waivers present in the tree");
    assert!(report.is_clean());
    // The manifest is live: every declared privileged subtree matched
    // scanned files, and the graph shows the hw substrate carrying the
    // bulk of the raw reach.
    assert!(
        report.files_scanned > 100,
        "scan too small: {}",
        report.files_scanned
    );
    assert!(report.privileged_modules >= 4, "{}", report.privileged_modules);
    assert!(report.privileged_files > 10, "{}", report.privileged_files);
    let graph = report.graph_counts();
    let hw_refs: u64 = graph
        .iter()
        .filter(|(m, _)| m.starts_with("erebor-hw"))
        .map(|(_, n)| n)
        .sum();
    let kernel_refs: u64 = graph
        .iter()
        .filter(|(m, _)| m.starts_with("erebor-kernel"))
        .map(|(_, n)| n)
        .sum();
    assert!(hw_refs > 100, "hw substrate references: {hw_refs}");
    // The deprivileged kernel's residual mentions are comments/strings
    // only — at most a couple of stripped-code stragglers would show
    // here, and zero findings above proves none are reaches.
    assert!(kernel_refs < 10, "kernel raw references: {kernel_refs}");
    // The report JSON round-trips its headline counters.
    let json = report.json();
    assert!(json.starts_with("{\"findings\":["));
    assert!(json.contains("\"count\":0"));
    assert!(json.contains("\"waivers\":0"));
}

/// Red fixtures through the public API: each boundary rule produces
/// exactly one typed finding on a minimal out-of-manifest source.
#[test]
fn privilege_red_fixtures_fire_typed_findings() {
    use erebor::eanalyze::privilege::{scan_source, WaiverPolicy};
    // 1. Unprivileged module calling a raw hw mutator.
    let (_, f, _) = scan_source(
        "crates/libos/src/bad.rs",
        "fn f(m: &mut Machine) { m.mem.free_frame(f).ok(); }\n",
        WaiverPolicy::Refuse,
    );
    assert_eq!(f.len(), 2, "{f:?}"); // .mem reach + free_frame reach
    assert!(f.iter().all(|x| x.rule == "priv-reach"));
    assert!(f.iter().all(|x| x.module == "erebor-libos::bad"));
    // 2. An unsafe block outside the manifest (and inside it — banned
    // everywhere).
    let (_, f, _) = scan_source(
        "crates/wire/src/bad.rs",
        "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n",
        WaiverPolicy::Refuse,
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "stray-unsafe");
    let (_, f, _) = scan_source(
        "crates/hw/src/bad.rs",
        "fn f() { unsafe { x() } }\n",
        WaiverPolicy::Refuse,
    );
    assert_eq!(f.len(), 1, "unsafe is banned even in the manifest: {f:?}");
    // 3. A crate-root pub use re-exposing a privileged type.
    let (_, f, _) = scan_source(
        "crates/kernel/src/lib.rs",
        "pub use erebor_hw::phys::PhysMemory;\n",
        WaiverPolicy::Refuse,
    );
    let leak: Vec<_> = f.iter().filter(|x| x.rule == "pub-leak").collect();
    assert_eq!(leak.len(), 1, "{f:?}");
    assert_eq!(leak[0].symbol, "PhysMemory");
    // Findings serialize with escaped JSON.
    let j = leak[0].json();
    assert!(j.contains("\"rule\":\"pub-leak\""));
    assert!(j.contains("\"symbol\":\"PhysMemory\""));
}

/// Waivers are refused by default: a `priv:allow` comment turns the
/// finding into `waiver-refused` instead of hiding it, and is counted so
/// CI can gate on zero.
#[test]
fn privilege_waivers_are_refused_by_default() {
    use erebor::eanalyze::privilege::{scan_source, WaiverPolicy};
    let src = "fn f(m: &mut M) { m.mem.zero_frame(f).ok(); } // priv:allow(priv-reach)\n";
    let (_, refused, waivers) = scan_source("crates/libos/src/bad.rs", src, WaiverPolicy::Refuse);
    assert!(!refused.is_empty());
    assert!(refused.iter().all(|x| x.rule == "waiver-refused"), "{refused:?}");
    assert!(waivers >= 1);
    // Honor mode (exploratory only) drops them but still counts.
    let (_, honored, waivers) = scan_source("crates/libos/src/bad.rs", src, WaiverPolicy::Honor);
    assert!(honored.is_empty(), "{honored:?}");
    assert!(waivers >= 1);
}

// ====================================================================
// The chaos campaign under the auditor and the race detector
// ====================================================================

/// The CI `--analyze` campaign: every step of every case is followed by
/// a full state audit, and every case ends with a happens-before pass
/// over its MMU trace; any audit finding or un-injected stale window is
/// a violation. Honors `EREBOR_CHAOS_CASES` (default 100).
#[test]
fn chaos_campaign_under_audit_and_race_invariants_is_clean() {
    let cases = std::env::var("EREBOR_CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    let report = erebor_chaos::run(&erebor_chaos::ChaosConfig {
        cases,
        ..erebor_chaos::ChaosConfig::default()
    });
    assert!(report.passed(), "{}", report.summary());
}

/// Every chaos outcome carries the analyze results, clean or not.
#[test]
fn case_outcome_carries_audit_and_race_results() {
    let cfg = erebor_chaos::ChaosConfig::default();
    let outcome = erebor_chaos::exec_case(&cfg, erebor_chaos::case_seed(cfg.seed, 0), &[4, 11, 25]);
    assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    assert!(outcome.audit_findings.is_empty(), "{:?}", outcome.audit_findings);
    assert!(
        outcome.race_findings.iter().all(|r| r.dropped),
        "{:?}",
        outcome.race_findings
    );
}
