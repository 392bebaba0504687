//! The stale-translation window around page-table downgrades.
//!
//! A PTE store is invisible to translations already cached in a TLB; until
//! someone invalidates, a sandbox (or the kernel) keeps reading through
//! the *old* mapping. The negative tests demonstrate the attack — a PTE
//! zeroed in DRAM without a shootdown stays readable — and the positive
//! tests show the monitor's EMC paths close the window, including across
//! cores. The same obligation covers the direct-map aliases a sandbox's
//! confined frames are retagged through when it is deployed and killed.

use erebor::{BootConfig, ExecConfig, Mode, Platform};
use erebor_core::emc::{EmcRequest, EmcResponse};
use erebor_core::policy;
use erebor_core::sandbox::SandboxId;
use erebor_hw::cpu::Domain;
use erebor_hw::fault::{AccessKind, Fault, PfReason};
use erebor_hw::isolation::BackendKind;
use erebor_hw::layout::direct_map;
use erebor_hw::regs::{Msr, PkrsPerms};
use erebor_hw::{paging, CpuMode, Frame, VirtAddr};

const VA: VirtAddr = VirtAddr(0x40_0000);

/// Boot Full, create a fresh user address space through EMC, and map one
/// writable page at [`VA`].
fn platform_with_user_page() -> (Platform, Frame) {
    let mut p = Platform::boot(Mode::Full).expect("boot");
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
                va: VA,
                frame: None,
                writable: true,
                executable: false,
            },
        )
        .expect("map user page");
    (p, root)
}

/// Put `cpu` in user mode running `root`, with a clean TLB.
fn run_user(p: &mut Platform, cpu: usize, root: Frame) {
    p.cvm.machine.cpus[cpu].cr3 = root;
    p.cvm.machine.flush_tlb(cpu);
    p.cvm.machine.cpus[cpu].mode = CpuMode::User;
    p.cvm.machine.cpus[cpu].domain = Domain::User;
}

#[test]
fn stale_translation_survives_a_raw_pte_zero_without_shootdown() {
    let (mut p, root) = platform_with_user_page();
    run_user(&mut p, 0, root);
    p.cvm
        .machine
        .probe(0, VA, AccessKind::Read)
        .expect("mapped page readable");

    // A buggy (or bypassed) monitor zeroes the PTE in DRAM and *forgets*
    // the shootdown — the DMA-style backdoor write models exactly that.
    let slot = paging::leaf_slot(&p.cvm.machine.mem, root, VA)
        .expect("walk")
        .expect("leaf slot");
    p.cvm.machine.mem.write_u64(slot, 0).expect("backdoor store");
    assert!(
        paging::lookup_raw(&p.cvm.machine.mem, root, VA)
            .expect("walk")
            .is_none(),
        "the mapping is gone from the tables"
    );

    // ...and yet the sandbox still reads through the cached translation.
    p.cvm
        .machine
        .probe(0, VA, AccessKind::Read)
        .expect("stale TLB entry still serves the unmapped page");

    // Only an explicit invalidation closes the window.
    p.cvm.machine.cpus[0].mode = CpuMode::Supervisor;
    p.cvm.machine.invalidate_page(0, VA).expect("invlpg");
    p.cvm.machine.cpus[0].mode = CpuMode::User;
    let err = p
        .cvm
        .machine
        .probe(0, VA, AccessKind::Read)
        .expect_err("after invlpg the unmap is visible");
    assert!(err.is_pf(PfReason::NotPresent), "{err:?}");
}

#[test]
fn monitor_unmap_shoots_down_the_local_core() {
    let (mut p, root) = platform_with_user_page();
    run_user(&mut p, 0, root);
    p.cvm
        .machine
        .probe(0, VA, AccessKind::Read)
        .expect("mapped page readable");

    // The real path: the kernel delegates the unmap; the monitor's EMC
    // handler both clears the PTE and invalidates.
    p.enter_kernel_mode();
    let before = p.cvm.machine.stats.tlb_page_invalidations;
    p.cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::UnmapUserPage { root, va: VA },
        )
        .expect("delegated unmap");
    assert!(
        p.cvm.machine.stats.tlb_page_invalidations > before,
        "the monitor owes an invalidation with the PTE clear"
    );

    p.cvm.machine.cpus[0].mode = CpuMode::User;
    p.cvm.machine.cpus[0].domain = Domain::User;
    let err = p
        .cvm
        .machine
        .probe(0, VA, AccessKind::Read)
        .expect_err("no stale window after a delegated unmap");
    assert!(err.is_pf(PfReason::NotPresent), "{err:?}");
}

#[test]
fn monitor_unmap_shoots_down_remote_cores_running_the_address_space() {
    let (mut p, root) = platform_with_user_page();
    // Core 1 runs the sandbox's address space and caches the translation;
    // core 0 stays in the kernel.
    run_user(&mut p, 1, root);
    p.cvm
        .machine
        .probe(1, VA, AccessKind::Read)
        .expect("mapped page readable on core 1");

    p.enter_kernel_mode();
    let before = p.cvm.machine.stats.tlb_shootdown_ipis;
    p.cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::UnmapUserPage { root, va: VA },
        )
        .expect("delegated unmap");
    assert_eq!(
        p.cvm.machine.stats.tlb_shootdown_ipis,
        before + 1,
        "core 1 holds the address space and must be IPI'd"
    );

    let err = p
        .cvm
        .machine
        .probe(1, VA, AccessKind::Read)
        .expect_err("core 1 must not read through the dead mapping");
    assert!(err.is_pf(PfReason::NotPresent), "{err:?}");
}

#[test]
fn permission_downgrade_is_visible_without_an_address_space_reload() {
    // ProtectUserPage(writable=false) must invalidate: a cached writable
    // translation outliving the downgrade would let the sandbox keep
    // scribbling a sealed page.
    let (mut p, root) = platform_with_user_page();
    run_user(&mut p, 0, root);
    p.cvm
        .machine
        .probe(0, VA, AccessKind::Write)
        .expect("page starts writable");

    p.enter_kernel_mode();
    p.cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::ProtectUserPage {
                root,
                va: VA,
                writable: false,
            },
        )
        .expect("downgrade");

    p.cvm.machine.cpus[0].mode = CpuMode::User;
    p.cvm.machine.cpus[0].domain = Domain::User;
    let err = p
        .cvm
        .machine
        .probe(0, VA, AccessKind::Write)
        .expect_err("write must fault immediately after the downgrade");
    assert!(err.is_pf(PfReason::NotWritable), "{err:?}");
    p.cvm
        .machine
        .probe(0, VA, AccessKind::Read)
        .expect("reads still fine");
}

// ====================================================================
// Confined direct-map aliases: retagged at deploy and at kill
// ====================================================================

/// Where the retag tests declare confined memory.
const CONFINED_VA: VirtAddr = VirtAddr(0x7000_0000);

fn boot_backend(backend: BackendKind) -> Platform {
    let mut config = ExecConfig::new(Mode::Full);
    config.backend = backend;
    Platform::boot_with(BootConfig {
        config,
        ..BootConfig::default()
    })
    .expect("boot")
}

fn create_sandbox(p: &mut Platform) -> SandboxId {
    p.enter_kernel_mode();
    p.cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, 1024)
        .expect("create sandbox")
}

fn declare_confined(p: &mut Platform, id: SandboxId, pages: u64) {
    p.cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::DeclareConfined {
                sandbox: id.0,
                va: CONFINED_VA,
                pages,
                executable: false,
            },
        )
        .expect("declare confined");
}

fn confined_frames(p: &Platform, id: SandboxId) -> Vec<Frame> {
    let sandbox = p.cvm.monitor.sandboxes.get(&id.0).expect("sandbox");
    sandbox.confined.iter().map(|&(_, f)| f).collect()
}

/// The frames a freshly booted platform confines for its first sandbox,
/// found by a dry run on an identical platform (the simulation is
/// deterministic, so the real run allocates the same frames).
fn frames_confined_first(backend: BackendKind, pages: u64) -> Vec<Frame> {
    let mut p = boot_backend(backend);
    let id = create_sandbox(&mut p);
    declare_confined(&mut p, id, pages);
    confined_frames(&p, id)
}

/// Every core runs supervisor code of `domain` on the kernel root, with
/// the given PKRS value.
fn every_core(p: &mut Platform, domain: Domain, pkrs: PkrsPerms) {
    let root = p.cvm.monitor.kernel_root;
    for cpu in 0..p.cvm.machine.cpus.len() {
        let c = &mut p.cvm.machine.cpus[cpu];
        c.mode = CpuMode::Supervisor;
        c.domain = domain;
        c.cr3 = root;
        p.cvm.machine.restore_msr(cpu, Msr::Pkrs, pkrs.0);
    }
}

/// Read every frame's direct-map alias on every core, through each
/// core's TLB.
fn read_aliases(p: &mut Platform, frames: &[Frame]) -> Vec<(usize, Frame, Result<(), Fault>)> {
    let mut out = Vec::new();
    for cpu in 0..p.cvm.machine.cpus.len() {
        for &f in frames {
            let r = p
                .cvm
                .machine
                .probe(cpu, direct_map(f.base()), AccessKind::Read);
            out.push((cpu, f, r));
        }
    }
    out
}

/// Deploying confined memory retags the kernel's direct-map aliases of
/// its frames, and killing the sandbox retags them back. Both retags
/// must reach every core's TLB: a core that cached the old alias would
/// keep reading confined memory after the deploy, or keep faulting on
/// freed memory after the kill.
#[test]
fn confined_alias_retags_reach_every_core_at_deploy_and_kill() {
    const PAGES: u64 = 64;
    for backend in [BackendKind::Pks, BackendKind::TmeMk] {
        let frames = frames_confined_first(backend, PAGES);
        let mut p = boot_backend(backend);
        let id = create_sandbox(&mut p);

        // Warm every core's TLB with the kernel's view of the frames
        // about to be confined.
        every_core(&mut p, Domain::Kernel, policy::normal_mode_pkrs());
        for (cpu, f, r) in read_aliases(&mut p, &frames) {
            assert!(
                r.is_ok(),
                "{backend:?}: cpu {cpu} frame {f:?} not yet confined: {r:?}"
            );
        }
        declare_confined(&mut p, id, PAGES);
        assert_eq!(confined_frames(&p, id), frames, "{backend:?}: dry run");
        for (cpu, f, r) in read_aliases(&mut p, &frames) {
            let err = r.expect_err("the kernel must not read confined memory on any core");
            assert!(
                err.is_pf(PfReason::PksAccessDisabled),
                "{backend:?}: cpu {cpu} frame {f:?}: {err:?}"
            );
        }
        let audit = p.audit();
        assert!(audit.is_clean(), "{backend:?} after deploy: {audit:?}");

        // Warm every core with the confined aliases under monitor
        // privileges, then drop back to the kernel and kill.
        every_core(&mut p, Domain::Monitor, policy::monitor_mode_pkrs());
        for (cpu, f, r) in read_aliases(&mut p, &frames) {
            assert!(
                r.is_ok(),
                "{backend:?}: cpu {cpu} monitor read of {f:?}: {r:?}"
            );
        }
        every_core(&mut p, Domain::Kernel, policy::normal_mode_pkrs());
        p.cvm
            .monitor
            .kill_sandbox(&mut p.cvm.machine, id, "retag test");
        for (cpu, f, r) in read_aliases(&mut p, &frames) {
            assert!(
                r.is_ok(),
                "{backend:?}: cpu {cpu} frame {f:?} freed but still confined: {r:?}"
            );
        }
        let audit = p.audit();
        assert!(audit.is_clean(), "{backend:?} after kill: {audit:?}");
    }
}

/// The retags at deploy and at kill each cost one broadcast shootdown,
/// not one per page: the IPIs of one deploy and of one kill are the same
/// at 64 and at 512 confined pages. (Both sizes fit one leaf page-table
/// page, so the page-table pages the deploy allocates and retags, each
/// with its own shootdown, are the same too.)
#[test]
fn confined_alias_retag_ipis_do_not_grow_with_pages() {
    for backend in [BackendKind::Pks, BackendKind::TmeMk] {
        let ipis = |pages: u64| -> (u64, u64) {
            let mut p = boot_backend(backend);
            let id = create_sandbox(&mut p);
            let before = p.cvm.machine.stats.tlb_shootdown_ipis;
            declare_confined(&mut p, id, pages);
            let deployed = p.cvm.machine.stats.tlb_shootdown_ipis;
            p.cvm
                .monitor
                .kill_sandbox(&mut p.cvm.machine, id, "retag ipi test");
            let killed = p.cvm.machine.stats.tlb_shootdown_ipis;
            (deployed - before, killed - deployed)
        };
        let small = ipis(64);
        let large = ipis(512);
        assert_eq!(
            small, large,
            "{backend:?}: (deploy, kill) IPIs, 64 vs 512 pages"
        );
        let remote = (BootConfig::default().cores - 1) as u64;
        assert!(
            large.1 <= remote,
            "{backend:?}: a kill's retag is one IPI round, got {} IPIs",
            large.1
        );
    }
}
