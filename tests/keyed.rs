//! Integration tests for the isolation-backend seam: the PKS capacity
//! boundary (typed exhaustion, domain recycling), the TME-MK keyed
//! backend confining hundreds of sandboxes in one address space, the
//! kill-teardown fence (epoch bump + domain revocation), with the
//! stale-decision window it closes shown by reviving the pre-kill epoch,
//! and a confined declaration that fails part-way giving its arena back.

use erebor::ecore::emc::{EmcError, EmcRequest};
use erebor::ecore::policy::FrameKind;
use erebor::ecore::sandbox::SandboxId;
use erebor::ehw::cpu::Domain;
use erebor::ehw::fault::AccessKind;
use erebor::ehw::inject::{self, Injector};
use erebor::ehw::isolation::BackendKind;
use erebor::ehw::layout::KERNEL_BASE;
use erebor::ehw::paging;
use erebor::ehw::{BatchOp, CpuMode, Frame, VirtAddr};
use erebor::Platform;

/// Where each sandbox declares its confined page (sandbox-private
/// address spaces, so every sandbox can use the same VA).
const CONFINED_VA: VirtAddr = VirtAddr(0x7000_0000);

fn booted_with(backend: BackendKind) -> Platform {
    let mut config = erebor::ExecConfig::new(erebor::Mode::Full);
    config.backend = backend;
    let cfg = erebor::BootConfig {
        config,
        ..erebor::BootConfig::default()
    };
    Platform::boot_with(cfg).expect("boot")
}

/// Bigger machine for the many-sandbox runs.
fn booted_fleet(backend: BackendKind) -> Platform {
    let mut config = erebor::ExecConfig::new(erebor::Mode::Full);
    config.backend = backend;
    let cfg = erebor::BootConfig {
        cores: 4,
        dram_bytes: 512 * 1024 * 1024,
        config,
        ..erebor::BootConfig::default()
    };
    Platform::boot_with(cfg).expect("boot")
}

// ====================================================================
// Satellite: the PKS exhaustion boundary
// ====================================================================

/// PKS has 16 hardware keys, 6 reserved for the monitor: the 10th
/// sandbox fits, the 11th gets a *typed* `DomainsExhausted` (never a
/// silent wrap onto a live key, never a burned sandbox id), and killing
/// a sandbox makes its exact domain reusable.
#[test]
fn pks_backend_exhausts_at_capacity_with_typed_error() {
    let mut p = booted_with(BackendKind::Pks);
    p.enter_kernel_mode();
    assert_eq!(p.cvm.monitor.backend.capacity(), 16);
    assert_eq!(p.cvm.monitor.backend.reserved(), 6);
    let usable = p.cvm.monitor.backend.capacity() - p.cvm.monitor.backend.reserved();

    let mut ids = Vec::new();
    for _ in 0..usable {
        ids.push(
            p.cvm
                .monitor
                .create_sandbox(&mut p.cvm.machine, 0, 4)
                .expect("create within capacity"),
        );
    }
    assert_eq!(p.cvm.monitor.backend.live_domains(), usable);

    let next_id_before = p.cvm.monitor.sandboxes.len();
    let err = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, 4)
        .expect_err("11th sandbox is over PKS capacity");
    assert!(
        matches!(err, EmcError::DomainsExhausted { capacity: 16 }),
        "typed exhaustion, got: {err}"
    );
    assert_eq!(
        p.cvm.monitor.sandboxes.len(),
        next_id_before,
        "failed create must not burn a sandbox id"
    );

    // Kill one: its domain returns to the pool and the next create
    // reuses exactly it (LIFO recycling), back at full occupancy.
    let victim = ids[3];
    let freed = p.cvm.monitor.sandboxes.get(&victim.0).expect("live").domain;
    p.cvm.monitor.kill_sandbox(&mut p.cvm.machine, victim, "boundary test");
    assert_eq!(p.cvm.monitor.backend.live_domains(), usable - 1);
    let replacement = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, 4)
        .expect("freed domain is reusable");
    assert_eq!(
        p.cvm.monitor.sandboxes.get(&replacement.0).expect("live").domain,
        freed,
        "recycled the revoked domain"
    );

    let report = p.audit();
    assert!(report.is_clean(), "{}", report.json());
}

// ====================================================================
// Tentpole: the keyed backend lifts the ceiling
// ====================================================================

/// The headline: 256 concurrently-live sandboxes — 16× the whole PKS key
/// space — each with a confined page tagged by its own key-ID, all in
/// one machine, and the full state audit stays green. Every confined
/// leaf carries the domain's key-ID and the frame's programmed key
/// matches (the PCONFIG pairing the keyed walk check enforces).
#[test]
fn keyed_backend_confines_256_sandboxes() {
    let mut p = booted_fleet(BackendKind::TmeMk);
    let mut domains = std::collections::BTreeSet::new();
    for _ in 0..256 {
        p.enter_kernel_mode();
        let id = p
            .cvm
            .monitor
            .create_sandbox(&mut p.cvm.machine, 0, 8)
            .expect("create");
        p.cvm
            .monitor
            .emc(
                &mut p.cvm.machine,
                &mut p.cvm.tdx,
                0,
                EmcRequest::DeclareConfined {
                    sandbox: id.0,
                    va: CONFINED_VA,
                    pages: 1,
                    executable: false,
                },
            )
            .expect("declare confined");
        let s = p.cvm.monitor.sandboxes.get(&id.0).expect("live");
        domains.insert(s.domain.0);
        let leaf = paging::lookup_raw(&p.cvm.machine.mem, s.root, CONFINED_VA)
            .expect("walk")
            .expect("confined page mapped");
        assert_eq!(leaf.keyid(), s.domain.0, "leaf tagged with the domain key-ID");
        assert_eq!(
            p.cvm.machine.mem.frame_key(leaf.frame()),
            s.domain.0,
            "frame key programmed to match"
        );
    }
    assert_eq!(domains.len(), 256, "256 distinct key-ID domains");
    assert!(p.cvm.monitor.backend.live_domains() >= 256);
    assert!(
        p.cvm.monitor.backend.capacity() > p.cvm.monitor.backend.live_domains(),
        "keyed capacity has headroom left"
    );
    let report = p.audit();
    assert!(report.is_clean(), "{}", report.json());
}

// ====================================================================
// Satellite: the kill-teardown fence
// ====================================================================

/// Create a sandbox with *zero* confined pages (so teardown issues no
/// shootdown — the worst case for the fence), park victim core 1 on the
/// sandbox's CR3, warm its permission-decision cache, then kill the
/// sandbox. The kill leaves that cache in place, still keyed to the dead
/// sandbox's CR3 and the pre-kill epoch: revive that epoch and the
/// batch layer would serve the stale decisions without a walk. The
/// fence's unconditional epoch bump is what closes the window, and the
/// fence revokes the domain.
#[test]
fn kill_fence_closes_the_decision_window_and_frees_the_domain() {
    let mut p = booted_with(BackendKind::Pks);
    p.enter_kernel_mode();
    let id = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, 4)
        .expect("create");
    let root = p.cvm.monitor.sandboxes.get(&id.0).expect("live").root;

    // Victim core 1 runs (deprivileged-kernel mode) on the sandbox's
    // address space and caches permission decisions keyed to that CR3.
    p.cvm.machine.cpus[1].mode = CpuMode::Supervisor;
    p.cvm.machine.cpus[1].domain = Domain::Kernel;
    p.cvm.machine.cpus[1].cr3 = root;
    p.cvm.machine.flush_tlb(1);
    let ops = [BatchOp::Probe {
        va: KERNEL_BASE,
        kind: AccessKind::Read,
    }; 2];
    let out = p.cvm.machine.run_batch(1, &ops);
    assert!(out.fault.is_none(), "{out:?}");
    let cache = p.cvm.machine.decision_cache(1);
    assert!(cache.occupancy() > 0, "cache warmed");
    let ctx = cache.ctx().expect("cache keyed to the sandbox's CR3");
    let pre_kill_epoch = p.cvm.machine.mmu_epoch();
    assert!(cache.valid_for(&ctx, pre_kill_epoch));

    let live_before = p.cvm.monitor.backend.live_domains();
    p.cvm
        .monitor
        .kill_sandbox(&mut p.cvm.machine, id, "fence test");
    let cache = p.cvm.machine.decision_cache(1);
    assert!(
        cache.occupancy() > 0 && cache.valid_for(&ctx, pre_kill_epoch),
        "the stale decisions survive the kill, valid under the pre-kill epoch"
    );
    assert!(
        !cache.valid_for(&ctx, p.cvm.machine.mmu_epoch()),
        "fence bumps the epoch even with zero confined pages"
    );
    assert_eq!(
        p.cvm.monitor.backend.live_domains(),
        live_before - 1,
        "domain revoked"
    );
}

/// Every kill's fence returns the domain, so PKS create/kill churn runs
/// indefinitely even though the key space holds only ten sandboxes.
#[test]
fn churn_with_fence_never_exhausts_pks_domains() {
    let mut p = booted_with(BackendKind::Pks);
    p.enter_kernel_mode();
    for _ in 0..32 {
        let id = p
            .cvm
            .monitor
            .create_sandbox(&mut p.cvm.machine, 0, 4)
            .expect("churn create");
        p.cvm.monitor.kill_sandbox(&mut p.cvm.machine, id, "churn");
    }
    assert_eq!(p.cvm.monitor.backend.live_domains(), 0);
}

// ====================================================================
// A failed declaration gives its arena back
// ====================================================================

/// Fails exactly the `n`th frame allocation after it is installed.
struct FailNthAlloc {
    n: u64,
    seen: u64,
}

impl Injector for FailNthAlloc {
    fn fail_alloc(&mut self) -> bool {
        self.seen += 1;
        self.seen == self.n
    }
}

fn declare(p: &mut Platform, id: SandboxId, pages: u64) -> Result<(), EmcError> {
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
        .map(|_| ())
}

/// A declaration allocates its whole arena first, then the page-table
/// pages of the first page's leaf path. Failing the first or the second
/// of those table allocations leaves the arena kinded, tagged and
/// keyed but unmapped. The failed EMC must give back what it never
/// mapped, so after the kill no frame is kinded `Confined` for the dead
/// sandbox and every arena frame is free. What remains is page-table
/// pages only — the sandbox root plus each table linked before the
/// failure — which the kill does not free yet.
#[test]
fn failed_declaration_gives_its_arena_back() {
    const PAGES: u64 = 64;
    for backend in [BackendKind::Pks, BackendKind::TmeMk] {
        // The arena a clean declaration gets, by a dry run on an
        // identical platform (the simulation is deterministic).
        let arena: Vec<Frame> = {
            let mut p = booted_with(backend);
            p.enter_kernel_mode();
            let id = p
                .cvm
                .monitor
                .create_sandbox(&mut p.cvm.machine, 0, PAGES)
                .expect("create");
            declare(&mut p, id, PAGES).expect("dry run");
            let s = p.cvm.monitor.sandboxes.get(&id.0).expect("live");
            s.confined.iter().map(|&(_, f)| f).collect()
        };
        assert_eq!(arena.len() as u64, PAGES);

        for (nth_table, tables_linked) in [(1, 0), (2, 1)] {
            let mut p = booted_with(backend);
            p.enter_kernel_mode();
            let before = p.cvm.machine.mem.allocated_frames();
            let id = p
                .cvm
                .monitor
                .create_sandbox(&mut p.cvm.machine, 0, PAGES)
                .expect("create");
            p.cvm.machine.set_injector(inject::handle(FailNthAlloc {
                n: PAGES + nth_table,
                seen: 0,
            }));
            let err = declare(&mut p, id, PAGES).expect_err("table allocation fails");
            p.cvm.machine.clear_injector();
            assert_eq!(err, EmcError::NoMemory, "{backend:?} table {nth_table}");
            let s = p.cvm.monitor.sandboxes.get(&id.0).expect("live");
            assert!(s.confined.is_empty(), "{backend:?}: nothing was mapped");

            p.cvm
                .monitor
                .kill_sandbox(&mut p.cvm.machine, id, "failed declaration");
            let confined = p
                .cvm
                .monitor
                .frames
                .count_kind(|k| k == FrameKind::Confined { sandbox: id.0 });
            assert_eq!(
                confined, 0,
                "{backend:?} table {nth_table}: Confined frames left"
            );
            for &f in &arena {
                assert!(
                    !p.cvm.machine.mem.is_allocated(f),
                    "{backend:?} table {nth_table}: arena frame {f:?} still allocated"
                );
                assert_eq!(p.cvm.machine.mem.frame_key(f), 0, "{backend:?}: key left");
            }
            assert_eq!(
                p.cvm.machine.mem.allocated_frames() - before,
                1 + tables_linked,
                "{backend:?} table {nth_table}: only the root and the linked tables remain"
            );
            let report = p.audit();
            assert!(report.is_clean(), "{}", report.json());
        }
    }
}
