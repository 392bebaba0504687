//! Integration tests for the isolation-backend seam: the PKS capacity
//! boundary (typed exhaustion, domain recycling), the TME-MK keyed
//! backend confining hundreds of sandboxes in one address space, the
//! kill-teardown fence (domain revocation), a confined declaration that
//! fails part-way giving its arena back, and kills that fault or repeat
//! never stranding a core, leaking frames or revoking a live domain.

use erebor::ecore::emc::{EmcError, EmcRequest};
use erebor::ecore::policy::FrameKind;
use erebor::ecore::sandbox::{SandboxId, SandboxState};
use erebor::ehw::fault::Fault;
use erebor::ehw::inject::{self, InjectionPoint, Injector};
use erebor::ehw::isolation::BackendKind;
use erebor::ehw::paging;
use erebor::ehw::regs::Msr;
use erebor::ehw::{Frame, VirtAddr};
use erebor::{Platform, TraceEvent};

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

/// A sandbox with *zero* confined pages gives the kill's teardown
/// nothing to unmap, shoot down or release; the fence still revokes its
/// domain.
#[test]
fn kill_fence_frees_the_domain_of_an_empty_sandbox() {
    let mut p = booted_with(BackendKind::Pks);
    p.enter_kernel_mode();
    let id = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, 4)
        .expect("create");
    let live_before = p.cvm.monitor.backend.live_domains();
    p.cvm
        .monitor
        .kill_sandbox(&mut p.cvm.machine, id, "fence test");
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

// ====================================================================
// Kills that fault or repeat
// ====================================================================

/// Faults the next `wrmsr` on core 0, once.
struct FaultNextWrmsr {
    armed: bool,
}

impl Injector for FaultNextWrmsr {
    fn inject_fault(&mut self, p: InjectionPoint) -> Option<Fault> {
        if self.armed && matches!(p, InjectionPoint::Wrmsr { cpu: 0, .. }) {
            self.armed = false;
            return Some(Fault::GeneralProtection("injected fault"));
        }
        None
    }
}

/// A kill whose privilege raise faults changes nothing on core 0 and
/// leaves the sandbox dead with its confined pages still listed; the
/// next kill finishes the teardown. Afterwards no frame is `Confined`
/// for the sandbox, only its page-table pages stay allocated, its domain
/// is revoked and the audit is clean.
#[test]
fn faulted_kill_rolls_back_and_a_retry_finishes_the_teardown() {
    const PAGES: u64 = 4;
    for backend in [BackendKind::Pks, BackendKind::TmeMk] {
        let mut p = booted_with(backend);
        p.enter_kernel_mode();
        let before = p.cvm.machine.mem.allocated_frames();
        let id = p
            .cvm
            .monitor
            .create_sandbox(&mut p.cvm.machine, 0, PAGES)
            .expect("create");
        declare(&mut p, id, PAGES).expect("declare");
        let tables = p.cvm.machine.mem.allocated_frames() - before - PAGES;
        let core0 = |p: &Platform| {
            let c = &p.cvm.machine.cpus[0];
            (c.domain, c.mode, c.msr(Msr::Pkrs))
        };
        let pre_kill = core0(&p);

        p.cvm
            .machine
            .set_injector(inject::handle(FaultNextWrmsr { armed: true }));
        p.cvm
            .monitor
            .kill_sandbox(&mut p.cvm.machine, id, "faulted kill");
        p.cvm.machine.clear_injector();
        assert_eq!(core0(&p), pre_kill, "{backend:?}: core 0 stranded");
        let s = p.cvm.monitor.sandboxes.get(&id.0).expect("entry");
        assert_eq!(s.state, SandboxState::Dead);
        assert_eq!(s.confined.len() as u64, PAGES, "{backend:?}: list drained");
        assert_eq!(p.cvm.monitor.backend.live_domains(), 1);

        p.cvm.monitor.kill_sandbox(&mut p.cvm.machine, id, "retry");
        let confined = p
            .cvm
            .monitor
            .frames
            .count_kind(|k| k == FrameKind::Confined { sandbox: id.0 });
        assert_eq!(confined, 0, "{backend:?}: Confined frames left");
        assert_eq!(
            p.cvm.machine.mem.allocated_frames() - before,
            tables,
            "{backend:?}: only the page-table pages remain"
        );
        assert_eq!(p.cvm.monitor.backend.live_domains(), 0, "{backend:?}");
        assert_eq!(
            p.cvm.monitor.stats.sandboxes_killed, 1,
            "{backend:?}: the retry counted a second kill"
        );
        let report = p.audit();
        assert!(report.is_clean(), "{}", report.json());
    }
}

/// `kill` trace events recorded for sandbox `id` on core 0, where the
/// teardown runs.
fn kill_events(p: &Platform, id: SandboxId) -> usize {
    let kill = TraceEvent::Emc {
        op: "kill",
        arg: u64::from(id.0),
    };
    let records = p.cvm.machine.trace.core(0);
    records.iter().filter(|r| r.event == kill).count()
}

/// Killing a dead sandbox again, or ending its session, must not revoke
/// the domain a newer sandbox was handed: B keeps its domain live and C
/// gets a different one. Neither changes A's record: one kill, counted
/// once, with the reason it first died for.
#[test]
fn a_second_kill_never_revokes_a_recycled_domain() {
    for backend in [BackendKind::Pks, BackendKind::TmeMk] {
        let mut p = booted_with(backend);
        p.enter_kernel_mode();
        let create = |p: &mut Platform| {
            let id = p
                .cvm
                .monitor
                .create_sandbox(&mut p.cvm.machine, 0, 4)
                .expect("create");
            (id, p.cvm.monitor.sandboxes.get(&id.0).expect("live").domain)
        };
        let (a, _) = create(&mut p);
        p.cvm
            .monitor
            .kill_sandbox(&mut p.cvm.machine, a, "first kill");
        let (_, b) = create(&mut p);
        p.cvm
            .monitor
            .kill_sandbox(&mut p.cvm.machine, a, "second kill");
        p.cvm.monitor.end_session(&mut p.cvm.machine, a);
        assert_eq!(
            p.cvm.monitor.backend.live_domains(),
            1,
            "{backend:?}: B's domain was revoked"
        );
        assert_eq!(p.cvm.monitor.stats.sandboxes_killed, 1, "{backend:?}");
        let a_record = p.cvm.monitor.sandboxes.get(&a.0).expect("entry");
        assert_eq!(a_record.kill_reason, Some("first kill"), "{backend:?}");
        assert_eq!(kill_events(&p, a), 1, "{backend:?}");
        let (_, c) = create(&mut p);
        assert_ne!(b, c, "{backend:?}: B and C share a domain");
        assert_eq!(p.cvm.monitor.backend.live_domains(), 2);
    }
}
