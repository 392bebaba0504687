//! Reference-model suite for the fleet's O(1) monitor lookups. One
//! platform runs each randomized boot/kill/realloc/serve campaign (and
//! the deterministic fleet schedule) while the test keeps an obviously
//! correct model beside it: a `BTreeMap` from root to id over the live
//! sandboxes. After every op, `Monitor::sandbox_by_root` must agree
//! with the model for every root ever created, and
//! `Monitor::address_space_registered` must agree with the monitor's
//! own enumeration, `address_space_roots()`. A native process drives
//! the kernel's `map_user_page` path, which consults both lookups per
//! page. The frame allocator's reference model lives in
//! `crates/hw/tests/alloc_model.rs`.
//!
//! The fleet schedule's own claim is same-seed determinism; the
//! teardown shootdowns' race-detector and audit claims live in
//! tests/chaos.rs.
//!
//! Reproducible via `EREBOR_PT_SEED` like every other property test.

use erebor::ecore::channel::Client;
use erebor::ecore::SandboxId;
use erebor::ehw::Frame;
use erebor::elibos::api::Sys;
use erebor::{Mode, Platform, ServiceInstance};
use erebor_testkit::collection;
use erebor_testkit::prelude::*;
use erebor_testkit::prop::CaseError;
use erebor_workloads::env::SandboxedWorkload;
use erebor_workloads::fleet::{FleetClass, FleetConfig, FleetDriver, FleetOp};
use std::collections::{BTreeMap, BTreeSet};

/// A native process with mapped pages; each further
/// [`NativeMapper::map_page`] drives `map_user_page` once more.
struct NativeMapper {
    pid: erebor::ekernel::Pid,
    next: u64,
    end: u64,
}

const NATIVE_PAGES: u64 = 64;

impl NativeMapper {
    fn spawn(p: &mut Platform) -> NativeMapper {
        let pid = p.spawn_native().expect("spawn native");
        let base = p
            .proc(pid)
            .syscall(
                erebor::ekernel::syscall::nr::MMAP,
                [0, NATIVE_PAGES * 4096, 3, 0, 0, 0],
            )
            .expect("native mmap");
        let mut mapper = NativeMapper {
            pid,
            next: base,
            end: base + NATIVE_PAGES * 4096,
        };
        mapper.map_page(p);
        mapper
    }

    /// Fault in the next untouched page (no-op once all are mapped).
    fn map_page(&mut self, p: &mut Platform) {
        if self.next < self.end {
            p.proc(self.pid)
                .touch(self.next, true)
                .expect("native touch");
            self.next += 4096;
        }
    }
}

/// The test's reference state: the model sandbox table (live roots →
/// ids, plus every root seen, so retired roots keep being probed) and
/// the native process that drives `map_user_page`.
struct Reference {
    live: BTreeMap<u64, SandboxId>,
    roots_seen: BTreeSet<u64>,
    native: NativeMapper,
}

impl Reference {
    fn new(p: &mut Platform) -> Reference {
        Reference {
            live: BTreeMap::new(),
            roots_seen: BTreeSet::new(),
            native: NativeMapper::spawn(p),
        }
    }

    fn deployed(&mut self, p: &Platform, id: SandboxId) {
        let root = p.cvm.monitor.sandboxes.get(&id.0).expect("deployed").root.0;
        self.live.insert(root, id);
        self.roots_seen.insert(root);
    }

    fn killed(&mut self, id: SandboxId) {
        self.live.retain(|_, live| *live != id);
    }

    fn check(&mut self, p: &Platform) -> Result<(), CaseError> {
        let monitor = &p.cvm.monitor;
        let spaces: BTreeSet<u64> = monitor.address_space_roots().iter().map(|f| f.0).collect();
        self.roots_seen.extend(&spaces);
        for &root in &self.roots_seen {
            let (got, want) = (monitor.sandbox_by_root(Frame(root)), self.live.get(&root));
            prop_assert_eq!(
                got.as_ref(),
                want,
                "sandbox_by_root({:#x}) = {:?}, model says {:?}",
                root,
                got,
                want
            );
            let registered = monitor.address_space_registered(Frame(root));
            prop_assert_eq!(
                registered,
                spaces.contains(&root),
                "address_space_registered({:#x}) = {} disagrees with address_space_roots()",
                root,
                registered
            );
        }
        Ok(())
    }
}

struct Slot {
    svc: ServiceInstance,
    client: Client,
    alive: bool,
}

fn deploy_slot(p: &mut Platform, reference: &mut Reference, slots: &mut Vec<Slot>, seed: u32) {
    let class = if seed.is_multiple_of(2) {
        FleetClass::Nginx
    } else {
        FleetClass::Openssh
    };
    let pages = 4 + u64::from(seed) % 8;
    let svc = p
        .deploy(
            Box::new(SandboxedWorkload::new(class.workload(pages))),
            4096,
        )
        .expect("deploy");
    reference.deployed(p, svc.sandbox);
    let client = p
        .connect_client(&svc, [u8::try_from(seed & 0xff).expect("masked"); 32])
        .expect("attest");
    slots.push(Slot {
        svc,
        client,
        alive: true,
    });
}

fn kill_slot(p: &mut Platform, reference: &mut Reference, slots: &mut [Slot], sel: u8) -> bool {
    let live: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].alive).collect();
    if live.is_empty() {
        return false;
    }
    let victim = live[sel as usize % live.len()];
    let id = slots[victim].svc.sandbox;
    p.cvm
        .monitor
        .kill_sandbox(&mut p.cvm.machine, id, "model kill");
    reference.killed(id);
    slots[victim].alive = false;
    true
}

/// Interpret one randomized campaign, checking the model after every op.
fn run_random_campaign(p: &mut Platform, script: &[(u8, u8, u32)]) -> Result<(), CaseError> {
    let mut reference = Reference::new(p);
    let mut slots: Vec<Slot> = Vec::new();
    // Every campaign deploys at least once so the gate paths run.
    deploy_slot(p, &mut reference, &mut slots, 0);
    reference.check(p)?;
    for &(sel, slot_sel, seed) in script {
        match sel % 5 {
            0 => deploy_slot(p, &mut reference, &mut slots, seed),
            1 => {
                kill_slot(p, &mut reference, &mut slots, slot_sel);
            }
            2 => {
                let live: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].alive).collect();
                if let Some(&i) = live.get(slot_sel as usize % live.len().max(1)) {
                    let payload = format!("f={}", 4096u64 << (seed % 3));
                    let slot = &mut slots[i];
                    p.serve_request(&mut slot.svc, &mut slot.client, payload.as_bytes())
                        .expect("serve");
                }
            }
            3 => {
                // Realloc: kill one, immediately redeploy another — the
                // free-then-refill pattern that recycles root frames.
                if kill_slot(p, &mut reference, &mut slots, slot_sel) {
                    deploy_slot(p, &mut reference, &mut slots, seed);
                }
            }
            _ => reference.native.map_page(p),
        }
        reference.check(p)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn random_campaigns_match_reference_model(
        script in collection::vec((any::<u8>(), any::<u8>(), any::<u32>()), 1..24),
    ) {
        let mut p = Platform::boot(Mode::Full).expect("boot");
        run_random_campaign(&mut p, &script)?;
        // The post-campaign state satisfies every audit claim (C1–C9).
        prop_assert!(p.audit().is_clean(), "campaign audit dirty");
    }
}

// ====================================================================
// Deterministic fleet schedule
// ====================================================================

/// A miniature but complete fleet schedule: shared-region class, both
/// server shapes, client routing, interleaved churn.
fn tiny_fleet_config() -> FleetConfig {
    FleetConfig {
        seed: 0xeb0_0001,
        sandboxes: 8,
        clients: 3,
        requests: 40,
        churn: 4,
        private_pages: 8,
        budget_pages: 4096,
        llm_slots: 0,
        retrieval_slots: 1,
    }
}

/// Interpret the deterministic fleet schedule on `p`; returns reply
/// bytes in schedule order. With a `model`, a native page is mapped and
/// the model checked after every op.
fn run_fleet_schedule(
    p: &mut Platform,
    cfg: FleetConfig,
    mut reference: Option<&mut Reference>,
) -> Result<Vec<Vec<u8>>, CaseError> {
    let ops = FleetDriver::new(cfg).schedule();
    let mut svcs: Vec<Option<ServiceInstance>> = (0..cfg.sandboxes).map(|_| None).collect();
    let mut clients: Vec<Option<Client>> = (0..cfg.clients).map(|_| None).collect();
    let mut replies = Vec::new();
    for op in ops {
        match op {
            FleetOp::Deploy { slot, class } | FleetOp::Churn { slot, class } => {
                if let Some(old) = svcs[slot].take() {
                    p.cvm
                        .monitor
                        .kill_sandbox(&mut p.cvm.machine, old.sandbox, "fleet churn");
                    if let Some(m) = reference.as_deref_mut() {
                        m.killed(old.sandbox);
                    }
                }
                let program = SandboxedWorkload::new(class.workload(cfg.private_pages));
                let svc = p
                    .deploy(Box::new(program), cfg.budget_pages)
                    .expect("deploy");
                if let Some(m) = reference.as_deref_mut() {
                    m.deployed(p, svc.sandbox);
                }
                svcs[slot] = Some(svc);
            }
            FleetOp::Connect { slot } => {
                let svc = svcs[slot].as_ref().expect("deploy first");
                let seed = [u8::try_from(slot & 0xff).expect("masked"); 32];
                clients[slot] = Some(p.connect_client(svc, seed).expect("attest"));
            }
            FleetOp::Request { slot, payload } => {
                let svc = svcs[slot].as_mut().expect("deploy first");
                let client = clients[slot].as_mut().expect("connect first");
                replies.push(p.serve_request(svc, client, &payload).expect("serve"));
            }
        }
        if let Some(m) = reference.as_deref_mut() {
            m.native.map_page(p);
            m.check(p)?;
        }
    }
    Ok(replies)
}

/// The full fleet schedule — retrieval included, churn included — keeps
/// the monitor's lookups in step with the model, with a native process
/// mapping a page between consecutive schedule ops.
#[test]
fn fleet_schedule_matches_reference_model() -> Result<(), CaseError> {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let mut reference = Reference::new(&mut p);
    reference.check(&p)?;
    let replies = run_fleet_schedule(&mut p, tiny_fleet_config(), Some(&mut reference))?;
    assert_eq!(replies.len(), 40, "every scheduled request is served");
    assert!(p.audit().is_clean());
    Ok(())
}

/// Same-seed determinism of the fleet schedule, churn and its coalesced
/// teardown shootdowns included: two identical campaigns produce
/// byte-identical replies, traces and snapshots.
#[test]
fn coalesced_campaign_is_deterministic() {
    let cfg = tiny_fleet_config();
    let run = || {
        let mut p = Platform::boot(Mode::Full).expect("boot");
        let replies = run_fleet_schedule(&mut p, cfg, None).expect("no model to disagree");
        assert!(p.audit().is_clean(), "fleet campaign audit dirty");
        (replies, p.trace_json(), format!("{:?}", p.snapshot()))
    };
    let (r1, t1, s1) = run();
    let (r2, t2, s2) = run();
    assert_eq!(r1, r2, "replies diverged across same-seed runs");
    assert_eq!(t1, t2, "trace diverged across same-seed runs");
    assert_eq!(s1, s2, "snapshot diverged across same-seed runs");
}
