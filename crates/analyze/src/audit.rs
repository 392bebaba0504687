//! The state auditor: exhaustive static verification of the paper's
//! security claims over a machine snapshot.
//!
//! Each check re-derives its claim from raw state — in-memory page
//! tables, the frame table, the sEPT, TLB arrays, registers — with no
//! help from the code paths that *established* that state, so a bug in
//! the gate/monitor/mmu-guard plumbing surfaces as a structured
//! [`Finding`] pointing at the offending GPA/PTE path. DESIGN.md §9
//! gives the full check → claim (C1–C8) mapping and the encoding each
//! check uses.
//!
//! The auditor never mutates the machine: every read is a raw physical
//! load (`PhysMemory::read_u64`), never a CPU access, so auditing cannot
//! perturb TLBs, cycle counts, or traces.

use crate::findings::{AuditReport, Finding};
use erebor_core::gate::EmcGate;
use erebor_core::monitor::Monitor;
use erebor_core::policy::{self, FrameKind};
use erebor_hw::cpu::{Domain, Machine};
use erebor_hw::paging::Pte;
use erebor_hw::phys::PhysMemory;
use erebor_hw::regs::Msr;
use erebor_hw::{idt, layout, Frame, PhysAddr, VirtAddr};
use erebor_tdx::sept::{GpaState, Sept};
use std::collections::{BTreeMap, BTreeSet};

/// Everything the auditor may look at. The machine and at least one
/// page-table root are mandatory; the monitor-side views are optional so
/// the same auditor runs over the monitor-less chaos world (where only
/// the hardware-level checks apply).
#[derive(Debug, Clone, Copy)]
pub struct MachineView<'a> {
    /// The simulated machine (registers, DRAM, TLBs, shadow stacks).
    pub machine: &'a Machine,
    /// Page-table roots to walk, in addition to any the monitor knows.
    pub roots: &'a [Frame],
    /// EMC gate state, for PKRS-confinement exemptions mid-EMC.
    pub gate: Option<&'a EmcGate>,
    /// The monitor (frame table, sandboxes, interposer addresses).
    /// Enables the policy-level checks (C2–C5, C7, and the bookkeeping
    /// half of C8).
    pub monitor: Option<&'a Monitor>,
    /// The TDX module's secure EPT.
    pub sept: Option<&'a Sept>,
}

/// One present leaf mapping discovered by the exhaustive walk, with the
/// page-walk-effective permissions (writable AND-ed, NX OR-ed, user
/// AND-ed over the levels) and the slot path that produced it.
struct LeafMapping {
    root: Frame,
    va: VirtAddr,
    pte: Pte,
    slot: PhysAddr,
    writable: bool,
    nx: bool,
    user: bool,
}

impl LeafMapping {
    fn detail(&self) -> String {
        format!(
            "root {:#x} va {:#x} slot {:#x} -> frame {:#x} pte {:#x} (w={} nx={} user={} pk={})",
            self.root.0,
            self.va.0,
            self.slot.0,
            self.pte.frame().0,
            self.pte.0,
            self.writable,
            self.nx,
            self.user,
            self.pte.pkey()
        )
    }
}

fn saturating_bump(counter: &mut u64) {
    *counter = counter.saturating_add(1);
}

/// Exhaustively enumerate the present leaf mappings under `root`,
/// reconstructing each virtual address from the table indices (canonical
/// sign-extension included).
fn walk_root(mem: &PhysMemory, root: Frame, report: &mut AuditReport, out: &mut Vec<LeafMapping>) {
    let mut stack: Vec<(Frame, u8, u64, bool, bool, bool)> = vec![(root, 4, 0, true, false, true)];
    while let Some((tbl, level, prefix, w, nx, user)) = stack.pop() {
        for idx in 0..512u64 {
            let slot = PhysAddr(tbl.base().0 + idx * 8);
            saturating_bump(&mut report.pte_reads);
            let Ok(raw) = mem.read_u64(slot) else {
                continue; // table frame beyond DRAM: nothing mapped here
            };
            let entry = Pte(raw);
            if !entry.present() {
                continue;
            }
            let shift = 12 + 9 * u64::from(level - 1);
            let mut va = prefix | (idx << shift);
            if level == 4 && idx >= 256 {
                va |= 0xffff_0000_0000_0000; // canonical upper half
            }
            let w2 = w && entry.writable();
            let nx2 = nx || entry.nx();
            let user2 = user && entry.user();
            if level > 1 {
                stack.push((entry.frame(), level - 1, va, w2, nx2, user2));
            } else {
                saturating_bump(&mut report.leaf_mappings);
                out.push(LeafMapping {
                    root,
                    va: VirtAddr(va),
                    pte: entry,
                    slot,
                    writable: w2,
                    nx: nx2,
                    user: user2,
                });
            }
        }
    }
}

/// Fresh effective translation for one page (the TLB cross-check),
/// counting its PTE loads against the report budget.
fn walk_effective(
    mem: &PhysMemory,
    root: Frame,
    va: VirtAddr,
    report: &mut AuditReport,
) -> Option<(Frame, bool, bool, u8, u16)> {
    let mut tbl = root;
    let mut writable = true;
    let mut nx = false;
    for level in (2..=4u8).rev() {
        saturating_bump(&mut report.pte_reads);
        let entry = Pte(mem.read_u64(erebor_hw::paging::pte_slot(tbl, va, level)).ok()?);
        if !entry.present() {
            return None;
        }
        writable &= entry.writable();
        nx |= entry.nx();
        tbl = entry.frame();
    }
    saturating_bump(&mut report.pte_reads);
    let leaf = Pte(mem.read_u64(erebor_hw::paging::pte_slot(tbl, va, 1)).ok()?);
    if !leaf.present() {
        return None;
    }
    if leaf.keyid() != mem.frame_key(leaf.frame()) {
        // A fresh walk would fault with `KeyMismatch` (TME-MK): the
        // mapping's key-ID no longer matches the frame's programmed key.
        return None;
    }
    Some((
        leaf.frame(),
        writable && leaf.writable(),
        nx || leaf.nx(),
        leaf.pkey(),
        leaf.keyid(),
    ))
}

/// Run the full audit over `view`. Deterministic: same snapshot, same
/// report (findings are emitted in walk order, roots in sorted order).
#[must_use]
pub fn audit(view: &MachineView) -> AuditReport {
    let mut report = AuditReport::default();

    // Root set: caller-supplied roots plus everything the monitor tracks
    // (kernel root, registered user address spaces, sandbox roots).
    let mut roots: Vec<Frame> = view.roots.to_vec();
    if let Some(mon) = view.monitor {
        roots.extend(mon.address_space_roots());
        roots.extend(mon.sandboxes.values().map(|s| s.root));
    }
    roots.sort_by_key(|r| r.0);
    roots.dedup();

    let mem = &view.machine.mem;
    let mut leaves: Vec<LeafMapping> = Vec::new();
    for &root in &roots {
        saturating_bump(&mut report.roots_walked);
        walk_root(mem, root, &mut report, &mut leaves);
    }

    check_wx(view, &leaves, &mut report);
    check_pkey_tagging(view, &leaves, &mut report);
    check_confined_unreachable(view, &leaves, &mut report);
    check_sstk_protected(view, &leaves, &mut report);
    check_sstk_balance(view, &mut report);
    check_control_transfer(view, &mut report);
    check_msr_pinning(view, &mut report);
    check_emc_consistency(view, &mut report);
    check_sept_consistency(view, &leaves, &mut report);
    check_ledger_consistency(view, &leaves, &mut report);
    report
}

/// C1 `wx-exclusive`: no leaf is walk-effectively writable+executable,
/// and (when the frame table is available to name kinds) no frame is
/// executable via one path while plainly writable — under a key normal
/// mode can store through — via another.
fn check_wx(view: &MachineView, leaves: &[LeafMapping], report: &mut AuditReport) {
    for m in leaves {
        if m.writable && !m.nx {
            report.findings.push(Finding::new(
                "wx-exclusive",
                "C1",
                format!("writable+executable leaf: {}", m.detail()),
            ));
        }
    }
    if view.monitor.is_none() {
        // Without the monitor's policy there is no notion of which
        // cross-path aliases are sanctioned; the per-leaf form above is
        // the whole hardware-level claim.
        return;
    }
    let normal = policy::normal_mode_pkrs();
    // frame -> (first executable path, first normal-mode-writable path)
    let mut paths: BTreeMap<u64, (Option<usize>, Option<usize>)> = BTreeMap::new();
    for (i, m) in leaves.iter().enumerate() {
        let e = paths.entry(m.pte.frame().0).or_default();
        if !m.nx && e.0.is_none() {
            e.0 = Some(i);
        }
        let pk = m.pte.pkey();
        // A write path only counts if normal-mode PKRS permits it *and*
        // the mapping's key-ID matches the frame's programmed key (a
        // keyed mismatch faults the walk under TME-MK).
        if m.writable
            && !normal.access_disabled(pk)
            && !normal.write_disabled(pk)
            && m.pte.keyid() == view.machine.mem.frame_key(m.pte.frame())
            && e.1.is_none()
        {
            e.1 = Some(i);
        }
    }
    for (frame, (exec, write)) in paths {
        if let (Some(x), Some(w)) = (exec, write) {
            if x != w {
                report.findings.push(Finding::new(
                    "wx-exclusive",
                    "C1",
                    format!(
                        "frame {:#x} executable via one path and normal-writable via another: \
                         exec [{}], write [{}]",
                        frame,
                        leaves[x].detail(),
                        leaves[w].detail()
                    ),
                ));
            }
        }
    }
}

/// C2 `pkey-tagging`: a frame whose kind demands a restrictive
/// protection key (monitor, PTP, kernel text, shadow stack, IDT) must
/// never be reachable through a leaf carrying the *default* key — that
/// would hand normal-mode code an ungoverned view of protected memory.
fn check_pkey_tagging(view: &MachineView, leaves: &[LeafMapping], report: &mut AuditReport) {
    let Some(mon) = view.monitor else { return };
    for m in leaves {
        let kind = mon.frames.kind(m.pte.frame());
        let want = policy::pkey_for(kind);
        if want != policy::PK_DEFAULT && m.pte.pkey() == policy::PK_DEFAULT {
            report.findings.push(Finding::new(
                "pkey-tagging",
                "C2",
                format!(
                    "{kind:?} frame demands pk{want} but is mapped with the default key: {}",
                    m.detail()
                ),
            ));
        }
        // Confined frames: every supervisor view must carry exactly the
        // tag the owning sandbox's isolation domain prescribes — the
        // sandbox pkey under PKS, the monitor pkey plus the sandbox
        // key-ID under TME-MK. Re-derived from the backend, so the check
        // states the same claim generically over mechanisms.
        if let FrameKind::Confined { sandbox } = kind {
            if !m.user {
                if let Some(s) = mon.sandboxes.get(&sandbox) {
                    let tag = mon.backend.frame_tag(s.domain);
                    if m.pte.pkey() != tag.pkey || m.pte.keyid() != tag.keyid {
                        report.findings.push(Finding::new(
                            "pkey-tagging",
                            "C2",
                            format!(
                                "confined frame of sandbox {sandbox} demands tag \
                                 (pk{}, key {}) but a supervisor view carries \
                                 (pk{}, key {}): {}",
                                tag.pkey,
                                tag.keyid,
                                m.pte.pkey(),
                                m.pte.keyid(),
                                m.detail()
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// C3 `confined-unreachable`: sandbox confined memory is reachable only
/// from its owning sandbox's address space (or under the monitor key).
/// After seal/unmap/kill the kernel and every other sandbox must have no
/// path to the frame.
fn check_confined_unreachable(view: &MachineView, leaves: &[LeafMapping], report: &mut AuditReport) {
    let Some(mon) = view.monitor else { return };
    for m in leaves {
        let FrameKind::Confined { sandbox } = mon.frames.kind(m.pte.frame()) else {
            continue;
        };
        if !m.user && policy::normal_mode_pkrs().access_disabled(m.pte.pkey()) {
            // A supervisor alias normal mode cannot touch: the monitor
            // key (TME-MK aliases) or a sandbox domain key (PKS aliases)
            // — both access-disabled outside an EMC.
            continue;
        }
        let owner_root = mon.sandboxes.get(&sandbox).map(|s| s.root);
        if owner_root != Some(m.root) {
            report.findings.push(Finding::new(
                "confined-unreachable",
                "C3",
                format!(
                    "confined frame of sandbox {sandbox} reachable outside its address space: {}",
                    m.detail()
                ),
            ));
        }
    }
}

/// C4 `sstk-protected`: shadow-stack frames are never writable to normal
/// stores — any writable leaf must carry the shadow-stack key (which
/// normal mode can only read through) or the monitor key.
fn check_sstk_protected(view: &MachineView, leaves: &[LeafMapping], report: &mut AuditReport) {
    let Some(mon) = view.monitor else { return };
    for m in leaves {
        if mon.frames.kind(m.pte.frame()) != FrameKind::ShadowStack {
            continue;
        }
        let pk = m.pte.pkey();
        if m.writable && pk != policy::PK_SSTK && pk != policy::PK_MONITOR {
            report.findings.push(Finding::new(
                "sstk-protected",
                "C4",
                format!("shadow-stack frame writable under pk{pk}: {}", m.detail()),
            ));
        }
    }
}

/// C4 `sstk-balance`: on every core with `IA32_S_CET.SH_STK_EN`, the
/// shadow stack holds exactly one return address per interrupt in
/// flight, so every `iret` pops the address its delivery pushed.
fn check_sstk_balance(view: &MachineView, report: &mut AuditReport) {
    let machine = view.machine;
    for (cpu, c) in machine.cpus.iter().enumerate() {
        if !c.sstk_enabled() {
            continue;
        }
        let sstk = machine.sstk[cpu].depth();
        let ints = machine.interrupt_depth(cpu) as usize;
        if sstk != ints {
            report.findings.push(Finding::new(
                "sstk-balance",
                "C4",
                format!("cpu {cpu}: shadow-stack depth {sstk} != interrupt depth {ints}"),
            ));
        }
    }
}

/// C5 `control-transfer`: every architectural entry point into the
/// monitor — the EMC gate, the syscall/interrupt interposers, every
/// installed IDT vector — lands on an ENDBR target inside the monitor
/// half (`IA32_LSTAR` is `msr-pinning`'s).
fn check_control_transfer(view: &MachineView, report: &mut AuditReport) {
    let Some(mon) = view.monitor else { return };
    // Syscall/interrupt interposition is the exit-protection layer
    // (§6.2); the LibOS-MMU ablation runs a monitor without it, with
    // LSTAR and the IDT legitimately still pointing into the kernel.
    if !mon.cfg.exit_protection() {
        return;
    }
    let machine = view.machine;
    let named = [
        ("gate entry", mon.gate.entry),
        ("syscall interposer", mon.syscall_interposer),
        ("interrupt interposer", mon.interrupt_interposer),
    ];
    for (what, va) in named {
        if !layout::is_monitor(va) {
            report.findings.push(Finding::new(
                "control-transfer",
                "C5",
                format!("{what} {:#x} is outside the monitor half", va.0),
            ));
        } else if !machine.endbr.is_target(va) {
            report.findings.push(Finding::new(
                "control-transfer",
                "C5",
                format!("{what} {:#x} is not an ENDBR target", va.0),
            ));
        }
    }
    // The hardware IDT, exactly as delivery would read it: resolve each
    // vector's slot through the core's live CR3 with raw physical loads.
    let mut seen: BTreeSet<(u64, u64)> = BTreeSet::new();
    for c in &machine.cpus {
        let Some(idtr) = c.idtr else { continue };
        if !seen.insert((c.cr3.0, idtr.base.0)) {
            continue; // identical table already checked
        }
        for vec in 0..idt::VECTORS as u64 {
            let va = idtr.base.add(vec * idt::ENTRY_SIZE);
            saturating_bump(&mut report.idt_entries);
            let Ok(Some(leaf)) = erebor_hw::paging::lookup_raw(&machine.mem, c.cr3, va) else {
                report.findings.push(Finding::new(
                    "control-transfer",
                    "C5",
                    format!("IDT page for vector {vec} unmapped under root {:#x}", c.cr3.0),
                ));
                continue;
            };
            let slot = PhysAddr(leaf.frame().base().0 + va.page_offset());
            let Ok(handler) = machine.mem.read_u64(slot) else {
                continue;
            };
            if handler == 0 {
                continue; // empty vector: delivery refuses it
            }
            let handler = VirtAddr(handler);
            if !layout::is_monitor(handler) {
                report.findings.push(Finding::new(
                    "control-transfer",
                    "C5",
                    format!(
                        "IDT vector {vec} lands at {:#x}, outside the monitor half",
                        handler.0
                    ),
                ));
            } else if !machine.endbr.is_target(handler) {
                report.findings.push(Finding::new(
                    "control-transfer",
                    "C5",
                    format!("IDT vector {vec} handler {:#x} is not an ENDBR target", handler.0),
                ));
            }
        }
    }
}

/// C6 `msr-pinning`: the privileged register state the monitor pins
/// stays pinned — `CR0.WP` set under paging, normal-mode PKRS denying
/// the monitor key outside an EMC, and `IA32_LSTAR` still pointing at
/// the monitor's syscall interposer. Inside an EMC the PKRS clause is
/// `emc-consistency`'s.
fn check_msr_pinning(view: &MachineView, report: &mut AuditReport) {
    let machine = view.machine;
    let gate = gate_of(view);
    for (cpu, c) in machine.cpus.iter().enumerate() {
        if c.cr0.pg() && !c.cr0.wp() {
            report.findings.push(Finding::new(
                "msr-pinning",
                "C6",
                format!("cpu {cpu}: CR0.WP clear under paging (cr0 {:#x})", c.cr0.0),
            ));
        }
        // The monitor-key discipline only exists where a monitor (or at
        // least its gate) does; native CVMs run with PKRS wide open.
        let monitor_mode = gate.is_some() || view.monitor.is_some();
        let in_emc = gate.is_some_and(|g| g.in_emc(cpu));
        if monitor_mode
            && c.cr4.pks()
            && matches!(c.domain, Domain::Kernel | Domain::User)
            && !in_emc
            && !c.pkrs().access_disabled(policy::PK_MONITOR)
        {
            report.findings.push(Finding::new(
                "msr-pinning",
                "C6",
                format!(
                    "cpu {cpu}: {:?}-domain PKRS {:#x} grants the monitor key outside an EMC",
                    c.domain,
                    c.pkrs().0
                ),
            ));
        }
        if let Some(mon) = view.monitor.filter(|m| m.cfg.exit_protection()) {
            let lstar = c.msr(Msr::Lstar);
            if lstar != 0 && lstar != mon.syscall_interposer.0 {
                report.findings.push(Finding::new(
                    "msr-pinning",
                    "C6",
                    format!(
                        "cpu {cpu}: IA32_LSTAR {lstar:#x} moved off the syscall interposer {:#x}",
                        mon.syscall_interposer.0
                    ),
                ));
            }
        }
    }
}

/// C6 `emc-consistency`: a core the gate marks `in_emc` tells one story
/// across the gate and its registers. A live EMC runs in the monitor
/// domain under monitor-mode PKRS; a preempted one has that PKRS stashed
/// in the gate's save slot and a live PKRS that denies the monitor key.
fn check_emc_consistency(view: &MachineView, report: &mut AuditReport) {
    let Some(gate) = gate_of(view) else { return };
    let monitor_mode = policy::monitor_mode_pkrs();
    for (cpu, c) in view.machine.cpus.iter().enumerate() {
        if !gate.in_emc(cpu) {
            continue;
        }
        let pkrs = c.pkrs();
        let torn = match gate.saved_pkrs(cpu) {
            None if c.domain != Domain::Monitor => {
                format!("live EMC in the {:?} domain", c.domain)
            }
            None if pkrs != monitor_mode => {
                format!("live EMC under PKRS {:#x}, not monitor mode", pkrs.0)
            }
            Some(_) if !pkrs.access_disabled(policy::PK_MONITOR) => {
                format!(
                    "preempted EMC but live PKRS {:#x} grants the monitor key",
                    pkrs.0
                )
            }
            Some(saved) if saved != monitor_mode.0 => {
                format!("preempted EMC saved PKRS {saved:#x}, not monitor mode")
            }
            _ => continue,
        };
        report.findings.push(Finding::new(
            "emc-consistency",
            "C6",
            format!("cpu {cpu}: {torn}"),
        ));
    }
}

/// The EMC gate the view exposes: the chaos world's own, else the
/// monitor's.
fn gate_of<'a>(view: &MachineView<'a>) -> Option<&'a EmcGate> {
    view.gate.or(view.monitor.map(|m| &m.gate))
}

/// C7 `sept-consistency`: the guest's mappings agree with the sEPT —
/// frames the guest maps as ordinary memory are accepted private, and
/// every host-shared GPA is typed `SharedDevice` in the frame table (so
/// nothing secret can sit in a window the host can read).
fn check_sept_consistency(view: &MachineView, leaves: &[LeafMapping], report: &mut AuditReport) {
    let (Some(mon), Some(sept)) = (view.monitor, view.sept) else {
        return;
    };
    let mut checked: BTreeSet<u64> = BTreeSet::new();
    for m in leaves {
        let f = m.pte.frame();
        if !checked.insert(f.0) {
            continue;
        }
        let kind = mon.frames.kind(f);
        match sept.state(f) {
            Some(GpaState::Shared) if kind != FrameKind::SharedDevice => {
                report.findings.push(Finding::new(
                    "sept-consistency",
                    "C7",
                    format!("host-shared frame mapped as {kind:?}: {}", m.detail()),
                ));
            }
            Some(GpaState::Private) if kind == FrameKind::SharedDevice => {
                report.findings.push(Finding::new(
                    "sept-consistency",
                    "C7",
                    format!("SharedDevice frame still sEPT-private: {}", m.detail()),
                ));
            }
            _ => {}
        }
    }
    for f in sept.shared_frames() {
        let kind = mon.frames.kind(f);
        if !matches!(kind, FrameKind::SharedDevice | FrameKind::Unused) {
            report.findings.push(Finding::new(
                "sept-consistency",
                "C7",
                format!("sEPT-shared frame {:#x} is typed {kind:?} in the frame table", f.0),
            ));
        }
    }
}

/// C8 `ledger-consistency`: the hardware/monitor bookkeeping matches the
/// tables — every live TLB entry agrees with a fresh walk unless its
/// staleness is recorded in the `pending_shootdowns` ledger, and no
/// frame the monitor accounts as fully unmapped is still reachable.
fn check_ledger_consistency(view: &MachineView, leaves: &[LeafMapping], report: &mut AuditReport) {
    let machine = view.machine;
    for (cpu, tlb) in machine.tlbs.iter().enumerate() {
        for e in tlb.entries() {
            saturating_bump(&mut report.tlb_entries);
            if machine.shootdown_pending(cpu, e.root, e.page) {
                continue; // recorded (tolerated) staleness
            }
            let va = VirtAddr(e.page << 12);
            let fresh = walk_effective(&machine.mem, e.root, va, report);
            // Dirty state excluded: a clean cached entry over a dirty PTE
            // re-walks on write, so it can never grant anything stale.
            let cached = Some((e.frame, e.eff.writable, e.eff.nx, e.eff.pkey, e.eff.keyid));
            if fresh != cached {
                report.findings.push(Finding::new(
                    "ledger-consistency",
                    "C8",
                    format!(
                        "cpu {cpu} TLB caches page {:#x} as {cached:?} but the tables say \
                         {fresh:?} with no pending-shootdown record",
                        e.page
                    ),
                ));
            }
        }
    }
    let Some(mon) = view.monitor else { return };
    for m in leaves {
        let f = m.pte.frame();
        if matches!(mon.frames.kind(f), FrameKind::UserAnon { .. }) && mon.frames.mapcount(f) == 0
        {
            report.findings.push(Finding::new(
                "ledger-consistency",
                "C8",
                format!("frame accounted fully unmapped but still reachable: {}", m.detail()),
            ));
        }
    }
}
