//! Checked page-table manipulation under the Nested-Kernel invariant
//! (§5.2): page-table pages carry [`crate::policy::PK_PTP`], so every PTE
//! store below goes through the MMU-checked CPU write path — it succeeds
//! only on a core whose `IA32_PKRS` grants PTP writes, i.e. inside an EMC
//! or during trusted boot.

use crate::policy::{pkey_for, FrameKind, FrameTable};
use erebor_hw::cpu::Machine;
use erebor_hw::fault::Fault;
use erebor_hw::layout::direct_map;
use erebor_hw::paging::{self, Pte, PteFlags};
use erebor_hw::{Frame, PhysAddr, VirtAddr};

/// Write a PTE slot through the checked CPU path (PKS-guarded).
///
/// # Errors
/// `#PF` with `PksWriteDisabled` when the caller lacks monitor privileges —
/// the attack tests rely on exactly this fault.
pub fn pte_write(
    machine: &mut Machine,
    cpu: usize,
    slot: PhysAddr,
    value: Pte,
) -> Result<(), Fault> {
    machine.write_u64(cpu, direct_map(slot), value.0)?;
    machine.cycles.charge(machine.costs.pte_store);
    Ok(())
}

/// Read a PTE slot (reads are unprivileged; the kernel may read tables).
#[must_use]
pub fn pte_read_raw(machine: &Machine, slot: PhysAddr) -> Pte {
    Pte(machine.mem.read_u64(slot).unwrap_or(0))
}

/// Rewrite the direct-map leaf for `frame` so its protection key matches a
/// new frame kind (retyping). The direct map stays writable for default
/// kinds and write-protected for trusted kinds.
///
/// # Errors
/// Propagates checked-write faults.
pub fn retag_direct_map(
    machine: &mut Machine,
    cpu: usize,
    kernel_root: Frame,
    frame: Frame,
    kind: FrameKind,
) -> Result<(), Fault> {
    retag_direct_maps(machine, cpu, kernel_root, &[frame], pkey_for(kind), 0)
}

/// Rewrite the direct-map leaves of a run of frames with one *explicit*
/// isolation tag — protection key plus TME-MK key-ID — then close the
/// stale-translation window with one broadcast shootdown for every alias
/// whose tag changed. Confined-memory aliases use this: under the PKS
/// backend the tag is the owning sandbox's pkey (key-ID 0), under the
/// TME-MK backend it is `PK_MONITOR` plus the sandbox's key-ID; a kill
/// returns them all to `(PK_DEFAULT, 0)`.
///
/// One flush covers the run: an EMC runs to completion on one core, so
/// no core can use a stale alias between the rewrites and the flush.
/// Past [`Machine::SHOOTDOWN_FULL_FLUSH_CEILING`] changed aliases every
/// core full-flushes, a superset of the per-page invalidations.
///
/// # Errors
/// Propagates checked-write faults. The aliases rewritten before the
/// fault are still shot down.
pub fn retag_direct_maps(
    machine: &mut Machine,
    cpu: usize,
    kernel_root: Frame,
    frames: &[Frame],
    pkey: u8,
    keyid: u16,
) -> Result<(), Fault> {
    let flags = PteFlags {
        present: true,
        writable: true,
        nx: true,
        pkey,
        ..PteFlags::default()
    };
    let mut changed = Vec::new();
    let rewritten = frames.iter().try_for_each(|&frame| {
        let dm_va = direct_map(frame.base());
        let slot = paging::leaf_slot(&machine.mem, kernel_root, dm_va)
            .map_err(|_| Fault::Unrecoverable("direct-map walk left DRAM"))?
            .ok_or(Fault::Unrecoverable("direct map incomplete"))?;
        let old = pte_read_raw(machine, slot);
        pte_write(
            machine,
            cpu,
            slot,
            Pte::encode(frame, flags).with_keyid(keyid),
        )?;
        if old.present() && (old.pkey() != pkey || old.keyid() != keyid) {
            // The retype changed the frame's isolation tag: a cached
            // direct-map translation carrying the old tag on any core
            // would let the kernel keep writing a frame that just became
            // trusted (PTP/monitor/confined) state — the stale-sEPT
            // hazard class. Tag-preserving retypes (e.g. free → user
            // data, both PK_DEFAULT) need no flush: the cached
            // permissions are still exact. A key-ID change is the PCONFIG
            // reprogramming case and needs the same flush discipline.
            changed.push(dm_va);
        }
        Ok(())
    });
    if !changed.is_empty() {
        machine.tlb_shootdown_batch(cpu, &changed)?;
    }
    rewritten
}

/// Walk (creating intermediate PTPs as needed) and install `leaf_pte` for
/// `va` in the address space rooted at `root`, all through checked writes.
///
/// New PTPs are allocated from the general pool, retyped to
/// [`FrameKind::Ptp`] and their direct-map entries re-keyed, preserving the
/// Nested-Kernel invariant for every table of every address space.
///
/// # Errors
/// Checked-write faults (PKS) or allocation failure (mapped to
/// [`Fault::Unrecoverable`] only for DRAM-range bugs; callers convert
/// allocation failure separately via [`MapError`]).
pub fn checked_map(
    machine: &mut Machine,
    cpu: usize,
    frames: &mut FrameTable,
    kernel_root: Frame,
    root: Frame,
    va: VirtAddr,
    leaf_pte: Pte,
) -> Result<(), MapError> {
    let inter = paging::intermediate_for(leaf_pte.flags());
    let mut tbl = root;
    for level in (2..=4u8).rev() {
        let slot = paging::pte_slot(tbl, va, level);
        let entry = pte_read_raw(machine, slot);
        if entry.present() {
            tbl = entry.frame();
        } else {
            let f = machine.mem.alloc_frame().map_err(|_| MapError::NoMemory)?;
            frames
                .set_kind(f, FrameKind::Ptp)
                .map_err(|_| MapError::FrameConflict)?;
            retag_direct_map(machine, cpu, kernel_root, f, FrameKind::Ptp)
                .map_err(MapError::Fault)?;
            pte_write(machine, cpu, slot, Pte::encode(f, inter)).map_err(MapError::Fault)?;
            tbl = f;
        }
    }
    pte_write(machine, cpu, paging::pte_slot(tbl, va, 1), leaf_pte).map_err(MapError::Fault)?;
    Ok(())
}

/// Locate and rewrite the leaf PTE for an *existing* mapping.
///
/// # Errors
/// [`MapError::NotMapped`] if the walk path is incomplete.
pub fn checked_update_leaf(
    machine: &mut Machine,
    cpu: usize,
    root: Frame,
    va: VirtAddr,
    f: impl FnOnce(Pte) -> Pte,
) -> Result<Pte, MapError> {
    let slot = paging::leaf_slot(&machine.mem, root, va)
        .map_err(|_| MapError::Fault(Fault::Unrecoverable("walk left DRAM")))?
        .ok_or(MapError::NotMapped)?;
    let old = pte_read_raw(machine, slot);
    if !old.present() {
        return Err(MapError::NotMapped);
    }
    let new = f(old);
    pte_write(machine, cpu, slot, new).map_err(MapError::Fault)?;
    Ok(old)
}

/// Mapping-path errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// Out of physical memory.
    NoMemory,
    /// Frame-table kind conflict.
    FrameConflict,
    /// No mapping exists at the given address.
    NotMapped,
    /// A hardware fault during the checked writes.
    Fault(Fault),
}

impl core::fmt::Display for MapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MapError::NoMemory => write!(f, "out of physical memory"),
            MapError::FrameConflict => write!(f, "frame kind conflict"),
            MapError::NotMapped => write!(f, "address not mapped"),
            MapError::Fault(e) => write!(f, "fault during mapping: {e}"),
        }
    }
}

impl std::error::Error for MapError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{self, PK_PTP};
    use erebor_hw::cpu::Domain;
    use erebor_hw::fault::PfReason;
    use erebor_hw::regs::{Cr0, Cr4, Msr};

    /// Build a machine with a boot-grade direct map so checked writes work.
    fn setup() -> (Machine, FrameTable, Frame) {
        let mut m = Machine::new(1, 32 * 1024 * 1024);
        let total = m.mem.total_frames();
        let mut frames = FrameTable::new(total);
        let kernel_root = m.mem.alloc_frame().unwrap();
        frames.set_kind(kernel_root, FrameKind::Ptp).unwrap();
        // Raw-build the direct map (firmware privilege), tagging PTPs.
        let mut ptps = vec![kernel_root];
        for f in 0..total {
            let new = paging::map_raw(
                &mut m.mem,
                kernel_root,
                direct_map(Frame(f).base()),
                Pte::encode(Frame(f), PteFlags::kernel_rw(0)),
                PteFlags::kernel_rw(0),
            )
            .unwrap();
            ptps.extend(new);
        }
        for p in &ptps {
            frames.set_kind(*p, FrameKind::Ptp).ok();
        }
        // Re-key the direct-map entries of every PTP frame to PK_PTP.
        for p in ptps.clone() {
            let slot = paging::leaf_slot(&m.mem, kernel_root, direct_map(p.base()))
                .unwrap()
                .unwrap();
            let flags = PteFlags {
                present: true,
                writable: true,
                nx: true,
                pkey: PK_PTP,
                ..PteFlags::default()
            };
            m.mem.write_u64(slot, Pte::encode(p, flags).0).unwrap();
        }
        let c = &mut m.cpus[0];
        c.cr3 = kernel_root;
        c.cr0 = Cr0(Cr0::WP | Cr0::PG);
        c.cr4 = Cr4(Cr4::SMEP | Cr4::SMAP | Cr4::PKS);
        c.domain = Domain::Monitor;
        m.allow_sensitive(Domain::Monitor);
        m.wrmsr(0, Msr::Pkrs, policy::monitor_mode_pkrs().0)
            .unwrap();
        (m, frames, kernel_root)
    }

    #[test]
    fn monitor_can_map_kernel_cannot() {
        let (mut m, mut frames, kroot) = setup();
        let target = m.mem.alloc_frame().unwrap();
        // Monitor (granted PKRS) maps fine.
        checked_map(
            &mut m,
            0,
            &mut frames,
            kroot,
            kroot,
            VirtAddr(0x40_0000),
            Pte::encode(target, PteFlags::user_rw()),
        )
        .unwrap();
        // Now drop to normal-mode PKRS (kernel view) and try a direct PTE
        // write — the Nested-Kernel invariant must hold.
        m.wrmsr(0, Msr::Pkrs, policy::normal_mode_pkrs().0).unwrap();
        m.cpus[0].domain = Domain::Kernel;
        let slot = paging::leaf_slot(&m.mem, kroot, VirtAddr(0x40_0000))
            .unwrap()
            .unwrap();
        let err = pte_write(&mut m, 0, slot, Pte::empty()).unwrap_err();
        assert!(err.is_pf(PfReason::PksWriteDisabled), "got {err}");
        // Reading the PTE is still allowed.
        assert!(m.read_u64(0, direct_map(slot)).is_ok());
    }

    #[test]
    fn new_ptps_are_write_protected_for_kernel() {
        let (mut m, mut frames, kroot) = setup();
        let target = m.mem.alloc_frame().unwrap();
        let before = frames.count_kind(|k| k == FrameKind::Ptp);
        checked_map(
            &mut m,
            0,
            &mut frames,
            kroot,
            kroot,
            VirtAddr(0x7f00_0000_0000),
            Pte::encode(target, PteFlags::user_rw()),
        )
        .unwrap();
        let after = frames.count_kind(|k| k == FrameKind::Ptp);
        assert_eq!(after - before, 3, "three new PTP levels");
        // Kernel cannot write any of the new PTPs through the direct map.
        m.wrmsr(0, Msr::Pkrs, policy::normal_mode_pkrs().0).unwrap();
        m.cpus[0].domain = Domain::Kernel;
        let slot = paging::pte_slot(kroot, VirtAddr(0x7f00_0000_0000), 4);
        let intermediate = pte_read_raw(&m, slot).frame();
        let err = m
            .write_u64(0, direct_map(intermediate.base()), 0xdead)
            .unwrap_err();
        assert!(err.is_pf(PfReason::PksWriteDisabled));
    }

    #[test]
    fn checked_update_leaf_seals_read_only() {
        let (mut m, mut frames, kroot) = setup();
        let target = m.mem.alloc_frame().unwrap();
        let va = VirtAddr(0x41_0000);
        checked_map(
            &mut m,
            0,
            &mut frames,
            kroot,
            kroot,
            va,
            Pte::encode(target, PteFlags::user_rw()),
        )
        .unwrap();
        checked_update_leaf(&mut m, 0, kroot, va, Pte::read_only).unwrap();
        let leaf = paging::lookup_raw(&m.mem, kroot, va).unwrap().unwrap();
        assert!(!leaf.writable());
        assert_eq!(
            checked_update_leaf(&mut m, 0, kroot, VirtAddr(0x9999_0000), Pte::read_only),
            Err(MapError::NotMapped)
        );
    }

    #[test]
    fn retag_changes_direct_map_key() {
        let (mut m, _frames, kroot) = setup();
        let f = m.mem.alloc_frame().unwrap();
        retag_direct_map(&mut m, 0, kroot, f, FrameKind::Monitor).unwrap();
        let leaf = paging::lookup_raw(&m.mem, kroot, direct_map(f.base()))
            .unwrap()
            .unwrap();
        assert_eq!(leaf.pkey(), policy::PK_MONITOR);
        // Kernel now has no access at all to that frame via the direct map.
        m.wrmsr(0, Msr::Pkrs, policy::normal_mode_pkrs().0).unwrap();
        m.cpus[0].domain = Domain::Kernel;
        let err = m.read_u64(0, direct_map(f.base())).unwrap_err();
        assert!(err.is_pf(PfReason::PksAccessDisabled));
    }

    #[test]
    fn retag_run_flushes_only_the_aliases_whose_tag_changed() {
        let (mut m, _frames, kroot) = setup();
        let run: Vec<Frame> = (0..3).map(|_| m.mem.alloc_frame().unwrap()).collect();
        let monitor = pkey_for(FrameKind::Monitor);
        retag_direct_maps(&mut m, 0, kroot, &run[..2], monitor, 0).unwrap();
        let before = m.stats.tlb_page_invalidations;
        retag_direct_maps(&mut m, 0, kroot, &run, monitor, 0).unwrap();
        assert_eq!(
            m.stats.tlb_page_invalidations - before,
            1,
            "only the third alias changed its tag"
        );
        for f in &run {
            let leaf = paging::lookup_raw(&m.mem, kroot, direct_map(f.base()))
                .unwrap()
                .unwrap();
            assert_eq!(leaf.pkey(), policy::PK_MONITOR);
        }
    }
}
