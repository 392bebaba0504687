//! The MMU: checked virtual-to-physical translation.
//!
//! Implements the full x86-64-style permission pipeline the paper's
//! enforcement relies on: present/walk checks, write permission with
//! `CR0.WP`, NX, user/supervisor separation, SMEP, SMAP with the `AC`
//! override, and supervisor protection keys (PKS) against the per-core
//! `IA32_PKRS` register. Accessed/dirty bits are set by the walker itself
//! (hardware-initiated stores bypass permission checks, as on real silicon).

use crate::fault::{AccessKind, Fault, PfReason};
use crate::paging::{pte_slot, Pte};
use crate::phys::{Frame, PhysAddr, PhysMemory};
use crate::regs::{Cr0, Cr4, PkrsPerms, Rflags};
use crate::{CpuMode, VirtAddr};

/// Register state the MMU consults on each translation.
#[derive(Debug, Clone, Copy)]
pub struct MmuEnv {
    /// Page-table root frame (CR3).
    pub root: Frame,
    /// CR0 (WP).
    pub cr0: Cr0,
    /// CR4 (SMEP/SMAP/PKS).
    pub cr4: Cr4,
    /// Current privilege mode.
    pub mode: CpuMode,
    /// RFLAGS (AC bit gates SMAP).
    pub rflags: Rflags,
    /// Per-core supervisor protection-key rights.
    pub pkrs: PkrsPerms,
}

/// Effective permissions accumulated over a full walk (AND of W and U/S
/// across levels, OR of NX) plus the leaf's protection key — exactly the
/// state a TLB entry caches, and everything [`check_access`] needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EffPerms {
    /// Writable at every level.
    pub writable: bool,
    /// User-accessible at every level.
    pub user: bool,
    /// No-execute at any level.
    pub nx: bool,
    /// Leaf supervisor protection key.
    pub pkey: u8,
    /// Leaf TME-MK key-ID (0 = untagged). Checked against the frame's
    /// programmed key at *walk* time, not on every hit: key changes
    /// require a flush (PCONFIG semantics), which the shootdown/epoch
    /// discipline already provides.
    pub keyid: u16,
}

erebor_wire::wire_struct!(EffPerms {
    writable,
    user,
    nx,
    pkey,
    keyid
});

/// Result of a successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Resolved physical address.
    pub pa: PhysAddr,
    /// The leaf PTE after A/D update.
    pub pte: Pte,
    /// Number of page-table levels read (for cycle accounting).
    pub levels_walked: u8,
    /// Effective permissions of the mapping (TLB fill state).
    pub eff: EffPerms,
}

fn pf(va: VirtAddr, access: AccessKind, reason: PfReason) -> Fault {
    Fault::PageFault { va, access, reason }
}

/// The architectural permission pipeline, evaluated against the *current*
/// register state and a mapping's effective permissions.
///
/// Shared by the walker (fresh permissions) and the TLB hit path (cached
/// permissions), so a TLB-on and a TLB-off translation of the same state
/// produce the same verdict and the same [`PfReason`]. Keeping the
/// register checks here — outside the cached state — is what makes
/// PKRS/CR4/CR0.WP writes flush-free, as on silicon.
///
/// # Errors
/// Returns the precise [`Fault`] the hardware would raise.
pub fn check_access(
    env: &MmuEnv,
    va: VirtAddr,
    access: AccessKind,
    eff: EffPerms,
) -> Result<(), Fault> {
    match access {
        AccessKind::Write => {
            // Supervisor writes honour RO mappings only when CR0.WP is set;
            // user writes always honour them.
            let wp_applies = env.mode == CpuMode::User || env.cr0.wp();
            if !eff.writable && wp_applies {
                return Err(pf(va, access, PfReason::NotWritable));
            }
        }
        AccessKind::Execute => {
            if eff.nx {
                return Err(pf(va, access, PfReason::NoExecute));
            }
        }
        AccessKind::Read => {}
    }

    match env.mode {
        CpuMode::User => {
            if !eff.user {
                return Err(pf(va, access, PfReason::UserAccessToSupervisor));
            }
        }
        CpuMode::Supervisor => {
            if eff.user {
                // SMEP: never execute user pages from supervisor mode.
                if access == AccessKind::Execute && env.cr4.smep() {
                    return Err(pf(va, access, PfReason::Smep));
                }
                // SMAP: no supervisor data access to user pages unless AC.
                if access.is_data() && env.cr4.smap() && !env.rflags.ac() {
                    return Err(pf(va, access, PfReason::Smap));
                }
            } else if env.cr4.pks() {
                // PKS applies to supervisor (U/S = 0) data pages only.
                if env.pkrs.access_disabled(eff.pkey) && access.is_data() {
                    return Err(pf(va, access, PfReason::PksAccessDisabled));
                }
                if env.pkrs.write_disabled(eff.pkey) && access == AccessKind::Write {
                    return Err(pf(va, access, PfReason::PksWriteDisabled));
                }
            }
        }
    }
    Ok(())
}

/// Translate `va` for `access` under `env`, enforcing every architectural
/// permission check and updating accessed/dirty bits on success.
///
/// # Errors
/// Returns the precise [`Fault`] the hardware would raise.
pub fn translate(
    mem: &mut PhysMemory,
    env: &MmuEnv,
    va: VirtAddr,
    access: AccessKind,
) -> Result<Translation, Fault> {
    if !va.is_canonical() {
        return Err(Fault::GeneralProtection("non-canonical address"));
    }

    // Walk the four levels, accumulating effective permissions.
    let mut tbl = env.root;
    let mut eff_writable = true;
    let mut eff_user = true;
    let mut eff_nx = false;
    let mut leaf = Pte::empty();
    let mut leaf_pa = PhysAddr(0);
    let mut levels_walked = 0u8;
    for level in (1..=4u8).rev() {
        let slot = pte_slot(tbl, va, level);
        let entry = Pte(mem
            .read_u64(slot)
            .map_err(|_| Fault::Unrecoverable("page-table walk left DRAM"))?);
        levels_walked += 1;
        if !entry.present() {
            return Err(pf(va, access, PfReason::NotPresent));
        }
        eff_writable &= entry.writable();
        eff_user &= entry.user();
        eff_nx |= entry.nx();
        if level == 1 {
            leaf = entry;
            leaf_pa = slot;
        } else {
            tbl = entry.frame();
        }
    }
    let eff = EffPerms {
        writable: eff_writable,
        user: eff_user,
        nx: eff_nx,
        pkey: leaf.pkey(),
        keyid: leaf.keyid(),
    };

    check_access(env, va, access, eff)?;

    // TME-MK keyed-memory check: the mapping's key-ID must match the
    // key programmed for the frame. Walk-time only — a TLB hit reuses
    // the verdict, exactly like hardware caching a translation made
    // under the current key programming.
    if leaf.keyid() != mem.frame_key(leaf.frame()) {
        return Err(pf(va, access, PfReason::KeyMismatch));
    }

    // Hardware A/D update (bypasses permission checks).
    let updated = leaf.with_ad(access == AccessKind::Write);
    if updated != leaf {
        mem.write_u64(leaf_pa, updated.0)
            .map_err(|_| Fault::Unrecoverable("A/D update left DRAM"))?;
    }

    Ok(Translation {
        pa: PhysAddr(updated.frame().base().0 + va.page_offset()),
        pte: updated,
        levels_walked,
        eff,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paging::{map_raw, PteFlags};

    fn setup() -> (PhysMemory, Frame) {
        let mut m = PhysMemory::new(64 * 1024 * 1024);
        let root = m.alloc_frame().unwrap();
        (m, root)
    }

    fn env(root: Frame) -> MmuEnv {
        MmuEnv {
            root,
            cr0: Cr0(Cr0::WP | Cr0::PG),
            cr4: Cr4(Cr4::SMEP | Cr4::SMAP | Cr4::PKS),
            mode: CpuMode::Supervisor,
            rflags: Rflags(0),
            pkrs: PkrsPerms::GRANT_ALL,
        }
    }

    fn map(m: &mut PhysMemory, root: Frame, va: u64, flags: PteFlags) -> Frame {
        let f = m.alloc_frame().unwrap();
        map_raw(
            m,
            root,
            VirtAddr(va),
            Pte::encode(f, flags),
            crate::paging::intermediate_for(flags),
        )
        .unwrap();
        f
    }

    #[test]
    fn basic_read_write_translate() {
        let (mut m, root) = setup();
        let f = map(
            &mut m,
            root,
            0xffff_8000_0000_0000u64,
            PteFlags::kernel_rw(0),
        );
        let t = translate(
            &mut m,
            &env(root),
            VirtAddr(0xffff_8000_0000_0123),
            AccessKind::Write,
        )
        .unwrap();
        assert_eq!(t.pa, PhysAddr(f.base().0 + 0x123));
        assert!(t.pte.dirty());
    }

    #[test]
    fn not_present_faults() {
        let (mut m, root) = setup();
        let err = translate(&mut m, &env(root), VirtAddr(0x1000), AccessKind::Read).unwrap_err();
        assert!(err.is_pf(PfReason::NotPresent));
    }

    #[test]
    fn write_to_ro_faults_with_wp() {
        let (mut m, root) = setup();
        map(
            &mut m,
            root,
            0xffff_8000_0000_0000u64,
            PteFlags::kernel_ro(0),
        );
        let err = translate(
            &mut m,
            &env(root),
            VirtAddr(0xffff_8000_0000_0000),
            AccessKind::Write,
        )
        .unwrap_err();
        assert!(err.is_pf(PfReason::NotWritable));
    }

    #[test]
    fn supervisor_write_to_ro_allowed_without_wp() {
        let (mut m, root) = setup();
        map(
            &mut m,
            root,
            0xffff_8000_0000_0000u64,
            PteFlags::kernel_ro(0),
        );
        let mut e = env(root);
        e.cr0 = Cr0(Cr0::PG); // WP clear
        assert!(
            translate(
                &mut m,
                &e,
                VirtAddr(0xffff_8000_0000_0000),
                AccessKind::Write
            )
            .is_ok(),
            "WP=0 lets the supervisor ignore RO — exactly why Erebor pins CR0"
        );
    }

    #[test]
    fn nx_blocks_execute() {
        let (mut m, root) = setup();
        map(
            &mut m,
            root,
            0xffff_8000_0000_0000u64,
            PteFlags::kernel_rw(0),
        );
        let err = translate(
            &mut m,
            &env(root),
            VirtAddr(0xffff_8000_0000_0000),
            AccessKind::Execute,
        )
        .unwrap_err();
        assert!(err.is_pf(PfReason::NoExecute));
    }

    #[test]
    fn user_cannot_touch_supervisor_pages() {
        let (mut m, root) = setup();
        map(&mut m, root, 0x40_0000, PteFlags::kernel_rw(0));
        let mut e = env(root);
        e.mode = CpuMode::User;
        let err = translate(&mut m, &e, VirtAddr(0x40_0000), AccessKind::Read).unwrap_err();
        assert!(err.is_pf(PfReason::UserAccessToSupervisor));
    }

    #[test]
    fn smep_blocks_supervisor_exec_of_user_pages() {
        let (mut m, root) = setup();
        map(&mut m, root, 0x40_0000, PteFlags::user_rx());
        let err =
            translate(&mut m, &env(root), VirtAddr(0x40_0000), AccessKind::Execute).unwrap_err();
        assert!(err.is_pf(PfReason::Smep));
    }

    #[test]
    fn smap_blocks_supervisor_data_access_unless_ac() {
        let (mut m, root) = setup();
        map(&mut m, root, 0x40_0000, PteFlags::user_rw());
        let err = translate(&mut m, &env(root), VirtAddr(0x40_0000), AccessKind::Read).unwrap_err();
        assert!(err.is_pf(PfReason::Smap));
        let mut e = env(root);
        e.rflags = Rflags(Rflags::AC);
        assert!(translate(&mut m, &e, VirtAddr(0x40_0000), AccessKind::Read).is_ok());
    }

    #[test]
    fn pks_access_disable_blocks_reads_and_writes() {
        let (mut m, root) = setup();
        map(
            &mut m,
            root,
            0xffff_8000_0000_0000u64,
            PteFlags::kernel_rw(5),
        );
        let mut e = env(root);
        e.pkrs = PkrsPerms::GRANT_ALL.with_access_disabled(5);
        for access in [AccessKind::Read, AccessKind::Write] {
            let err = translate(&mut m, &e, VirtAddr(0xffff_8000_0000_0000), access).unwrap_err();
            assert!(err.is_pf(PfReason::PksAccessDisabled), "{access:?}");
        }
    }

    #[test]
    fn pks_write_disable_blocks_only_writes() {
        let (mut m, root) = setup();
        map(
            &mut m,
            root,
            0xffff_8000_0000_0000u64,
            PteFlags::kernel_rw(7),
        );
        let mut e = env(root);
        e.pkrs = PkrsPerms::GRANT_ALL.with_write_disabled(7);
        assert!(translate(
            &mut m,
            &e,
            VirtAddr(0xffff_8000_0000_0000),
            AccessKind::Read
        )
        .is_ok());
        let err = translate(
            &mut m,
            &e,
            VirtAddr(0xffff_8000_0000_0000),
            AccessKind::Write,
        )
        .unwrap_err();
        assert!(err.is_pf(PfReason::PksWriteDisabled));
    }

    #[test]
    fn pks_does_not_apply_to_user_pages_or_exec() {
        let (mut m, root) = setup();
        // Key 5 disabled, but the page is a user page: SMAP applies instead.
        map(&mut m, root, 0x40_0000, PteFlags::user_rw());
        let mut e = env(root);
        e.pkrs = PkrsPerms::GRANT_ALL.with_access_disabled(0);
        e.rflags = Rflags(Rflags::AC);
        assert!(translate(&mut m, &e, VirtAddr(0x40_0000), AccessKind::Read).is_ok());
    }

    #[test]
    fn pks_ignored_when_cr4_pks_clear() {
        let (mut m, root) = setup();
        map(
            &mut m,
            root,
            0xffff_8000_0000_0000u64,
            PteFlags::kernel_rw(5),
        );
        let mut e = env(root);
        e.cr4 = Cr4(0);
        e.pkrs = PkrsPerms::GRANT_ALL.with_access_disabled(5);
        assert!(
            translate(
                &mut m,
                &e,
                VirtAddr(0xffff_8000_0000_0000),
                AccessKind::Read
            )
            .is_ok(),
            "PKS off means keys are inert — why Erebor pins CR4.PKS"
        );
    }

    #[test]
    fn keyid_mismatch_faults_match_passes() {
        let (mut m, root) = setup();
        let va = 0xffff_8000_0000_0000u64;
        let f = map(&mut m, root, va, PteFlags::kernel_rw(1));
        // Retag the leaf with key-ID 99 without programming the frame.
        let slot = crate::paging::leaf_slot(&m, root, VirtAddr(va)).unwrap().unwrap();
        let leaf = Pte(m.read_u64(slot).unwrap()).with_keyid(99);
        m.write_u64(slot, leaf.0).unwrap();
        let err = translate(&mut m, &env(root), VirtAddr(va), AccessKind::Read).unwrap_err();
        assert!(err.is_pf(PfReason::KeyMismatch));
        // Program the matching key: access flows again, eff carries it.
        m.set_frame_key(f, 99);
        let t = translate(&mut m, &env(root), VirtAddr(va), AccessKind::Write).unwrap();
        assert_eq!(t.eff.keyid, 99);
        // An untagged mapping of a keyed frame is equally dead — the
        // kernel's own alias cannot read confined plaintext.
        m.write_u64(slot, leaf.with_keyid(0).0).unwrap();
        let err = translate(&mut m, &env(root), VirtAddr(va), AccessKind::Read).unwrap_err();
        assert!(err.is_pf(PfReason::KeyMismatch));
    }

    #[test]
    fn keyid_check_runs_after_architectural_checks() {
        let (mut m, root) = setup();
        let va = 0xffff_8000_0000_0000u64;
        let f = map(&mut m, root, va, PteFlags::kernel_ro(5));
        m.set_frame_key(f, 7); // mapping still has key-ID 0: mismatched
        // PKS denial wins over the key mismatch (check order matches the
        // walk pipeline: architectural checks, then the keyed fetch).
        let mut e = env(root);
        e.pkrs = PkrsPerms::GRANT_ALL.with_access_disabled(5);
        let err = translate(&mut m, &e, VirtAddr(va), AccessKind::Read).unwrap_err();
        assert!(err.is_pf(PfReason::PksAccessDisabled));
        // With PKRS granted the mismatch surfaces.
        let err = translate(&mut m, &env(root), VirtAddr(va), AccessKind::Read).unwrap_err();
        assert!(err.is_pf(PfReason::KeyMismatch));
    }

    #[test]
    fn accessed_dirty_bits_set() {
        let (mut m, root) = setup();
        map(
            &mut m,
            root,
            0xffff_8000_0000_0000u64,
            PteFlags::kernel_rw(0),
        );
        let t = translate(
            &mut m,
            &env(root),
            VirtAddr(0xffff_8000_0000_0000),
            AccessKind::Read,
        )
        .unwrap();
        assert!(t.pte.flags().accessed && !t.pte.dirty());
        let t = translate(
            &mut m,
            &env(root),
            VirtAddr(0xffff_8000_0000_0000),
            AccessKind::Write,
        )
        .unwrap();
        assert!(t.pte.dirty());
    }

    #[test]
    fn non_canonical_is_gp() {
        let (mut m, root) = setup();
        let err = translate(
            &mut m,
            &env(root),
            VirtAddr(0x0012_0000_0000_0000),
            AccessKind::Read,
        )
        .unwrap_err();
        assert_eq!(err, Fault::GeneralProtection("non-canonical address"));
    }
}
