//! Per-core software TLB.
//!
//! Caches successful translations as `(root, page) → (frame, effective
//! permissions, pkey, A/D state)`, split into an instruction class
//! (`AccessKind::Execute`) and a data class (`Read`/`Write`), mirroring
//! the split iTLB/dTLB of the paper's Emerald Rapids machine. Entries are
//! direct-mapped on the low page-number bits — deterministic replacement,
//! so same-seed runs stay byte-identical.
//!
//! What is *not* cached is as important as what is: permission-register
//! state (`IA32_PKRS`, `CR4`, `CR0.WP`) is re-evaluated on every hit
//! against the cached effective permission bits and protection key, so
//! writing those registers never requires a flush — exactly the property
//! Erebor's EMC gate depends on (the PKRS write on entry/exit must not
//! cost a TLB refill). Conversely a PTE store in DRAM is *invisible* to
//! cached entries until software invalidates: CR3 writes flush the
//! writing core, `invlpg` drops one page, and cross-core staleness is
//! only closed by an explicit shootdown — the monitor's obligation that
//! [`crate::cpu::Machine::tlb_shootdown`] models.

use crate::fault::AccessKind;
use crate::mmu::{EffPerms, Translation};
use crate::phys::Frame;
use crate::VirtAddr;

/// Entries per class (instruction / data), direct-mapped.
pub const TLB_ENTRIES: usize = 64;

/// One cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Page-table root (CR3) the walk ran under.
    pub root: Frame,
    /// Virtual page number (`va >> 12`).
    pub page: u64,
    /// Resolved physical frame.
    pub frame: Frame,
    /// Effective permissions accumulated over the walk, plus the leaf's
    /// protection key — everything the permission pipeline needs to
    /// re-check an access without touching the in-memory tables.
    pub eff: EffPerms,
    /// Whether the cached leaf already has its dirty bit set. A write hit
    /// on a clean entry must re-walk so the dirty bit lands in the PTE.
    pub dirty: bool,
}

erebor_wire::wire_struct!(TlbEntry {
    root,
    page,
    frame,
    eff,
    dirty
});

/// A single core's TLB: direct-mapped instruction and data arrays.
#[derive(Debug, Clone)]
pub struct Tlb {
    instr: [Option<TlbEntry>; TLB_ENTRIES],
    data: [Option<TlbEntry>; TLB_ENTRIES],
}

impl Default for Tlb {
    fn default() -> Tlb {
        Tlb::new()
    }
}

fn index(va: VirtAddr) -> usize {
    ((va.0 >> 12) as usize) & (TLB_ENTRIES - 1)
}

impl Tlb {
    /// An empty TLB.
    #[must_use]
    pub fn new() -> Tlb {
        Tlb {
            instr: [None; TLB_ENTRIES],
            data: [None; TLB_ENTRIES],
        }
    }

    fn class(&self, kind: AccessKind) -> &[Option<TlbEntry>; TLB_ENTRIES] {
        if kind == AccessKind::Execute {
            &self.instr
        } else {
            &self.data
        }
    }

    fn class_mut(&mut self, kind: AccessKind) -> &mut [Option<TlbEntry>; TLB_ENTRIES] {
        if kind == AccessKind::Execute {
            &mut self.instr
        } else {
            &mut self.data
        }
    }

    /// Look up a cached translation for `va` under `root`.
    #[must_use]
    pub fn lookup(&self, root: Frame, va: VirtAddr, kind: AccessKind) -> Option<TlbEntry> {
        let page = va.0 >> 12;
        self.class(kind)[index(va)].filter(|e| e.root == root && e.page == page)
    }

    /// Fill from a successful walk result.
    pub fn insert(&mut self, root: Frame, va: VirtAddr, kind: AccessKind, t: &Translation) {
        let entry = TlbEntry {
            root,
            page: va.0 >> 12,
            frame: t.pte.frame(),
            eff: t.eff,
            dirty: t.pte.dirty(),
        };
        self.class_mut(kind)[index(va)] = Some(entry);
    }

    /// Drop every entry (CR3 write; the PTE model has no global bit, so
    /// "non-global entries" is the whole TLB).
    pub(crate) fn flush_all(&mut self) {
        self.instr = [None; TLB_ENTRIES];
        self.data = [None; TLB_ENTRIES];
    }

    /// Drop any entry for `va`'s page, in both classes and under any root
    /// (`invlpg` semantics: conservative across address spaces).
    pub fn invalidate_page(&mut self, va: VirtAddr) {
        let page = va.0 >> 12;
        let idx = index(va);
        for class in [&mut self.instr, &mut self.data] {
            if class[idx].is_some_and(|e| e.page == page) {
                class[idx] = None;
            }
        }
    }

    /// Number of live entries (diagnostics / tests).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.instr.iter().chain(self.data.iter()).flatten().count()
    }

    /// Iterate over every live entry in both classes (invariant checkers
    /// re-walk each against the in-memory tables).
    pub fn entries(&self) -> impl Iterator<Item = &TlbEntry> + '_ {
        self.instr.iter().chain(self.data.iter()).flatten()
    }

    /// Raw slot arrays `(instr, data)` for migration export. Slot
    /// position matters — the TLB is direct-mapped, so an entry must
    /// land back in the same index on the destination.
    #[must_use]
    pub fn to_parts(&self) -> (&[Option<TlbEntry>; TLB_ENTRIES], &[Option<TlbEntry>; TLB_ENTRIES]) {
        (&self.instr, &self.data)
    }

    /// Rebuild from exported slot arrays. Returns `None` if any entry
    /// sits in the wrong direct-mapped slot for its page number — an
    /// imported TLB must be one the hardware could actually have built.
    #[must_use]
    pub fn from_parts(
        instr: [Option<TlbEntry>; TLB_ENTRIES],
        data: [Option<TlbEntry>; TLB_ENTRIES],
    ) -> Option<Tlb> {
        for class in [&instr, &data] {
            for (idx, entry) in class.iter().enumerate() {
                if let Some(e) = entry {
                    if (e.page as usize) & (TLB_ENTRIES - 1) != idx {
                        return None;
                    }
                }
            }
        }
        Some(Tlb { instr, data })
    }
}

erebor_wire::counters! {
    /// Hardware-level counters exported into bench JSON next to
    /// `MonitorStats`: translation-path observability for Table 3 / Fig 8.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct HwStats {
        /// Translations served from the TLB (charged `Costs::tlb_hit`).
        pub tlb_hits: u64,
        /// Translations that walked the tables and filled the TLB (charged
        /// `levels_walked * Costs::walk_level`).
        pub tlb_misses: u64,
        /// Whole-TLB flushes (CR3 writes).
        pub tlb_flushes: u64,
        /// Single-page invalidations (`invlpg`, local half of shootdowns).
        pub tlb_page_invalidations: u64,
        /// Remote-core invalidation IPIs sent by shootdowns (charged
        /// `Costs::interrupt_delivery` each).
        pub tlb_shootdown_ipis: u64,
    }
}

impl HwStats {
    /// Fraction of successful translations served from the TLB.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        // Widen before adding: on a long chaos run the two counters can
        // individually approach u64::MAX and their sum must not wrap.
        let total = u128::from(self.tlb_hits) + u128::from(self.tlb_misses);
        if total == 0 {
            0.0
        } else {
            self.tlb_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paging::Pte;
    use crate::phys::PhysAddr;

    fn entry_for(va: VirtAddr, frame: Frame, dirty: bool) -> Translation {
        let flags = crate::paging::PteFlags {
            present: true,
            writable: true,
            user: false,
            accessed: true,
            dirty,
            nx: true,
            pkey: 3,
        };
        Translation {
            pa: PhysAddr(frame.base().0 + va.page_offset()),
            pte: Pte::encode(frame, flags),
            levels_walked: 4,
            eff: EffPerms {
                writable: true,
                user: false,
                nx: true,
                pkey: 3,
                keyid: 0,
            },
        }
    }

    #[test]
    fn lookup_is_keyed_by_root_and_page() {
        let mut tlb = Tlb::new();
        let va = VirtAddr(0xffff_8000_0000_3000);
        let t = entry_for(va, Frame(9), false);
        tlb.insert(Frame(1), va, AccessKind::Read, &t);
        assert!(tlb.lookup(Frame(1), va, AccessKind::Read).is_some());
        assert!(
            tlb.lookup(Frame(2), va, AccessKind::Read).is_none(),
            "same VA under another root must miss"
        );
        assert!(
            tlb.lookup(Frame(1), VirtAddr(va.0 + 0x1000), AccessKind::Read)
                .is_none()
        );
        // Offsets within the page share the entry.
        assert!(tlb.lookup(Frame(1), VirtAddr(va.0 + 0x123), AccessKind::Read).is_some());
    }

    #[test]
    fn instruction_and_data_classes_are_separate() {
        let mut tlb = Tlb::new();
        let va = VirtAddr(0x40_0000);
        let t = entry_for(va, Frame(9), false);
        tlb.insert(Frame(1), va, AccessKind::Execute, &t);
        assert!(tlb.lookup(Frame(1), va, AccessKind::Execute).is_some());
        assert!(tlb.lookup(Frame(1), va, AccessKind::Read).is_none());
        assert!(
            tlb.lookup(Frame(1), va, AccessKind::Write).is_none(),
            "read and write share the data class, execute does not"
        );
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut tlb = Tlb::new();
        let a = VirtAddr(0x40_0000);
        let b = VirtAddr(a.0 + (TLB_ENTRIES as u64) * 0x1000); // same index
        tlb.insert(Frame(1), a, AccessKind::Read, &entry_for(a, Frame(7), false));
        tlb.insert(Frame(1), b, AccessKind::Read, &entry_for(b, Frame(8), false));
        assert!(tlb.lookup(Frame(1), a, AccessKind::Read).is_none(), "evicted");
        assert!(tlb.lookup(Frame(1), b, AccessKind::Read).is_some());
    }

    #[test]
    fn invalidate_page_drops_both_classes_any_root() {
        let mut tlb = Tlb::new();
        let va = VirtAddr(0x40_0000);
        tlb.insert(Frame(1), va, AccessKind::Read, &entry_for(va, Frame(7), false));
        tlb.insert(Frame(2), va, AccessKind::Execute, &entry_for(va, Frame(8), false));
        assert_eq!(tlb.occupancy(), 2);
        tlb.invalidate_page(VirtAddr(va.0 + 0xabc));
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn flush_all_empties() {
        let mut tlb = Tlb::new();
        for i in 0..10u64 {
            let va = VirtAddr(0x40_0000 + i * 0x1000);
            tlb.insert(Frame(1), va, AccessKind::Read, &entry_for(va, Frame(7), false));
        }
        assert_eq!(tlb.occupancy(), 10);
        tlb.flush_all();
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn hit_rate_math() {
        let s = HwStats {
            tlb_hits: 3,
            tlb_misses: 1,
            ..HwStats::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(HwStats::default().hit_rate(), 0.0);
        let d = s.delta(&HwStats {
            tlb_hits: 1,
            ..HwStats::default()
        });
        assert_eq!(d.tlb_hits, 2);
        assert_eq!(d.tlb_misses, 1);
    }

    #[test]
    fn hit_rate_does_not_overflow_on_saturated_counters() {
        let s = HwStats {
            tlb_hits: u64::MAX,
            tlb_misses: u64::MAX,
            ..HwStats::default()
        };
        let r = s.hit_rate();
        assert!(r.is_finite());
        assert!((r - 0.5).abs() < 1e-12, "hit rate {r}");
    }
}
