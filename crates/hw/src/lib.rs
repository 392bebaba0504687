//! # erebor-hw — simulated hardware substrate
//!
//! A deterministic software model of the hardware that the Erebor paper
//! (EuroSys'25) relies on: an x86-64-style multi-core CPU with control and
//! model-specific registers, a 4-level MMU whose page tables live in
//! simulated physical frames, supervisor protection keys (PKS), SMEP/SMAP,
//! Control-flow Enforcement Technology (IBT + shadow stacks), an interrupt
//! descriptor table, user-interrupt state, and the byte encodings of the
//! paper's *sensitive instructions* (Table 2).
//!
//! The simulator enforces, on **every** simulated access, exactly the checks
//! the real hardware would perform. Security arguments in the paper are
//! arguments about which accesses and transitions hardware permits; attack
//! and defense tests in this reproduction exercise those same checks.
//!
//! Nothing in this crate knows about TDX, the monitor, the kernel or the
//! LibOS — those are layered in sibling crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cet;
pub mod cpu;
pub mod cycles;
pub mod fault;
pub mod idt;
pub mod image;
pub mod inject;
pub mod insn;
pub mod isolation;
pub mod layout;
pub mod migrate;
pub mod mmu;
pub mod native;
pub mod paging;
pub mod phys;
pub mod regs;
pub mod tlb;

pub use cpu::{Cpu, CpuMode};
pub use cycles::{Costs, CycleCounter};
pub use fault::{AccessKind, Fault, PfReason};
pub use inject::{CoreView, InjectionPoint, Injector, InjectorHandle};
pub use isolation::{Backend, BackendKind, DomainId, FrameTag, IsolationError};
pub use paging::{Pte, PteFlags};
// `PhysMemory` is deliberately NOT re-exported: raw DRAM access is
// privileged, and requiring the full `erebor_hw::phys::PhysMemory` path
// keeps every reach greppable and attributable (the privilege auditor's
// pub-leak rule enforces this, DESIGN.md §14).
pub use phys::{Frame, PhysAddr, PAGE_SHIFT, PAGE_SIZE};
pub use regs::{Cr0, Cr4, Msr, PkrsPerms, Rflags};
pub use tlb::{HwStats, Tlb};

/// A canonical 64-bit virtual address.
///
/// The simulator uses 48-bit canonical addressing (sign-extended), matching
/// 4-level x86-64 paging.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(pub u64);

erebor_wire::wire_newtype!(VirtAddr);

impl VirtAddr {
    /// Returns the address rounded down to the containing page boundary.
    #[must_use]
    pub fn page_base(self) -> VirtAddr {
        VirtAddr(self.0 & !((PAGE_SIZE as u64) - 1))
    }

    /// Byte offset within the containing page.
    #[must_use]
    pub fn page_offset(self) -> u64 {
        self.0 & ((PAGE_SIZE as u64) - 1)
    }

    /// Whether the address is canonical for 48-bit addressing.
    #[must_use]
    pub fn is_canonical(self) -> bool {
        let upper = self.0 >> 47;
        upper == 0 || upper == (1 << 17) - 1
    }

    /// Index into the page-table at level `level` (4 = PML4 .. 1 = PT).
    #[must_use]
    pub fn table_index(self, level: u8) -> usize {
        debug_assert!((1..=4).contains(&level));
        ((self.0 >> (12 + 9 * (u64::from(level) - 1))) & 0x1ff) as usize
    }

    /// Add a byte offset, wrapping (addresses are plain u64 in the model).
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, off: u64) -> VirtAddr {
        VirtAddr(self.0.wrapping_add(off))
    }
}

impl core::fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "VirtAddr({:#x})", self.0)
    }
}

impl core::fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virt_addr_page_math() {
        let v = VirtAddr(0x1234_5678);
        assert_eq!(v.page_base().0, 0x1234_5000);
        assert_eq!(v.page_offset(), 0x678);
    }

    #[test]
    fn virt_addr_canonical() {
        assert!(VirtAddr(0x0000_7fff_ffff_ffff).is_canonical());
        assert!(VirtAddr(0xffff_8000_0000_0000).is_canonical());
        assert!(!VirtAddr(0x0000_8000_0000_0000).is_canonical());
        assert!(!VirtAddr(0x1234_0000_0000_0000).is_canonical());
    }

    #[test]
    fn virt_addr_table_indices() {
        // VA with distinct indices at each level.
        let va = VirtAddr((3 << 39) | (5 << 30) | (7 << 21) | (9 << 12) | 0x42);
        assert_eq!(va.table_index(4), 3);
        assert_eq!(va.table_index(3), 5);
        assert_eq!(va.table_index(2), 7);
        assert_eq!(va.table_index(1), 9);
    }
}
