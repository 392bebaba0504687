//! TLB transparency property: for any page tables, register states, and
//! interleaving of accesses with register writes and invalidations, a
//! machine whose accesses go through its TLB and a twin whose accesses
//! go straight to the page-table walker (`erebor_hw::mmu::translate`,
//! the reference) produce the same verdict (allow, or the exact same
//! fault) for every access, and end with byte-identical page tables
//! (A/D bits included).
//!
//! Software PTE stores without invalidation are deliberately *excluded*
//! from the op alphabet: staleness after a raw PTE write is architectural
//! behaviour the TLB is supposed to exhibit (see the shootdown tests), not
//! a divergence bug.
//!
//! Reproducible via `EREBOR_PT_SEED` like every other property test.

use erebor_hw::cpu::{Domain, Machine};
use erebor_hw::fault::AccessKind;
use erebor_hw::mmu::{self, MmuEnv};
use erebor_hw::paging::{self, Pte, PteFlags};
use erebor_hw::regs::{Cr0, Cr4, Msr, Rflags};
use erebor_hw::{CpuMode, Fault, VirtAddr};
use erebor_testkit::collection;
use erebor_testkit::prelude::*;

/// The fixed VA pool ops index into: two user-range and two kernel-range
/// pages that get mapped with random flags, plus two that stay unmapped.
const VAS: [u64; 6] = [
    0x40_0000,
    0x41_0000,
    0xffff_8000_0000_0000,
    0xffff_8000_0004_0000,
    0x7f00_0000,
    0xffff_8000_0100_0000,
];

fn arb_flags() -> impl Strategy<Value = PteFlags> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0u8..16,
    )
        .prop_map(|(writable, user, dirty, nx, pkey)| PteFlags {
            present: true,
            writable,
            user,
            accessed: false,
            dirty,
            nx,
            pkey,
        })
}

fn build(flags: &[PteFlags]) -> Machine {
    let mut m = Machine::new(2, 32 * 1024 * 1024);
    let root = m.mem.alloc_frame().unwrap();
    for (va, f) in VAS.iter().zip(flags) {
        let frame = m.mem.alloc_frame().unwrap();
        paging::map_raw(
            &mut m.mem,
            root,
            VirtAddr(*va),
            Pte::encode(frame, *f),
            paging::intermediate_for(*f),
        )
        .unwrap();
    }
    for c in &mut m.cpus {
        c.cr3 = root;
        c.cr0 = Cr0(Cr0::WP | Cr0::PG);
        c.cr4 = Cr4(Cr4::SMEP | Cr4::SMAP | Cr4::PKS);
        c.domain = Domain::Monitor;
    }
    m.allow_sensitive(Domain::Monitor);
    m
}

/// An access as the machine performs it: through core 0's TLB.
fn cached(m: &mut Machine, va: VirtAddr, kind: AccessKind) -> Result<(), Fault> {
    m.probe(0, va, kind)
}

/// The reference: the same access walked from core 0's live registers,
/// never consulting or filling a TLB.
fn walked(m: &mut Machine, va: VirtAddr, kind: AccessKind) -> Result<(), Fault> {
    let c = &m.cpus[0];
    let env = MmuEnv {
        root: c.cr3,
        cr0: c.cr0,
        cr4: c.cr4,
        mode: c.mode,
        rflags: c.rflags(),
        pkrs: c.pkrs(),
    };
    mmu::translate(&mut m.mem, &env, va, kind).map(|_| ())
}

/// Apply one op to a machine, performing an access with `access`;
/// returns the access verdict if the op was an access (faults compare
/// with `==`, so reasons must match exactly).
fn step(
    m: &mut Machine,
    op: (u8, u8, u8, u32),
    access: fn(&mut Machine, VirtAddr, AccessKind) -> Result<(), Fault>,
) -> Option<Result<(), Fault>> {
    let (sel, va_idx, kind_idx, seed) = op;
    let va = VirtAddr(VAS[va_idx as usize % VAS.len()] + u64::from(seed) % 4096);
    let kind = [AccessKind::Read, AccessKind::Write, AccessKind::Execute][kind_idx as usize % 3];
    match sel % 8 {
        0..=2 => return Some(access(m, va, kind)),
        3 => {
            // Random PKRS — only meaningful (and legal) in supervisor mode.
            if m.cpus[0].mode == CpuMode::Supervisor {
                m.wrmsr(0, Msr::Pkrs, u64::from(seed)).unwrap();
            }
        }
        4 => {
            let wp = m.cpus[0].cr0 .0 ^ Cr0::WP;
            m.cpus[0].cr0 = Cr0(wp);
        }
        5 => {
            let bits = [Cr4::SMEP, Cr4::SMAP, Cr4::PKS][seed as usize % 3];
            m.cpus[0].cr4 = Cr4(m.cpus[0].cr4 .0 ^ bits);
        }
        6 => {
            let c = &mut m.cpus[0];
            match seed % 3 {
                0 => c.ctx.rflags ^= Rflags::AC,
                1 => {
                    c.mode = if c.mode == CpuMode::User {
                        CpuMode::Supervisor
                    } else {
                        CpuMode::User
                    }
                }
                _ => {
                    // Reload CR3 (flushes the TLB).
                    if c.mode == CpuMode::Supervisor {
                        let root = c.cr3;
                        m.write_cr3(0, root).unwrap();
                    }
                }
            }
        }
        _ => {
            if m.cpus[0].mode == CpuMode::Supervisor {
                m.invalidate_page(0, va).unwrap();
            }
        }
    }
    None
}

proptest! {
    #[test]
    fn tlb_agrees_with_the_walker_on_every_verdict(
        flags in collection::vec(arb_flags(), 4..=4),
        ops in collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u32>()), 1..80),
    ) {
        let mut tlb = build(&flags);
        let mut walker = build(&flags);
        let mut allowed = 0u64;
        for (i, op) in ops.iter().enumerate() {
            let a = step(&mut tlb, *op, cached);
            let b = step(&mut walker, *op, walked);
            if matches!(a, Some(Ok(()))) {
                allowed += 1;
            }
            prop_assert_eq!(a, b, "verdict diverged at op {} ({:?})", i, op);
        }
        // Page tables (A/D bits included) must end byte-identical: the
        // TLB's dirty-promotion walk is the only path that may skip table
        // stores, and it must not lose any.
        let root = tlb.cpus[0].cr3;
        for va in VAS {
            let l_tlb = paging::lookup_raw(&tlb.mem, root, VirtAddr(va)).unwrap();
            let l_walk = paging::lookup_raw(&walker.mem, root, VirtAddr(va)).unwrap();
            prop_assert_eq!(l_tlb, l_walk, "PTE state diverged at {va:#x}");
        }
        // Sanity: every allowed access went through the TLB path (hit or
        // counted miss); the reference never filled a TLB.
        prop_assert_eq!(tlb.stats.tlb_hits + tlb.stats.tlb_misses, allowed);
        prop_assert_eq!(walker.tlbs[0].occupancy(), 0);
    }
}
