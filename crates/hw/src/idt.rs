//! The interrupt descriptor table.
//!
//! The IDT lives in simulated guest memory: each of the 256 vectors is a
//! 16-byte entry whose first 8 bytes are the handler virtual address.
//! `lidt` (a sensitive instruction, Table 2) points the CPU at the table;
//! hardware *delivery* reads entries with physical accesses that bypass
//! permission checks, so protecting the IDT reduces to (a) controlling who
//! may execute `lidt` and (b) mapping the table's pages read-only to the
//! kernel — exactly the monitor's policy in §5.2/§6.2.

use crate::fault::Fault;
use crate::paging::lookup_raw;
use crate::phys::{Frame, PhysAddr, PhysMemory};
use crate::VirtAddr;

/// Bytes per IDT entry.
pub const ENTRY_SIZE: u64 = 16;
/// Number of vectors.
pub const VECTORS: usize = 256;

/// Well-known vectors used by the platform.
pub mod vector {
    /// Page fault.
    pub const PF: u8 = 14;
    /// General protection.
    pub const GP: u8 = 13;
    /// Control protection (CET).
    pub const CP: u8 = 21;
    /// Virtualization exception (TDX).
    pub const VE: u8 = 20;
    /// Invalid opcode.
    pub const UD: u8 = 6;
    /// APIC timer interrupt.
    pub const TIMER: u8 = 32;
    /// Inter-processor interrupt used by the OS.
    pub const IPI: u8 = 33;
    /// External (virtio) device interrupt.
    pub const DEVICE: u8 = 34;
}

/// The IDTR register: base virtual address of the in-memory table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Idtr {
    /// Table base (virtual).
    pub base: VirtAddr,
}

erebor_wire::wire_struct!(Idtr { base });

/// Write the handler address for `vec` into the in-memory IDT.
///
/// This is a *software* store in real hardware; callers that model software
/// writes must instead store through the MMU-checked CPU path. This raw
/// helper exists for the monitor's boot-time construction, before the table
/// is sealed read-only.
///
/// # Errors
/// Fails if the table's page is unmapped in `root`.
pub fn write_entry_raw(
    mem: &mut PhysMemory,
    root: Frame,
    idtr: Idtr,
    vec: u8,
    handler: VirtAddr,
) -> Result<(), Fault> {
    let slot = entry_pa(mem, root, idtr, vec)?;
    mem.write_u64(slot, handler.0)
        .map_err(|_| Fault::Unrecoverable("IDT write left DRAM"))?;
    Ok(())
}

/// Hardware interrupt delivery: read the handler address for `vec`.
///
/// Bypasses permission checks (hardware walk), but the table must be
/// *mapped* — an unmapped IDT is an unrecoverable condition.
///
/// # Errors
/// [`Fault::Unrecoverable`] if the IDT page is not mapped.
pub fn read_entry(
    mem: &mut PhysMemory,
    root: Frame,
    idtr: Idtr,
    vec: u8,
) -> Result<VirtAddr, Fault> {
    let slot = entry_pa(mem, root, idtr, vec)?;
    let h = mem
        .read_u64(slot)
        .map_err(|_| Fault::Unrecoverable("IDT read left DRAM"))?;
    Ok(VirtAddr(h))
}

fn entry_pa(mem: &PhysMemory, root: Frame, idtr: Idtr, vec: u8) -> Result<PhysAddr, Fault> {
    let va = idtr.base.add(u64::from(vec) * ENTRY_SIZE);
    let leaf = lookup_raw(mem, root, va)
        .map_err(|_| Fault::Unrecoverable("IDT walk left DRAM"))?
        .ok_or(Fault::Unrecoverable("IDT page not mapped"))?;
    Ok(PhysAddr(leaf.frame().base().0 + va.page_offset()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paging::{map_raw, Pte, PteFlags};

    #[test]
    fn write_then_deliver() {
        let mut mem = PhysMemory::new(16 * 1024 * 1024);
        let root = mem.alloc_frame().unwrap();
        let idt_frame = mem.alloc_frame().unwrap();
        let base = VirtAddr(0xffff_8000_0010_0000);
        map_raw(
            &mut mem,
            root,
            base,
            Pte::encode(idt_frame, PteFlags::kernel_ro(0)),
            PteFlags::kernel_rw(0),
        )
        .unwrap();
        let idtr = Idtr { base };
        write_entry_raw(
            &mut mem,
            root,
            idtr,
            vector::PF,
            VirtAddr(0xffff_8000_0000_4242),
        )
        .unwrap();
        let h = read_entry(&mut mem, root, idtr, vector::PF).unwrap();
        assert_eq!(h, VirtAddr(0xffff_8000_0000_4242));
        // Unwritten vectors read as zero.
        assert_eq!(
            read_entry(&mut mem, root, idtr, vector::TIMER).unwrap(),
            VirtAddr(0)
        );
    }

    #[test]
    fn unmapped_idt_is_unrecoverable() {
        let mut mem = PhysMemory::new(16 * 1024 * 1024);
        let root = mem.alloc_frame().unwrap();
        let idtr = Idtr {
            base: VirtAddr(0xffff_8000_0010_0000),
        };
        assert!(matches!(
            read_entry(&mut mem, root, idtr, 0),
            Err(Fault::Unrecoverable(_))
        ));
    }
}
