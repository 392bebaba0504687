//! The untrusted host hypervisor (VMM) model.
//!
//! The host is an *attacker* in Erebor's threat model (§3.2): everything it
//! can observe, record, or inject is modelled here so tests can drive it.
//! Crucially, its memory view is gated by the [`crate::sept::Sept`]: shared
//! frames are fully visible and writable (including by device DMA); private
//! frames are cryptographically opaque (reads fail in the model).

use crate::sept::Sept;
use erebor_hw::phys::PhysMemory;
use erebor_hw::{Frame, PAGE_SIZE};
use erebor_wire::{Wire, WireError, WireReader, WireWriter};

/// Host-side access failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostAccessError {
    /// The frame is TD-private: hardware memory encryption blocks the host.
    PrivateMemory(Frame),
    /// The address is outside guest DRAM.
    OutOfRange,
}

impl core::fmt::Display for HostAccessError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HostAccessError::PrivateMemory(fr) => {
                write!(f, "host access to private {fr:?} blocked")
            }
            HostAccessError::OutOfRange => write!(f, "host access out of range"),
        }
    }
}

impl std::error::Error for HostAccessError {}

/// The untrusted hypervisor: GHCI emulation, shared-memory access, devices,
/// and an observation log for leak tests.
#[derive(Debug, Default)]
pub struct HostVmm {
    /// Every byte string the host has observed flowing out of the guest
    /// (vmcall arguments, shared-page reads). Leak tests grep this.
    pub observed: Vec<Vec<u8>>,
    /// Number of hypercalls serviced.
    pub vmcalls: u64,
    /// Emulated cpuid results (leaf → eax..edx).
    cpuid_table: Vec<(u32, [u32; 4])>,
}

impl HostVmm {
    /// A host with the default cpuid emulation table.
    #[must_use]
    pub fn new() -> HostVmm {
        HostVmm {
            observed: Vec::new(),
            vmcalls: 0,
            cpuid_table: vec![
                (0x0, [0x16, 0x756e_6547, 0x6c65_746e, 0x4965_6e69]), // GenuineIntel
                (0x1, [0x000c_06f2, 0x0010_0800, 0x7ffa_fbff, 0xbfeb_fbff]),
                (0x7, [0, 0x009c_4fbb, 0x1840_0f5e, 0xbc18_0410]),
            ],
        }
    }

    /// Emulate `cpuid` for the guest (a GHCI synchronous exit).
    pub fn emulate_cpuid(&mut self, leaf: u32) -> [u32; 4] {
        self.vmcalls += 1;
        self.observed.push(leaf.to_le_bytes().to_vec());
        self.cpuid_table
            .iter()
            .find(|(l, _)| *l == leaf)
            .map_or([0; 4], |(_, v)| *v)
    }

    /// Record arbitrary vmcall payload the guest exposed (GHCI data).
    pub fn record_vmcall(&mut self, payload: &[u8]) {
        self.vmcalls += 1;
        self.observed.push(payload.to_vec());
    }

    /// Host (or BIOS) read of guest memory — succeeds only for shared
    /// frames.
    ///
    /// # Errors
    /// [`HostAccessError::PrivateMemory`] for private frames.
    pub fn read_guest(
        &mut self,
        mem: &PhysMemory,
        sept: &Sept,
        frame: Frame,
    ) -> Result<Vec<u8>, HostAccessError> {
        if !sept.is_shared(frame) {
            return Err(HostAccessError::PrivateMemory(frame));
        }
        let mut buf = vec![0u8; PAGE_SIZE];
        mem.read(frame.base(), &mut buf)
            .map_err(|_| HostAccessError::OutOfRange)?;
        self.observed.push(buf.clone());
        Ok(buf)
    }

    /// Device DMA write into guest memory — IOMMU restricts it to shared
    /// frames (§2.1).
    ///
    /// # Errors
    /// [`HostAccessError::PrivateMemory`] for private frames.
    pub fn dma_write(
        &mut self,
        mem: &mut PhysMemory,
        sept: &Sept,
        frame: Frame,
        data: &[u8],
    ) -> Result<(), HostAccessError> {
        if !sept.is_shared(frame) {
            return Err(HostAccessError::PrivateMemory(frame));
        }
        mem.write(frame.base(), &data[..data.len().min(PAGE_SIZE)])
            .map_err(|_| HostAccessError::OutOfRange)
    }

    /// Whether any observed byte string contains `needle` — the leak-test
    /// predicate.
    #[must_use]
    pub fn observed_contains(&self, needle: &[u8]) -> bool {
        !needle.is_empty()
            && self
                .observed
                .iter()
                .any(|o| o.windows(needle.len()).any(|w| w == needle))
    }
}

/// Migration: the host's observation log and hypercall counter. The
/// cpuid table is deterministic from [`HostVmm::new`] and is not
/// exported. Migrating the *attacker's* log keeps leak audits valid
/// across the move: anything the source leaked stays on the record.
impl Wire for HostVmm {
    fn encode(&self, w: &mut WireWriter) {
        w.put(&self.vmcalls);
        w.put(&self.observed);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(HostVmm {
            vmcalls: r.get()?,
            observed: r.get()?,
            ..HostVmm::new()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sept::GpaState;

    #[test]
    fn host_blocked_from_private_memory() {
        let mut mem = PhysMemory::new(1 << 20);
        let mut sept = Sept::new();
        let f = mem.alloc_frame().unwrap();
        sept.accept_private(f);
        mem.write(f.base(), b"client secret").unwrap();
        let mut host = HostVmm::new();
        assert_eq!(
            host.read_guest(&mem, &sept, f),
            Err(HostAccessError::PrivateMemory(f))
        );
        assert!(!host.observed_contains(b"client secret"));
    }

    #[test]
    fn host_sees_shared_memory() {
        let mut mem = PhysMemory::new(1 << 20);
        let mut sept = Sept::new();
        let f = mem.alloc_frame().unwrap();
        sept.accept_private(f);
        sept.convert(f, GpaState::Shared).unwrap();
        mem.write(f.base(), b"network packet").unwrap();
        let mut host = HostVmm::new();
        let seen = host.read_guest(&mem, &sept, f).unwrap();
        assert_eq!(&seen[..14], b"network packet");
        assert!(host.observed_contains(b"network packet"));
    }

    #[test]
    fn dma_restricted_to_shared() {
        let mut mem = PhysMemory::new(1 << 20);
        let mut sept = Sept::new();
        let private = mem.alloc_frame().unwrap();
        let shared = mem.alloc_frame().unwrap();
        sept.accept_private(private);
        sept.accept_private(shared);
        sept.convert(shared, GpaState::Shared).unwrap();
        let mut host = HostVmm::new();
        assert!(host.dma_write(&mut mem, &sept, private, b"inject").is_err());
        host.dma_write(&mut mem, &sept, shared, b"packet in")
            .unwrap();
        let mut b = [0u8; 9];
        mem.read(shared.base(), &mut b).unwrap();
        assert_eq!(&b, b"packet in");
    }

    #[test]
    fn cpuid_emulation_counts_vmcalls() {
        let mut host = HostVmm::new();
        let v = host.emulate_cpuid(0);
        assert_eq!(v[1], 0x756e_6547); // "Genu"
        assert_eq!(host.emulate_cpuid(0xdead_beef), [0; 4]);
        assert_eq!(host.vmcalls, 2);
    }
}
