//! The EREBOR-MONITOR-CALL (EMC) interface: the only path by which the
//! deprivileged kernel reaches sensitive privileged operations (§5.3,
//! Table 2).

use erebor_hw::fault::Fault;
use erebor_hw::native::NativeMmuError;
use erebor_hw::regs::Msr;
use erebor_hw::{Frame, VirtAddr};

/// Direction of a monitor-emulated user copy (§6.1, "user copy"
/// interposition — `stac` is removed from the kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyDir {
    /// Kernel buffer → user memory (`copy_to_user`).
    ToUser,
    /// User memory → kernel buffer (`copy_from_user`).
    FromUser,
}

/// A request the kernel submits through the EMC gates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmcRequest {
    /// Create a new user address space; the monitor allocates and protects
    /// the root page-table page and links the shared kernel half.
    CreateAddressSpace {
        /// Kernel-assigned address-space id.
        asid: u32,
    },
    /// Switch CR3 to a registered address-space root.
    SwitchAddressSpace {
        /// Target root (must be monitor-registered).
        root: Frame,
    },
    /// Map a user page. `frame: None` asks the monitor to allocate one.
    MapUserPage {
        /// Target address space.
        root: Frame,
        /// Page-aligned user virtual address.
        va: VirtAddr,
        /// Specific frame, or `None` to allocate.
        frame: Option<Frame>,
        /// Writable mapping.
        writable: bool,
        /// Executable mapping (mutually exclusive with `writable`: W⊕X).
        executable: bool,
    },
    /// Map a contiguous range of fresh anonymous user pages in one call —
    /// the batched MMU update of §9.1, amortizing a single EMC gate over
    /// many PTE installs. Honoured only when the configuration enables
    /// batching.
    MapUserRange {
        /// Target address space.
        root: Frame,
        /// Page-aligned base VA.
        va: VirtAddr,
        /// Number of pages.
        pages: u64,
        /// Writable mappings.
        writable: bool,
    },
    /// Unmap a user page and release its frame if this was the last map.
    UnmapUserPage {
        /// Target address space.
        root: Frame,
        /// Page-aligned user virtual address.
        va: VirtAddr,
    },
    /// Change protection of an existing user mapping.
    ProtectUserPage {
        /// Target address space.
        root: Frame,
        /// Page-aligned user virtual address.
        va: VirtAddr,
        /// New writability.
        writable: bool,
    },
    /// Write a control register (validated: the monitor's protection bits
    /// are pinned).
    WriteCr {
        /// 0 or 4.
        which: u8,
        /// Requested value.
        value: u64,
    },
    /// Write an MSR (validated; monitor-private MSRs are denied, LSTAR is
    /// recorded and interposed).
    WrMsr {
        /// Target MSR.
        msr: Msr,
        /// Requested value.
        value: u64,
    },
    /// Register the kernel's handler for an interrupt/exception vector.
    /// The hardware IDT keeps pointing at the monitor's interposer; the
    /// monitor forwards after protection (§6.2).
    SetVectorHandler {
        /// Vector number.
        vec: u8,
        /// Kernel handler address (must lie in verified kernel text).
        handler: VirtAddr,
    },
    /// Monitor-emulated user copy (the kernel has no `stac`).
    UserCopy {
        /// Direction.
        dir: CopyDir,
        /// Address space holding the user buffer.
        root: Frame,
        /// User virtual address.
        user_va: VirtAddr,
        /// Bytes to copy to user (for [`CopyDir::ToUser`]); length to read
        /// (encoded as zeros) for [`CopyDir::FromUser`].
        bytes: Vec<u8>,
    },
    /// Convert a frame between CVM-private and shared (GHCI control, §5.2):
    /// only frames inside the device window may become shared.
    ConvertShared {
        /// Frame to convert.
        frame: Frame,
        /// Desired state.
        shared: bool,
    },
    /// Verify and load dynamic kernel code (loadable module / JITed eBPF,
    /// §5.2): the monitor byte-scans the code before mapping it executable
    /// in the kernel half.
    LoadKernelModule {
        /// Module code bytes.
        code: Vec<u8>,
        /// Kernel-half load address (page aligned).
        va: VirtAddr,
    },
    /// Verify and apply a kernel text patch (`text_poke` interposition,
    /// §7): the monitor scans the bytes before writing them into kernel
    /// text.
    TextPoke {
        /// Offset into kernel text.
        offset: u64,
        /// Replacement bytes.
        bytes: Vec<u8>,
    },
    /// Declare `pages` of confined memory for a sandbox at `va` (issued by
    /// the LibOS through the `/dev/erebor` driver, §6.1).
    DeclareConfined {
        /// Target sandbox.
        sandbox: u32,
        /// Base user VA.
        va: VirtAddr,
        /// Number of pages.
        pages: u64,
        /// Executable (program text) rather than data.
        executable: bool,
    },
    /// Attach a common region read-(write-until-seal) into a sandbox.
    AttachCommon {
        /// Target sandbox.
        sandbox: u32,
        /// Common region id.
        region: u32,
        /// Base user VA in the sandbox.
        va: VirtAddr,
    },
    /// Create a shared common region backed by `pages` frames,
    /// representing `logical_bytes` of shared instance data (§6.1).
    CreateCommon {
        /// Physical pages to back the region with.
        pages: u64,
        /// Declared logical size (reported in Table 6).
        logical_bytes: u64,
    },
    /// Emulate `cpuid` for a native process: the kernel's `#VE` handler
    /// delegates the GHCI round trip to the monitor, which caches results.
    CpuidEmulate {
        /// Requested leaf.
        leaf: u32,
    },
    /// Request a TDREPORT through the monitor (the GHCI attestation path
    /// of Table 2; the kernel may need reports for non-sandbox purposes,
    /// and Table 4's GHCI row measures this delegation).
    AttestReport {
        /// 64 bytes bound into the report.
        report_data: Box<[u8; 64]>,
    },
    /// An empty call, for the Table 3 microbenchmark.
    Nop,
}

/// A successful EMC result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmcResponse {
    /// Completed with no payload.
    Ok,
    /// A newly created address-space root.
    Root(Frame),
    /// The frame backing a new mapping.
    Mapped(Frame),
    /// Bytes read by a `FromUser` copy.
    Data(Vec<u8>),
    /// A newly created common-region id.
    Region(u32),
    /// `cpuid` emulation result.
    Cpuid([u32; 4]),
    /// A TDREPORT produced on the kernel's behalf.
    Report(Box<erebor_tdx::attest::TdReport>),
}

/// EMC failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmcError {
    /// The monitor's policy refused the request.
    Denied(&'static str),
    /// The request was malformed.
    BadRequest(&'static str),
    /// A hardware fault occurred while executing the request.
    Fault(Fault),
    /// Out of physical memory / budget.
    NoMemory,
    /// Sandbox creation exceeded the isolation backend's domain capacity
    /// (16 pkeys under PKS, 4096 key-IDs under TME-MK). First-class so
    /// the LibOS can surface it instead of silently reusing a live key.
    DomainsExhausted {
        /// Total domains (including the monitor's reserved keys) the
        /// active backend supports.
        capacity: u16,
    },
}

impl From<Fault> for EmcError {
    fn from(f: Fault) -> EmcError {
        EmcError::Fault(f)
    }
}

/// The native kernel's MMU failures, typed as the monitor types the same
/// failures of a delegated request.
impl From<NativeMmuError> for EmcError {
    fn from(e: NativeMmuError) -> EmcError {
        match e {
            NativeMmuError::NoMemory => EmcError::NoMemory,
            NativeMmuError::NotMapped => EmcError::BadRequest("user page not mapped"),
            NativeMmuError::Denied => EmcError::Denied("native access refused"),
        }
    }
}

impl core::fmt::Display for EmcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EmcError::Denied(why) => write!(f, "EMC denied: {why}"),
            EmcError::BadRequest(why) => write!(f, "EMC bad request: {why}"),
            EmcError::Fault(fault) => write!(f, "EMC fault: {fault}"),
            EmcError::NoMemory => write!(f, "EMC: out of memory"),
            EmcError::DomainsExhausted { capacity } => {
                write!(f, "EMC: isolation domains exhausted ({capacity} total)")
            }
        }
    }
}

impl std::error::Error for EmcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = EmcError::Denied("monitor frame");
        assert!(e.to_string().contains("denied"));
        let f: EmcError = Fault::GeneralProtection("x").into();
        assert!(matches!(f, EmcError::Fault(_)));
        let x = EmcError::DomainsExhausted { capacity: 16 };
        assert!(x.to_string().contains("exhausted") && x.to_string().contains("16"));
    }
}
