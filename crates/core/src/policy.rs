//! Protection-key assignments and the monitor's physical frame table.
//!
//! The frame table is the monitor's ground truth for the isolation policies
//! of §5.2 and §6.1: every frame has exactly one *kind*, and the mapping
//! policy ([`crate::mmu_guard`]) consults it before any PTE is installed.

use erebor_hw::regs::PkrsPerms;
use erebor_hw::Frame;
use erebor_wire::{Wire, WireError, WireReader, WireWriter};

/// Protection key for ordinary kernel data (kernel-writable).
pub const PK_DEFAULT: u8 = 0;
/// Protection key for monitor code/data/stacks: access-disabled in normal
/// mode.
pub const PK_MONITOR: u8 = 1;
/// Protection key for page-table pages: write-disabled in normal mode
/// (the Nested Kernel invariant).
pub const PK_PTP: u8 = 2;
/// Protection key for kernel text: write-disabled (W⊕X).
pub const PK_KTEXT: u8 = 3;
/// Protection key for CET shadow stacks: write-disabled.
pub const PK_SSTK: u8 = 4;
/// Protection key for the hardware IDT pages: write-disabled.
pub const PK_IDT: u8 = 5;
/// First protection key available to sandbox domains under the PKS
/// backend (keys 0..=5 are the monitor's reserved policy keys above).
pub const PK_SANDBOX_FIRST: u8 = 6;
/// Number of reserved low pkeys (handed to
/// [`erebor_hw::isolation::Backend::new`]).
pub const RESERVED_PKEYS: u16 = PK_SANDBOX_FIRST as u16;

/// The PKRS value the monitor programs for *normal* (deprivileged kernel)
/// execution: monitor memory inaccessible; PTPs, kernel text, shadow
/// stacks and the IDT readable but not writable; every sandbox domain
/// key (6..=15, PKS backend) access-disabled so confined direct-map
/// aliases are invisible outside an EMC.
#[must_use]
pub fn normal_mode_pkrs() -> PkrsPerms {
    let mut p = PkrsPerms::GRANT_ALL
        .with_access_disabled(PK_MONITOR)
        .with_write_disabled(PK_PTP)
        .with_write_disabled(PK_KTEXT)
        .with_write_disabled(PK_SSTK)
        .with_write_disabled(PK_IDT);
    for key in PK_SANDBOX_FIRST..PkrsPerms::KEY_COUNT {
        p = p.with_access_disabled(key);
    }
    p
}

/// The PKRS value inside an EMC (monitor privileged execution).
#[must_use]
pub fn monitor_mode_pkrs() -> PkrsPerms {
    PkrsPerms::GRANT_ALL
}

/// What a physical frame is used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Not yet classified.
    Unused,
    /// Trusted boot firmware.
    Firmware,
    /// Monitor image, data, or secure stacks.
    Monitor,
    /// CET shadow-stack memory.
    ShadowStack,
    /// A page-table page (any level, any address space).
    Ptp,
    /// The hardware interrupt descriptor table.
    Idt,
    /// Verified kernel text.
    KernelCode,
    /// Kernel data / heap.
    KernelData,
    /// Anonymous user memory of a native (non-sandboxed) process.
    UserAnon {
        /// Owning address-space id.
        asid: u32,
    },
    /// Sandbox confined memory (client data lives here).
    Confined {
        /// Owning sandbox.
        sandbox: u32,
    },
    /// Sandbox-shared common memory (models, databases).
    Common {
        /// Region id.
        region: u32,
    },
    /// Host/DMA-visible shared window (converted via `MapGPA`).
    SharedDevice,
}

/// Frame-table errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameTableError {
    /// Frame number beyond DRAM.
    OutOfRange(Frame),
    /// Retyping a frame whose current kind forbids it.
    KindConflict {
        /// The frame.
        frame: Frame,
        /// Its current kind.
        have: FrameKind,
    },
}

impl core::fmt::Display for FrameTableError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameTableError::OutOfRange(fr) => write!(f, "{fr:?} out of range"),
            FrameTableError::KindConflict { frame, have } => {
                write!(f, "{frame:?} is already {have:?}")
            }
        }
    }
}

impl std::error::Error for FrameTableError {}

/// Migration: a one-byte tag in declaration order, then the owner id
/// (always present; 0 for kinds without one).
impl Wire for FrameKind {
    fn encode(&self, w: &mut WireWriter) {
        w.put(&match *self {
            FrameKind::Unused => (0u8, 0u32),
            FrameKind::Firmware => (1, 0),
            FrameKind::Monitor => (2, 0),
            FrameKind::ShadowStack => (3, 0),
            FrameKind::Ptp => (4, 0),
            FrameKind::Idt => (5, 0),
            FrameKind::KernelCode => (6, 0),
            FrameKind::KernelData => (7, 0),
            FrameKind::UserAnon { asid } => (8, asid),
            FrameKind::Confined { sandbox } => (9, sandbox),
            FrameKind::Common { region } => (10, region),
            FrameKind::SharedDevice => (11, 0),
        });
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (tag, arg): (u8, u32) = r.get()?;
        Ok(match tag {
            0 => FrameKind::Unused,
            1 => FrameKind::Firmware,
            2 => FrameKind::Monitor,
            3 => FrameKind::ShadowStack,
            4 => FrameKind::Ptp,
            5 => FrameKind::Idt,
            6 => FrameKind::KernelCode,
            7 => FrameKind::KernelData,
            8 => FrameKind::UserAnon { asid: arg },
            9 => FrameKind::Confined { sandbox: arg },
            10 => FrameKind::Common { region: arg },
            11 => FrameKind::SharedDevice,
            tag => {
                return Err(WireError::BadTag {
                    what: "FrameKind",
                    tag: u64::from(tag),
                })
            }
        })
    }
}

/// The monitor's per-frame metadata: kind plus mapping count (for the
/// single-mapping policy on confined frames, §6.1).
#[derive(Debug)]
pub struct FrameTable {
    /// `(kind, mapping count)` per frame number.
    frames: Vec<(FrameKind, u32)>,
}

// Migration: every frame's kind and mapping count. The table is the
// monitor's mapping-policy ground truth, so it crosses byte-for-byte.
erebor_wire::wire_struct!(FrameTable { frames });

impl FrameTable {
    /// A table covering `total_frames` frames, all [`FrameKind::Unused`].
    #[must_use]
    pub fn new(total_frames: u64) -> FrameTable {
        FrameTable {
            frames: vec![(FrameKind::Unused, 0); total_frames as usize],
        }
    }

    /// Current kind of `frame`.
    #[must_use]
    pub fn kind(&self, frame: Frame) -> FrameKind {
        self.frames
            .get(frame.0 as usize)
            .map_or(FrameKind::Unused, |&(kind, _)| kind)
    }

    /// Set the kind of `frame`. Trusted-kind frames (monitor, PTP, shadow
    /// stack, firmware, IDT) may only be retyped back through
    /// [`FrameTable::release`].
    ///
    /// # Errors
    /// [`FrameTableError`] on range or kind conflicts.
    pub fn set_kind(&mut self, frame: Frame, kind: FrameKind) -> Result<(), FrameTableError> {
        let (slot, _) = self
            .frames
            .get_mut(frame.0 as usize)
            .ok_or(FrameTableError::OutOfRange(frame))?;
        match *slot {
            FrameKind::Unused | FrameKind::KernelData | FrameKind::UserAnon { .. } => {
                *slot = kind;
                Ok(())
            }
            have if have == kind => Ok(()),
            have => Err(FrameTableError::KindConflict { frame, have }),
        }
    }

    /// Release a frame back to [`FrameKind::Unused`] (teardown path; the
    /// caller is responsible for scrubbing).
    ///
    /// # Errors
    /// [`FrameTableError::OutOfRange`].
    pub fn release(&mut self, frame: Frame) -> Result<(), FrameTableError> {
        let slot = self
            .frames
            .get_mut(frame.0 as usize)
            .ok_or(FrameTableError::OutOfRange(frame))?;
        *slot = (FrameKind::Unused, 0);
        Ok(())
    }

    /// Number of live mappings of `frame`.
    #[must_use]
    pub fn mapcount(&self, frame: Frame) -> u32 {
        self.frames.get(frame.0 as usize).map_or(0, |&(_, c)| c)
    }

    /// Record a new mapping.
    pub fn inc_map(&mut self, frame: Frame) {
        if let Some((_, c)) = self.frames.get_mut(frame.0 as usize) {
            *c = c.saturating_add(1);
        }
    }

    /// Record an unmapping.
    pub fn dec_map(&mut self, frame: Frame) {
        if let Some((_, c)) = self.frames.get_mut(frame.0 as usize) {
            *c = c.saturating_sub(1);
        }
    }

    /// Count frames of a given kind (memory accounting for Table 6).
    #[must_use]
    pub fn count_kind(&self, pred: impl Fn(FrameKind) -> bool) -> u64 {
        self.frames.iter().filter(|&&(k, _)| pred(k)).count() as u64
    }
}

/// The protection key the monitor assigns to a frame kind when mapping it
/// into *kernel-half* address space.
#[must_use]
pub fn pkey_for(kind: FrameKind) -> u8 {
    match kind {
        FrameKind::Monitor | FrameKind::Firmware => PK_MONITOR,
        FrameKind::Ptp => PK_PTP,
        FrameKind::KernelCode => PK_KTEXT,
        FrameKind::ShadowStack => PK_SSTK,
        FrameKind::Idt => PK_IDT,
        _ => PK_DEFAULT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_pkrs_blocks_monitor_and_ptp() {
        let p = normal_mode_pkrs();
        assert!(p.access_disabled(PK_MONITOR));
        assert!(p.write_disabled(PK_PTP) && !p.access_disabled(PK_PTP));
        assert!(p.write_disabled(PK_KTEXT) && !p.access_disabled(PK_KTEXT));
        assert!(p.write_disabled(PK_IDT));
        assert!(!p.access_disabled(PK_DEFAULT) && !p.write_disabled(PK_DEFAULT));
        // Every sandbox domain key is access-disabled in normal mode.
        for key in PK_SANDBOX_FIRST..16 {
            assert!(p.access_disabled(key), "sandbox key {key} must be blocked");
        }
    }

    #[test]
    fn monitor_pkrs_grants_all() {
        let p = monitor_mode_pkrs();
        for k in 0..16 {
            assert!(!p.access_disabled(k) && !p.write_disabled(k));
        }
    }

    #[test]
    fn frame_table_kind_transitions() {
        let mut t = FrameTable::new(8);
        assert_eq!(t.kind(Frame(3)), FrameKind::Unused);
        t.set_kind(Frame(3), FrameKind::Ptp).unwrap();
        // A PTP cannot silently become sandbox memory.
        let err = t
            .set_kind(Frame(3), FrameKind::Confined { sandbox: 1 })
            .unwrap_err();
        assert!(matches!(err, FrameTableError::KindConflict { .. }));
        // But release + retype is fine.
        t.release(Frame(3)).unwrap();
        t.set_kind(Frame(3), FrameKind::Confined { sandbox: 1 })
            .unwrap();
    }

    #[test]
    fn kernel_data_is_retypable() {
        let mut t = FrameTable::new(4);
        t.set_kind(Frame(0), FrameKind::KernelData).unwrap();
        t.set_kind(Frame(0), FrameKind::Ptp).unwrap();
        assert_eq!(t.kind(Frame(0)), FrameKind::Ptp);
    }

    #[test]
    fn mapcount_tracking() {
        let mut t = FrameTable::new(4);
        t.inc_map(Frame(1));
        t.inc_map(Frame(1));
        assert_eq!(t.mapcount(Frame(1)), 2);
        t.dec_map(Frame(1));
        assert_eq!(t.mapcount(Frame(1)), 1);
        t.dec_map(Frame(1));
        t.dec_map(Frame(1)); // saturates
        assert_eq!(t.mapcount(Frame(1)), 0);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut t = FrameTable::new(2);
        assert!(t.set_kind(Frame(5), FrameKind::Ptp).is_err());
        assert_eq!(t.kind(Frame(5)), FrameKind::Unused);
    }

    #[test]
    fn pkey_assignment() {
        assert_eq!(pkey_for(FrameKind::Monitor), PK_MONITOR);
        assert_eq!(pkey_for(FrameKind::Ptp), PK_PTP);
        assert_eq!(pkey_for(FrameKind::KernelCode), PK_KTEXT);
        assert_eq!(pkey_for(FrameKind::KernelData), PK_DEFAULT);
        assert_eq!(pkey_for(FrameKind::Confined { sandbox: 0 }), PK_DEFAULT);
    }
}
