//! Control registers, model-specific registers, RFLAGS and the PKS
//! permission register — the state the paper's Table 2 instructions mutate.

use std::sync::atomic::{AtomicU64, Ordering};

/// Out-of-range protection-key sightings (key ≥ 16 handed to a
/// [`PkrsPerms`] accessor or builder). The seed guarded these paths with
/// `debug_assert!` only, so a release build silently shifted by
/// `2·key mod 64` and aliased a low key's permission bits; the hard check
/// now fails closed and records the event here instead. A non-zero delta
/// across a test or campaign is a red flag: some layer is minting pkeys
/// past the PKS ceiling instead of taking the typed domain-exhaustion
/// path.
static PKRS_RED_ASSERTS: AtomicU64 = AtomicU64::new(0);

/// Current count of out-of-range-pkey sightings (process-wide).
#[must_use]
pub fn pkrs_red_asserts() -> u64 {
    PKRS_RED_ASSERTS.load(Ordering::SeqCst)
}

fn note_pkey_out_of_range() {
    PKRS_RED_ASSERTS.fetch_add(1, Ordering::SeqCst);
}

/// `CR0` bits used by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cr0(pub u64);

erebor_wire::wire_newtype!(Cr0);

impl Cr0 {
    /// Write Protect: supervisor writes honour read-only mappings.
    pub const WP: u64 = 1 << 16;
    /// Paging enable.
    pub const PG: u64 = 1 << 31;

    /// Whether `CR0.WP` is set.
    #[must_use]
    pub fn wp(self) -> bool {
        self.0 & Self::WP != 0
    }

    /// Whether paging is enabled.
    #[must_use]
    pub fn pg(self) -> bool {
        self.0 & Self::PG != 0
    }
}

/// `CR4` bits used by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cr4(pub u64);

erebor_wire::wire_newtype!(Cr4);

impl Cr4 {
    /// Supervisor Mode Execution Prevention.
    pub const SMEP: u64 = 1 << 20;
    /// Supervisor Mode Access Prevention.
    pub const SMAP: u64 = 1 << 21;
    /// Control-flow Enforcement Technology master enable.
    pub const CET: u64 = 1 << 23;
    /// Protection Keys for Supervisor pages.
    pub const PKS: u64 = 1 << 24;

    /// Whether SMEP is enabled.
    #[must_use]
    pub fn smep(self) -> bool {
        self.0 & Self::SMEP != 0
    }

    /// Whether SMAP is enabled.
    #[must_use]
    pub fn smap(self) -> bool {
        self.0 & Self::SMAP != 0
    }

    /// Whether CET is enabled.
    #[must_use]
    pub fn cet(self) -> bool {
        self.0 & Self::CET != 0
    }

    /// Whether PKS is enabled.
    #[must_use]
    pub fn pks(self) -> bool {
        self.0 & Self::PKS != 0
    }
}

/// RFLAGS bits used by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rflags(pub u64);

impl Rflags {
    /// Interrupt enable flag.
    pub const IF: u64 = 1 << 9;
    /// Alignment-check / SMAP-override flag (set by `stac`, cleared by
    /// `clac`).
    pub const AC: u64 = 1 << 18;

    /// Whether interrupts are enabled.
    #[must_use]
    pub fn interrupts_enabled(self) -> bool {
        self.0 & Self::IF != 0
    }

    /// Whether `AC` is set (SMAP temporarily overridden).
    #[must_use]
    pub fn ac(self) -> bool {
        self.0 & Self::AC != 0
    }
}

/// Model-specific registers the simulator implements.
///
/// The set mirrors the paper's Table 2 plus the CET/UINTR state of §5–§6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Msr {
    /// Syscall entry point (`IA32_LSTAR`).
    Lstar,
    /// Syscall flag mask (`IA32_FMASK`).
    Fmask,
    /// Extended feature enables (`IA32_EFER`), incl. SCE.
    Efer,
    /// Per-core supervisor protection-key rights (`IA32_PKRS`).
    Pkrs,
    /// Supervisor CET configuration (`IA32_S_CET`).
    SCet,
    /// Ring-0 shadow-stack pointer (`IA32_PL0_SSP`).
    Pl0Ssp,
    /// User-interrupt target table (`IA32_UINTR_TT`); bit 0 = valid.
    UintrTt,
    /// GS base used for per-CPU data (`IA32_GS_BASE`).
    GsBase,
    /// APIC timer divide/config stand-in (virtualized by the host).
    ApicTimer,
}

impl Msr {
    /// The canonical x86 MSR index (for image encodings and logs).
    #[must_use]
    pub fn index(self) -> u32 {
        match self {
            Msr::Lstar => 0xC000_0082,
            Msr::Fmask => 0xC000_0084,
            Msr::Efer => 0xC000_0080,
            Msr::Pkrs => 0x0000_06E1,
            Msr::SCet => 0x0000_06A2,
            Msr::Pl0Ssp => 0x0000_06A4,
            Msr::UintrTt => 0x0000_0985,
            Msr::GsBase => 0xC000_0101,
            Msr::ApicTimer => 0x0000_0838,
        }
    }

    /// Inverse of [`Msr::index`].
    #[must_use]
    pub fn from_index(index: u32) -> Option<Msr> {
        Some(match index {
            0xC000_0082 => Msr::Lstar,
            0xC000_0084 => Msr::Fmask,
            0xC000_0080 => Msr::Efer,
            0x0000_06E1 => Msr::Pkrs,
            0x0000_06A2 => Msr::SCet,
            0x0000_06A4 => Msr::Pl0Ssp,
            0x0000_0985 => Msr::UintrTt,
            0xC000_0101 => Msr::GsBase,
            0x0000_0838 => Msr::ApicTimer,
            _ => return None,
        })
    }

    /// All MSRs the simulator knows, in a stable order.
    pub const ALL: [Msr; 9] = [
        Msr::Lstar,
        Msr::Fmask,
        Msr::Efer,
        Msr::Pkrs,
        Msr::SCet,
        Msr::Pl0Ssp,
        Msr::UintrTt,
        Msr::GsBase,
        Msr::ApicTimer,
    ];
}

/// `IA32_S_CET` bits.
pub mod s_cet {
    /// Shadow stacks enabled.
    pub const SH_STK_EN: u64 = 1 << 0;
    /// Indirect branch tracking enabled.
    pub const ENDBR_EN: u64 = 1 << 2;
}

/// Decoded view of the per-core `IA32_PKRS` register.
///
/// For each 4-bit protection key `k` (0..16), two bits control supervisor
/// access: `AD` (access disable, bit `2k`) and `WD` (write disable, bit
/// `2k+1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PkrsPerms(pub u64);

impl PkrsPerms {
    /// All keys fully accessible.
    pub const GRANT_ALL: PkrsPerms = PkrsPerms(0);

    /// Number of protection keys the 4-bit PTE field can name.
    pub const KEY_COUNT: u8 = 16;

    /// Whether reads/writes under key `key` are disabled entirely.
    /// An out-of-range key fails closed (treated as disabled) and bumps
    /// the red-assert counter — release builds must not let a wild key
    /// alias domain 0–15 permissions via a wrapping shift.
    #[must_use]
    pub fn access_disabled(self, key: u8) -> bool {
        if key >= Self::KEY_COUNT {
            note_pkey_out_of_range();
            return true;
        }
        self.0 >> (2 * key) & 1 != 0
    }

    /// Whether writes under key `key` are disabled. Out-of-range keys
    /// fail closed, as for [`PkrsPerms::access_disabled`].
    #[must_use]
    pub fn write_disabled(self, key: u8) -> bool {
        if key >= Self::KEY_COUNT {
            note_pkey_out_of_range();
            return true;
        }
        self.0 >> (2 * key + 1) & 1 != 0
    }

    /// Return a copy with `key` set to access-disabled. An out-of-range
    /// key is recorded and leaves the register unchanged (it must not
    /// flip some low key's bits).
    #[must_use]
    pub fn with_access_disabled(self, key: u8) -> PkrsPerms {
        if key >= Self::KEY_COUNT {
            note_pkey_out_of_range();
            return self;
        }
        PkrsPerms(self.0 | 1 << (2 * key))
    }

    /// Return a copy with `key` set to write-disabled (reads allowed).
    /// Out-of-range keys are recorded and ignored.
    #[must_use]
    pub fn with_write_disabled(self, key: u8) -> PkrsPerms {
        if key >= Self::KEY_COUNT {
            note_pkey_out_of_range();
            return self;
        }
        PkrsPerms(self.0 | 1 << (2 * key + 1))
    }

    /// Return a copy with `key` fully granted. Out-of-range keys are
    /// recorded and ignored.
    #[must_use]
    pub fn with_granted(self, key: u8) -> PkrsPerms {
        if key >= Self::KEY_COUNT {
            note_pkey_out_of_range();
            return self;
        }
        PkrsPerms(self.0 & !(0b11 << (2 * key)))
    }
}

/// The 16 general-purpose registers plus `rip` and `rflags` — the context
/// that the TDX module protects at exits and the monitor scrubs before
/// handing sandbox interrupts to the OS (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GprContext {
    /// General-purpose registers, indexed rax=0, rcx=1, rdx=2, rbx=3,
    /// rsp=4, rbp=5, rsi=6, rdi=7, r8..r15=8..15.
    pub gpr: [u64; 16],
    /// Instruction pointer.
    pub rip: u64,
    /// Flags register.
    pub rflags: u64,
}

erebor_wire::wire_struct!(GprContext { gpr, rip, rflags });

impl GprContext {
    /// Index of `rsp` within [`GprContext::gpr`].
    pub const RSP: usize = 4;

    /// Scrub every register (the monitor's masking at sandbox interrupts).
    pub fn scrub(&mut self) {
        self.gpr = [0; 16];
        self.rflags = 0;
        // rip is replaced by the interposed entry point by the caller.
    }

    /// Whether the context is all-zero apart from `rip`.
    #[must_use]
    pub fn is_scrubbed(&self) -> bool {
        self.gpr.iter().all(|&g| g == 0) && self.rflags == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pkrs_bit_layout() {
        let p = PkrsPerms::GRANT_ALL
            .with_access_disabled(1)
            .with_write_disabled(2);
        assert!(p.access_disabled(1));
        assert!(!p.write_disabled(1));
        assert!(p.write_disabled(2));
        assert!(!p.access_disabled(2));
        assert!(!p.access_disabled(0) && !p.write_disabled(0));
        assert_eq!(p.0, (1 << 2) | (1 << 5));
    }

    #[test]
    fn pkrs_grant_clears_both_bits() {
        let p = PkrsPerms(u64::MAX).with_granted(3);
        assert!(!p.access_disabled(3));
        assert!(!p.write_disabled(3));
        assert!(p.access_disabled(4));
    }

    /// Regression for the silent pkey-overflow bug: in the seed, these
    /// paths guarded `key < 16` with `debug_assert!` only, so a release
    /// build computed `1 << (2·32 mod 64)` and aliased key 0 — e.g.
    /// `with_access_disabled(32)` access-disabled the *default* domain,
    /// and `access_disabled(32)` leaked key 0's bit. Now: builders are
    /// recorded no-ops, accessors fail closed, and the red-assert
    /// counter ticks for each sighting.
    /// (Single test on purpose: the counter is process-wide, and this is
    /// the only test in the binary that touches out-of-range keys, so
    /// in-test sequencing keeps the deltas race-free.)
    #[test]
    fn out_of_range_key_cannot_alias_low_domains() {
        // In-range keys never tick the counter.
        let before = pkrs_red_asserts();
        let q = PkrsPerms::GRANT_ALL
            .with_access_disabled(15)
            .with_write_disabled(15);
        assert!(q.access_disabled(15) && q.write_disabled(15));
        assert!(!q.with_granted(15).access_disabled(15));
        assert_eq!(pkrs_red_asserts(), before);
        // Builders: no low-key bit may move.
        let p = PkrsPerms::GRANT_ALL
            .with_access_disabled(32) // seed: 2·32 mod 64 = bit 0 → key 0 AD
            .with_write_disabled(16) // seed: bit 33 → key 16 "WD" garbage
            .with_granted(48); // seed: cleared key 0's bits
        assert_eq!(p, PkrsPerms::GRANT_ALL, "out-of-range builders must not touch the register");
        assert!(!p.access_disabled(0), "key 0 must stay granted");
        // Accessors: out-of-range keys fail closed, not via aliasing.
        let deny0 = PkrsPerms::GRANT_ALL.with_access_disabled(0);
        assert!(deny0.access_disabled(16), "out-of-range key must fail closed");
        assert!(PkrsPerms::GRANT_ALL.access_disabled(255));
        assert!(PkrsPerms::GRANT_ALL.write_disabled(16));
        // And every sighting was recorded.
        assert!(
            pkrs_red_asserts() >= before + 6,
            "red-assert counter must record each out-of-range pkey"
        );
    }

    #[test]
    fn msr_index_roundtrip() {
        for m in Msr::ALL {
            assert_eq!(Msr::from_index(m.index()), Some(m));
        }
        assert_eq!(Msr::from_index(0xdead_beef), None);
    }

    #[test]
    fn cr_flag_helpers() {
        assert!(Cr4(Cr4::SMEP | Cr4::SMAP).smep());
        assert!(Cr4(Cr4::SMAP).smap());
        assert!(!Cr4(0).pks());
        assert!(Cr0(Cr0::WP).wp());
        assert!(Rflags(Rflags::AC).ac());
        assert!(!Rflags(0).interrupts_enabled());
    }

    #[test]
    fn gpr_scrub() {
        let mut ctx = GprContext {
            gpr: [7; 16],
            rip: 0x1000,
            rflags: 0x202,
        };
        assert!(!ctx.is_scrubbed());
        ctx.scrub();
        assert!(ctx.is_scrubbed());
        assert_eq!(ctx.rip, 0x1000, "rip is caller-managed");
    }
}
