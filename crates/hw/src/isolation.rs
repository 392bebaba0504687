//! Isolation backends: how the monitor allocates protection domains and
//! tags frames with them. The MMU enforces the tags ([`crate::mmu`]).
//!
//! The paper's mechanism is PKS: a 4-bit supervisor protection key in
//! every PTE checked against the per-CPU PKRS register — fast domain
//! switches (one `wrmsr`, no TLB flush) but a hard ceiling of 16 domains.
//! The TME-MK backend (TME-Box-style) lifts that ceiling: each frame
//! carries a 12-bit *encryption key-ID* in high PA bits of its PTE, and
//! the MMU walk compares the key-ID in the mapping against the key the
//! platform programmed for the frame (the simulated analogue of fetching
//! ciphertext under the wrong AES-XTS tweak key). Up to 4096 concurrent
//! domains, at the cost of a walk-time check and PCONFIG-style key
//! management.
//!
//! The two mechanisms differ only in their domain-id range and in how a
//! domain becomes a frame tag, so one [`Backend`] serves both: the
//! monitor's confinement plumbing, the C1–C8 auditor and the chaos
//! campaigns allocate a domain, tag a frame and revoke the domain the
//! same way under either.

use erebor_wire::{WireError, WireReader, WireWriter};
use std::collections::BTreeSet;

/// Which isolation mechanism a platform runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// PKS/PKRS supervisor protection keys (the paper's mechanism).
    Pks,
    /// TME-MK keyed memory: per-frame key-IDs in high PA bits.
    TmeMk,
}

erebor_wire::wire_enum!(BackendKind { Pks = 0, TmeMk = 1 });

impl BackendKind {
    /// Short label used in bench output and JSON metas.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Pks => "pks",
            BackendKind::TmeMk => "tmemk",
        }
    }
}

/// An allocated isolation domain. For PKS the value is the pkey
/// (6..=15 after the monitor's reserved keys); for TME-MK it is the
/// key-ID (1..=4095; key-ID 0 means "untagged / kernel default").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub u16);

erebor_wire::wire_newtype!(DomainId);

impl DomainId {
    /// The kernel/default domain: pkey 0, key-ID 0. Never allocated.
    pub const DEFAULT: DomainId = DomainId(0);
}

/// Typed failures from domain management.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationError {
    /// Every allocatable domain is live; `capacity` is the backend's
    /// total (reserved domains included).
    DomainsExhausted {
        /// Total domain capacity of the backend.
        capacity: u16,
    },
    /// The domain is not currently live (double free, reserved id, or
    /// never allocated).
    InvalidDomain(DomainId),
}

impl core::fmt::Display for IsolationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IsolationError::DomainsExhausted { capacity } => {
                write!(f, "isolation domains exhausted (capacity {capacity})")
            }
            IsolationError::InvalidDomain(d) => write!(f, "invalid domain {}", d.0),
        }
    }
}

impl std::error::Error for IsolationError {}

/// What the monitor programs into a confined frame's mappings: the PTE
/// protection key and the PTE/frame-table key-ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTag {
    /// 4-bit PKS protection key for the supervisor alias mapping.
    pub pkey: u8,
    /// 12-bit TME-MK key-ID (0 = untagged).
    pub keyid: u16,
}

/// Domain-pool bookkeeping: dense id range `[first, capacity)`, fresh
/// ids handed out in ascending order, revoked ids reused LIFO.
#[derive(Debug, Clone)]
struct DomainPool {
    first: u16,
    capacity: u16,
    next_fresh: u16,
    free_list: Vec<u16>,
    live: BTreeSet<u16>,
}

impl DomainPool {
    fn new(first: u16, capacity: u16) -> DomainPool {
        DomainPool {
            first,
            capacity,
            next_fresh: first,
            free_list: Vec::new(),
            live: BTreeSet::new(),
        }
    }

    fn alloc(&mut self) -> Result<DomainId, IsolationError> {
        let id = if let Some(id) = self.free_list.pop() {
            id
        } else if self.next_fresh < self.capacity {
            let id = self.next_fresh;
            self.next_fresh += 1;
            id
        } else {
            return Err(IsolationError::DomainsExhausted {
                capacity: self.capacity,
            });
        };
        self.live.insert(id);
        Ok(DomainId(id))
    }

    fn free(&mut self, d: DomainId) -> Result<(), IsolationError> {
        if d.0 < self.first || !self.live.remove(&d.0) {
            return Err(IsolationError::InvalidDomain(d));
        }
        self.free_list.push(d.0);
        Ok(())
    }

    fn export(&self, w: &mut WireWriter) {
        w.put(&self.next_fresh);
        w.put(&self.free_list);
        w.put(&self.live);
    }

    /// Rebuild a pool over the same `[first, capacity)` range. The
    /// imported state must be one this pool could actually be in:
    /// `free_list` (order-preserved — LIFO reuse is architectural) and
    /// `live` must exactly partition `[first, next_fresh)`, so a
    /// tampered export can neither double-allocate a live id nor leak
    /// one out of existence.
    fn import(r: &mut WireReader, first: u16, capacity: u16) -> Result<DomainPool, WireError> {
        let (next_fresh, free_list, live): (u16, Vec<u16>, BTreeSet<u16>) = r.get()?;
        if next_fresh < first || next_fresh > capacity {
            return Err(WireError::BadValue { what: "next_fresh" });
        }
        let mut seen = live.clone();
        for id in &free_list {
            if !seen.insert(*id) {
                return Err(WireError::BadValue {
                    what: "domain both live and free",
                });
            }
        }
        let handed_out: BTreeSet<u16> = (first..next_fresh).collect();
        if seen != handed_out {
            return Err(WireError::BadValue {
                what: "domain pool partition",
            });
        }
        Ok(DomainPool {
            first,
            capacity,
            next_fresh,
            free_list,
            live,
        })
    }
}

/// Number of PKS protection keys (4-bit field).
pub const PKS_KEY_COUNT: u16 = 16;

/// Number of TME-MK key-IDs (12 high PA bits in this model).
pub const TMEMK_KEY_COUNT: u16 = 4096;

/// A platform's isolation mechanism and its domain pool.
///
/// * **PKS** (the paper's mechanism): 16 pkeys, the low `reserved_pkeys`
///   held back by the monitor (default/monitor/PTP/kernel-text/shadow-stack/
///   IDT), sandbox domains drawn from the rest. A sandbox's confined
///   direct-map aliases carry its own pkey, which normal-mode PKRS
///   access-disables.
/// * **TME-MK** keyed memory: domains are key-IDs 1..=4095, key-ID 0
///   being the untagged kernel default. Confined aliases keep
///   `alias_pkey` (so the PKRS grant check still gates them) and also
///   carry the sandbox's key-ID, which the walk compares against the
///   frame table's programmed key.
#[derive(Debug, Clone)]
pub struct Backend {
    kind: BackendKind,
    pool: DomainPool,
    alias_pkey: u8,
}

impl Backend {
    /// Construct the backend for `kind`. `reserved_pkeys` is the
    /// platform's reserved low pkey count (PKS); `alias_pkey` tags
    /// confined aliases (TME-MK; the monitor passes its own pkey so
    /// normal-mode PKRS still access-disables them).
    ///
    /// # Panics
    /// If `reserved_pkeys` exceeds [`PKS_KEY_COUNT`] under PKS.
    #[must_use]
    pub fn new(kind: BackendKind, reserved_pkeys: u16, alias_pkey: u8) -> Backend {
        let pool = match kind {
            BackendKind::Pks => {
                assert!(
                    reserved_pkeys <= PKS_KEY_COUNT,
                    "more reserved keys than exist"
                );
                DomainPool::new(reserved_pkeys, PKS_KEY_COUNT)
            }
            BackendKind::TmeMk => DomainPool::new(1, TMEMK_KEY_COUNT),
        };
        Backend {
            kind,
            pool,
            alias_pkey,
        }
    }

    /// Which mechanism this is.
    #[must_use]
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// Total domain capacity, reserved domains included.
    #[must_use]
    pub fn capacity(&self) -> u16 {
        self.pool.capacity
    }

    /// Domains reserved by the platform (the monitor's policy pkeys
    /// under PKS; the untagged key-ID 0 under TME-MK). Never
    /// allocatable.
    #[must_use]
    pub fn reserved(&self) -> u16 {
        self.pool.first
    }

    /// Currently live (allocated, unrevoked) domains.
    #[must_use]
    pub fn live_domains(&self) -> u16 {
        self.pool.live.len() as u16
    }

    /// Allocate a domain. Revoked domains are reused (most recently
    /// revoked first); a live domain is never handed out twice.
    ///
    /// # Errors
    /// [`IsolationError::DomainsExhausted`] at capacity.
    pub fn alloc_domain(&mut self) -> Result<DomainId, IsolationError> {
        self.pool.alloc()
    }

    /// Revoke a live domain, returning it to the free pool.
    ///
    /// # Errors
    /// [`IsolationError::InvalidDomain`] unless `d` is live.
    pub fn free_domain(&mut self, d: DomainId) -> Result<(), IsolationError> {
        self.pool.free(d)
    }

    /// How mappings of a frame assigned to domain `d` are tagged.
    #[must_use]
    pub fn frame_tag(&self, d: DomainId) -> FrameTag {
        match self.kind {
            BackendKind::Pks => FrameTag {
                pkey: (d.0 & 0xf) as u8,
                keyid: 0,
            },
            BackendKind::TmeMk => FrameTag {
                pkey: self.alias_pkey,
                keyid: d.0,
            },
        }
    }

    /// The key programmed into the physical frame table for domain `d`
    /// (the PCONFIG analogue). Always 0 for PKS.
    #[must_use]
    pub fn frame_key(&self, d: DomainId) -> u16 {
        match self.kind {
            BackendKind::Pks => 0,
            BackendKind::TmeMk => d.0,
        }
    }

    /// Serialize the domain-pool state (live set, LIFO recycle list,
    /// fresh-id cursor) for migration. The mechanism kind and its fixed
    /// parameter (the reserved count under PKS, the alias pkey under
    /// TME-MK) are included so import can refuse a cross-mechanism
    /// transplant.
    #[must_use]
    pub fn export_state(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self.kind {
            BackendKind::Pks => w.put(&(0u8, self.pool.first)),
            BackendKind::TmeMk => w.put(&(1u8, self.alias_pkey)),
        }
        self.pool.export(&mut w);
        w.finish()
    }

    /// Replace this backend's pool with an exported one. The export must
    /// be for the same mechanism with the same fixed parameter, and its
    /// pool state must satisfy the allocator invariants — see
    /// `DomainPool::import`.
    ///
    /// # Errors
    /// [`WireError`] on truncation, kind/parameter mismatch, or an
    /// inconsistent pool (a live id also on the free list, ids outside
    /// the handed-out range, ...).
    pub fn import_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = WireReader::new(bytes);
        let kind: u8 = r.get()?;
        match (self.kind, kind) {
            (BackendKind::Pks, 0) => {
                if r.get::<u16>()? != self.pool.first {
                    return Err(WireError::BadValue {
                        what: "reserved pkeys",
                    });
                }
            }
            (BackendKind::TmeMk, 1) => {
                if r.get::<u8>()? != self.alias_pkey {
                    return Err(WireError::BadValue { what: "alias pkey" });
                }
            }
            _ => {
                return Err(WireError::BadTag {
                    what: "backend kind",
                    tag: u64::from(kind),
                });
            }
        }
        let pool = DomainPool::import(&mut r, self.pool.first, self.pool.capacity)?;
        r.finish()?;
        self.pool = pool;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pks_pool_is_sixteen_minus_reserved() {
        let mut b = Backend::new(BackendKind::Pks, 6, 1);
        assert_eq!(b.capacity(), 16);
        assert_eq!(b.reserved(), 6);
        let mut got = Vec::new();
        while let Ok(d) = b.alloc_domain() {
            got.push(d.0);
        }
        assert_eq!(got, (6..16).collect::<Vec<u16>>());
        assert_eq!(
            b.alloc_domain(),
            Err(IsolationError::DomainsExhausted { capacity: 16 })
        );
        assert_eq!(b.live_domains(), 10);
    }

    #[test]
    fn freed_domain_is_reused_never_while_live() {
        let mut b = Backend::new(BackendKind::Pks, 6, 1);
        let a = b.alloc_domain().unwrap();
        let c = b.alloc_domain().unwrap();
        assert_ne!(a, c);
        b.free_domain(a).unwrap();
        assert_eq!(b.free_domain(a), Err(IsolationError::InvalidDomain(a)));
        let again = b.alloc_domain().unwrap();
        assert_eq!(again, a, "most recently revoked id is reused first");
        // Both live now: the next alloc must be a fresh id.
        let fresh = b.alloc_domain().unwrap();
        assert!(fresh != a && fresh != c);
    }

    #[test]
    fn reserved_ids_are_never_handed_out_or_freed() {
        let mut b = Backend::new(BackendKind::Pks, 6, 1);
        assert_eq!(
            b.free_domain(DomainId(3)),
            Err(IsolationError::InvalidDomain(DomainId(3)))
        );
        assert_eq!(
            b.free_domain(DomainId::DEFAULT),
            Err(IsolationError::InvalidDomain(DomainId(0)))
        );
        for _ in 0..10 {
            assert!(b.alloc_domain().unwrap().0 >= 6);
        }
    }

    #[test]
    fn tmemk_supports_hundreds_of_domains() {
        let mut b = Backend::new(BackendKind::TmeMk, 6, 1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..512 {
            let d = b.alloc_domain().unwrap();
            assert!(d.0 >= 1, "key-ID 0 is reserved");
            assert!(seen.insert(d.0), "live key-ID handed out twice");
        }
        assert_eq!(b.live_domains(), 512);
        assert_eq!(b.capacity(), 4096);
    }

    #[test]
    fn tmemk_exhausts_at_capacity_with_typed_error() {
        let mut b = Backend::new(BackendKind::TmeMk, 6, 1);
        for _ in 0..4095 {
            b.alloc_domain().unwrap();
        }
        assert_eq!(
            b.alloc_domain(),
            Err(IsolationError::DomainsExhausted { capacity: 4096 })
        );
    }

    #[test]
    fn frame_tags_match_mechanism() {
        let pks = Backend::new(BackendKind::Pks, 6, 1);
        assert_eq!(
            pks.frame_tag(DomainId(7)),
            FrameTag { pkey: 7, keyid: 0 }
        );
        assert_eq!(pks.frame_key(DomainId(7)), 0);
        let tme = Backend::new(BackendKind::TmeMk, 6, 1);
        assert_eq!(
            tme.frame_tag(DomainId(300)),
            FrameTag {
                pkey: 1,
                keyid: 300
            }
        );
        assert_eq!(tme.frame_key(DomainId(300)), 300);
    }

    /// Satellite: an imported pool must reuse exactly the ids the source
    /// would have — LIFO order preserved, live ids never re-handed-out —
    /// under both mechanisms.
    #[test]
    fn pool_state_roundtrips_exactly_under_both_backends() {
        for kind in [BackendKind::Pks, BackendKind::TmeMk] {
            let mut src = Backend::new(kind, 6, 1);
            let a = src.alloc_domain().unwrap();
            let b = src.alloc_domain().unwrap();
            let c = src.alloc_domain().unwrap();
            src.free_domain(a).unwrap();
            src.free_domain(c).unwrap(); // free list now [a, c] — pop gives c first

            let mut dst = Backend::new(kind, 6, 1);
            dst.import_state(&src.export_state()).unwrap();
            assert_eq!(dst.live_domains(), 1, "{kind:?}");
            // Killing the surviving sandbox and re-creating must reuse the
            // exact freed ids in source order: c, then a, then b, then fresh.
            dst.free_domain(b).unwrap();
            assert_eq!(dst.alloc_domain().unwrap(), b);
            assert_eq!(dst.alloc_domain().unwrap(), c);
            assert_eq!(dst.alloc_domain().unwrap(), a);
            let fresh = dst.alloc_domain().unwrap();
            assert!(fresh != a && fresh != b && fresh != c, "{kind:?}");
            // And a live id is never double-allocated.
            let mut seen = std::collections::BTreeSet::new();
            seen.extend([a.0, b.0, c.0, fresh.0]);
            while let Ok(d) = dst.alloc_domain() {
                assert!(seen.insert(d.0), "{kind:?}: live id handed out twice");
                if seen.len() > 64 {
                    break;
                }
            }
        }
    }

    /// Tampered pool exports land as typed errors, not corrupted pools.
    #[test]
    fn pool_import_rejects_inconsistent_state() {
        let mut src = Backend::new(BackendKind::Pks, 6, 1);
        let a = src.alloc_domain().unwrap();
        src.alloc_domain().unwrap();
        src.free_domain(a).unwrap();
        let good = src.export_state();

        let mut dst = Backend::new(BackendKind::Pks, 6, 1);
        // Truncation at every boundary.
        for cut in 0..good.len() {
            assert!(dst.import_state(&good[..cut]).is_err(), "cut {cut}");
        }
        // Cross-mechanism transplant.
        let mut tme = Backend::new(BackendKind::TmeMk, 6, 1);
        assert!(tme.import_state(&good).is_err());
        // A live id duplicated onto the free list must be refused: craft
        // by exporting, then flipping the free-list entry to the live id.
        let mut evil = good.clone();
        // Layout: kind u8, first u16, next_fresh u16, seq(len) u64, id u16...
        // The single free-list id sits right after the 8-byte count.
        let free_pos = 1 + 2 + 2 + 8;
        evil[free_pos..free_pos + 2].copy_from_slice(&7u16.to_le_bytes());
        assert!(dst.import_state(&evil).is_err(), "live+free id accepted");
        // The untampered export still imports.
        dst.import_state(&good).unwrap();
    }

    /// Each fixed-parameter mismatch has its own typed refusal: a
    /// cross-mechanism transplant in either direction, a different
    /// reserved-pkey count, a different alias pkey.
    #[test]
    fn import_names_each_refusal() {
        let pks = Backend::new(BackendKind::Pks, 6, 1);
        let tme = Backend::new(BackendKind::TmeMk, 6, 1);
        assert_eq!(pks.kind(), BackendKind::Pks);
        assert_eq!(tme.kind(), BackendKind::TmeMk);
        assert_eq!(BackendKind::Pks.label(), "pks");
        assert_eq!(BackendKind::TmeMk.label(), "tmemk");
        let refusal = |mut dst: Backend, src: &Backend| dst.import_state(&src.export_state());
        assert_eq!(
            refusal(Backend::new(BackendKind::TmeMk, 6, 1), &pks),
            Err(WireError::BadTag {
                what: "backend kind",
                tag: 0
            })
        );
        assert_eq!(
            refusal(Backend::new(BackendKind::Pks, 6, 1), &tme),
            Err(WireError::BadTag {
                what: "backend kind",
                tag: 1
            })
        );
        assert_eq!(
            refusal(Backend::new(BackendKind::Pks, 5, 1), &pks),
            Err(WireError::BadValue {
                what: "reserved pkeys"
            })
        );
        assert_eq!(
            refusal(Backend::new(BackendKind::TmeMk, 6, 2), &tme),
            Err(WireError::BadValue { what: "alias pkey" })
        );
        // The same parameters import cleanly.
        assert_eq!(refusal(Backend::new(BackendKind::Pks, 6, 2), &pks), Ok(()));
        assert_eq!(
            refusal(Backend::new(BackendKind::TmeMk, 5, 1), &tme),
            Ok(())
        );
    }
}
