//! TD live migration: the attested, sealed record stream (§2.1's
//! migration TD, reduced to its security-relevant core).
//!
//! Real TDX live migration interposes a *migration TD* that owns a
//! transport key bound to both machines' attestations; every page and
//! every piece of TD-scope metadata crosses the wire AEAD-protected and
//! strictly ordered, and any damage aborts the import while the source
//! keeps running. This module reproduces that contract:
//!
//! 1. **Handshake.** Source and destination exchange ephemeral X25519
//!    keys. The destination binds both public keys into the
//!    `report_data` of a TDREPORT and returns a CPU-signed quote; the
//!    source verifies the quote against the provisioned root key and the
//!    expected boot measurement before sealing a single byte
//!    ([`MigrationSource::open`]).
//! 2. **Stream.** Records — `Begin`, `Page`, `Section`, `Finish` — are
//!    sealed into [`erebor_crypto::frame`] frames: sequence-numbered,
//!    strictly monotonic nonces, cleartext header bound as AAD. The
//!    destination accepts the exact next sequence only, so every
//!    drop/duplicate/reorder/corruption is a *typed*
//!    [`MigrationError`], never a half-imported TD.
//! 3. **Completion.** `Finish` carries the page and section counts; the
//!    destination refuses to release its snapshot unless the counts
//!    match what it verified ([`MigrationDest::into_snapshot`]).
//!
//! Pre-copy is expressed naturally: a frame re-sent after its contents
//! changed simply overwrites the earlier copy in the destination's
//! staging map — later records win, which is exactly the dirty-page
//! semantics.

use crate::attest::{verify_quote_expected, Expected, Quote, QuoteError};
use crate::sept::Sept;
use erebor_crypto::frame::{FrameError, FrameReceiver, FrameSender};
use erebor_crypto::kx::derive_session_keys;
use erebor_crypto::{x25519, VerifyingKey};
use erebor_hw::PAGE_SIZE;
use erebor_wire::{Wire, WireError, WireReader, WireWriter};
use std::collections::BTreeMap;

/// Version stamped into the `Begin` record; the destination refuses a
/// stream from a different protocol generation. Version 2 dropped the
/// host-side switches from the sections. Version 3 dropped the
/// `PHYS_META` and `BACKEND` sections, whose bytes `MACHINE` and
/// `MONITOR` already carry, and the monitor's shootdown-coalescing byte.
/// Version 4 drops the TLB ablation switch from `MACHINE` (machine-state
/// version 3). Version 5 drops the MMU epoch from `MACHINE` (machine-state
/// version 4). Version 6 drops the fixed device and reclaim cadences from
/// `PLATFORM`.
pub const MIGRATION_VERSION: u32 = 6;

/// Record type tags (the cleartext frame-type byte).
pub mod record {
    /// Stream start: protocol version.
    pub const BEGIN: u8 = 1;
    /// One guest frame: frame number + 4096 data bytes.
    pub const PAGE: u8 = 2;
    /// One state section: section id + opaque payload.
    pub const SECTION: u8 = 3;
    /// Stream end: page-record and section counts.
    pub const FINISH: u8 = 4;
}

/// Well-known section identifiers the platform layer streams. Ids 2 and
/// 4 carried `PHYS_META` and `BACKEND` before version 3 and are retired.
pub mod section {
    /// The `erebor-hw` machine blob (CPUs, MSRs, TLBs, trace, ledgers,
    /// physical-memory metadata).
    pub const MACHINE: u8 = 1;
    /// The TDX module (sEPT, measurements, host log, counters).
    pub const TDX: u8 = 3;
    /// The monitor (EMC ledger, sandbox table, gate state, sessions,
    /// isolation-backend domain pool).
    pub const MONITOR: u8 = 5;
    /// The deprivileged kernel (tasks, VFS, scheduler).
    pub const KERNEL: u8 = 6;
    /// The LibOS common-region registry.
    pub const LIBOS: u8 = 7;
    /// The hardware root seed (key provisioning hand-off).
    pub const ROOT_SEED: u8 = 8;
    /// Platform-driver state (timer phase, device/reclaim cadence) —
    /// not architectural, but same-seed trace equivalence across a
    /// migration requires the execution driver to resume mid-quantum
    /// exactly where the source stopped.
    pub const PLATFORM: u8 = 9;

    /// Every section a stream carries, in stream order. The destination
    /// refuses any other id.
    pub const ALL: [u8; 7] = [MACHINE, TDX, MONITOR, KERNEL, LIBOS, ROOT_SEED, PLATFORM];
}

/// Typed migration failure. Every mid-flight fault must surface as one
/// of these with the source still live — the chaos campaigns assert the
/// class, and the audit asserts the source afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationError {
    /// The destination's quote failed verification.
    QuoteRejected(QuoteError),
    /// The quote verified but does not bind this key exchange.
    BindingMismatch,
    /// The sealed channel rejected a frame (truncation, replay,
    /// reorder, tag mismatch, counter exhaustion — see the inner error).
    Channel(FrameError),
    /// A record's sealed payload failed to parse.
    Decode(WireError),
    /// The record sequence violated the protocol state machine.
    Protocol(&'static str),
    /// `Finish` accounting disagrees with the verified stream.
    Incomplete {
        /// What the `Finish` record claimed.
        claimed: u64,
        /// What the destination verified.
        verified: u64,
    },
}

impl From<FrameError> for MigrationError {
    fn from(e: FrameError) -> MigrationError {
        MigrationError::Channel(e)
    }
}

impl From<WireError> for MigrationError {
    fn from(e: WireError) -> MigrationError {
        MigrationError::Decode(e)
    }
}

impl core::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MigrationError::QuoteRejected(e) => write!(f, "destination quote rejected: {e}"),
            MigrationError::BindingMismatch => {
                write!(f, "destination quote does not bind this key exchange")
            }
            MigrationError::Channel(e) => write!(f, "migration channel: {e}"),
            MigrationError::Decode(e) => write!(f, "migration record malformed: {e}"),
            MigrationError::Protocol(what) => write!(f, "migration protocol violation: {what}"),
            MigrationError::Incomplete { claimed, verified } => {
                write!(f, "migration incomplete: finish claims {claimed}, verified {verified}")
            }
        }
    }
}

impl std::error::Error for MigrationError {}

/// An ephemeral migration key pair (deterministic from a caller seed, as
/// everything in the simulator is).
pub struct MigrationKey {
    private: [u8; 32],
    public: [u8; 32],
}

impl core::fmt::Debug for MigrationKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MigrationKey").finish_non_exhaustive()
    }
}

impl MigrationKey {
    /// Derive a key pair from a seed.
    #[must_use]
    pub fn from_seed(seed: [u8; 32]) -> MigrationKey {
        MigrationKey {
            private: seed,
            public: x25519::public_key(&seed),
        }
    }

    /// The public half, sent to the peer in the clear.
    #[must_use]
    pub fn public(&self) -> [u8; 32] {
        self.public
    }
}

/// The 64-byte `report_data` binding both ephemeral public keys, placed
/// in the destination's TDREPORT so the source knows the attested TD is
/// the one terminating *this* channel.
#[must_use]
pub fn migration_binding(source_pub: &[u8; 32], dest_pub: &[u8; 32]) -> [u8; 64] {
    let hash = erebor_crypto::kx::binding_hash(source_pub, dest_pub);
    let mut rd = [0u8; 64];
    rd[..32].copy_from_slice(&hash);
    rd[32..44].copy_from_slice(b"erebor-mig-1");
    rd
}

fn stream_key(key: &MigrationKey, source_pub: &[u8; 32], dest_pub: &[u8; 32], peer: &[u8; 32]) -> [u8; 32] {
    let shared = x25519::shared_secret(&key.private, peer);
    // Migration traffic flows source → destination only: the c2s half of
    // the schedule is the stream key, the s2c half is reserved.
    derive_session_keys(&shared, source_pub, dest_pub).c2s
}

/// Source-side protocol phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourcePhase {
    /// Attested, `Begin` not yet sent.
    Attested,
    /// `Begin` sent; pages stream while the guest keeps running.
    PreCopy,
    /// Source quiesced; final dirty pages and sections stream.
    StopCopy,
    /// `Finish` sent; the stream is closed.
    Finished,
}

/// The sealing end of the migration stream.
#[derive(Debug)]
pub struct MigrationSource {
    tx: FrameSender,
    phase: SourcePhase,
    pages: u64,
    sections: u64,
}

impl MigrationSource {
    /// Verify the destination's attestation and open the sealed stream.
    ///
    /// `quote` must be signed by `root`, match `expected`, and bind
    /// [`migration_binding`]`(source_pub, dest_pub)` in its report data.
    ///
    /// # Errors
    /// [`MigrationError::QuoteRejected`] or
    /// [`MigrationError::BindingMismatch`]; no record can be sealed on a
    /// failed handshake.
    pub fn open(
        key: &MigrationKey,
        dest_pub: [u8; 32],
        quote: &Quote,
        root: &VerifyingKey,
        expected: &Expected,
    ) -> Result<MigrationSource, MigrationError> {
        verify_quote_expected(root, quote, expected).map_err(MigrationError::QuoteRejected)?;
        let binding = migration_binding(&key.public, &dest_pub);
        if !erebor_crypto::ct::eq(&quote.report.report_data, &binding) {
            return Err(MigrationError::BindingMismatch);
        }
        Ok(MigrationSource {
            tx: FrameSender::new(stream_key(key, &key.public, &dest_pub, &dest_pub)),
            phase: SourcePhase::Attested,
            pages: 0,
            sections: 0,
        })
    }

    /// Current protocol phase.
    #[must_use]
    pub fn phase(&self) -> SourcePhase {
        self.phase
    }

    /// Records sealed so far.
    #[must_use]
    pub fn records_sealed(&self) -> u64 {
        self.tx.sealed_count()
    }

    /// Seal the `Begin` record and enter pre-copy.
    ///
    /// # Errors
    /// [`MigrationError::Protocol`] unless the stream is freshly attested.
    pub fn begin(&mut self) -> Result<Vec<u8>, MigrationError> {
        if self.phase != SourcePhase::Attested {
            return Err(MigrationError::Protocol("begin: stream already started"));
        }
        let rec = self.tx.seal(record::BEGIN, &MIGRATION_VERSION.to_wire())?;
        self.phase = SourcePhase::PreCopy;
        Ok(rec)
    }

    fn streaming(&self, what: &'static str) -> Result<(), MigrationError> {
        match self.phase {
            SourcePhase::PreCopy | SourcePhase::StopCopy => Ok(()),
            SourcePhase::Attested | SourcePhase::Finished => Err(MigrationError::Protocol(what)),
        }
    }

    /// Seal one guest page.
    ///
    /// # Errors
    /// [`MigrationError::Protocol`] outside pre-copy/stop-and-copy.
    pub fn page(&mut self, frame: u64, data: &[u8; PAGE_SIZE]) -> Result<Vec<u8>, MigrationError> {
        self.streaming("page: stream not open")?;
        let mut w = WireWriter::new();
        w.u64(frame);
        w.raw(data);
        let rec = self.tx.seal(record::PAGE, &w.finish())?;
        self.pages += 1;
        Ok(rec)
    }

    /// Seal one state section.
    ///
    /// # Errors
    /// [`MigrationError::Protocol`] outside pre-copy/stop-and-copy.
    pub fn section(&mut self, id: u8, payload: &[u8]) -> Result<Vec<u8>, MigrationError> {
        self.streaming("section: stream not open")?;
        let mut w = WireWriter::new();
        w.u8(id);
        w.bytes(payload);
        let rec = self.tx.seal(record::SECTION, &w.finish())?;
        self.sections += 1;
        Ok(rec)
    }

    /// Mark the source quiesced: pre-copy is over, the remaining records
    /// belong to the bounded stop-and-copy phase.
    ///
    /// # Errors
    /// [`MigrationError::Protocol`] unless currently in pre-copy.
    pub fn enter_stop_copy(&mut self) -> Result<(), MigrationError> {
        if self.phase != SourcePhase::PreCopy {
            return Err(MigrationError::Protocol("stop-copy: not in pre-copy"));
        }
        self.phase = SourcePhase::StopCopy;
        Ok(())
    }

    /// Seal the `Finish` record and close the stream.
    ///
    /// # Errors
    /// [`MigrationError::Protocol`] unless in stop-and-copy.
    pub fn finish(&mut self) -> Result<Vec<u8>, MigrationError> {
        if self.phase != SourcePhase::StopCopy {
            return Err(MigrationError::Protocol("finish: not in stop-and-copy"));
        }
        let rec = self.tx.seal(record::FINISH, &(self.pages, self.sections).to_wire())?;
        self.phase = SourcePhase::Finished;
        Ok(rec)
    }
}

/// Everything a verified stream delivered, ready for atomic import.
#[derive(Debug)]
pub struct MigrationSnapshot {
    /// Final contents of every transferred frame, ascending, last write
    /// wins (pre-copy re-sends overwrite).
    pub pages: Vec<(u64, Vec<u8>)>,
    /// State sections by id.
    pub sections: BTreeMap<u8, Vec<u8>>,
}

impl MigrationSnapshot {
    /// A section's payload, as a protocol error if absent.
    ///
    /// # Errors
    /// [`MigrationError::Protocol`] naming the missing section.
    pub fn section(&self, id: u8, name: &'static str) -> Result<&[u8], MigrationError> {
        self.sections
            .get(&id)
            .map(Vec::as_slice)
            .ok_or(MigrationError::Protocol(name))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DestPhase {
    AwaitBegin,
    Receiving,
    Finished,
}

/// The verifying end of the migration stream. Records are staged; the
/// destination TD is only constructed from [`MigrationDest::into_snapshot`]
/// after `Finish` verifies, so a torn stream can never leave a
/// half-imported machine.
#[derive(Debug)]
pub struct MigrationDest {
    rx: FrameReceiver,
    phase: DestPhase,
    pages: BTreeMap<u64, Vec<u8>>,
    page_records: u64,
    sections: BTreeMap<u8, Vec<u8>>,
    section_records: u64,
}

impl MigrationDest {
    /// Open the receiving end after the destination has produced its
    /// quote over [`migration_binding`].
    #[must_use]
    pub fn open(key: &MigrationKey, source_pub: [u8; 32]) -> MigrationDest {
        MigrationDest {
            rx: FrameReceiver::new(stream_key(key, &source_pub, &key.public, &source_pub)),
            phase: DestPhase::AwaitBegin,
            pages: BTreeMap::new(),
            page_records: 0,
            sections: BTreeMap::new(),
            section_records: 0,
        }
    }

    /// Whether `Finish` has verified.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.phase == DestPhase::Finished
    }

    /// Verify and stage one record.
    ///
    /// # Errors
    /// A typed [`MigrationError`]; the staging state is untouched on
    /// failure and the stream remains positioned at the same sequence,
    /// so a retried correct record still lands.
    pub fn feed(&mut self, frame: &[u8]) -> Result<(), MigrationError> {
        if self.phase == DestPhase::Finished {
            return Err(MigrationError::Protocol("record after finish"));
        }
        let (rtype, payload) = self.rx.open(frame)?;
        match (self.phase, rtype) {
            (DestPhase::AwaitBegin, record::BEGIN) => {
                if u32::from_wire(&payload)? != MIGRATION_VERSION {
                    return Err(MigrationError::Protocol("begin: version mismatch"));
                }
                self.phase = DestPhase::Receiving;
                Ok(())
            }
            (DestPhase::AwaitBegin, _) => Err(MigrationError::Protocol("stream must start with begin")),
            (DestPhase::Receiving, record::BEGIN) => {
                Err(MigrationError::Protocol("duplicate begin"))
            }
            (DestPhase::Receiving, record::PAGE) => {
                let mut r = WireReader::new(&payload);
                let frame_no = r.u64()?;
                let data = r.take(PAGE_SIZE)?.to_vec();
                r.finish()?;
                self.pages.insert(frame_no, data);
                self.page_records += 1;
                Ok(())
            }
            (DestPhase::Receiving, record::SECTION) => {
                let (id, payload): (u8, Vec<u8>) = Wire::from_wire(&payload)?;
                if !section::ALL.contains(&id) {
                    return Err(MigrationError::Protocol("unknown section"));
                }
                if self.sections.insert(id, payload).is_some() {
                    return Err(MigrationError::Protocol("duplicate section"));
                }
                self.section_records += 1;
                Ok(())
            }
            (DestPhase::Receiving, record::FINISH) => {
                let (pages, sections): (u64, u64) = Wire::from_wire(&payload)?;
                if pages != self.page_records {
                    return Err(MigrationError::Incomplete {
                        claimed: pages,
                        verified: self.page_records,
                    });
                }
                if sections != self.section_records {
                    return Err(MigrationError::Incomplete {
                        claimed: sections,
                        verified: self.section_records,
                    });
                }
                self.phase = DestPhase::Finished;
                Ok(())
            }
            (_, tag) => Err(MigrationError::Decode(WireError::BadTag {
                what: "migration record",
                tag: u64::from(tag),
            })),
        }
    }

    /// Release the staged snapshot once the stream completed.
    ///
    /// # Errors
    /// [`MigrationError::Protocol`] if `Finish` has not verified — a
    /// torn stream yields no snapshot at all.
    pub fn into_snapshot(self) -> Result<MigrationSnapshot, MigrationError> {
        if self.phase != DestPhase::Finished {
            return Err(MigrationError::Protocol("stream not finished"));
        }
        Ok(MigrationSnapshot {
            pages: self.pages.into_iter().collect(),
            sections: self.sections,
        })
    }
}

/// Destination-side sEPT reconstruction helper: every imported frame
/// must be *private* — migrating a shared frame's contents would hand
/// the host a copy of the transfer.
///
/// # Errors
/// [`MigrationError::Protocol`] if a transferred page is not private in
/// the imported sEPT.
pub fn check_pages_private(sept: &Sept, pages: &[(u64, Vec<u8>)]) -> Result<(), MigrationError> {
    for (frame, _) in pages {
        match sept.state(erebor_hw::Frame(*frame)) {
            Some(crate::sept::GpaState::Private) => {}
            _ => return Err(MigrationError::Protocol("transferred page not TD-private")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attest::Attestation;

    fn attested_pair() -> (MigrationSource, MigrationDest) {
        let src_key = MigrationKey::from_seed([1u8; 32]);
        let dst_key = MigrationKey::from_seed([2u8; 32]);
        let mut att = Attestation::new([9u8; 32]);
        att.extend_mrtd(b"fw");
        att.extend_mrtd(b"monitor");
        att.seal_mrtd();
        let binding = migration_binding(&src_key.public(), &dst_key.public());
        let quote = att.quote(att.tdreport(binding));
        let expected = Expected::Mrtd(crate::attest::expected_mrtd(&[b"fw", b"monitor"]));
        let src = MigrationSource::open(
            &src_key,
            dst_key.public(),
            &quote,
            &att.root_public(),
            &expected,
        )
        .expect("handshake");
        let dst = MigrationDest::open(&dst_key, src_key.public());
        (src, dst)
    }

    #[test]
    fn full_stream_roundtrips() -> Result<(), MigrationError> {
        let (mut src, mut dst) = attested_pair();
        dst.feed(&src.begin()?)?;
        let page_a = [0xAAu8; PAGE_SIZE];
        let mut page_b = [0u8; PAGE_SIZE];
        page_b[100] = 7;
        dst.feed(&src.page(3, &page_a)?)?;
        dst.feed(&src.page(9, &page_b)?)?;
        // Pre-copy dirtied frame 3: the re-send overwrites.
        let page_a2 = [0xBBu8; PAGE_SIZE];
        dst.feed(&src.page(3, &page_a2)?)?;
        src.enter_stop_copy()?;
        dst.feed(&src.section(section::TDX, b"module state")?)?;
        dst.feed(&src.finish()?)?;
        assert!(dst.is_finished());
        let snap = dst.into_snapshot()?;
        assert_eq!(snap.pages.len(), 2);
        assert_eq!(snap.pages[0], (3, page_a2.to_vec()));
        assert_eq!(snap.pages[1], (9, page_b.to_vec()));
        assert_eq!(snap.section(section::TDX, "tdx")?, b"module state");
        assert_eq!(src.phase(), SourcePhase::Finished);
        Ok(())
    }

    #[test]
    fn handshake_rejects_wrong_measurement_and_binding() {
        let src_key = MigrationKey::from_seed([1u8; 32]);
        let dst_key = MigrationKey::from_seed([2u8; 32]);
        let mut att = Attestation::new([9u8; 32]);
        att.extend_mrtd(b"EVIL");
        att.seal_mrtd();
        let binding = migration_binding(&src_key.public(), &dst_key.public());
        let quote = att.quote(att.tdreport(binding));
        let expected = Expected::Mrtd(crate::attest::expected_mrtd(&[b"fw", b"monitor"]));
        assert_eq!(
            MigrationSource::open(&src_key, dst_key.public(), &quote, &att.root_public(), &expected)
                .err(),
            Some(MigrationError::QuoteRejected(QuoteError::MeasurementMismatch))
        );
        // Right measurement, wrong binding (quote for a different channel).
        let mut att = Attestation::new([9u8; 32]);
        att.extend_mrtd(b"fw");
        att.extend_mrtd(b"monitor");
        att.seal_mrtd();
        let other = MigrationKey::from_seed([7u8; 32]);
        let stale = migration_binding(&other.public(), &dst_key.public());
        let quote = att.quote(att.tdreport(stale));
        let expected = Expected::Mrtd(crate::attest::expected_mrtd(&[b"fw", b"monitor"]));
        assert_eq!(
            MigrationSource::open(&src_key, dst_key.public(), &quote, &att.root_public(), &expected)
                .err(),
            Some(MigrationError::BindingMismatch)
        );
    }

    #[test]
    fn begin_from_previous_version_is_refused() -> Result<(), MigrationError> {
        for old in 1..MIGRATION_VERSION {
            let (mut src, mut dst) = attested_pair();
            let begin_old = src.tx.seal(record::BEGIN, &old.to_wire())?;
            assert_eq!(
                dst.feed(&begin_old),
                Err(MigrationError::Protocol("begin: version mismatch")),
                "version {old}"
            );
            assert!(!dst.is_finished());
        }
        Ok(())
    }

    #[test]
    fn unknown_and_retired_section_ids_are_refused() -> Result<(), MigrationError> {
        let (mut src, mut dst) = attested_pair();
        dst.feed(&src.begin()?)?;
        // 2 and 4 are the retired PHYS_META and BACKEND ids.
        for id in [2, 4, 200] {
            assert_eq!(
                dst.feed(&src.section(id, b"stray")?),
                Err(MigrationError::Protocol("unknown section")),
                "section id {id}"
            );
        }
        assert!(dst.sections.is_empty(), "nothing staged");
        dst.feed(&src.section(section::TDX, b"module state")?)?;
        assert_eq!(dst.sections.len(), 1, "a known id still lands");
        Ok(())
    }

    #[test]
    fn replay_duplicate_and_reorder_are_typed() -> Result<(), MigrationError> {
        let (mut src, mut dst) = attested_pair();
        let begin = src.begin()?;
        dst.feed(&begin)?;
        let p0 = src.page(0, &[1u8; PAGE_SIZE])?;
        let p1 = src.page(1, &[2u8; PAGE_SIZE])?;
        // Replayed begin: the channel sequence already moved past it.
        assert!(matches!(
            dst.feed(&begin),
            Err(MigrationError::Channel(FrameError::Replay { .. }))
        ));
        // Skipping ahead (p1 before p0) is out-of-order.
        assert!(matches!(
            dst.feed(&p1),
            Err(MigrationError::Channel(FrameError::OutOfOrder { .. }))
        ));
        // The stream is still usable in the correct order.
        dst.feed(&p0)?;
        dst.feed(&p1)?;
        Ok(())
    }

    #[test]
    fn finish_count_mismatch_is_incomplete() -> Result<(), MigrationError> {
        let (mut src, mut dst) = attested_pair();
        dst.feed(&src.begin()?)?;
        let dropped = src.page(5, &[3u8; PAGE_SIZE])?;
        src.enter_stop_copy()?;
        let fin = src.finish()?;
        // The page record is dropped in flight: finish arrives next but
        // its sequence number exposes the gap first.
        assert!(matches!(
            dst.feed(&fin),
            Err(MigrationError::Channel(FrameError::OutOfOrder { .. }))
        ));
        // Even delivered in order, doctored counts would not verify:
        // feed the page, then corrupt the books via a second stream.
        dst.feed(&dropped)?;
        dst.feed(&fin)?;
        assert!(dst.is_finished());
        Ok(())
    }

    #[test]
    fn torn_stream_yields_no_snapshot() -> Result<(), MigrationError> {
        let (mut src, mut dst) = attested_pair();
        dst.feed(&src.begin()?)?;
        dst.feed(&src.page(1, &[9u8; PAGE_SIZE])?)?;
        // No finish: the staging area must refuse to release.
        assert!(matches!(
            dst.into_snapshot(),
            Err(MigrationError::Protocol("stream not finished"))
        ));
        Ok(())
    }

    #[test]
    fn source_state_machine_enforced() -> Result<(), MigrationError> {
        let (mut src, _dst) = attested_pair();
        assert!(src.page(0, &[0u8; PAGE_SIZE]).is_err(), "page before begin");
        assert!(src.finish().is_err(), "finish before begin");
        src.begin()?;
        assert!(src.begin().is_err(), "double begin");
        assert!(src.finish().is_err(), "finish before stop-copy");
        src.enter_stop_copy()?;
        assert!(src.enter_stop_copy().is_err(), "double stop-copy");
        src.finish()?;
        assert!(src.page(0, &[0u8; PAGE_SIZE]).is_err(), "page after finish");
        Ok(())
    }

    #[test]
    fn corrupt_record_is_tag_mismatch_and_dest_state_unchanged() -> Result<(), MigrationError> {
        let (mut src, mut dst) = attested_pair();
        dst.feed(&src.begin()?)?;
        let mut rec = src.page(2, &[5u8; PAGE_SIZE])?;
        let last = rec.len() - 1;
        rec[last] ^= 0x40;
        assert_eq!(
            dst.feed(&rec),
            Err(MigrationError::Channel(FrameError::TagMismatch))
        );
        // Nothing staged; the pristine record still lands at the same seq.
        rec[last] ^= 0x40;
        dst.feed(&rec)?;
        src.enter_stop_copy()?;
        dst.feed(&src.finish()?)?;
        let snap = dst.into_snapshot()?;
        assert_eq!(snap.pages.len(), 1);
        Ok(())
    }

    #[test]
    fn sealed_records_hide_page_contents() -> Result<(), MigrationError> {
        let (mut src, _dst) = attested_pair();
        src.begin()?;
        let mut page = [0u8; PAGE_SIZE];
        page[..18].copy_from_slice(b"patient record #42");
        let rec = src.page(0, &page)?;
        let needle = b"patient record";
        assert!(!rec.windows(needle.len()).any(|w| w == needle));
        Ok(())
    }

    #[test]
    fn imported_pages_must_be_private() {
        let mut sept = Sept::new();
        sept.accept_private(erebor_hw::Frame(1));
        sept.accept_private(erebor_hw::Frame(2));
        sept.convert(erebor_hw::Frame(2), crate::sept::GpaState::Shared)
            .expect("convert");
        let ok = vec![(1u64, vec![0u8; PAGE_SIZE])];
        assert!(check_pages_private(&sept, &ok).is_ok());
        let bad = vec![(2u64, vec![0u8; PAGE_SIZE])];
        assert!(check_pages_private(&sept, &bad).is_err());
        let unknown = vec![(3u64, vec![0u8; PAGE_SIZE])];
        assert!(check_pages_private(&sept, &unknown).is_err());
    }

    #[test]
    fn module_state_roundtrips() {
        let mut module = crate::TdxModule::new([4u8; 32]);
        module.attest.extend_mrtd(b"fw");
        module.attest.seal_mrtd();
        module.attest.extend_rtmr(1, b"runtime").expect("rtmr");
        module.sept.accept_private(erebor_hw::Frame(0));
        module.sept.accept_private(erebor_hw::Frame(7));
        module
            .sept
            .convert(erebor_hw::Frame(7), crate::sept::GpaState::Shared)
            .expect("convert");
        module.host.record_vmcall(b"observed payload");
        module.stats.tdcalls = 11;
        module.stats.vmcalls = 3;
        let blob = module.export_state();
        let imported = crate::TdxModule::import_state([4u8; 32], &blob).expect("import");
        assert_eq!(imported.export_state(), blob, "re-export must be a fixed point");
        assert_eq!(imported.attest.mrtd(), module.attest.mrtd());
        assert_eq!(
            imported.attest.tdreport([0; 64]),
            module.attest.tdreport([0; 64]),
            "same seed + same measurements → identical reports"
        );
        assert_eq!(imported.sept.accepted_count(), 2);
        assert!(imported.sept.is_shared(erebor_hw::Frame(7)));
        assert!(imported.host.observed_contains(b"observed payload"));
        assert_eq!(imported.stats.tdcalls, 11);
        // Hostile truncation never panics or half-imports.
        for cut in 0..blob.len() {
            assert!(crate::TdxModule::import_state([4u8; 32], &blob[..cut]).is_err());
        }
    }
}
