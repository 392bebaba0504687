//! Simulated physical memory: frames, a frame allocator with reserved
//! regions, and byte-addressed DRAM backing.
//!
//! Frames are 4 KiB (the paper's prototype disables huge pages, §7, so the
//! simulator only models 4 KiB mappings). Backing storage is allocated
//! lazily so a multi-GiB simulated machine is cheap to construct.
//!
//! The allocator keeps a two-level free bitmap (one bit per frame, one
//! summary bit per 64-frame word) so first-fit allocation is amortized
//! O(1) at fleet scale. Its policy is plain first-fit: `alloc_frame`
//! takes the first free, unreserved frame at or after a next-fit hint
//! (wrapping around), `alloc_frame_in` the first free frame of a region.
//! `crates/hw/tests/alloc_model.rs` checks the bitmap against a
//! set-based reference model of exactly that policy.

use crate::inject::InjectorHandle;
use erebor_wire::{Wire, WireError, WireWriter};
use std::collections::{BTreeMap, BTreeSet};

/// Page size in bytes (4 KiB; huge pages are disabled per paper §7).
pub const PAGE_SIZE: usize = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u64 = 12;

/// A physical byte address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// The frame containing this address.
    #[must_use]
    pub fn frame(self) -> Frame {
        Frame(self.0 >> PAGE_SHIFT)
    }
}

impl core::fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "PhysAddr({:#x})", self.0)
    }
}

/// A physical frame number (address >> 12).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frame(pub u64);

erebor_wire::wire_newtype!(Frame);

impl Frame {
    /// Base physical address of the frame.
    #[must_use]
    pub fn base(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }
}

impl core::fmt::Debug for Frame {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Frame({:#x})", self.0)
    }
}

/// Errors from physical-memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysError {
    /// Address beyond the configured DRAM size.
    OutOfRange(PhysAddr),
    /// No free frames remain in the requested region.
    OutOfMemory,
    /// Frame was not allocated (double free / free of reserved frame).
    NotAllocated(Frame),
    /// Frame is already allocated.
    AlreadyAllocated(Frame),
}

impl core::fmt::Display for PhysError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PhysError::OutOfRange(pa) => write!(f, "physical address {pa:?} out of range"),
            PhysError::OutOfMemory => write!(f, "out of physical memory"),
            PhysError::NotAllocated(fr) => write!(f, "{fr:?} not allocated"),
            PhysError::AlreadyAllocated(fr) => write!(f, "{fr:?} already allocated"),
        }
    }
}

impl std::error::Error for PhysError {}

/// A named contiguous region of physical memory.
///
/// The platform reserves regions at boot: monitor image, the contiguous
/// region backing sandbox confined memory (the paper uses Linux CMA, §7),
/// and the device-shared window that may be converted to CVM-shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First frame of the region (inclusive).
    pub start: Frame,
    /// One past the last frame (exclusive).
    pub end: Frame,
}

erebor_wire::wire_struct!(Region { start, end });

impl Region {
    /// Construct a region from frame numbers.
    #[must_use]
    pub fn new(start: u64, end: u64) -> Region {
        assert!(start <= end, "region start must not exceed end");
        Region {
            start: Frame(start),
            end: Frame(end),
        }
    }

    /// Number of frames in the region.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.end.0 - self.start.0
    }

    /// Whether the region contains `frame`.
    #[must_use]
    pub fn contains(&self, frame: Frame) -> bool {
        frame >= self.start && frame < self.end
    }
}

/// Host-side scan-work counters for the frame allocator.
///
/// These describe the *simulator's own* search effort — not simulated
/// cycles — so they live outside every snapshot/trace structure and
/// start at zero on a migration destination.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Successful frame allocations.
    pub allocs: u64,
    /// Bitmap words (frame words + summary words) examined by the scan.
    pub words_scanned: u64,
}

const WORD_BITS: u64 = 64;

/// Simulated DRAM plus a first-fit frame allocator.
///
/// Backing pages are allocated lazily on first write; reads of untouched
/// memory return zeroes, matching freshly-scrubbed CVM memory.
pub struct PhysMemory {
    total_frames: u64,
    pages: BTreeMap<u64, Box<[u8; PAGE_SIZE]>>,
    /// Free bitmap: bit set ⇔ frame is NOT allocated. Bits past
    /// `total_frames` in the last word stay clear so scans cannot
    /// overrun DRAM.
    free: Vec<u64>,
    /// Summary: bit `w % 64` of word `w / 64` set ⇔ `free[w] != 0`.
    free_summary: Vec<u64>,
    /// Reserved bitmap: bit set ⇔ frame is inside a reserved region
    /// (derived from `reserved`, the list that travels on migration).
    reserved_mask: Vec<u64>,
    /// Summary over `free & !reserved_mask` (the generic-alloc view).
    avail_summary: Vec<u64>,
    allocated_count: u64,
    reserved: Vec<Region>,
    next_hint: u64,
    injector: Option<InjectorHandle>,
    /// TME-MK key programming (the PCONFIG analogue): frame → key-ID.
    /// Sparse — absent means key-ID 0 (untagged). A mapping whose PTE
    /// key-ID disagrees with this table faults on the walk.
    frame_keys: BTreeMap<u64, u16>,
    /// Host-side scan-work counters (not part of any snapshot).
    pub alloc_stats: AllocStats,
    /// Frames whose contents changed since the last
    /// [`PhysMemory::take_dirty`] drain. Only maintained while
    /// `dirty_tracking` is on (the migration pre-copy window), so the
    /// hot write path costs one branch otherwise.
    dirty: BTreeSet<u64>,
    /// Whether the dirty ledger is being maintained.
    dirty_tracking: bool,
}

impl PhysMemory {
    /// Create simulated DRAM of `bytes` bytes (rounded down to frames).
    ///
    /// # Panics
    /// Panics if `bytes` is smaller than one page.
    #[must_use]
    pub fn new(bytes: u64) -> PhysMemory {
        let total_frames = bytes >> PAGE_SHIFT;
        assert!(total_frames > 0, "need at least one frame of DRAM");
        let words = total_frames.div_ceil(WORD_BITS) as usize;
        let summary_words = (words as u64).div_ceil(WORD_BITS) as usize;
        let mut free = vec![!0u64; words];
        let tail = total_frames % WORD_BITS;
        if tail != 0 {
            free[words - 1] = (1u64 << tail) - 1;
        }
        let mut mem = PhysMemory {
            total_frames,
            pages: BTreeMap::new(),
            free,
            free_summary: vec![0; summary_words],
            reserved_mask: vec![0; words],
            avail_summary: vec![0; summary_words],
            allocated_count: 0,
            reserved: Vec::new(),
            next_hint: 0,
            injector: None,
            frame_keys: BTreeMap::new(),
            alloc_stats: AllocStats::default(),
            dirty: BTreeSet::new(),
            dirty_tracking: false,
        };
        for w in 0..words {
            mem.refresh_summaries(w);
        }
        mem
    }

    /// Install a chaos injector for allocation-failure injection
    /// (normally via [`crate::cpu::Machine::set_injector`]).
    pub fn set_injector(&mut self, injector: InjectorHandle) {
        self.injector = Some(injector);
    }

    /// Remove any installed injector.
    pub fn clear_injector(&mut self) {
        self.injector = None;
    }

    fn alloc_injected(&self) -> bool {
        self.injector
            .as_ref()
            .is_some_and(|h| crate::inject::lock(h).fail_alloc())
    }

    /// Reserve a region: [`PhysMemory::alloc_frame`] will skip it, but
    /// [`PhysMemory::alloc_frame_in`] targeting the region still works.
    /// Used for the CMA confined pool and the device-shared window.
    pub fn reserve_region(&mut self, region: Region) {
        self.reserved.push(region);
        let end = region.end.0.min(self.total_frames);
        let mut f = region.start.0.min(end);
        while f < end {
            let w = (f / WORD_BITS) as usize;
            let bit = f % WORD_BITS;
            // Fill this word's covered span in one mask.
            let span = (WORD_BITS - bit).min(end - f);
            let mask = if span == WORD_BITS {
                !0u64
            } else {
                ((1u64 << span) - 1) << bit
            };
            self.reserved_mask[w] |= mask;
            self.refresh_summaries(w);
            f += span;
        }
    }

    /// Total number of frames.
    #[must_use]
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Number of currently allocated frames (O(1): a maintained counter).
    #[must_use]
    pub fn allocated_frames(&self) -> u64 {
        self.allocated_count
    }

    fn check(&self, pa: PhysAddr, len: usize) -> Result<(), PhysError> {
        let end =
            pa.0.checked_add(len as u64)
                .ok_or(PhysError::OutOfRange(pa))?;
        if end > self.total_frames << PAGE_SHIFT {
            return Err(PhysError::OutOfRange(pa));
        }
        Ok(())
    }

    #[inline]
    fn frame_free(&self, idx: u64) -> bool {
        self.free[(idx / WORD_BITS) as usize] >> (idx % WORD_BITS) & 1 != 0
    }

    /// Re-derive both summary bits for frame word `w`.
    fn refresh_summaries(&mut self, w: usize) {
        let (sw, sbit) = (w / WORD_BITS as usize, (w % WORD_BITS as usize) as u64);
        if self.free[w] != 0 {
            self.free_summary[sw] |= 1 << sbit;
        } else {
            self.free_summary[sw] &= !(1 << sbit);
        }
        if self.free[w] & !self.reserved_mask[w] != 0 {
            self.avail_summary[sw] |= 1 << sbit;
        } else {
            self.avail_summary[sw] &= !(1 << sbit);
        }
    }

    #[inline]
    fn mark_allocated(&mut self, idx: u64) {
        let w = (idx / WORD_BITS) as usize;
        self.free[w] &= !(1 << (idx % WORD_BITS));
        self.refresh_summaries(w);
        self.allocated_count += 1;
    }

    #[inline]
    fn mark_free(&mut self, idx: u64) {
        let w = (idx / WORD_BITS) as usize;
        self.free[w] |= 1 << (idx % WORD_BITS);
        self.refresh_summaries(w);
        self.allocated_count -= 1;
    }

    /// First frame `>= start` and `< end` whose bit is set in `view of
    /// free`, using the chosen summary to skip empty words. `reserved`
    /// selects the generic-alloc view (`free & !reserved_mask`).
    fn scan_range(&mut self, start: u64, end: u64, skip_reserved: bool) -> Option<u64> {
        if start >= end {
            return None;
        }
        let word_of = |f: u64| (f / WORD_BITS) as usize;
        let view = |m: &PhysMemory, w: usize| {
            if skip_reserved {
                m.free[w] & !m.reserved_mask[w]
            } else {
                m.free[w]
            }
        };
        let summary = |m: &PhysMemory, sw: usize| {
            if skip_reserved {
                m.avail_summary[sw]
            } else {
                m.free_summary[sw]
            }
        };
        let first_word = word_of(start);
        let last_word = word_of(end - 1);

        // Partial first word.
        self.alloc_stats.words_scanned = self.alloc_stats.words_scanned.saturating_add(1);
        let mask = !0u64 << (start % WORD_BITS);
        let cand = view(self, first_word) & mask;
        if cand != 0 {
            let idx = first_word as u64 * WORD_BITS + u64::from(cand.trailing_zeros());
            if idx < end {
                return Some(idx);
            }
            return None; // first set bit already past `end`
        }
        // Full words, hopping via the summary.
        let mut w = first_word + 1;
        while w <= last_word {
            let sw = w / WORD_BITS as usize;
            self.alloc_stats.words_scanned = self.alloc_stats.words_scanned.saturating_add(1);
            let smask = !0u64 << (w % WORD_BITS as usize);
            let scand = summary(self, sw) & smask;
            if scand == 0 {
                // No candidate word in this summary span; skip it whole.
                w = (sw + 1) * WORD_BITS as usize;
                continue;
            }
            let cw = sw * WORD_BITS as usize + scand.trailing_zeros() as usize;
            if cw > last_word {
                return None;
            }
            self.alloc_stats.words_scanned = self.alloc_stats.words_scanned.saturating_add(1);
            let cand = view(self, cw);
            debug_assert!(cand != 0, "summary bit set on empty word");
            let idx = cw as u64 * WORD_BITS + u64::from(cand.trailing_zeros());
            if idx < end {
                return Some(idx);
            }
            return None;
        }
        None
    }

    /// Allocate one free frame anywhere in DRAM.
    pub fn alloc_frame(&mut self) -> Result<Frame, PhysError> {
        if self.alloc_injected() {
            return Err(PhysError::OutOfMemory);
        }
        let n = self.total_frames;
        // First-fit from the hint with wraparound.
        let idx = self
            .scan_range(self.next_hint, n, true)
            .or_else(|| self.scan_range(0, self.next_hint, true))
            .ok_or(PhysError::OutOfMemory)?;
        self.mark_allocated(idx);
        self.next_hint = (idx + 1) % n;
        self.alloc_stats.allocs = self.alloc_stats.allocs.saturating_add(1);
        Ok(Frame(idx))
    }

    /// Allocate one free frame inside `region`.
    pub fn alloc_frame_in(&mut self, region: Region) -> Result<Frame, PhysError> {
        if self.alloc_injected() {
            return Err(PhysError::OutOfMemory);
        }
        let end = region.end.0.min(self.total_frames);
        let idx = self
            .scan_range(region.start.0, end, false)
            .ok_or(PhysError::OutOfMemory)?;
        self.mark_allocated(idx);
        self.alloc_stats.allocs = self.alloc_stats.allocs.saturating_add(1);
        Ok(Frame(idx))
    }

    /// Arena path for sandbox boot: allocate `count` frames inside
    /// `region` in first-fit order, carrying the scan cursor across
    /// frames so a batch costs one pass instead of `count` rescans.
    ///
    /// Identical to `count` successive [`PhysMemory::alloc_frame_in`]
    /// calls in every observable way: same frames in the same order,
    /// same per-frame injected-failure consultation, and on failure the
    /// earlier frames of the batch stay allocated (the caller's teardown
    /// path owns them, exactly as with the loop it replaces).
    ///
    /// # Errors
    /// `OutOfMemory` when the region exhausts mid-batch or an injected
    /// allocation failure fires.
    pub fn alloc_frames_in(
        &mut self,
        region: Region,
        count: u64,
        out: &mut Vec<Frame>,
    ) -> Result<(), PhysError> {
        let end = region.end.0.min(self.total_frames);
        let mut cursor = region.start.0;
        for _ in 0..count {
            if self.alloc_injected() {
                return Err(PhysError::OutOfMemory);
            }
            let idx = self
                .scan_range(cursor, end, false)
                .ok_or(PhysError::OutOfMemory)?;
            self.mark_allocated(idx);
            self.alloc_stats.allocs = self.alloc_stats.allocs.saturating_add(1);
            out.push(Frame(idx));
            cursor = idx + 1;
        }
        Ok(())
    }

    /// Mark a specific frame allocated (used when reserving fixed regions).
    pub(crate) fn claim_frame(&mut self, frame: Frame) -> Result<(), PhysError> {
        if frame.0 >= self.total_frames {
            return Err(PhysError::OutOfRange(frame.base()));
        }
        if !self.frame_free(frame.0) {
            return Err(PhysError::AlreadyAllocated(frame));
        }
        self.mark_allocated(frame.0);
        Ok(())
    }

    /// Claim every frame of `region`.
    pub fn claim_region(&mut self, region: Region) -> Result<(), PhysError> {
        for f in region.start.0..region.end.0 {
            self.claim_frame(Frame(f))?;
        }
        Ok(())
    }

    /// Free a previously allocated frame and scrub its contents. Any
    /// TME-MK key programmed for the frame is revoked with it — a stale
    /// key must never survive into the frame's next owner.
    pub fn free_frame(&mut self, frame: Frame) -> Result<(), PhysError> {
        if frame.0 >= self.total_frames {
            return Err(PhysError::OutOfRange(frame.base()));
        }
        if self.frame_free(frame.0) {
            return Err(PhysError::NotAllocated(frame));
        }
        self.mark_free(frame.0);
        self.pages.remove(&frame.0);
        self.frame_keys.remove(&frame.0);
        self.mark_dirty(frame.0);
        Ok(())
    }

    /// Program the TME-MK key for a frame (the PCONFIG analogue).
    /// Key-ID 0 clears the entry back to "untagged". Like real PCONFIG,
    /// this does not flush translations — callers owe the same shootdown
    /// discipline as any permission revocation.
    pub fn set_frame_key(&mut self, frame: Frame, keyid: u16) {
        if keyid == 0 {
            self.frame_keys.remove(&frame.0);
        } else {
            self.frame_keys.insert(frame.0, keyid);
        }
        self.mark_dirty(frame.0);
    }

    /// The TME-MK key currently programmed for a frame (0 = untagged).
    #[must_use]
    pub fn frame_key(&self, frame: Frame) -> u16 {
        self.frame_keys.get(&frame.0).copied().unwrap_or(0)
    }

    /// Number of frames with a non-zero key programmed.
    #[must_use]
    pub fn keyed_frames(&self) -> usize {
        self.frame_keys.len()
    }

    /// Whether the frame is currently allocated.
    #[must_use]
    pub fn is_allocated(&self, frame: Frame) -> bool {
        frame.0 < self.total_frames && !self.frame_free(frame.0)
    }

    /// Zero an entire frame (used by the monitor's teardown scrubbing).
    pub fn zero_frame(&mut self, frame: Frame) -> Result<(), PhysError> {
        self.check(frame.base(), PAGE_SIZE)?;
        self.pages.remove(&frame.0);
        self.mark_dirty(frame.0);
        Ok(())
    }

    /// Read `buf.len()` bytes starting at `pa`. May cross frame boundaries.
    pub fn read(&self, pa: PhysAddr, buf: &mut [u8]) -> Result<(), PhysError> {
        self.check(pa, buf.len())?;
        let mut addr = pa.0;
        let mut done = 0usize;
        while done < buf.len() {
            let frame = addr >> PAGE_SHIFT;
            let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
            let chunk = (PAGE_SIZE - off).min(buf.len() - done);
            match self.pages.get(&frame) {
                Some(page) => buf[done..done + chunk].copy_from_slice(&page[off..off + chunk]),
                None => buf[done..done + chunk].fill(0),
            }
            addr += chunk as u64;
            done += chunk;
        }
        Ok(())
    }

    /// Write `buf` starting at `pa`. May cross frame boundaries.
    pub fn write(&mut self, pa: PhysAddr, buf: &[u8]) -> Result<(), PhysError> {
        self.check(pa, buf.len())?;
        let mut addr = pa.0;
        let mut done = 0usize;
        while done < buf.len() {
            let frame = addr >> PAGE_SHIFT;
            let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
            let chunk = (PAGE_SIZE - off).min(buf.len() - done);
            let page = self
                .pages
                .entry(frame)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            page[off..off + chunk].copy_from_slice(&buf[done..done + chunk]);
            self.mark_dirty(frame);
            addr += chunk as u64;
            done += chunk;
        }
        Ok(())
    }

    #[inline]
    fn mark_dirty(&mut self, frame: u64) {
        if self.dirty_tracking {
            self.dirty.insert(frame);
        }
    }

    // ----- dirty tracking + migration export ---------------------------

    /// Switch the dirty-page ledger on or off. Turning it on clears any
    /// previous ledger (a migration pre-copy starts from a full sweep, so
    /// older dirt is already covered).
    pub fn set_dirty_tracking(&mut self, on: bool) {
        self.dirty_tracking = on;
        self.dirty.clear();
    }

    /// Whether the dirty ledger is being maintained.
    #[must_use]
    pub fn dirty_tracking(&self) -> bool {
        self.dirty_tracking
    }

    /// Frames dirtied since the last drain (ledger size).
    #[must_use]
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Drain the dirty ledger, returning the dirtied frame numbers in
    /// ascending order. Subsequent writes start a fresh ledger.
    pub fn take_dirty(&mut self) -> Vec<u64> {
        core::mem::take(&mut self.dirty).into_iter().collect()
    }

    /// Every resident (materialized, non-zero-backed) page, in ascending
    /// frame order — the migration pre-copy sweep. Pages never written
    /// read as zeroes on both ends, so only resident pages transfer.
    pub fn resident_pages(&self) -> impl Iterator<Item = (u64, &[u8; PAGE_SIZE])> + '_ {
        self.pages.iter().map(|(f, p)| (*f, &**p))
    }

    /// The resident page backing `frame`, if any.
    #[must_use]
    pub fn page_if_resident(&self, frame: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&frame).map(|p| &**p)
    }

    /// Serialize everything **except** page contents: DRAM geometry,
    /// allocator bitmap + hint, reserved regions and TME-MK frame keys.
    /// Page contents travel separately as per-frame
    /// migration records so the pre-copy loop can resend only dirty ones.
    #[must_use]
    pub fn export_meta(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put(&self.total_frames);
        w.put(&self.next_hint);
        w.put(&self.free);
        w.put(&self.reserved);
        w.put(&self.frame_keys);
        w.finish()
    }

    /// Rebuild a memory from [`PhysMemory::export_meta`] bytes plus the
    /// staged page set. Summaries, the reserved mask and the allocated
    /// count are re-derived; host-side `alloc_stats` start at zero on the
    /// destination (they describe simulator scan work, not architecture).
    ///
    /// Nothing is sized from the header alone: the declared frame count
    /// must match the allocator bitmap that actually arrived before any
    /// DRAM bookkeeping is allocated.
    ///
    /// # Errors
    /// [`WireError`] on any truncation, trailing bytes, geometry
    /// mismatch, out-of-range frame, or wrongly-sized page.
    pub fn from_export(meta: &[u8], pages: &[(u64, Vec<u8>)]) -> Result<PhysMemory, WireError> {
        type Meta = (u64, u64, Vec<u64>, Vec<Region>, BTreeMap<u64, u16>);
        let (total_frames, next_hint, free, reserved, frame_keys) = Meta::from_wire(meta)?;
        if total_frames == 0 || total_frames > (1 << 40) {
            return Err(WireError::BadValue {
                what: "total_frames",
            });
        }
        if next_hint >= total_frames {
            return Err(WireError::BadValue { what: "next_hint" });
        }
        if free.len() as u64 != total_frames.div_ceil(WORD_BITS) {
            return Err(WireError::BadValue { what: "free words" });
        }
        // Bits past the last real frame must stay clear.
        let tail = total_frames % WORD_BITS;
        if tail != 0 && free.last().is_some_and(|w| w & !((1u64 << tail) - 1) != 0) {
            return Err(WireError::BadValue { what: "free tail" });
        }
        if reserved.iter().any(|r| r.start > r.end) {
            return Err(WireError::BadValue { what: "region" });
        }
        if frame_keys
            .iter()
            .any(|(&f, &k)| f >= total_frames || k == 0)
        {
            return Err(WireError::BadValue { what: "frame key" });
        }
        let mut mem = PhysMemory::new(total_frames << PAGE_SHIFT);
        mem.next_hint = next_hint;
        for region in reserved {
            mem.reserve_region(region);
        }
        mem.frame_keys = frame_keys;
        // Install the allocator bitmap last and re-derive everything that
        // hangs off it.
        let free_bits: u64 = free.iter().map(|w| u64::from(w.count_ones())).sum();
        mem.free = free;
        mem.allocated_count = total_frames - free_bits;
        for w in 0..mem.free.len() {
            mem.refresh_summaries(w);
        }
        for (frame, bytes) in pages {
            if *frame >= total_frames {
                return Err(WireError::BadValue { what: "page frame" });
            }
            if bytes.len() != PAGE_SIZE {
                return Err(WireError::BadValue { what: "page size" });
            }
            let mut boxed = Box::new([0u8; PAGE_SIZE]);
            boxed.copy_from_slice(bytes);
            mem.pages.insert(*frame, boxed);
        }
        Ok(mem)
    }

    /// Read a little-endian u64.
    pub fn read_u64(&self, pa: PhysAddr) -> Result<u64, PhysError> {
        let mut b = [0u8; 8];
        self.read(pa, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Write a little-endian u64.
    pub fn write_u64(&mut self, pa: PhysAddr, v: u64) -> Result<(), PhysError> {
        self.write(pa, &v.to_le_bytes())
    }
}

impl core::fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PhysMemory")
            .field("total_frames", &self.total_frames)
            .field("resident_pages", &self.pages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazily_backed_reads_are_zero() {
        let mem = PhysMemory::new(1 << 20);
        let mut b = [0xffu8; 16];
        mem.read(PhysAddr(0x2000), &mut b).unwrap();
        assert_eq!(b, [0u8; 16]);
    }

    #[test]
    fn write_read_roundtrip_across_frames() {
        let mut mem = PhysMemory::new(1 << 20);
        let data: Vec<u8> = (0..9000).map(|i| (i % 251) as u8).collect();
        mem.write(PhysAddr(0xff0), &data).unwrap();
        let mut back = vec![0u8; data.len()];
        mem.read(PhysAddr(0xff0), &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut mem = PhysMemory::new(PAGE_SIZE as u64);
        assert!(mem.write(PhysAddr(PAGE_SIZE as u64 - 4), &[0; 8]).is_err());
        assert_eq!(mem.write(PhysAddr(0), &[0; 8]), Ok(()));
    }

    #[test]
    fn alloc_free_cycle() {
        let mut mem = PhysMemory::new(4 * PAGE_SIZE as u64);
        let a = mem.alloc_frame().unwrap();
        let b = mem.alloc_frame().unwrap();
        assert_ne!(a, b);
        assert!(mem.is_allocated(a));
        mem.free_frame(a).unwrap();
        assert!(!mem.is_allocated(a));
        assert_eq!(mem.free_frame(a), Err(PhysError::NotAllocated(a)));
    }

    #[test]
    fn alloc_exhaustion() {
        let mut mem = PhysMemory::new(2 * PAGE_SIZE as u64);
        mem.alloc_frame().unwrap();
        mem.alloc_frame().unwrap();
        assert_eq!(mem.alloc_frame(), Err(PhysError::OutOfMemory));
    }

    #[test]
    fn free_scrubs_contents() {
        let mut mem = PhysMemory::new(4 * PAGE_SIZE as u64);
        let f = mem.alloc_frame().unwrap();
        mem.write(f.base(), b"secret").unwrap();
        mem.free_frame(f).unwrap();
        mem.claim_frame(f).unwrap();
        let mut b = [0u8; 6];
        mem.read(f.base(), &mut b).unwrap();
        assert_eq!(&b, &[0u8; 6], "freed frame must be scrubbed");
    }

    #[test]
    fn frame_keys_default_zero_set_clear_and_revoke_on_free() {
        let mut mem = PhysMemory::new(8 * PAGE_SIZE as u64);
        let f = mem.alloc_frame().unwrap();
        assert_eq!(mem.frame_key(f), 0);
        mem.set_frame_key(f, 777);
        assert_eq!(mem.frame_key(f), 777);
        assert_eq!(mem.keyed_frames(), 1);
        mem.set_frame_key(f, 0);
        assert_eq!(mem.keyed_frames(), 0, "key-ID 0 clears the entry");
        mem.set_frame_key(f, 42);
        mem.free_frame(f).unwrap();
        assert_eq!(mem.frame_key(f), 0, "free must revoke the key");
        assert_eq!(mem.keyed_frames(), 0);
    }

    #[test]
    fn region_alloc_respects_bounds() {
        let mut mem = PhysMemory::new(16 * PAGE_SIZE as u64);
        let region = Region::new(4, 6);
        let f1 = mem.alloc_frame_in(region).unwrap();
        let f2 = mem.alloc_frame_in(region).unwrap();
        assert!(region.contains(f1) && region.contains(f2));
        assert_eq!(mem.alloc_frame_in(region), Err(PhysError::OutOfMemory));
    }

    #[test]
    fn claim_region_conflicts() {
        let mut mem = PhysMemory::new(16 * PAGE_SIZE as u64);
        mem.claim_region(Region::new(0, 4)).unwrap();
        assert_eq!(
            mem.claim_region(Region::new(3, 5)),
            Err(PhysError::AlreadyAllocated(Frame(3)))
        );
    }

    /// The arena path must equal a loop of single allocations, including
    /// the partial-batch state left behind by region exhaustion.
    #[test]
    fn arena_batch_equals_single_alloc_loop() {
        let region = Region::new(8, 20);
        let mut batched = PhysMemory::new(64 * PAGE_SIZE as u64);
        let mut looped = PhysMemory::new(64 * PAGE_SIZE as u64);
        // Pre-fragment both the same way.
        for m in [&mut batched, &mut looped] {
            for f in [9u64, 12, 13, 17] {
                m.claim_frame(Frame(f)).unwrap();
            }
        }
        let mut got = Vec::new();
        let err = batched.alloc_frames_in(region, 20, &mut got).unwrap_err();
        assert_eq!(err, PhysError::OutOfMemory);
        let mut expect = Vec::new();
        loop {
            match looped.alloc_frame_in(region) {
                Ok(f) => expect.push(f),
                Err(e) => {
                    assert_eq!(e, PhysError::OutOfMemory);
                    break;
                }
            }
        }
        assert_eq!(got, expect, "partial batch must match the loop's frames");
        for f in 0..batched.total_frames() {
            assert_eq!(
                batched.is_allocated(Frame(f)),
                looped.is_allocated(Frame(f))
            );
        }
    }

    /// O(1) claim: allocating 100k frames must stay within a fixed
    /// scan-work budget (a handful of bitmap words per alloc).
    #[test]
    fn bitmap_alloc_100k_stays_in_scan_budget() {
        let mut mem = PhysMemory::new(200_000 * PAGE_SIZE as u64);
        for _ in 0..100_000 {
            mem.alloc_frame().unwrap();
        }
        let budget = 4 * 100_000;
        assert!(
            mem.alloc_stats.words_scanned <= budget,
            "bitmap path scanned {} words for 100k allocs (budget {budget})",
            mem.alloc_stats.words_scanned
        );
    }

    /// Summary bitmaps stay coherent with the free words across
    /// reserve/claim/free churn at word boundaries.
    #[test]
    fn summaries_stay_coherent_at_boundaries() {
        let mut mem = PhysMemory::new(130 * PAGE_SIZE as u64); // 3 words, ragged tail
        mem.reserve_region(Region::new(60, 70)); // straddles word 0/1
        let mut got = Vec::new();
        while let Ok(f) = mem.alloc_frame() {
            got.push(f.0);
        }
        // Every non-reserved frame handed out exactly once, in order.
        let expect: Vec<u64> = (0..130).filter(|f| !(60..70).contains(f)).collect();
        assert_eq!(got, expect);
        assert_eq!(mem.allocated_frames(), expect.len() as u64);
        // Reserved span still reachable through the region path.
        let f = mem.alloc_frame_in(Region::new(60, 70)).unwrap();
        assert_eq!(f.0, 60);
    }

    /// Dirty tracking records exactly the frames written after the
    /// ledger is enabled, and take_dirty drains it.
    #[test]
    fn dirty_ledger_tracks_writes_only_while_enabled() {
        let mut mem = PhysMemory::new(64 * PAGE_SIZE as u64);
        mem.write(PhysAddr(0), &[1, 2, 3]).unwrap();
        assert_eq!(mem.dirty_count(), 0, "ledger off: no dirt recorded");
        mem.set_dirty_tracking(true);
        mem.write(PhysAddr(5 * PAGE_SIZE as u64), &[9]).unwrap();
        // A write straddling a page boundary dirties both frames.
        mem.write(PhysAddr(7 * PAGE_SIZE as u64 + 4090), &[0xAA; 16]).unwrap();
        let dirty = mem.take_dirty();
        assert_eq!(dirty, vec![5, 7, 8]);
        assert_eq!(mem.dirty_count(), 0, "take_dirty drains the ledger");
        mem.set_frame_key(Frame(3), 42);
        mem.zero_frame(Frame(5)).unwrap();
        let dirty = mem.take_dirty();
        assert_eq!(dirty, vec![3, 5], "key changes and zeroing count as dirt");
    }

    /// export_meta + resident pages round-trips allocator state exactly:
    /// the rebuilt memory hands out the same frames in the same order.
    #[test]
    fn export_import_roundtrip_is_exact() {
        let mut src = PhysMemory::new(200 * PAGE_SIZE as u64);
        src.reserve_region(Region::new(16, 24));
        let mut held = Vec::new();
        for _ in 0..40 {
            held.push(src.alloc_frame().unwrap());
        }
        // Free a few out of order to put structure in the bitmap/hint.
        src.free_frame(held[7]).unwrap();
        src.free_frame(held[3]).unwrap();
        src.write(PhysAddr(held[0].0 * PAGE_SIZE as u64), b"migrate-me").unwrap();
        src.set_frame_key(held[1], 7);

        let meta = src.export_meta();
        let pages: Vec<(u64, Vec<u8>)> =
            src.resident_pages().map(|(f, p)| (f, p.to_vec())).collect();
        let mut dst = PhysMemory::from_export(&meta, &pages).unwrap();

        assert_eq!(dst.total_frames(), src.total_frames());
        assert_eq!(dst.allocated_frames(), src.allocated_frames());
        assert_eq!(dst.frame_key(held[1]), src.frame_key(held[1]));
        let mut buf = [0u8; 10];
        dst.read(PhysAddr(held[0].0 * PAGE_SIZE as u64), &mut buf).unwrap();
        assert_eq!(&buf, b"migrate-me");
        // Same allocation sequence on both sides from here on.
        for _ in 0..20 {
            assert_eq!(src.alloc_frame().ok(), dst.alloc_frame().ok());
        }
    }

    /// A 48-byte header declaring 2^40 frames with a one-word bitmap,
    /// no regions and no keys: the frame count is checked against the
    /// bitmap that arrived before anything is sized from it, so this is
    /// a typed error rather than a 128 GiB allocation.
    #[test]
    fn huge_declared_dram_is_refused_before_allocation() {
        let meta = (1u64 << 40, 0u64, vec![0u64], Vec::<Region>::new(), Vec::<(u64, u16)>::new())
            .to_wire();
        assert_eq!(meta.len(), 48);
        let started = std::time::Instant::now();
        assert_eq!(
            PhysMemory::from_export(&meta, &[]).err(),
            Some(WireError::BadValue { what: "free words" })
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    /// A frame-key table naming one frame twice used to merge silently;
    /// the map rule now refuses it.
    #[test]
    fn duplicate_frame_key_is_refused() {
        let mut src = PhysMemory::new(64 * PAGE_SIZE as u64);
        let f = src.alloc_frame().unwrap();
        src.set_frame_key(f, 3);
        let ok = src.export_meta();
        assert!(PhysMemory::from_export(&ok, &[]).is_ok());
        let dup = (
            src.total_frames,
            src.next_hint,
            src.free.clone(),
            src.reserved.clone(),
            vec![(f.0, 3u16), (f.0, 4u16)],
        )
            .to_wire();
        assert_eq!(
            PhysMemory::from_export(&dup, &[]).err(),
            Some(WireError::BadValue {
                what: "map key order"
            })
        );
    }

    /// Hostile import inputs land as typed errors, never panics.
    #[test]
    fn import_rejects_malformed_meta() {
        let mut src = PhysMemory::new(64 * PAGE_SIZE as u64);
        let f = src.alloc_frame().unwrap();
        let meta = src.export_meta();

        // Truncation at every byte boundary of the meta blob.
        for cut in 0..meta.len() {
            assert!(
                PhysMemory::from_export(&meta[..cut], &[]).is_err(),
                "truncated meta at {cut} must be rejected"
            );
        }
        // Trailing garbage.
        let mut long = meta.clone();
        long.push(0);
        assert!(PhysMemory::from_export(&long, &[]).is_err());
        // Out-of-range page frame and short page.
        assert!(PhysMemory::from_export(&meta, &[(64, vec![0; PAGE_SIZE])]).is_err());
        assert!(PhysMemory::from_export(&meta, &[(f.0, vec![0; 17])]).is_err());
    }
}
