//! The bitmap frame allocator against an obviously correct reference
//! model: a free set, a next-fit hint and a list of reserved regions.
//! Random alloc/free/claim/reserve scripts run on both in lockstep;
//! every result and the final frame-by-frame state must agree.
//!
//! Reproducible via `EREBOR_PT_SEED` like every other property test.

use erebor_hw::phys::{PhysError, PhysMemory, Region};
use erebor_hw::{Frame, PAGE_SIZE};
use erebor_testkit::collection;
use erebor_testkit::prelude::*;
use std::collections::BTreeSet;

/// First-fit by construction: `alloc_frame` takes the first free,
/// unreserved frame at or after the hint (wrapping around);
/// `alloc_frame_in` takes the first free frame of the region.
struct ModelAlloc {
    total: u64,
    free: BTreeSet<u64>,
    hint: u64,
    reserved: Vec<Region>,
}

impl ModelAlloc {
    fn new(total: u64) -> ModelAlloc {
        ModelAlloc {
            total,
            free: (0..total).collect(),
            hint: 0,
            reserved: Vec::new(),
        }
    }

    fn alloc_frame(&mut self) -> Result<Frame, PhysError> {
        let (from_hint, wrapped) = (self.free.range(self.hint..), self.free.range(..self.hint));
        let f = from_hint
            .chain(wrapped)
            .copied()
            .find(|&f| !self.reserved.iter().any(|r| r.contains(Frame(f))))
            .ok_or(PhysError::OutOfMemory)?;
        self.free.remove(&f);
        self.hint = (f + 1) % self.total;
        Ok(Frame(f))
    }

    fn alloc_frame_in(&mut self, region: Region) -> Result<Frame, PhysError> {
        let f = *self
            .free
            .range(region.start.0..region.end.0)
            .next()
            .ok_or(PhysError::OutOfMemory)?;
        self.free.remove(&f);
        Ok(Frame(f))
    }

    fn alloc_frames_in(
        &mut self,
        region: Region,
        count: u64,
        out: &mut Vec<Frame>,
    ) -> Result<(), PhysError> {
        for _ in 0..count {
            out.push(self.alloc_frame_in(region)?);
        }
        Ok(())
    }

    fn claim_region(&mut self, region: Region) -> Result<(), PhysError> {
        for f in region.start.0..region.end.0 {
            if f >= self.total {
                return Err(PhysError::OutOfRange(Frame(f).base()));
            }
            if !self.free.remove(&f) {
                return Err(PhysError::AlreadyAllocated(Frame(f)));
            }
        }
        Ok(())
    }

    fn free_frame(&mut self, frame: Frame) -> Result<(), PhysError> {
        if frame.0 >= self.total {
            return Err(PhysError::OutOfRange(frame.base()));
        }
        if !self.free.insert(frame.0) {
            return Err(PhysError::NotAllocated(frame));
        }
        Ok(())
    }
}

/// DRAM sizes in frames: a ragged three-word bitmap, a few words, and
/// one past a full summary word (64 × 64 frames) so summary hops run.
const GEOMETRIES: [u64; 3] = [130, 300, 4500];

proptest! {
    #[test]
    fn bitmap_allocator_matches_reference_model(
        geometry in 0usize..GEOMETRIES.len(),
        script in collection::vec((0u8..8, any::<u16>(), any::<u8>()), 1..200),
    ) {
        let total = GEOMETRIES[geometry];
        let mut mem = PhysMemory::new(total * PAGE_SIZE as u64);
        let mut model = ModelAlloc::new(total);
        let mut live: Vec<Frame> = Vec::new();
        for (op, a, b) in script {
            let (a, b) = (u64::from(a), u64::from(b));
            let start = a % (total + 2);
            match op {
                0 | 1 => {
                    let got = mem.alloc_frame();
                    prop_assert_eq!(got, model.alloc_frame());
                    live.extend(got);
                }
                2 => {
                    let region = Region::new(start, start + 1 + b * 8);
                    let got = mem.alloc_frame_in(region);
                    prop_assert_eq!(got, model.alloc_frame_in(region));
                    live.extend(got);
                }
                3 => {
                    let region = Region::new(start, start + 1 + b * 8);
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    prop_assert_eq!(
                        mem.alloc_frames_in(region, b, &mut got),
                        model.alloc_frames_in(region, b, &mut want)
                    );
                    prop_assert_eq!(&got, &want);
                    live.extend(got);
                }
                4 if !live.is_empty() => {
                    let f = live.swap_remove(a as usize % live.len());
                    prop_assert_eq!(mem.free_frame(f), model.free_frame(f));
                }
                4 | 5 => {
                    // An arbitrary frame: double and out-of-range frees
                    // must fail alike, claimed frames free alike.
                    let f = Frame(start);
                    prop_assert_eq!(mem.free_frame(f), model.free_frame(f));
                    live.retain(|&l| l != f);
                }
                6 => {
                    let region = Region::new(start, start + b);
                    prop_assert_eq!(mem.claim_region(region), model.claim_region(region));
                }
                _ => {
                    let region = Region::new(start, start + b);
                    mem.reserve_region(region);
                    model.reserved.push(region);
                }
            }
            prop_assert_eq!(mem.allocated_frames(), total - model.free.len() as u64);
        }
        for f in 0..total {
            prop_assert_eq!(
                mem.is_allocated(Frame(f)),
                !model.free.contains(&f),
                "frame {} diverged",
                f
            );
        }
    }
}
