//! Machine-state export/import for TD live migration.
//!
//! [`Machine::export_state`] serializes every *architectural* field of
//! the machine — register state, MSRs, TLB contents, trace rings, cycle
//! accounting, the CET registries, the staleness ledgers — into one
//! deterministic byte blob. Page contents are deliberately excluded:
//! they travel as individual per-frame migration records so the
//! pre-copy loop can resend only dirty frames ([`crate::phys::PhysMemory`]'s
//! dirty ledger).
//!
//! [`Machine::import_state`] rebuilds a machine from the blob plus the
//! staged page set, validating every length, tag and cross-field
//! invariant so a truncated, reordered or bit-flipped blob lands as a
//! typed [`WireError`] — never a half-imported machine. Host-side
//! state that is *not* architectural (the permission decision caches
//! and the `fastpath_enabled` switch that selects them, fast-path
//! counters, allocator scan stats, the chaos injector) never enters the
//! blob: the destination starts it fresh, so its counters read zero
//! while its architectural state is byte-identical.

use crate::cet::{EndbrRegistry, ShadowStack};
use crate::cycles::{Bucket, CycleCounter};
use crate::decision::DecisionCache;
use crate::mmu::EffPerms;
use crate::phys::{Frame, PhysMemory};
use crate::regs::{Cr0, Cr4, GprContext, Msr};
use crate::tlb::{Tlb, TlbEntry, TLB_ENTRIES};
use crate::VirtAddr;
use erebor_trace::{intern, TraceBuffer, TraceEvent, TraceRecord};
use erebor_wire::{WireError, WireReader, WireWriter};
use std::collections::{BTreeMap, BTreeSet};

use crate::cpu::{CpuMode, Domain, Machine};
use crate::idt::Idtr;

/// Format version stamped at the head of every export; import refuses
/// anything else (a silent cross-version decode would be state confusion
/// by construction). Version 2 dropped the host-side `fastpath_enabled`
/// and allocator scan-mode flags from the blob.
pub const MACHINE_STATE_VERSION: u32 = 2;

fn put_event(w: &mut WireWriter, e: &TraceEvent) {
    match e {
        TraceEvent::GateEnter => w.u8(0),
        TraceEvent::GateExit => w.u8(1),
        TraceEvent::Emc { op, arg } => {
            w.u8(2);
            w.str(op);
            w.u64(*arg);
        }
        TraceEvent::PageFault { va_page, write } => {
            w.u8(3);
            w.u64(*va_page);
            w.bool(*write);
        }
        TraceEvent::TdcallLeave { leaf } => {
            w.u8(4);
            w.str(leaf);
        }
        TraceEvent::TdcallDone { ok } => {
            w.u8(5);
            w.bool(*ok);
        }
        TraceEvent::IpiSent { to } => {
            w.u8(6);
            w.u32(*to);
        }
        TraceEvent::IpiReceived { from } => {
            w.u8(7);
            w.u32(*from);
        }
        TraceEvent::IpiDropped { to } => {
            w.u8(8);
            w.u32(*to);
        }
        TraceEvent::IpiSpurious => w.u8(9),
        TraceEvent::ChaosFault { point } => {
            w.u8(10);
            w.str(point);
        }
        TraceEvent::TlbShootdown { root, page } => {
            w.u8(11);
            w.u64(*root);
            w.u64(*page);
        }
        TraceEvent::TlbInvlpg { page } => {
            w.u8(12);
            w.u64(*page);
        }
        TraceEvent::TlbFlush => w.u8(13),
        TraceEvent::TlbHit { root, page } => {
            w.u8(14);
            w.u64(*root);
            w.u64(*page);
        }
    }
}

fn get_event(r: &mut WireReader) -> Result<TraceEvent, WireError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => TraceEvent::GateEnter,
        1 => TraceEvent::GateExit,
        2 => TraceEvent::Emc {
            op: intern(r.str()?),
            arg: r.u64()?,
        },
        3 => TraceEvent::PageFault {
            va_page: r.u64()?,
            write: r.bool()?,
        },
        4 => TraceEvent::TdcallLeave {
            leaf: intern(r.str()?),
        },
        5 => TraceEvent::TdcallDone { ok: r.bool()? },
        6 => TraceEvent::IpiSent { to: r.u32()? },
        7 => TraceEvent::IpiReceived { from: r.u32()? },
        8 => TraceEvent::IpiDropped { to: r.u32()? },
        9 => TraceEvent::IpiSpurious,
        10 => TraceEvent::ChaosFault {
            point: intern(r.str()?),
        },
        11 => TraceEvent::TlbShootdown {
            root: r.u64()?,
            page: r.u64()?,
        },
        12 => TraceEvent::TlbInvlpg { page: r.u64()? },
        13 => TraceEvent::TlbFlush,
        14 => TraceEvent::TlbHit {
            root: r.u64()?,
            page: r.u64()?,
        },
        _ => {
            return Err(WireError::BadTag {
                what: "trace event",
                tag: u64::from(tag),
            })
        }
    })
}

fn put_ctx(w: &mut WireWriter, ctx: &GprContext) {
    for g in ctx.gpr {
        w.u64(g);
    }
    w.u64(ctx.rip);
    w.u64(ctx.rflags);
}

fn get_ctx(r: &mut WireReader) -> Result<GprContext, WireError> {
    let mut ctx = GprContext::default();
    for g in &mut ctx.gpr {
        *g = r.u64()?;
    }
    ctx.rip = r.u64()?;
    ctx.rflags = r.u64()?;
    Ok(ctx)
}

fn domain_tag(d: Domain) -> u8 {
    match d {
        Domain::Firmware => 0,
        Domain::Monitor => 1,
        Domain::Kernel => 2,
        Domain::User => 3,
    }
}

fn domain_from(tag: u8) -> Result<Domain, WireError> {
    Ok(match tag {
        0 => Domain::Firmware,
        1 => Domain::Monitor,
        2 => Domain::Kernel,
        3 => Domain::User,
        _ => {
            return Err(WireError::BadTag {
                what: "domain",
                tag: u64::from(tag),
            })
        }
    })
}

fn put_tlb_slot(w: &mut WireWriter, slot: &Option<TlbEntry>) {
    match slot {
        None => w.bool(false),
        Some(e) => {
            w.bool(true);
            w.u64(e.root.0);
            w.u64(e.page);
            w.u64(e.frame.0);
            w.bool(e.eff.writable);
            w.bool(e.eff.user);
            w.bool(e.eff.nx);
            w.u8(e.eff.pkey);
            w.u16(e.eff.keyid);
            w.bool(e.dirty);
        }
    }
}

fn get_tlb_slot(r: &mut WireReader) -> Result<Option<TlbEntry>, WireError> {
    if !r.bool()? {
        return Ok(None);
    }
    Ok(Some(TlbEntry {
        root: Frame(r.u64()?),
        page: r.u64()?,
        frame: Frame(r.u64()?),
        eff: EffPerms {
            writable: r.bool()?,
            user: r.bool()?,
            nx: r.bool()?,
            pkey: r.u8()?,
            keyid: r.u16()?,
        },
        dirty: r.bool()?,
    }))
}

impl Machine {
    /// Serialize every architectural field except page contents (see
    /// module docs). Deterministic: equal machines produce equal bytes.
    #[must_use]
    pub fn export_state(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u32(MACHINE_STATE_VERSION);
        let cores = self.cpus.len();
        w.usize(cores);

        w.bytes(&self.mem.export_meta());

        for c in &self.cpus {
            w.u8(if c.mode == CpuMode::Supervisor { 1 } else { 0 });
            w.u8(domain_tag(c.domain));
            put_ctx(&mut w, &c.ctx);
            w.u64(c.cr0.0);
            w.u64(c.cr3.0);
            w.u64(c.cr4.0);
            match c.idtr {
                None => w.bool(false),
                Some(i) => {
                    w.bool(true);
                    w.u64(i.base.0);
                }
            }
            w.seq(Msr::ALL.len());
            for m in Msr::ALL {
                w.u64(c.msr(m));
            }
        }

        let (cycles, totals, current) = self.cycles.to_parts();
        w.u64(cycles);
        for t in totals {
            w.u64(t);
        }
        w.usize(current);

        w.seq(self.endbr.len());
        for t in self.endbr.targets() {
            w.u64(t);
        }

        for s in &self.sstk {
            let (base, frames, active_on) = s.to_parts();
            w.u64(base.0);
            w.seq(frames.len());
            for f in frames {
                w.u64(*f);
            }
            match active_on {
                None => w.bool(false),
                Some(c) => {
                    w.bool(true);
                    w.usize(c);
                }
            }
        }

        for t in &self.tlbs {
            let (instr, data) = t.to_parts();
            for slot in instr.iter().chain(data.iter()) {
                put_tlb_slot(&mut w, slot);
            }
        }

        w.u64(self.stats.tlb_hits);
        w.u64(self.stats.tlb_misses);
        w.u64(self.stats.tlb_flushes);
        w.u64(self.stats.tlb_page_invalidations);
        w.u64(self.stats.tlb_shootdown_ipis);

        let (capacity, seq, dropped, rings) = self.trace.to_parts();
        w.usize(capacity);
        w.u64(seq);
        w.u64(dropped);
        w.seq(rings.len());
        for ring in &rings {
            w.seq(ring.len());
            for rec in ring {
                w.u64(rec.seq);
                w.u64(rec.cycles);
                w.u32(rec.cpu);
                put_event(&mut w, &rec.event);
            }
        }

        w.bool(self.tlb_enabled);
        w.bool(self.mmu_trace);

        w.seq(self.sensitive_domains().len());
        for d in self.sensitive_domains() {
            w.u8(domain_tag(*d));
        }

        w.seq(self.pending_shootdowns().len());
        for (cpu, page) in self.pending_shootdowns() {
            w.usize(*cpu);
            w.u64(*page);
        }
        w.seq(self.pending_asid_shootdowns().len());
        for (cpu, root) in self.pending_asid_shootdowns() {
            w.usize(*cpu);
            w.u64(*root);
        }

        for cpu in 0..cores {
            w.u32(self.interrupt_depth(cpu));
        }
        w.u64(self.mmu_epoch());

        w.finish()
    }

    /// Rebuild a machine from [`Machine::export_state`] bytes plus the
    /// staged page set. Non-architectural state (decision caches and
    /// their switch, fast-path counters, allocator scan stats, injector)
    /// starts fresh.
    ///
    /// # Errors
    /// [`WireError`] on any truncation, unknown tag, version mismatch,
    /// out-of-range core index, or inconsistent TLB slot.
    pub fn import_state(bytes: &[u8], pages: &[(u64, Vec<u8>)]) -> Result<Machine, WireError> {
        let mut r = WireReader::new(bytes);
        let version = r.u32()?;
        if version != MACHINE_STATE_VERSION {
            return Err(WireError::BadValue {
                what: "machine state version",
            });
        }
        let cores = r.usize()?;
        if cores == 0 || cores > 4096 {
            return Err(WireError::BadValue { what: "core count" });
        }

        let mem = PhysMemory::from_export(r.bytes()?, pages)?;

        let mut cpus = Vec::with_capacity(cores);
        for id in 0..cores {
            let mode = match r.u8()? {
                0 => CpuMode::User,
                1 => CpuMode::Supervisor,
                tag => {
                    return Err(WireError::BadTag {
                        what: "cpu mode",
                        tag: u64::from(tag),
                    })
                }
            };
            let domain = domain_from(r.u8()?)?;
            let ctx = get_ctx(&mut r)?;
            let cr0 = Cr0(r.u64()?);
            let cr3 = Frame(r.u64()?);
            let cr4 = Cr4(r.u64()?);
            let idtr = if r.bool()? {
                Some(Idtr {
                    base: VirtAddr(r.u64()?),
                })
            } else {
                None
            };
            let nmsrs = r.seq(8)?;
            if nmsrs != Msr::ALL.len() {
                return Err(WireError::BadValue { what: "msr count" });
            }
            let mut msrs = BTreeMap::new();
            for m in Msr::ALL {
                let v = r.u64()?;
                if v != 0 {
                    msrs.insert(m, v);
                }
            }
            cpus.push(crate::cpu::cpu_from_parts(
                id, mode, domain, ctx, cr0, cr3, cr4, idtr, msrs,
            ));
        }

        let cyc_total = r.u64()?;
        let mut totals = [0u64; Bucket::ALL.len()];
        for t in &mut totals {
            *t = r.u64()?;
        }
        let current = r.usize()?;
        let cycles = CycleCounter::from_parts(cyc_total, totals, current).ok_or(
            WireError::BadValue {
                what: "cycle counter",
            },
        )?;

        let ntargets = r.seq(8)?;
        let mut endbr = EndbrRegistry::new();
        for _ in 0..ntargets {
            endbr.add(VirtAddr(r.u64()?));
        }

        let mut sstk = Vec::with_capacity(cores);
        for _ in 0..cores {
            let base = VirtAddr(r.u64()?);
            let nframes = r.seq(8)?;
            let mut frames = Vec::with_capacity(nframes);
            for _ in 0..nframes {
                frames.push(r.u64()?);
            }
            let active_on = if r.bool()? {
                let c = r.usize()?;
                if c >= cores {
                    return Err(WireError::BadValue {
                        what: "sstk active core",
                    });
                }
                Some(c)
            } else {
                None
            };
            sstk.push(ShadowStack::from_parts(base, frames, active_on));
        }

        let mut tlbs = Vec::with_capacity(cores);
        for _ in 0..cores {
            let mut instr = [None; TLB_ENTRIES];
            for slot in &mut instr {
                *slot = get_tlb_slot(&mut r)?;
            }
            let mut data = [None; TLB_ENTRIES];
            for slot in &mut data {
                *slot = get_tlb_slot(&mut r)?;
            }
            let tlb = Tlb::from_parts(instr, data).ok_or(WireError::BadValue {
                what: "tlb slot placement",
            })?;
            tlbs.push(tlb);
        }

        let stats = crate::tlb::HwStats {
            tlb_hits: r.u64()?,
            tlb_misses: r.u64()?,
            tlb_flushes: r.u64()?,
            tlb_page_invalidations: r.u64()?,
            tlb_shootdown_ipis: r.u64()?,
        };

        let capacity = r.usize()?;
        if capacity > 1 << 24 {
            return Err(WireError::BadValue {
                what: "trace capacity",
            });
        }
        let seq = r.u64()?;
        let dropped = r.u64()?;
        let nrings = r.seq(8)?;
        if nrings != cores {
            return Err(WireError::BadValue { what: "ring count" });
        }
        let mut rings = Vec::with_capacity(nrings);
        for _ in 0..nrings {
            let nrec = r.seq(21)?;
            if nrec > capacity {
                return Err(WireError::BadValue {
                    what: "ring overflow",
                });
            }
            let mut ring = Vec::with_capacity(nrec);
            for _ in 0..nrec {
                ring.push(TraceRecord {
                    seq: r.u64()?,
                    cycles: r.u64()?,
                    cpu: r.u32()?,
                    event: get_event(&mut r)?,
                });
            }
            rings.push(ring);
        }
        let trace = TraceBuffer::from_parts(capacity, seq, dropped, rings);

        let tlb_enabled = r.bool()?;
        let mmu_trace = r.bool()?;

        let nsens = r.seq(1)?;
        let mut sensitive = BTreeSet::new();
        for _ in 0..nsens {
            sensitive.insert(domain_from(r.u8()?)?);
        }

        let npend = r.seq(16)?;
        let mut pending = BTreeSet::new();
        for _ in 0..npend {
            let cpu = r.usize()?;
            if cpu >= cores {
                return Err(WireError::BadValue {
                    what: "shootdown cpu",
                });
            }
            pending.insert((cpu, r.u64()?));
        }
        let nasid = r.seq(16)?;
        let mut pending_asid = BTreeSet::new();
        for _ in 0..nasid {
            let cpu = r.usize()?;
            if cpu >= cores {
                return Err(WireError::BadValue {
                    what: "asid shootdown cpu",
                });
            }
            pending_asid.insert((cpu, r.u64()?));
        }

        let mut depth = Vec::with_capacity(cores);
        for _ in 0..cores {
            depth.push(r.u32()?);
        }
        let mmu_epoch = r.u64()?;
        r.finish()?;

        let mut m = Machine::new(cores, 0x1000); // placeholder DRAM, replaced below
        m.mem = mem;
        m.cpus = cpus;
        m.cycles = cycles;
        m.endbr = endbr;
        m.sstk = sstk;
        m.tlbs = tlbs;
        m.stats = stats;
        m.trace = trace;
        m.tlb_enabled = tlb_enabled;
        m.mmu_trace = mmu_trace;
        crate::cpu::machine_set_private(
            &mut m,
            sensitive,
            pending,
            pending_asid,
            depth,
            (0..cores).map(|_| DecisionCache::new()).collect(),
            mmu_epoch,
        );
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::AccessKind;
    use crate::paging::{map_raw, Pte, PteFlags};

    fn busy_machine() -> Machine {
        let mut m = Machine::new(2, 8 * 1024 * 1024);
        m.allow_sensitive(Domain::Monitor);
        let root = m.mem.alloc_frame().unwrap();
        for c in &mut m.cpus {
            c.cr3 = root;
            c.cr0 = Cr0(Cr0::WP | Cr0::PG);
            c.cr4 = Cr4(Cr4::SMEP | Cr4::SMAP | Cr4::PKS);
            c.domain = Domain::Monitor;
        }
        let f = m.mem.alloc_frame().unwrap();
        map_raw(
            &mut m.mem,
            root,
            VirtAddr(0xffff_8000_0000_0000),
            Pte::encode(f, PteFlags::kernel_rw(0)),
            crate::paging::intermediate_for(PteFlags::kernel_rw(0)),
        )
        .unwrap();
        m.wrmsr(0, Msr::Pkrs, 0b1100).unwrap();
        m.write(0, VirtAddr(0xffff_8000_0000_0010), b"payload").unwrap();
        let mut buf = [0u8; 7];
        m.read(1, VirtAddr(0xffff_8000_0000_0010), &mut buf).unwrap();
        m.endbr.add(VirtAddr(0x40_1000));
        m.sstk[0].push(VirtAddr(0xdead_b000));
        m.trace_event(0, TraceEvent::Emc { op: "create", arg: 3 });
        m.trace_event(1, TraceEvent::ChaosFault { point: "wrmsr" });
        m
    }

    /// The full machine blob round-trips: identical trace JSON, cycles,
    /// register state, TLB contents — and the destination behaves
    /// identically afterwards.
    #[test]
    fn machine_state_roundtrips() {
        let src = busy_machine();
        let blob = src.export_state();
        let pages: Vec<(u64, Vec<u8>)> = src
            .mem
            .resident_pages()
            .map(|(f, p)| (f, p.to_vec()))
            .collect();
        let mut dst = Machine::import_state(&blob, &pages).unwrap();

        assert_eq!(dst.trace.json(), src.trace.json(), "trace rings differ");
        assert_eq!(dst.cycles.total(), src.cycles.total());
        assert_eq!(dst.cycles.attribution(), src.cycles.attribution());
        assert_eq!(dst.stats, src.stats);
        assert_eq!(dst.mmu_epoch(), src.mmu_epoch());
        assert_eq!(dst.cpus[0].msr(Msr::Pkrs), 0b1100);
        assert_eq!(dst.cpus[0].domain, Domain::Monitor);
        for cpu in 0..2 {
            assert_eq!(dst.tlbs[cpu].occupancy(), src.tlbs[cpu].occupancy());
        }
        assert!(dst.sensitive_allowed(Domain::Monitor));
        assert_eq!(dst.sstk[0].depth(), 1);
        assert!(dst.endbr.is_target(VirtAddr(0x40_1000)));
        // Re-export is byte-identical: the codec is a fixed point.
        assert_eq!(dst.export_state(), blob);
        // Behavioural check: the mapped page reads back through the MMU.
        let mut buf = [0u8; 7];
        dst.read(0, VirtAddr(0xffff_8000_0000_0010), &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
    }

    /// Every truncation of the blob is a typed error, never a panic or a
    /// half-imported machine.
    #[test]
    fn truncated_blob_rejected_at_every_boundary() {
        let src = busy_machine();
        let blob = src.export_state();
        let pages: Vec<(u64, Vec<u8>)> = src
            .mem
            .resident_pages()
            .map(|(f, p)| (f, p.to_vec()))
            .collect();
        // Sweep a prefix region densely and the rest sparsely (the blob
        // is large; every boundary of the first 2 KiB plus every 97th
        // byte after covers all field kinds).
        for cut in (0..blob.len().min(2048)).chain((2048..blob.len()).step_by(97)) {
            assert!(
                Machine::import_state(&blob[..cut], &pages).is_err(),
                "cut {cut} accepted"
            );
        }
        let mut long = blob.clone();
        long.push(0);
        assert!(Machine::import_state(&long, &pages).is_err());
    }

    /// A blob from another format generation — including the previous
    /// one, which still carried host-side switches — and a corrupted TLB
    /// slot placement (entry in the wrong direct-mapped slot) are both
    /// refused: import never accepts a TLB the hardware could not have
    /// built.
    #[test]
    fn version_and_tag_corruption_rejected() {
        let src = busy_machine();
        let blob = src.export_state();
        let pages: Vec<(u64, Vec<u8>)> = src
            .mem
            .resident_pages()
            .map(|(f, p)| (f, p.to_vec()))
            .collect();
        let mut wrong_ver = blob.clone();
        wrong_ver[0] ^= 0xff;
        assert!(Machine::import_state(&wrong_ver, &pages).is_err());
        let mut v1 = blob.clone();
        v1[..4].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            Machine::import_state(&v1, &pages).err(),
            Some(WireError::BadValue {
                what: "machine state version"
            })
        );

        // Re-home one live TLB entry onto a page that indexes a
        // different slot, in place in the blob.
        let (instr, data) = src.tlbs[1].to_parts();
        let entry = instr
            .iter()
            .chain(data.iter())
            .flatten()
            .next()
            .copied()
            .expect("busy machine has a cached translation");
        let encode = |e: TlbEntry| {
            let mut w = WireWriter::new();
            put_tlb_slot(&mut w, &Some(e));
            w.finish()
        };
        let needle = encode(entry);
        let at = blob
            .windows(needle.len())
            .position(|w| w == needle.as_slice())
            .expect("slot bytes present in the blob");
        let mut misplaced = blob.clone();
        let moved = TlbEntry {
            page: entry.page + 1,
            ..entry
        };
        misplaced[at..at + needle.len()].copy_from_slice(&encode(moved));
        assert_eq!(
            Machine::import_state(&misplaced, &pages).err(),
            Some(WireError::BadValue {
                what: "tlb slot placement"
            })
        );
    }

    /// Quiesce drains both staleness ledgers; on a machine with empty
    /// ledgers it is a complete no-op (the migration must be invisible
    /// to clean same-seed runs).
    #[test]
    fn quiesce_drains_ledgers_and_is_noop_when_clean() {
        let mut m = busy_machine();
        let blob_before = m.export_state();
        let (pages, asids) = m.quiesce_for_migration();
        assert_eq!((pages, asids), (0, 0));
        assert_eq!(m.export_state(), blob_before, "clean quiesce must not mutate");

        // Seed stale rows the way a chaos run would, then quiesce.
        crate::cpu::machine_seed_ledgers_for_test(
            &mut m,
            [(1usize, 0x40u64)].into_iter().collect(),
            [(0usize, 0u64)].into_iter().collect(),
        );
        let (pages, asids) = m.quiesce_for_migration();
        assert_eq!((pages, asids), (1, 1));
        assert!(m.pending_shootdowns().is_empty());
        assert!(m.pending_asid_shootdowns().is_empty());
        // Drain delivered the lost invalidations: no TLB on any core may
        // still hold an entry the ledger tolerated.
        assert_eq!(m.tlbs[0].occupancy(), 0, "asid row drains via full flush");
    }

    #[test]
    fn import_resets_nonarchitectural_counters() {
        let mut src = busy_machine();
        // Drive the batch fast path so fastpath counters are nonzero.
        let ops = [
            crate::cpu::BatchOp::Probe {
                va: VirtAddr(0xffff_8000_0000_0010),
                kind: AccessKind::Read,
            };
            4
        ];
        src.run_batch(0, &ops);
        assert!(src.fastpath.batches > 0);
        let pages: Vec<(u64, Vec<u8>)> = src
            .mem
            .resident_pages()
            .map(|(f, p)| (f, p.to_vec()))
            .collect();
        let dst = Machine::import_state(&src.export_state(), &pages).unwrap();
        assert_eq!(dst.fastpath, Default::default());
        assert_eq!(dst.mem.alloc_stats, Default::default());
        assert_eq!(dst.decision_cache(0).occupancy(), 0, "decision caches start cold");
    }
}
