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
//! state that is *not* architectural (the cost table, allocator scan
//! stats, the chaos injector) never enters the blob: the destination
//! starts it fresh, so its counters read zero while its architectural
//! state is byte-identical.

use crate::cet::{EndbrRegistry, ShadowStack};
use crate::cycles::{Costs, CycleCounter};
use crate::phys::PhysMemory;
use crate::regs::Msr;
use crate::tlb::{HwStats, Tlb};
use erebor_trace::{TraceBuffer, TraceRecord};
use erebor_wire::{WireError, WireReader, WireWriter};
use std::collections::BTreeSet;

use crate::cpu::{Cpu, Domain, Machine};

/// Format version stamped at the head of every export; import refuses
/// anything else (a silent cross-version decode would be state confusion
/// by construction). Version 2 dropped the host-side `fastpath_enabled`
/// and allocator scan-mode flags from the blob; version 3 dropped the
/// `tlb_enabled` ablation switch and version 4 the `mmu_epoch` that
/// keyed the batch fast path's decision caches. Neither field exists
/// any more.
pub const MACHINE_STATE_VERSION: u32 = 4;

impl Machine {
    /// Serialize every architectural field except page contents (see
    /// module docs). Deterministic: equal machines produce equal bytes.
    #[must_use]
    pub fn export_state(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put(&MACHINE_STATE_VERSION);
        let cores = self.cpus.len();
        w.put(&cores);
        w.bytes(&self.mem.export_meta());
        // A core's id is its index; its MSRs travel as the full
        // `Msr::ALL` list, unwritten ones as 0.
        for c in &self.cpus {
            w.put(&(c.mode, c.domain, c.ctx, c.cr0, c.cr3, c.cr4, c.idtr));
            w.put(&Msr::ALL.map(|m| c.msr(m)).to_vec());
        }
        w.put(&self.cycles.to_parts());
        w.put(&self.endbr);
        w.items(&self.sstk);
        for t in &self.tlbs {
            let (instr, data) = t.to_parts();
            w.put(instr);
            w.put(data);
        }
        w.put(&self.stats);
        w.put(&self.trace.to_parts());
        w.put(&self.mmu_trace);
        w.put(self.sensitive_domains());
        w.put(self.pending_shootdowns());
        w.put(self.pending_asid_shootdowns());
        for cpu in 0..cores {
            w.put(&self.interrupt_depth(cpu));
        }
        w.finish()
    }

    /// Rebuild a machine from [`Machine::export_state`] bytes plus the
    /// staged page set. Non-architectural state (cost table, allocator
    /// scan stats, injector) starts fresh.
    ///
    /// # Errors
    /// [`WireError`] on any truncation, unknown tag, version mismatch,
    /// out-of-range core index, or inconsistent TLB slot.
    pub fn import_state(bytes: &[u8], pages: &[(u64, Vec<u8>)]) -> Result<Machine, WireError> {
        let mut r = WireReader::new(bytes);
        if r.get::<u32>()? != MACHINE_STATE_VERSION {
            return Err(WireError::BadValue {
                what: "machine state version",
            });
        }
        let cores: usize = r.get()?;
        if cores == 0 || cores > 4096 {
            return Err(WireError::BadValue { what: "core count" });
        }

        let mem = PhysMemory::from_export(r.bytes()?, pages)?;
        let cpus = (0..cores)
            .map(|id| {
                let (mode, domain, ctx, cr0, cr3, cr4, idtr) = r.get()?;
                let msrs: Vec<u64> = r.get()?;
                if msrs.len() != Msr::ALL.len() {
                    return Err(WireError::BadValue { what: "msr count" });
                }
                let msrs = Msr::ALL.into_iter().zip(msrs).filter(|&(_, v)| v != 0);
                Ok(Cpu {
                    id,
                    mode,
                    domain,
                    ctx,
                    cr0,
                    cr3,
                    cr4,
                    idtr,
                    msrs: msrs.collect(),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;

        let (cyc_total, totals, current) = r.get()?;
        let cycles =
            CycleCounter::from_parts(cyc_total, totals, current).ok_or(WireError::BadValue {
                what: "cycle counter",
            })?;
        let endbr: EndbrRegistry = r.get()?;
        let sstk: Vec<ShadowStack> = r.items(cores)?;
        if sstk
            .iter()
            .any(|s| s.active_on().is_some_and(|c| c >= cores))
        {
            return Err(WireError::BadValue {
                what: "sstk active core",
            });
        }
        let tlbs = (0..cores)
            .map(|_| {
                let (instr, data) = r.get()?;
                Tlb::from_parts(instr, data).ok_or(WireError::BadValue {
                    what: "tlb slot placement",
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let stats: HwStats = r.get()?;

        let (capacity, seq, dropped, rings): (usize, u64, u64, Vec<Vec<TraceRecord>>) = r.get()?;
        if capacity > 1 << 24 {
            return Err(WireError::BadValue {
                what: "trace capacity",
            });
        }
        if rings.len() != cores {
            return Err(WireError::BadValue { what: "ring count" });
        }
        if rings.iter().any(|ring| ring.len() > capacity) {
            return Err(WireError::BadValue {
                what: "ring overflow",
            });
        }
        let trace = TraceBuffer::from_parts(capacity, seq, dropped, rings);

        let mmu_trace = r.get()?;
        let sensitive_domains: BTreeSet<Domain> = r.get()?;
        let pending_shootdowns: BTreeSet<(usize, u64)> = r.get()?;
        if pending_shootdowns.iter().any(|&(cpu, _)| cpu >= cores) {
            return Err(WireError::BadValue {
                what: "shootdown cpu",
            });
        }
        let pending_asid_shootdowns: BTreeSet<(usize, u64)> = r.get()?;
        if pending_asid_shootdowns.iter().any(|&(cpu, _)| cpu >= cores) {
            return Err(WireError::BadValue {
                what: "asid shootdown cpu",
            });
        }
        let interrupt_depth: Vec<u32> = r.items(cores)?;
        r.finish()?;

        Ok(Machine {
            mem,
            cpus,
            costs: Costs::default(),
            cycles,
            endbr,
            sstk,
            tlbs,
            stats,
            trace,
            mmu_trace,
            sensitive_domains,
            injector: None,
            pending_shootdowns,
            pending_asid_shootdowns,
            interrupt_depth,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paging::{map_raw, Pte, PteFlags};
    use crate::regs::{Cr0, Cr4};
    use crate::tlb::TlbEntry;
    use crate::VirtAddr;
    use erebor_trace::TraceEvent;
    use erebor_wire::Wire;

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
    /// three, which still carried host-side state — and a corrupted TLB
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
        for old in 1..MACHINE_STATE_VERSION {
            let mut stale = blob.clone();
            stale[..4].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                Machine::import_state(&stale, &pages).err(),
                Some(WireError::BadValue {
                    what: "machine state version"
                }),
                "version {old}"
            );
        }

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
        let encode = |e: TlbEntry| Some(e).to_wire();
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
        let src = busy_machine();
        assert_ne!(src.mem.alloc_stats, Default::default());
        let pages: Vec<(u64, Vec<u8>)> = src
            .mem
            .resident_pages()
            .map(|(f, p)| (f, p.to_vec()))
            .collect();
        let dst = Machine::import_state(&src.export_state(), &pages).unwrap();
        assert_eq!(dst.mem.alloc_stats, Default::default());
    }
}
