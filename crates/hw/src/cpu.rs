//! The simulated CPU package: per-core register state plus the [`Machine`]
//! that couples cores to DRAM and enforces every architectural check on
//! every access and privileged operation.
//!
//! ## Execution model
//!
//! Software in this reproduction is Rust code, but every *architecturally
//! visible* action — loads, stores, instruction fetches, privileged
//! register writes, control transfers — must go through [`Machine`]
//! methods, which enforce the same checks real hardware would. Two layers
//! of enforcement matter for Erebor:
//!
//! 1. **Ring check**: privileged operations from [`CpuMode::User`] raise
//!    `#GP`, as on hardware.
//! 2. **Code-provenance check**: each core tracks the [`Domain`] its
//!    current code region belongs to (derived from the address map). A
//!    *sensitive instruction* (Table 2) executes only if the domain's
//!    verified image actually contains that instruction class — the
//!    monitor's boot-time byte scan (§5.1) guarantees the deprivileged
//!    kernel's image contains none, so a kernel-domain attempt is `#UD`
//!    ("the instruction is not there to execute"). Registration of a
//!    domain as sensitive-capable is a boot-time act of the trusted
//!    firmware/monitor only.

use crate::cet::{EndbrRegistry, ShadowStack};
use crate::cycles::{Bucket, Costs, CycleCounter};
use crate::fault::{AccessKind, CpReason, Fault};
use crate::idt::Idtr;
use crate::inject::{self, CoreView, InjectionPoint, InjectorHandle};
use crate::layout;
use crate::mmu::{self, MmuEnv};
use crate::phys::{Frame, PhysMemory};
use crate::regs::{s_cet, Cr0, Cr4, GprContext, Msr, PkrsPerms, Rflags};
use crate::tlb::{HwStats, Tlb};
use crate::VirtAddr;
use erebor_trace::{TraceBuffer, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};

/// Hardware privilege mode (ring 3 vs ring 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuMode {
    /// Ring 3.
    User,
    /// Ring 0. Erebor further splits this into the monitor's *privileged*
    /// and the kernel's *normal* virtual modes (§5) — a software construct
    /// tracked via [`Domain`].
    Supervisor,
}

erebor_wire::wire_enum!(CpuMode {
    User = 0,
    Supervisor = 1
});

/// Code-provenance domain of the currently executing region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Domain {
    /// Trusted boot firmware (OVMF-like).
    Firmware,
    /// The Erebor monitor (virtual privileged mode).
    Monitor,
    /// The deprivileged guest kernel (virtual normal mode).
    Kernel,
    /// Userspace (native processes and sandboxes).
    User,
}

erebor_wire::wire_enum!(Domain {
    Firmware = 0,
    Monitor = 1,
    Kernel = 2,
    User = 3
});

/// Derive the domain that owns a code address, from the fixed layout.
#[must_use]
pub fn domain_of(va: VirtAddr) -> Domain {
    if layout::is_monitor(va) {
        Domain::Monitor
    } else if layout::is_user(va) {
        Domain::User
    } else {
        Domain::Kernel
    }
}

/// Per-core register state.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// Logical core id.
    pub id: usize,
    /// Current hardware privilege.
    pub mode: CpuMode,
    /// Current code-provenance domain.
    pub domain: Domain,
    /// General-purpose context.
    pub ctx: GprContext,
    /// CR0.
    pub cr0: Cr0,
    /// CR3 (page-table root frame).
    pub cr3: Frame,
    /// CR4.
    pub cr4: Cr4,
    /// IDTR, once `lidt` has executed.
    pub idtr: Option<Idtr>,
    pub(crate) msrs: BTreeMap<Msr, u64>,
}

impl Cpu {
    /// A fresh core: supervisor mode in the firmware domain, paging off,
    /// everything else zero.
    #[must_use]
    pub fn new(id: usize) -> Cpu {
        Cpu {
            id,
            mode: CpuMode::Supervisor,
            domain: Domain::Firmware,
            ctx: GprContext::default(),
            cr0: Cr0(0),
            cr3: Frame(0),
            cr4: Cr4(0),
            idtr: None,
            msrs: BTreeMap::new(),
        }
    }

    /// Raw MSR value (0 if never written).
    #[must_use]
    pub fn msr(&self, msr: Msr) -> u64 {
        self.msrs.get(&msr).copied().unwrap_or(0)
    }

    /// Decoded PKRS view.
    #[must_use]
    pub fn pkrs(&self) -> PkrsPerms {
        PkrsPerms(self.msr(Msr::Pkrs))
    }

    /// RFLAGS view.
    #[must_use]
    pub fn rflags(&self) -> Rflags {
        Rflags(self.ctx.rflags)
    }

    /// Whether CET indirect-branch tracking is active.
    #[must_use]
    pub fn ibt_enabled(&self) -> bool {
        self.cr4.cet() && self.msr(Msr::SCet) & s_cet::ENDBR_EN != 0
    }

    /// Whether CET shadow stacks are active.
    #[must_use]
    pub fn sstk_enabled(&self) -> bool {
        self.cr4.cet() && self.msr(Msr::SCet) & s_cet::SH_STK_EN != 0
    }
}

/// The machine: DRAM, cores, cycle accounting, and the CET landing-pad
/// registry.
pub struct Machine {
    /// Simulated DRAM.
    pub mem: PhysMemory,
    /// Logical cores.
    pub cpus: Vec<Cpu>,
    /// Micro-cost table.
    pub costs: Costs,
    /// Global cycle counter.
    pub cycles: CycleCounter,
    /// CET landing pads from loaded images.
    pub endbr: EndbrRegistry,
    /// Per-core supervisor shadow stacks (active when `IA32_S_CET.SH_STK_EN`
    /// is set; the paper's prototype omits them, §7 — the simulator
    /// supports both configurations).
    pub sstk: Vec<ShadowStack>,
    /// Per-core software TLBs consulted before the walker.
    pub tlbs: Vec<Tlb>,
    /// Translation-path counters (hits, misses, flushes, shootdown IPIs).
    pub stats: HwStats,
    /// Per-core bounded ring of cycle-stamped trace events. Recording
    /// charges no cycles, so tracing never perturbs the model it observes.
    pub trace: TraceBuffer,
    /// MMU-trace switch: when set, TLB maintenance and cached-translation
    /// hits record gated trace events ([`TraceEvent::TlbShootdown`],
    /// [`TraceEvent::TlbInvlpg`], [`TraceEvent::TlbFlush`],
    /// [`TraceEvent::TlbHit`]) that the `erebor-analyze` race detector
    /// consumes. Off by default so ordinary traces (and the byte-stable
    /// `--trace` CI export) are unchanged.
    pub mmu_trace: bool,
    pub(crate) sensitive_domains: BTreeSet<Domain>,
    pub(crate) injector: Option<InjectorHandle>,
    /// `(cpu, page-number)` pairs whose invalidation IPI was dropped by an
    /// injector: the core may hold a stale entry for the page until its
    /// next flush. Together with `pending_asid_shootdowns` this is the
    /// tolerated stale set for the TLB-coherence checks.
    pub(crate) pending_shootdowns: BTreeSet<(usize, u64)>,
    /// `(cpu, root-frame-number)` pairs whose *coalesced* (full-ASID)
    /// invalidation IPI was dropped: the core may hold stale entries for
    /// any page of that address space until its next full flush. Root
    /// `0` records a dropped broadcast flush (all roots). One entry
    /// stands in for what would otherwise be hundreds of per-page
    /// ledger rows from a batched teardown.
    pub(crate) pending_asid_shootdowns: BTreeSet<(usize, u64)>,
    pub(crate) interrupt_depth: Vec<u32>,
}

impl Machine {
    /// Build a machine with `cores` logical cores and `dram_bytes` of DRAM.
    #[must_use]
    pub fn new(cores: usize, dram_bytes: u64) -> Machine {
        Machine {
            mem: PhysMemory::new(dram_bytes),
            cpus: (0..cores).map(Cpu::new).collect(),
            costs: Costs::default(),
            cycles: CycleCounter::new(),
            endbr: EndbrRegistry::new(),
            sstk: (0..cores)
                .map(|i| {
                    ShadowStack::new(VirtAddr(layout::MONITOR_SSTK_BASE.0 + ((i as u64) << 16)))
                })
                .collect(),
            tlbs: (0..cores).map(|_| Tlb::new()).collect(),
            stats: HwStats::default(),
            trace: TraceBuffer::new(cores),
            mmu_trace: false,
            sensitive_domains: BTreeSet::new(),
            injector: None,
            pending_shootdowns: BTreeSet::new(),
            pending_asid_shootdowns: BTreeSet::new(),
            interrupt_depth: vec![0; cores],
        }
    }

    // ----- cycle attribution --------------------------------------------

    /// Run `f` with its charges attributed to `bucket`, then hand the
    /// caller's bucket back on every return path of `f`. The one scoped
    /// way to switch buckets: each layer claims its bucket on entry and
    /// cannot leave without restoring the caller's.
    pub fn charged_to<R>(&mut self, bucket: Bucket, f: impl FnOnce(&mut Machine) -> R) -> R {
        let caller = self.cycles.set_bucket(bucket);
        let r = f(self);
        self.cycles.set_bucket(caller);
        r
    }

    // ----- tracing ------------------------------------------------------

    /// Record a trace event on `cpu`, stamped with the current simulated
    /// cycle count.
    pub fn trace_event(&mut self, cpu: usize, event: TraceEvent) {
        self.trace.record(cpu, self.cycles.total(), event);
    }

    // ----- fault injection ----------------------------------------------

    /// Install a chaos injector; the physical memory shares the handle so
    /// allocation failures can be injected too.
    pub fn set_injector(&mut self, injector: InjectorHandle) {
        self.mem.set_injector(injector.clone());
        self.injector = Some(injector);
    }

    /// Remove any installed injector.
    pub fn clear_injector(&mut self) {
        self.mem.clear_injector();
        self.injector = None;
    }

    /// Consult the injector for a fault at `point` (no-op without one).
    ///
    /// # Errors
    /// Whatever fault the injector chose to deliver.
    pub fn chaos_fault(&mut self, point: InjectionPoint) -> Result<(), Fault> {
        let injected = match &self.injector {
            Some(h) => inject::lock(h).inject_fault(point),
            None => None,
        };
        if let Some(f) = injected {
            self.trace_event(
                point.cpu().unwrap_or(0),
                TraceEvent::ChaosFault { point: point.name() },
            );
            return Err(f);
        }
        Ok(())
    }

    /// Whether the injector wants an interrupt delivered inside the
    /// window at `point`.
    #[must_use]
    pub fn chaos_preempt(&mut self, point: InjectionPoint) -> bool {
        self.injector
            .as_ref()
            .is_some_and(|h| inject::lock(h).preempt(point))
    }

    /// Hand the injector a kernel's-eye snapshot of `cpu` (recorded by
    /// invariant checkers during injected preemptions).
    pub fn chaos_observe(&mut self, cpu: usize) {
        if let Some(h) = &self.injector {
            let c = &self.cpus[cpu];
            let view = CoreView {
                cpu,
                mode: c.mode,
                domain: c.domain,
                pkrs: c.msr(Msr::Pkrs),
            };
            inject::lock(h).observe_preemption(view);
        }
    }

    /// Raw completion status to fail an in-flight `tdcall` with.
    #[must_use]
    pub fn chaos_tdcall_status(&mut self, cpu: usize) -> Option<u64> {
        self.injector
            .as_ref()
            .and_then(|h| inject::lock(h).tdcall_status(cpu))
    }

    /// Whether the untrusted host contends with the in-flight `MapGPA`.
    #[must_use]
    pub fn chaos_host_sept_flip(&mut self) -> bool {
        self.injector
            .as_ref()
            .is_some_and(|h| inject::lock(h).host_sept_flip())
    }

    /// Pages whose invalidation IPI was dropped by the injector, keyed
    /// `(cpu, page-number)`: the tolerated-stale set for TLB coherence.
    #[must_use]
    pub fn pending_shootdowns(&self) -> &BTreeSet<(usize, u64)> {
        &self.pending_shootdowns
    }

    /// Address spaces whose coalesced invalidation IPI was dropped,
    /// keyed `(cpu, root-frame-number)` (`0` = a dropped broadcast):
    /// the full-ASID rows of the tolerated-stale ledger.
    #[must_use]
    pub fn pending_asid_shootdowns(&self) -> &BTreeSet<(usize, u64)> {
        &self.pending_asid_shootdowns
    }

    /// Whether staleness of `cpu`'s cached translation for `page` under
    /// `root` is recorded (tolerated) in either ledger: a per-page row,
    /// a full-ASID row for the entry's root, or a dropped broadcast row.
    #[must_use]
    pub fn shootdown_pending(&self, cpu: usize, root: Frame, page: u64) -> bool {
        self.pending_shootdowns.contains(&(cpu, page))
            || self.pending_asid_shootdowns.contains(&(cpu, root.0))
            || self.pending_asid_shootdowns.contains(&(cpu, 0))
    }

    /// Nesting depth of interrupts currently live on `cpu` (incremented
    /// at delivery, decremented at `iret`).
    #[must_use]
    pub fn interrupt_depth(&self, cpu: usize) -> u32 {
        self.interrupt_depth[cpu]
    }

    /// Uninjected, unguarded MSR restore for fault-path rollback: when a
    /// gate aborts mid-transition it must be able to put the old value
    /// back without the rollback itself being injectable (the real gate's
    /// recovery path is straight-line verified monitor code).
    pub fn restore_msr(&mut self, cpu: usize, msr: Msr, v: u64) {
        self.cycles.charge(self.costs.wrmsr);
        self.cpus[cpu].msrs.insert(msr, v);
    }

    /// Register `domain` as having a verified image that legitimately
    /// contains sensitive instructions. Trusted boot code (firmware /
    /// monitor loader) is the only legitimate caller; the deprivileged
    /// kernel never reaches this in the platform's control flow, and a
    /// kernel image that *does* contain sensitive bytes is rejected by the
    /// monitor's scan before it ever runs.
    pub fn allow_sensitive(&mut self, domain: Domain) {
        self.sensitive_domains.insert(domain);
    }

    /// Whether `domain` may execute sensitive instructions.
    #[must_use]
    pub fn sensitive_allowed(&self, domain: Domain) -> bool {
        self.sensitive_domains.contains(&domain)
    }

    /// The registered sensitive-capable domains (migration export).
    #[must_use]
    pub fn sensitive_domains(&self) -> &BTreeSet<Domain> {
        &self.sensitive_domains
    }

    /// Drain both staleness ledgers before the source of a migration is
    /// quiesced, returning `(per-page rows, full-asid rows)` drained.
    ///
    /// A migrated snapshot must not carry *tolerated* staleness: the
    /// ledgers exist to tell a modelled IPI loss from a real bug, and an
    /// importer has no way to re-establish that tolerance. Draining
    /// delivers the lost invalidations host-side — per-page rows drop
    /// the one cached translation, full-ASID rows flush the whole core —
    /// exactly what the in-flight IPI would have done had it arrived.
    /// On a machine with empty ledgers (every non-chaos run) this is a
    /// complete no-op: no cycles, no counters, no trace, so migration
    /// stays invisible to same-seed equivalence.
    pub fn quiesce_for_migration(&mut self) -> (usize, usize) {
        if self.pending_shootdowns.is_empty() && self.pending_asid_shootdowns.is_empty() {
            return (0, 0);
        }
        let pages = core::mem::take(&mut self.pending_shootdowns);
        let asids = core::mem::take(&mut self.pending_asid_shootdowns);
        for (cpu, page) in &pages {
            self.tlbs[*cpu].invalidate_page(VirtAddr(page << 12));
        }
        for (cpu, _root) in &asids {
            // Conservative: a full flush covers every page the stranded
            // address space (or dropped broadcast) may have left stale.
            self.tlbs[*cpu].flush_all();
        }
        (pages.len(), asids.len())
    }

    fn env(&self, cpu: usize) -> MmuEnv {
        let c = &self.cpus[cpu];
        MmuEnv {
            root: c.cr3,
            cr0: c.cr0,
            cr4: c.cr4,
            mode: c.mode,
            rflags: c.rflags(),
            pkrs: c.pkrs(),
        }
    }

    /// Guard for sensitive-instruction execution (see module docs).
    fn sensitive_guard(&mut self, cpu: usize) -> Result<(), Fault> {
        let c = &self.cpus[cpu];
        if c.mode != CpuMode::Supervisor {
            return Err(Fault::GeneralProtection(
                "privileged instruction in user mode",
            ));
        }
        if !self.sensitive_domains.contains(&c.domain) {
            return Err(Fault::UndefinedInstruction(
                "sensitive instruction absent from this domain's verified image",
            ));
        }
        Ok(())
    }

    // ----- memory ------------------------------------------------------

    /// Translate `va` for `kind`, consulting the core's TLB before the
    /// walker, and charge the translation cycles: `tlb_hit` on a hit, the
    /// real `levels_walked * walk_level` on a miss (which also fills the
    /// TLB). Faults charge nothing, as before.
    ///
    /// A hit re-runs [`mmu::check_access`] against the *live* register
    /// state and the cached effective permissions, so PKRS/CR4/CR0.WP
    /// writes need no flush. A write hit on a clean entry re-walks so the
    /// dirty bit lands in the in-memory PTE (as hardware promotes D=0→1
    /// with a table walk).
    fn translate_cached(
        &mut self,
        cpu: usize,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<crate::PhysAddr, Fault> {
        let env = self.env(cpu);
        if let Some(entry) = self.tlbs[cpu].lookup(env.root, va, kind) {
            let needs_dirty_promotion = kind == AccessKind::Write && !entry.dirty;
            if !needs_dirty_promotion {
                if let Err(f) = mmu::check_access(&env, va, kind, entry.eff) {
                    self.trace_fault(cpu, va, kind);
                    return Err(f);
                }
                self.stats.tlb_hits = self.stats.tlb_hits.saturating_add(1);
                self.cycles.charge_to(Bucket::PageWalk, self.costs.tlb_hit);
                if self.mmu_trace {
                    self.trace_event(
                        cpu,
                        TraceEvent::TlbHit {
                            root: env.root.0,
                            page: va.0 >> 12,
                        },
                    );
                }
                return Ok(crate::PhysAddr(entry.frame.base().0 + va.page_offset()));
            }
        }
        let t = match mmu::translate(&mut self.mem, &env, va, kind) {
            Ok(t) => t,
            Err(f) => {
                self.trace_fault(cpu, va, kind);
                return Err(f);
            }
        };
        self.cycles
            .charge_to(Bucket::PageWalk, u64::from(t.levels_walked) * self.costs.walk_level);
        self.stats.tlb_misses = self.stats.tlb_misses.saturating_add(1);
        self.tlbs[cpu].insert(env.root, va, kind, &t);
        Ok(t.pa)
    }

    fn trace_fault(&mut self, cpu: usize, va: VirtAddr, kind: AccessKind) {
        self.trace_event(
            cpu,
            TraceEvent::PageFault {
                va_page: va.0 >> 12,
                write: kind == AccessKind::Write,
            },
        );
    }

    /// Checked load of `buf.len()` bytes at `va` on core `cpu`.
    ///
    /// # Errors
    /// Any MMU permission fault.
    pub fn read(&mut self, cpu: usize, va: VirtAddr, buf: &mut [u8]) -> Result<(), Fault> {
        self.access(cpu, va, buf.len(), AccessKind::Read, |mem, pa, range| {
            mem.read(pa, &mut buf[range])
                .map_err(|_| Fault::Unrecoverable("read left DRAM"))
        })
    }

    /// Checked store of `buf` at `va` on core `cpu`.
    ///
    /// # Errors
    /// Any MMU permission fault.
    pub fn write(&mut self, cpu: usize, va: VirtAddr, buf: &[u8]) -> Result<(), Fault> {
        self.access(cpu, va, buf.len(), AccessKind::Write, |mem, pa, range| {
            mem.write(pa, &buf[range])
                .map_err(|_| Fault::Unrecoverable("write left DRAM"))
        })
    }

    fn access<F>(
        &mut self,
        cpu: usize,
        va: VirtAddr,
        len: usize,
        kind: AccessKind,
        mut op: F,
    ) -> Result<(), Fault>
    where
        F: FnMut(&mut PhysMemory, crate::PhysAddr, std::ops::Range<usize>) -> Result<(), Fault>,
    {
        let mut done = 0usize;
        while done < len {
            let cur = va.add(done as u64);
            let page_remain = (crate::PAGE_SIZE as u64 - cur.page_offset()) as usize;
            let chunk = page_remain.min(len - done);
            let pa = self.translate_cached(cpu, cur, kind)?;
            self.cycles
                .charge(self.costs.mem_op * (1 + chunk as u64 / 64));
            op(&mut self.mem, pa, done..done + chunk)?;
            done += chunk;
        }
        Ok(())
    }

    /// Checked u64 load.
    ///
    /// # Errors
    /// Any MMU permission fault.
    pub fn read_u64(&mut self, cpu: usize, va: VirtAddr) -> Result<u64, Fault> {
        let mut b = [0u8; 8];
        self.read(cpu, va, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Checked u64 store.
    ///
    /// # Errors
    /// Any MMU permission fault.
    pub fn write_u64(&mut self, cpu: usize, va: VirtAddr, v: u64) -> Result<(), Fault> {
        self.write(cpu, va, &v.to_le_bytes())
    }

    /// Permission-probe an access at `va` without transferring data (used
    /// by the platform's demand-paging path to detect faults before
    /// touching memory).
    ///
    /// # Errors
    /// Any MMU permission fault.
    pub fn probe(&mut self, cpu: usize, va: VirtAddr, kind: AccessKind) -> Result<(), Fault> {
        self.translate_cached(cpu, va, kind)?;
        Ok(())
    }

    /// Instruction-fetch permission probe at `va` (NX/SMEP and mapping
    /// checks). Used when control is transferred into a region.
    ///
    /// # Errors
    /// Any MMU permission fault.
    pub fn fetch_check(&mut self, cpu: usize, va: VirtAddr) -> Result<(), Fault> {
        self.translate_cached(cpu, va, AccessKind::Execute)?;
        Ok(())
    }

    // ----- TLB maintenance ----------------------------------------------

    /// Flush every entry of `cpu`'s TLB (the CR3-write side effect; also
    /// exposed for raw-CR3 boot/ablation paths that bypass
    /// [`Machine::write_cr3`]).
    pub fn flush_tlb(&mut self, cpu: usize) {
        self.stats.tlb_flushes = self.stats.tlb_flushes.saturating_add(1);
        self.pending_shootdowns.retain(|&(c, _)| c != cpu);
        self.pending_asid_shootdowns.retain(|&(c, _)| c != cpu);
        if self.mmu_trace {
            self.trace_event(cpu, TraceEvent::TlbFlush);
        }
        self.tlbs[cpu].flush_all();
    }

    /// `invlpg`-equivalent: drop `cpu`'s cached translation for `va`'s
    /// page. Privileged but not sensitive — like real `invlpg`, any ring-0
    /// code may shoot its own core.
    ///
    /// # Errors
    /// `#GP` from user mode.
    pub fn invalidate_page(&mut self, cpu: usize, va: VirtAddr) -> Result<(), Fault> {
        if self.cpus[cpu].mode != CpuMode::Supervisor {
            return Err(Fault::GeneralProtection("invlpg in user mode"));
        }
        self.cycles.charge(self.costs.invlpg);
        self.tlbs[cpu].invalidate_page(va);
        self.stats.tlb_page_invalidations = self.stats.tlb_page_invalidations.saturating_add(1);
        self.pending_shootdowns.remove(&(cpu, va.0 >> 12));
        if self.mmu_trace {
            self.trace_event(cpu, TraceEvent::TlbInvlpg { page: va.0 >> 12 });
        }
        Ok(())
    }

    /// TLB shootdown for `va`'s page: local `invlpg` on `initiator` plus
    /// an invalidation IPI to every other core, each charged at
    /// `interrupt_delivery` (the IPI round the monitor pays to close the
    /// stale-translation window after a downgrade/unmap). The privilege of
    /// the caller is the initiator's local `invlpg` check.
    ///
    /// # Errors
    /// `#GP` from user mode.
    pub fn tlb_shootdown(&mut self, initiator: usize, va: VirtAddr) -> Result<(), Fault> {
        self.tlb_shootdown_batch(initiator, &[va])
    }

    /// Above this many pages a shootdown full-flushes instead of issuing
    /// per-page `invlpg`s, mirroring Linux's
    /// `tlb_single_page_flush_ceiling` (33 on x86).
    pub const SHOOTDOWN_FULL_FLUSH_CEILING: usize = 32;

    /// Batched TLB shootdown: one invalidation IPI per remote core for the
    /// *whole* set of pages (how `flush_tlb_mm_range` amortizes a large
    /// munmap), rather than an IPI round per page. Past
    /// [`Machine::SHOOTDOWN_FULL_FLUSH_CEILING`] pages, every core
    /// full-flushes instead of walking the list, as real kernels do.
    ///
    /// # Errors
    /// `#GP` from user mode.
    pub fn tlb_shootdown_batch(&mut self, initiator: usize, vas: &[VirtAddr]) -> Result<(), Fault> {
        if self.cpus[initiator].mode != CpuMode::Supervisor {
            return Err(Fault::GeneralProtection("tlb shootdown in user mode"));
        }
        if vas.is_empty() {
            return Ok(());
        }
        self.shootdown_inner(initiator, None, vas)
    }

    /// Address-space-targeted shootdown (`flush_tlb_mm_range` with a real
    /// `mm_cpumask`): IPIs go only to cores whose CR3 currently holds
    /// `root`. Sound because a core that switched away flushed at that CR3
    /// write, so no other core can hold live entries tagged with `root`.
    /// Use only for per-address-space (user) mappings — ranges visible
    /// under every root (the direct map, kernel text) must broadcast via
    /// [`Machine::tlb_shootdown_batch`].
    ///
    /// # Errors
    /// `#GP` from user mode.
    pub fn tlb_shootdown_mm(
        &mut self,
        initiator: usize,
        root: Frame,
        vas: &[VirtAddr],
    ) -> Result<(), Fault> {
        self.shootdown_inner(initiator, Some(root), vas)
    }

    fn shootdown_inner(
        &mut self,
        initiator: usize,
        root: Option<Frame>,
        vas: &[VirtAddr],
    ) -> Result<(), Fault> {
        if self.cpus[initiator].mode != CpuMode::Supervisor {
            return Err(Fault::GeneralProtection("tlb shootdown in user mode"));
        }
        if vas.is_empty() {
            return Ok(());
        }
        let full = vas.len() > Self::SHOOTDOWN_FULL_FLUSH_CEILING;
        if self.mmu_trace {
            // Revocation edge for the happens-before race detector: the
            // permission change is published *before* any remote ack, so
            // a later cached use without an intervening invalidation on
            // that core is a stale-permission window.
            for va in vas {
                self.trace_event(
                    initiator,
                    TraceEvent::TlbShootdown {
                        root: root.map_or(0, |r| r.0),
                        page: va.0 >> 12,
                    },
                );
            }
        }
        for cpu in 0..self.cpus.len() {
            if cpu != initiator {
                if root.is_some_and(|r| self.cpus[cpu].cr3 != r) {
                    continue; // not in the mm's cpumask
                }
                // The remote handler's invalidation work is folded into
                // the IPI delivery cost.
                self.cycles.charge(self.costs.interrupt_delivery);
                self.stats.tlb_shootdown_ipis = self.stats.tlb_shootdown_ipis.saturating_add(1);
                self.trace_event(initiator, TraceEvent::IpiSent { to: cpu as u32 });
                let dropped = self
                    .injector
                    .as_ref()
                    .is_some_and(|h| inject::lock(h).drop_shootdown_ipi(initiator, cpu));
                if dropped {
                    // The IPI is lost in flight: the remote core keeps its
                    // stale entries. Record the staleness so invariant
                    // checks can tell a modelled loss from a real bug.
                    self.trace_event(initiator, TraceEvent::IpiDropped { to: cpu as u32 });
                    if full {
                        // A dropped coalesced flush strands the whole
                        // address space: one full-ASID ledger row covers
                        // every page the batch (and anything else under
                        // that root) may have left stale.
                        self.pending_asid_shootdowns
                            .insert((cpu, root.map_or(0, |r| r.0)));
                    } else {
                        for va in vas {
                            self.pending_shootdowns.insert((cpu, va.0 >> 12));
                        }
                    }
                    continue;
                }
                self.trace_event(
                    cpu,
                    TraceEvent::IpiReceived {
                        from: initiator as u32,
                    },
                );
            }
            if full {
                if cpu == initiator {
                    // Charged like a CR3 reload on the initiating core.
                    self.cycles.charge(self.costs.mov_cr);
                }
                self.flush_tlb(cpu);
            } else {
                for va in vas {
                    if cpu == initiator {
                        self.cycles.charge(self.costs.invlpg);
                        self.stats.tlb_page_invalidations =
                            self.stats.tlb_page_invalidations.saturating_add(1);
                    }
                    self.tlbs[cpu].invalidate_page(*va);
                    self.pending_shootdowns.remove(&(cpu, va.0 >> 12));
                    if self.mmu_trace {
                        self.trace_event(cpu, TraceEvent::TlbInvlpg { page: va.0 >> 12 });
                    }
                }
            }
        }
        if self.injector.is_some() {
            // Spurious IPIs: unrequested remote flushes that a correct
            // system must tolerate (they only drop cached entries).
            for cpu in 0..self.cpus.len() {
                let spurious = self
                    .injector
                    .as_ref()
                    .is_some_and(|h| inject::lock(h).spurious_shootdown(cpu));
                if spurious {
                    self.cycles.charge(self.costs.interrupt_delivery);
                    self.stats.tlb_shootdown_ipis = self.stats.tlb_shootdown_ipis.saturating_add(1);
                    self.trace_event(cpu, TraceEvent::IpiSpurious);
                    self.flush_tlb(cpu);
                }
            }
        }
        Ok(())
    }

    // ----- privileged register writes (sensitive, Table 2) --------------

    /// Current CR3 of `cpu` (`mov %cr3, %r` — a read, not sensitive).
    /// Unprivileged callers use this instead of reaching into the
    /// register file.
    #[must_use]
    pub fn cr3(&self, cpu: usize) -> Frame {
        self.cpus[cpu].cr3
    }

    /// `mov %r, %cr0`.
    ///
    /// # Errors
    /// `#GP` from user mode; `#UD` from a domain whose image lacks the
    /// instruction.
    pub fn write_cr0(&mut self, cpu: usize, v: u64) -> Result<(), Fault> {
        self.sensitive_guard(cpu)?;
        self.chaos_fault(InjectionPoint::WriteCr { cpu, reg: 0 })?;
        self.cycles.charge(self.costs.mov_cr);
        self.cpus[cpu].cr0 = Cr0(v);
        Ok(())
    }

    /// `mov %r, %cr3` — switches the page-table root.
    ///
    /// # Errors
    /// As [`Machine::write_cr0`].
    pub fn write_cr3(&mut self, cpu: usize, root: Frame) -> Result<(), Fault> {
        self.sensitive_guard(cpu)?;
        self.chaos_fault(InjectionPoint::WriteCr { cpu, reg: 3 })?;
        self.cycles.charge(self.costs.mov_cr);
        self.cpus[cpu].cr3 = root;
        // Architectural side effect: flush the writing core's (non-global;
        // the PTE model has no G bit, so all) entries.
        self.flush_tlb(cpu);
        Ok(())
    }

    /// `mov %r, %cr4`.
    ///
    /// # Errors
    /// As [`Machine::write_cr0`].
    pub fn write_cr4(&mut self, cpu: usize, v: u64) -> Result<(), Fault> {
        self.sensitive_guard(cpu)?;
        self.chaos_fault(InjectionPoint::WriteCr { cpu, reg: 4 })?;
        self.cycles.charge(self.costs.mov_cr);
        self.cpus[cpu].cr4 = Cr4(v);
        Ok(())
    }

    /// `wrmsr`.
    ///
    /// # Errors
    /// As [`Machine::write_cr0`].
    pub fn wrmsr(&mut self, cpu: usize, msr: Msr, v: u64) -> Result<(), Fault> {
        self.sensitive_guard(cpu)?;
        self.chaos_fault(InjectionPoint::Wrmsr { cpu, msr })?;
        self.cycles.charge(self.costs.wrmsr);
        self.cpus[cpu].msrs.insert(msr, v);
        Ok(())
    }

    /// `rdmsr` — privileged but *not* sensitive: any ring-0 code may read.
    ///
    /// # Errors
    /// `#GP` from user mode.
    pub fn rdmsr(&mut self, cpu: usize, msr: Msr) -> Result<u64, Fault> {
        if self.cpus[cpu].mode != CpuMode::Supervisor {
            return Err(Fault::GeneralProtection("rdmsr in user mode"));
        }
        self.cycles.charge(self.costs.rdmsr);
        Ok(self.cpus[cpu].msr(msr))
    }

    /// `stac` — grants the kernel temporary access to user pages. Sensitive
    /// (Table 2): only the monitor's user-copy emulation may raise AC.
    ///
    /// # Errors
    /// As [`Machine::write_cr0`].
    pub fn stac(&mut self, cpu: usize) -> Result<(), Fault> {
        self.sensitive_guard(cpu)?;
        self.cycles.charge(self.costs.stac);
        self.cpus[cpu].ctx.rflags |= Rflags::AC;
        Ok(())
    }

    /// `clac` — *dropping* user access is never harmful, so any supervisor
    /// code may execute it.
    ///
    /// # Errors
    /// `#GP` from user mode.
    pub fn clac(&mut self, cpu: usize) -> Result<(), Fault> {
        if self.cpus[cpu].mode != CpuMode::Supervisor {
            return Err(Fault::GeneralProtection("clac in user mode"));
        }
        self.cycles.charge(self.costs.stac);
        self.cpus[cpu].ctx.rflags &= !Rflags::AC;
        Ok(())
    }

    /// `lidt`.
    ///
    /// # Errors
    /// As [`Machine::write_cr0`].
    pub fn lidt(&mut self, cpu: usize, base: VirtAddr) -> Result<(), Fault> {
        self.sensitive_guard(cpu)?;
        self.cycles.charge(self.costs.lidt);
        self.cpus[cpu].idtr = Some(Idtr { base });
        Ok(())
    }

    /// The ring/domain guard for `tdcall`, exported for the TDX-module
    /// simulator (the instruction itself is implemented in `erebor-tdx`).
    ///
    /// # Errors
    /// As [`Machine::write_cr0`].
    pub fn tdcall_guard(&mut self, cpu: usize) -> Result<(), Fault> {
        self.sensitive_guard(cpu)
    }

    /// `senduipi` — send a user-mode interrupt (§3.2 AV3: a sandbox could
    /// use user interrupts to signal attacker processes without a
    /// privileged exit). Requires a *valid* user-interrupt target table;
    /// the monitor clears `IA32_UINTR_TT.valid` before entering sandboxes
    /// holding client data (§6.2 ④).
    ///
    /// # Errors
    /// `#GP` when the target table is invalid or unconfigured.
    pub fn senduipi(&mut self, cpu: usize) -> Result<(), Fault> {
        self.cycles.charge(self.costs.alu + self.costs.mem_op);
        if self.cpus[cpu].msr(Msr::UintrTt) & 1 == 0 {
            return Err(Fault::GeneralProtection(
                "user-interrupt target table invalid",
            ));
        }
        Ok(())
    }

    // ----- control transfers --------------------------------------------

    /// An indirect `call`/`jmp` to `target`, with the CET IBT check.
    /// On success the core's domain follows the target's code region.
    ///
    /// # Errors
    /// `#CP` if IBT is active and `target` is not an `endbr64` landing pad;
    /// any fetch permission fault (NX, SMEP, unmapped).
    pub fn indirect_branch(&mut self, cpu: usize, target: VirtAddr) -> Result<(), Fault> {
        self.chaos_fault(InjectionPoint::IndirectBranch { cpu })?;
        self.fetch_check(cpu, target)?;
        if self.cpus[cpu].ibt_enabled() {
            self.cycles.charge(self.costs.endbr_check);
            if !self.endbr.is_target(target) {
                return Err(Fault::ControlProtection(CpReason::MissingEndbranch));
            }
        }
        self.cpus[cpu].domain = domain_of(target);
        self.cpus[cpu].ctx.rip = target.0;
        Ok(())
    }

    /// A direct `call`/`jmp` (target encoded in the verified image; no IBT
    /// check applies). Still subject to fetch permissions.
    ///
    /// # Errors
    /// Any fetch permission fault.
    pub fn direct_branch(&mut self, cpu: usize, target: VirtAddr) -> Result<(), Fault> {
        self.chaos_fault(InjectionPoint::DirectBranch { cpu })?;
        self.fetch_check(cpu, target)?;
        self.cycles.charge(self.costs.call_ret);
        self.cpus[cpu].domain = domain_of(target);
        self.cpus[cpu].ctx.rip = target.0;
        Ok(())
    }

    /// `syscall`: ring 3 → ring 0 transfer to `IA32_LSTAR`.
    /// Returns the entry address the kernel (or monitor interposer) runs at.
    ///
    /// # Errors
    /// `#UD` if called from supervisor mode (matches hardware: `syscall`
    /// is a user-mode instruction in this model).
    pub fn syscall(&mut self, cpu: usize) -> Result<VirtAddr, Fault> {
        if self.cpus[cpu].mode != CpuMode::User {
            return Err(Fault::UndefinedInstruction("syscall from supervisor mode"));
        }
        let target = VirtAddr(self.cpus[cpu].msr(Msr::Lstar));
        self.cycles
            .charge(self.costs.syscall_entry + self.costs.swapgs);
        let rip = self.cpus[cpu].ctx.rip;
        self.cpus[cpu].ctx.gpr[1] = rip; // rcx = return address
        self.cpus[cpu].mode = CpuMode::Supervisor;
        self.cpus[cpu].domain = domain_of(target);
        self.cpus[cpu].ctx.rip = target.0;
        Ok(target)
    }

    /// `sysret`: ring 0 → ring 3 return to the address in `rcx`.
    ///
    /// # Errors
    /// `#GP` from user mode.
    pub fn sysret(&mut self, cpu: usize) -> Result<(), Fault> {
        if self.cpus[cpu].mode != CpuMode::Supervisor {
            return Err(Fault::GeneralProtection("sysret in user mode"));
        }
        self.cycles
            .charge(self.costs.sysret_exit + self.costs.swapgs);
        let rcx = self.cpus[cpu].ctx.gpr[1];
        self.cpus[cpu].mode = CpuMode::User;
        self.cpus[cpu].domain = Domain::User;
        self.cpus[cpu].ctx.rip = rcx;
        Ok(())
    }

    /// Hardware interrupt/exception delivery on core `cpu`: reads the
    /// handler from the in-memory IDT (physical access — delivery cannot be
    /// blocked by mappings), saves the interrupted context, and switches to
    /// supervisor mode at the handler. Returns `(handler, saved context)`.
    ///
    /// # Errors
    /// [`Fault::Unrecoverable`] if no IDT is loaded or its page is unmapped
    /// (triple-fault analogue).
    pub fn deliver_interrupt(
        &mut self,
        cpu: usize,
        vec: u8,
    ) -> Result<(VirtAddr, GprContext), Fault> {
        let idtr = self.cpus[cpu]
            .idtr
            .ok_or(Fault::Unrecoverable("no IDT loaded"))?;
        let root = self.cpus[cpu].cr3;
        let handler = crate::idt::read_entry(&mut self.mem, root, idtr, vec)?;
        if handler.0 == 0 {
            return Err(Fault::Unrecoverable("unhandled vector (empty IDT entry)"));
        }
        self.cycles.charge(self.costs.interrupt_delivery);
        let saved = self.cpus[cpu].ctx;
        if self.cpus[cpu].sstk_enabled() {
            // Hardware pushes the interrupted rip onto the supervisor
            // shadow stack (§2.2).
            self.cycles.charge(self.costs.sstk_op);
            self.sstk[cpu].push(VirtAddr(saved.rip));
        }
        self.cpus[cpu].mode = CpuMode::Supervisor;
        self.cpus[cpu].domain = domain_of(handler);
        self.cpus[cpu].ctx.rip = handler.0;
        self.interrupt_depth[cpu] = self.interrupt_depth[cpu].saturating_add(1);
        Ok((handler, saved))
    }

    /// `iret`: restore a saved context (and its privilege mode, derived
    /// from the return address).
    ///
    /// # Errors
    /// `#GP` from user mode.
    pub fn iret(&mut self, cpu: usize, saved: GprContext) -> Result<(), Fault> {
        if self.cpus[cpu].mode != CpuMode::Supervisor {
            return Err(Fault::GeneralProtection("iret in user mode"));
        }
        self.cycles.charge(self.costs.iret);
        let target = VirtAddr(saved.rip);
        if self.cpus[cpu].sstk_enabled() {
            // `iret` verifies the return target against the shadow stack;
            // a mismatch (ROP into the kernel) is #CP.
            self.cycles.charge(self.costs.sstk_op);
            self.sstk[cpu].pop(target)?;
        }
        self.cpus[cpu].ctx = saved;
        self.cpus[cpu].mode = if layout::is_user(target) {
            CpuMode::User
        } else {
            CpuMode::Supervisor
        };
        self.cpus[cpu].domain = domain_of(target);
        self.interrupt_depth[cpu] = self.interrupt_depth[cpu].saturating_sub(1);
        Ok(())
    }
}

/// Test hook: plant staleness-ledger rows the way a chaos-dropped IPI
/// would, so quiesce-drain behaviour is testable without an injector.
#[cfg(test)]
pub(crate) fn machine_seed_ledgers_for_test(
    m: &mut Machine,
    pages: BTreeSet<(usize, u64)>,
    asids: BTreeSet<(usize, u64)>,
) {
    m.pending_shootdowns = pages;
    m.pending_asid_shootdowns = asids;
}

impl core::fmt::Debug for Machine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.cpus.len())
            .field("cycles", &self.cycles.total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paging::{map_raw, Pte, PteFlags};

    fn machine() -> Machine {
        let mut m = Machine::new(2, 64 * 1024 * 1024);
        let root = m.mem.alloc_frame().unwrap();
        for c in &mut m.cpus {
            c.cr3 = root;
            c.cr0 = Cr0(Cr0::WP | Cr0::PG);
            c.cr4 = Cr4(Cr4::SMEP | Cr4::SMAP | Cr4::PKS);
            c.domain = Domain::Kernel;
        }
        m
    }

    fn map(m: &mut Machine, va: u64, flags: PteFlags) -> Frame {
        let f = m.mem.alloc_frame().unwrap();
        let root = m.cpus[0].cr3;
        map_raw(
            &mut m.mem,
            root,
            VirtAddr(va),
            Pte::encode(f, flags),
            crate::paging::intermediate_for(flags),
        )
        .unwrap();
        f
    }

    #[test]
    fn checked_rw_roundtrip_charges_cycles() {
        let mut m = machine();
        map(&mut m, 0xffff_8000_0000_0000u64, PteFlags::kernel_rw(0));
        let before = m.cycles.total();
        m.write(0, VirtAddr(0xffff_8000_0000_0100), b"hello")
            .unwrap();
        let mut b = [0u8; 5];
        m.read(0, VirtAddr(0xffff_8000_0000_0100), &mut b).unwrap();
        assert_eq!(&b, b"hello");
        assert!(m.cycles.total() > before);
    }

    #[test]
    fn cross_page_write_checks_both_pages() {
        let mut m = machine();
        map(&mut m, 0xffff_8000_0000_0000u64, PteFlags::kernel_rw(0));
        // Second page intentionally unmapped.
        let err = m
            .write(0, VirtAddr(0xffff_8000_0000_0ffc), &[0u8; 16])
            .unwrap_err();
        assert!(err.is_pf(crate::fault::PfReason::NotPresent));
    }

    #[test]
    fn sensitive_ops_denied_in_user_mode_with_gp() {
        let mut m = machine();
        m.allow_sensitive(Domain::Kernel);
        m.cpus[0].mode = CpuMode::User;
        assert!(matches!(
            m.wrmsr(0, Msr::Lstar, 1),
            Err(Fault::GeneralProtection(_))
        ));
        assert!(matches!(
            m.write_cr3(0, Frame(0)),
            Err(Fault::GeneralProtection(_))
        ));
        assert!(matches!(m.stac(0), Err(Fault::GeneralProtection(_))));
        assert!(matches!(
            m.tdcall_guard(0),
            Err(Fault::GeneralProtection(_))
        ));
    }

    #[test]
    fn sensitive_ops_denied_in_unverified_domain_with_ud() {
        let mut m = machine(); // kernel domain, not registered as sensitive
        assert!(matches!(
            m.wrmsr(0, Msr::Pkrs, 0),
            Err(Fault::UndefinedInstruction(_))
        ));
        assert!(matches!(
            m.lidt(0, VirtAddr(0x1000)),
            Err(Fault::UndefinedInstruction(_))
        ));
        // rdmsr and clac remain available to the deprivileged kernel.
        assert!(m.rdmsr(0, Msr::Pkrs).is_ok());
        assert!(m.clac(0).is_ok());
    }

    #[test]
    fn sensitive_ops_allowed_in_registered_domain() {
        let mut m = machine();
        m.allow_sensitive(Domain::Monitor);
        m.cpus[0].domain = Domain::Monitor;
        m.wrmsr(0, Msr::Pkrs, 0b1100).unwrap();
        assert_eq!(m.cpus[0].msr(Msr::Pkrs), 0b1100);
        m.stac(0).unwrap();
        assert!(m.cpus[0].rflags().ac());
        m.clac(0).unwrap();
        assert!(!m.cpus[0].rflags().ac());
    }

    #[test]
    fn pkrs_is_per_core() {
        let mut m = machine();
        m.allow_sensitive(Domain::Monitor);
        m.cpus[0].domain = Domain::Monitor;
        m.wrmsr(0, Msr::Pkrs, 0b11).unwrap();
        assert_eq!(m.cpus[0].msr(Msr::Pkrs), 0b11);
        assert_eq!(m.cpus[1].msr(Msr::Pkrs), 0, "core 1 unaffected");
    }

    #[test]
    fn syscall_transfers_to_lstar() {
        let mut m = machine();
        m.allow_sensitive(Domain::Monitor);
        m.cpus[0].domain = Domain::Monitor;
        m.wrmsr(0, Msr::Lstar, layout::MONITOR_BASE.0).unwrap();
        m.cpus[0].mode = CpuMode::User;
        m.cpus[0].domain = Domain::User;
        m.cpus[0].ctx.rip = 0x40_1000;
        let entry = m.syscall(0).unwrap();
        assert_eq!(entry, layout::MONITOR_BASE);
        assert_eq!(m.cpus[0].mode, CpuMode::Supervisor);
        assert_eq!(m.cpus[0].domain, Domain::Monitor);
        assert_eq!(m.cpus[0].ctx.gpr[1], 0x40_1000, "rcx holds return rip");
        m.sysret(0).unwrap();
        assert_eq!(m.cpus[0].mode, CpuMode::User);
        assert_eq!(m.cpus[0].ctx.rip, 0x40_1000);
    }

    #[test]
    fn interrupt_delivery_reads_idt_and_saves_context() {
        let mut m = machine();
        m.allow_sensitive(Domain::Monitor);
        m.cpus[0].domain = Domain::Monitor;
        let base = 0xffff_8000_0010_0000u64;
        map(&mut m, base, PteFlags::kernel_ro(0));
        m.lidt(0, VirtAddr(base)).unwrap();
        let root = m.cpus[0].cr3;
        crate::idt::write_entry_raw(
            &mut m.mem,
            root,
            Idtr {
                base: VirtAddr(base),
            },
            crate::idt::vector::TIMER,
            VirtAddr(0xffff_8000_0000_7000),
        )
        .unwrap();
        m.cpus[0].ctx.gpr[0] = 0x4141;
        m.cpus[0].ctx.rip = 0x40_2000;
        let (handler, saved) = m.deliver_interrupt(0, crate::idt::vector::TIMER).unwrap();
        assert_eq!(handler, VirtAddr(0xffff_8000_0000_7000));
        assert_eq!(saved.gpr[0], 0x4141);
        assert_eq!(m.cpus[0].domain, Domain::Kernel);
        m.iret(0, saved).unwrap();
        assert_eq!(m.cpus[0].ctx.rip, 0x40_2000);
        assert_eq!(m.cpus[0].mode, CpuMode::User, "returned to a user rip");
    }

    #[test]
    fn ibt_blocks_non_endbr_targets() {
        let mut m = machine();
        m.allow_sensitive(Domain::Monitor);
        m.cpus[0].domain = Domain::Monitor;
        m.write_cr4(0, Cr4::SMEP | Cr4::SMAP | Cr4::PKS | Cr4::CET)
            .unwrap();
        m.wrmsr(0, Msr::SCet, s_cet::ENDBR_EN).unwrap();
        map(&mut m, layout::MONITOR_BASE.0, PteFlags::kernel_rx(0));
        let pad = VirtAddr(layout::MONITOR_BASE.0 + 0x10);
        m.endbr.add(pad);
        m.indirect_branch(0, pad).unwrap();
        let err = m.indirect_branch(0, pad.add(4)).unwrap_err();
        assert_eq!(err, Fault::ControlProtection(CpReason::MissingEndbranch));
    }

    #[test]
    fn indirect_branch_respects_nx_and_smep() {
        let mut m = machine();
        map(&mut m, 0xffff_8000_0000_0000u64, PteFlags::kernel_rw(0)); // NX data
        let err = m
            .indirect_branch(0, VirtAddr(0xffff_8000_0000_0000))
            .unwrap_err();
        assert!(err.is_pf(crate::fault::PfReason::NoExecute));
        map(&mut m, 0x40_0000, PteFlags::user_rx());
        let err = m.indirect_branch(0, VirtAddr(0x40_0000)).unwrap_err();
        assert!(err.is_pf(crate::fault::PfReason::Smep));
    }

    #[test]
    fn domain_of_layout() {
        assert_eq!(domain_of(layout::MONITOR_BASE), Domain::Monitor);
        assert_eq!(domain_of(layout::KERNEL_BASE), Domain::Kernel);
        assert_eq!(domain_of(VirtAddr(0x40_0000)), Domain::User);
    }

    // ----- TLB ----------------------------------------------------------

    #[test]
    fn tlb_hit_charges_one_cycle_not_a_walk() {
        let mut m = machine();
        map(&mut m, 0xffff_8000_0000_0000u64, PteFlags::kernel_rw(0));
        let va = VirtAddr(0xffff_8000_0000_0000);
        // Warm with a write so the dirty bit is set and later writes hit.
        m.probe(0, va, AccessKind::Write).unwrap();
        assert_eq!(m.stats.tlb_misses, 1);
        let before = m.cycles.total();
        m.probe(0, va, AccessKind::Read).unwrap();
        m.probe(0, va, AccessKind::Write).unwrap();
        assert_eq!(m.cycles.total() - before, 2 * m.costs.tlb_hit);
        assert_eq!(m.stats.tlb_hits, 2);
    }

    #[test]
    fn tlb_miss_charges_real_levels_walked() {
        let mut m = machine();
        map(&mut m, 0xffff_8000_0000_0000u64, PteFlags::kernel_rw(0));
        let before = m.cycles.total();
        m.probe(0, VirtAddr(0xffff_8000_0000_0000), AccessKind::Read)
            .unwrap();
        assert_eq!(m.cycles.total() - before, 4 * m.costs.walk_level);
    }

    #[test]
    fn cr3_write_flushes_only_the_writing_core() {
        let mut m = machine();
        m.allow_sensitive(Domain::Kernel);
        map(&mut m, 0xffff_8000_0000_0000u64, PteFlags::kernel_rw(0));
        let va = VirtAddr(0xffff_8000_0000_0000);
        m.probe(0, va, AccessKind::Read).unwrap();
        m.probe(1, va, AccessKind::Read).unwrap();
        let root = m.cpus[0].cr3;
        m.write_cr3(0, root).unwrap();
        assert_eq!(m.tlbs[0].occupancy(), 0, "writer flushed");
        assert_eq!(m.tlbs[1].occupancy(), 1, "other core keeps its entry");
        assert_eq!(m.stats.tlb_flushes, 1);
    }

    #[test]
    fn invlpg_drops_one_page_and_is_privileged() {
        let mut m = machine();
        map(&mut m, 0xffff_8000_0000_0000u64, PteFlags::kernel_rw(0));
        map(&mut m, 0xffff_8000_0000_1000u64, PteFlags::kernel_rw(0));
        let a = VirtAddr(0xffff_8000_0000_0000);
        let b = VirtAddr(0xffff_8000_0000_1000);
        m.probe(0, a, AccessKind::Read).unwrap();
        m.probe(0, b, AccessKind::Read).unwrap();
        m.invalidate_page(0, a).unwrap();
        assert_eq!(m.tlbs[0].occupancy(), 1, "only a's entry dropped");
        assert!(m.tlbs[0].lookup(m.cpus[0].cr3, b, AccessKind::Read).is_some());
        m.cpus[0].mode = CpuMode::User;
        assert!(matches!(
            m.invalidate_page(0, b),
            Err(Fault::GeneralProtection(_))
        ));
    }

    #[test]
    fn shootdown_invalidates_all_cores_and_charges_ipis() {
        let mut m = machine();
        map(&mut m, 0xffff_8000_0000_0000u64, PteFlags::kernel_rw(0));
        let va = VirtAddr(0xffff_8000_0000_0000);
        m.probe(0, va, AccessKind::Read).unwrap();
        m.probe(1, va, AccessKind::Read).unwrap();
        let before = m.cycles.total();
        m.tlb_shootdown(0, va).unwrap();
        assert_eq!(m.tlbs[0].occupancy(), 0);
        assert_eq!(m.tlbs[1].occupancy(), 0);
        assert_eq!(m.stats.tlb_shootdown_ipis, 1, "one remote core");
        assert_eq!(
            m.cycles.total() - before,
            m.costs.invlpg + m.costs.interrupt_delivery
        );
    }

    #[test]
    fn mm_targeted_shootdown_skips_cores_on_other_roots() {
        let mut m = machine();
        m.allow_sensitive(Domain::Kernel);
        map(&mut m, 0xffff_8000_0000_0000u64, PteFlags::kernel_rw(0));
        let va = VirtAddr(0xffff_8000_0000_0000);
        let root = m.cpus[0].cr3;
        m.probe(0, va, AccessKind::Read).unwrap();
        // Core 1 runs a different address space; any entries it once held
        // under `root` died at its CR3 switch, so no IPI is owed.
        let other = m.mem.alloc_frame().unwrap();
        m.write_cr3(1, other).unwrap();
        let before = m.cycles.total();
        m.tlb_shootdown_mm(0, root, &[va]).unwrap();
        assert_eq!(m.stats.tlb_shootdown_ipis, 0, "no core in the cpumask");
        assert_eq!(m.cycles.total() - before, m.costs.invlpg);
        assert!(m.tlbs[0].lookup(root, va, AccessKind::Read).is_none());
        // Pull core 1 back onto `root`: now it is in the cpumask.
        m.write_cr3(1, root).unwrap();
        m.probe(1, va, AccessKind::Read).unwrap();
        m.tlb_shootdown_mm(0, root, &[va]).unwrap();
        assert_eq!(m.stats.tlb_shootdown_ipis, 1);
        assert!(m.tlbs[1].lookup(root, va, AccessKind::Read).is_none());
    }

    #[test]
    fn pkrs_write_does_not_flush_but_is_enforced_on_hits() {
        let mut m = machine();
        m.allow_sensitive(Domain::Monitor);
        m.cpus[0].domain = Domain::Monitor;
        m.wrmsr(0, Msr::Pkrs, PkrsPerms::GRANT_ALL.0).unwrap();
        map(&mut m, 0xffff_8000_0000_0000u64, PteFlags::kernel_rw(5));
        let va = VirtAddr(0xffff_8000_0000_0000);
        m.probe(0, va, AccessKind::Read).unwrap();
        m.probe(0, va, AccessKind::Read).unwrap();
        assert_eq!(m.stats.tlb_hits, 1);
        // Revoke key 5. The entry must survive (no flush) yet the next
        // access must fault — the check re-runs against live PKRS.
        m.wrmsr(0, Msr::Pkrs, PkrsPerms::GRANT_ALL.with_access_disabled(5).0)
            .unwrap();
        assert_eq!(m.tlbs[0].occupancy(), 1, "PKRS write must not flush");
        let err = m.probe(0, va, AccessKind::Read).unwrap_err();
        assert!(err.is_pf(crate::fault::PfReason::PksAccessDisabled));
        // And granting it back works instantly, still without a walk.
        m.wrmsr(0, Msr::Pkrs, PkrsPerms::GRANT_ALL.0).unwrap();
        let misses = m.stats.tlb_misses;
        m.probe(0, va, AccessKind::Read).unwrap();
        assert_eq!(m.stats.tlb_misses, misses, "served from the TLB");
    }

    #[test]
    fn same_va_under_different_cr3_is_isolated() {
        let mut m = machine();
        map(&mut m, 0xffff_8000_0000_0000u64, PteFlags::kernel_rw(0));
        let va = VirtAddr(0xffff_8000_0000_0000);
        m.probe(0, va, AccessKind::Read).unwrap();
        // Same VA on core 1 under a different root: the cached entry is
        // keyed by root, so this must walk (and fault: nothing mapped).
        let other_root = m.mem.alloc_frame().unwrap();
        m.cpus[1].cr3 = other_root;
        let err = m.probe(1, va, AccessKind::Read).unwrap_err();
        assert!(err.is_pf(crate::fault::PfReason::NotPresent));
    }

    #[test]
    fn dirty_bit_lands_in_pte_on_cached_read_then_write() {
        let mut m = machine();
        map(&mut m, 0xffff_8000_0000_0000u64, PteFlags::kernel_rw(0));
        let va = VirtAddr(0xffff_8000_0000_0000);
        let root = m.cpus[0].cr3;
        m.probe(0, va, AccessKind::Read).unwrap();
        m.probe(0, va, AccessKind::Read).unwrap();
        assert_eq!(m.stats.tlb_hits, 1);
        let leaf = crate::paging::lookup_raw(&m.mem, root, va).unwrap().unwrap();
        assert!(!leaf.dirty(), "reads never set D");
        // The write hits a clean entry: it must re-walk (a miss) so the
        // dirty bit is set in the in-memory PTE, then later writes hit.
        m.probe(0, va, AccessKind::Write).unwrap();
        assert_eq!(m.stats.tlb_misses, 2, "dirty promotion re-walks");
        let leaf = crate::paging::lookup_raw(&m.mem, root, va).unwrap().unwrap();
        assert!(leaf.dirty(), "dirty bit landed in the PTE");
        let hits = m.stats.tlb_hits;
        m.probe(0, va, AccessKind::Write).unwrap();
        assert_eq!(m.stats.tlb_hits, hits + 1);
    }

    #[test]
    fn stale_read_through_until_invalidation() {
        // The hazard the monitor's shootdown obligation closes: a PTE
        // store in DRAM is invisible to a cached translation until an
        // explicit invalidation.
        let mut m = machine();
        map(&mut m, 0xffff_8000_0000_0000u64, PteFlags::kernel_rw(0));
        let va = VirtAddr(0xffff_8000_0000_0000);
        let root = m.cpus[0].cr3;
        m.probe(0, va, AccessKind::Read).unwrap();
        let slot = crate::paging::leaf_slot(&m.mem, root, va).unwrap().unwrap();
        m.mem.write_u64(slot, 0).unwrap(); // raw unmap, no invalidation
        assert!(m.probe(0, va, AccessKind::Read).is_ok(), "stale hit");
        m.invalidate_page(0, va).unwrap();
        let err = m.probe(0, va, AccessKind::Read).unwrap_err();
        assert!(err.is_pf(crate::fault::PfReason::NotPresent));
    }
}
