//! The calibrated cycle model.
//!
//! Every simulated primitive charges a micro-cost; composite costs — an EMC
//! round trip, a syscall, a TDCALL — *emerge* from the micro-costs of their
//! constituent operations rather than being transcribed from the paper.
//! Constants below are calibrated so that the emergent composites land in
//! the neighbourhoods the paper measured on Emerald Rapids (Tables 3 & 4);
//! the reproduction's claim is about *ratios*, not absolute cycles.

/// Micro-cost table, in simulated CPU cycles.
///
/// Calibration notes (paper reference values in parentheses):
/// * empty `syscall` round trip = 2·`swapgs` + `syscall_entry` +
///   `sysret_exit` + dispatch ≈ **684** (684)
/// * empty EMC round trip = entry gate (endbr + 3 spills + `rdmsr` +
///   `wrmsr` PKRS + stack switch + 3 fills) + exit gate (mirror) + call/ret
///   ≈ **1224** (1224)
/// * `tdcall` round trip = 2·(vm transition + TDX-module context
///   protect/scrub) ≈ **5276** (5276)
/// * `vmcall` in a non-TD guest = 2·vm transition + VMM dispatch ≈
///   **4031** (4031)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Costs {
    /// One data memory access that hits the simulated cache model.
    pub mem_op: u64,
    /// One page-table level walked by the MMU (TLB miss path).
    pub walk_level: u64,
    /// TLB hit translation.
    pub tlb_hit: u64,
    /// `invlpg` single-page invalidation.
    pub invlpg: u64,
    /// Register-to-register ALU work unit.
    pub alu: u64,
    /// `rdmsr`.
    pub rdmsr: u64,
    /// `wrmsr` (serializing).
    pub wrmsr: u64,
    /// `mov %cr` read or write (serializing).
    pub mov_cr: u64,
    /// `lidt`.
    pub lidt: u64,
    /// `stac` / `clac`.
    pub stac: u64,
    /// Fixed per-side EMC gate overhead beyond the counted register and
    /// stack operations (pipeline effects of the serializing PKRS writes).
    pub gate_overhead: u64,
    /// Full context protection at a sandbox exit (xsave-class save or
    /// restore of GPR+vector state plus masking, §6.2), charged each way.
    pub ctx_protect: u64,
    /// `swapgs`.
    pub swapgs: u64,
    /// `syscall` user→kernel hardware transition.
    pub syscall_entry: u64,
    /// `sysret` kernel→user hardware transition.
    pub sysret_exit: u64,
    /// Kernel syscall dispatch (entry asm, table lookup).
    pub syscall_dispatch: u64,
    /// Hardware interrupt delivery (IDT fetch, context push).
    pub interrupt_delivery: u64,
    /// `iret`.
    pub iret: u64,
    /// Near `call`/`ret` pair.
    pub call_ret: u64,
    /// `endbr64` check at an indirect-branch target.
    pub endbr_check: u64,
    /// Shadow-stack push+verify on call/ret.
    pub sstk_op: u64,
    /// Stack-pointer switch to a secure per-core stack.
    pub stack_switch: u64,
    /// One guest↔host VM transition (non-TD `vmcall` half).
    pub vm_transition: u64,
    /// VMM-side dispatch of a hypercall.
    pub vmm_dispatch: u64,
    /// TDX-module work per transition: save/scrub or restore guest context.
    pub tdx_context_protect: u64,
    /// TDX-module leaf dispatch.
    pub tdx_dispatch: u64,
    /// TDREPORT generation: measurement hashing + HMAC integrity binding.
    pub tdreport_generate: u64,
    /// Native PTE store (`native_set_pte`): one cached memory write plus
    /// ordering.
    pub pte_store: u64,
    /// Page-fault hardware delivery + kernel fixup excluding PTE install.
    pub pf_fixed: u64,
    /// Device DMA per 4 KiB page into shared memory.
    pub dma_page: u64,
    /// One unit of workload computation (used by workload kernels to charge
    /// for real arithmetic they perform).
    pub compute_unit: u64,
}

impl Default for Costs {
    fn default() -> Costs {
        Costs {
            mem_op: 2,
            walk_level: 18,
            tlb_hit: 1,
            invlpg: 140,
            alu: 1,
            rdmsr: 80,
            wrmsr: 364,
            mov_cr: 290,
            lidt: 258,
            stac: 30,
            gate_overhead: 96,
            ctx_protect: 3_600,
            swapgs: 30,
            syscall_entry: 160,
            sysret_exit: 140,
            syscall_dispatch: 250,
            interrupt_delivery: 320,
            iret: 260,
            call_ret: 6,
            endbr_check: 1,
            sstk_op: 4,
            stack_switch: 14,
            vm_transition: 1450,
            vmm_dispatch: 1100,
            tdx_context_protect: 620,
            tdx_dispatch: 280,
            tdreport_generate: 121_500,
            pte_store: 23,
            pf_fixed: 900,
            dma_page: 700,
            compute_unit: 1,
        }
    }
}

/// Accumulates simulated cycles plus named event counters.
///
/// The counter is the time base for every table and figure: workload
/// "seconds" are defined as `cycles / CLOCK_HZ` with the paper machine's
/// 2.1 GHz clock.
///
/// Every charge also lands in exactly one [`Bucket`] of the attached
/// [`Attribution`] — either the counter's *current* bucket (set by the
/// layer whose code is executing: monitor gates, the kernel, tdcall) or
/// an explicit one via [`CycleCounter::charge_to`] — so the per-bucket
/// totals sum to [`CycleCounter::total`] by construction.
#[derive(Debug, Default, Clone)]
pub struct CycleCounter {
    cycles: u64,
    attr: Attribution,
    current: Bucket,
}

pub use erebor_trace::{Attribution, Bucket};

/// Simulated clock frequency (the paper's Xeon 8570 runs at 2.1 GHz).
pub const CLOCK_HZ: u64 = 2_100_000_000;

impl CycleCounter {
    /// A fresh counter at cycle zero, attributing to [`Bucket::Other`].
    #[must_use]
    pub fn new() -> CycleCounter {
        CycleCounter::default()
    }

    /// Charge `n` cycles to the current bucket. Saturates at `u64::MAX` —
    /// a wrapped counter would silently corrupt every Table 3 / Fig 8
    /// datum derived from it.
    pub fn charge(&mut self, n: u64) {
        debug_assert!(
            self.cycles.checked_add(n).is_some(),
            "cycle counter overflow: {} + {n}",
            self.cycles
        );
        self.cycles = self.cycles.saturating_add(n);
        self.attr.charge(self.current, n);
    }

    /// Charge `n` cycles to an explicit bucket, regardless of the
    /// current one (translation costs go to [`Bucket::PageWalk`] no
    /// matter whose code triggered the walk).
    pub fn charge_to(&mut self, bucket: Bucket, n: u64) {
        debug_assert!(
            self.cycles.checked_add(n).is_some(),
            "cycle counter overflow: {} + {n}",
            self.cycles
        );
        self.cycles = self.cycles.saturating_add(n);
        self.attr.charge(bucket, n);
    }

    /// Switch the current bucket, returning the previous one. A layer
    /// that claims a bucket for a region scopes the switch with
    /// `Machine::charged_to`; only a context entry, which sets the bucket
    /// for all the code that follows it, calls this directly.
    pub fn set_bucket(&mut self, bucket: Bucket) -> Bucket {
        core::mem::replace(&mut self.current, bucket)
    }

    /// The bucket charges currently land in.
    #[must_use]
    pub fn bucket(&self) -> Bucket {
        self.current
    }

    /// Per-bucket totals charged so far.
    #[must_use]
    pub fn attribution(&self) -> Attribution {
        self.attr
    }

    /// Total cycles charged so far.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cycles
    }

    /// Simulated elapsed seconds at [`CLOCK_HZ`].
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / CLOCK_HZ as f64
    }

    /// Decompose into raw migration parts: total cycles, per-bucket
    /// totals in [`Bucket::ALL`] order, and the current bucket's index.
    #[must_use]
    pub fn to_parts(&self) -> (u64, [u64; Bucket::ALL.len()], usize) {
        let mut totals = [0u64; Bucket::ALL.len()];
        for (slot, b) in totals.iter_mut().zip(Bucket::ALL) {
            *slot = self.attr.get(b);
        }
        let current = Bucket::ALL
            .iter()
            .position(|b| *b == self.current)
            .unwrap_or(0);
        (self.cycles, totals, current)
    }

    /// Rebuild from [`CycleCounter::to_parts`] output. Returns `None` if
    /// the current-bucket index is out of range or the per-bucket totals
    /// do not sum to the cycle total (the counter's core invariant).
    #[must_use]
    pub fn from_parts(
        cycles: u64,
        totals: [u64; Bucket::ALL.len()],
        current: usize,
    ) -> Option<CycleCounter> {
        let bucket = *Bucket::ALL.get(current)?;
        let sum = totals
            .iter()
            .try_fold(0u64, |acc, t| acc.checked_add(*t))?;
        if sum != cycles {
            return None;
        }
        let mut attr = Attribution::default();
        for (b, t) in Bucket::ALL.into_iter().zip(totals) {
            attr.charge(b, t);
        }
        Some(CycleCounter {
            cycles,
            attr,
            current: bucket,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_syscall_composite_near_paper() {
        let c = Costs::default();
        let syscall = c.syscall_entry + c.sysret_exit + 2 * c.swapgs + c.syscall_dispatch;
        // Paper Table 3: 684 cycles for an empty syscall round trip.
        assert!(
            (600..=800).contains(&syscall),
            "syscall composite {syscall}"
        );
    }

    #[test]
    fn default_tdcall_composite_near_paper() {
        let c = Costs::default();
        let tdcall =
            2 * (c.vm_transition + c.tdx_context_protect + c.tdx_dispatch) + c.vmm_dispatch / 2;
        // Paper Table 3: 5276 cycles for a tdcall round trip.
        assert!((4500..=6000).contains(&tdcall), "tdcall composite {tdcall}");
    }

    #[test]
    fn counter_accumulates() {
        let mut cc = CycleCounter::new();
        cc.charge(100);
        cc.charge(42);
        assert_eq!(cc.total(), 142);
        assert!(cc.seconds() > 0.0);
    }
}
