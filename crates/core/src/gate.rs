//! EMC entry/exit gates and the interrupt gate (§5.3, Fig. 5).
//!
//! The entry gate is the only *software-callable* `endbr64` landing pad in
//! the monitor (the syscall and interrupt interposers are reached solely by
//! hardware transfers), so CET-IBT forces every indirect transfer into the
//! monitor through it. The
//! gate grants the core read-write access to monitor memory by writing
//! `IA32_PKRS`, switches to a protected per-core stack, and records the
//! in-EMC state that the interrupt gate consults: if the OS (or the host)
//! preempts an EMC, the `#INT` gate saves and *revokes* the elevated PKRS
//! before the kernel's handler runs, and restores it on return.

use crate::policy;
use erebor_hw::cpu::Machine;
use erebor_hw::fault::Fault;
use erebor_hw::inject::InjectionPoint;
use erebor_hw::regs::Msr;
use erebor_hw::VirtAddr;
use erebor_trace::{Bucket, TraceEvent};
use erebor_wire::{Wire, WireError, WireReader, WireWriter};

/// Per-core gate state plus the gate addresses inside the monitor image.
#[derive(Debug)]
pub struct EmcGate {
    /// The `endbr64`-tagged entry address (the only legal *software*
    /// indirect target in the monitor).
    pub entry: VirtAddr,
    /// Per-core secure stack tops.
    pub secure_stacks: Vec<VirtAddr>,
    in_emc: Vec<bool>,
    /// `(value, depth)` of the PKRS saved by the outermost preempting
    /// interrupt — `depth` is the `int_depth` at which the save happened,
    /// and only the matching return restores it.
    saved_pkrs: Vec<Option<(u64, u32)>>,
    int_depth: Vec<u32>,
}

/// One core's gate ledger on the wire: in-EMC flag, saved PKRS slot,
/// interrupt depth.
type CoreLedger = (bool, Option<(u64, u32)>, u32);

/// Migration: the full gate ledger — per-core secure stacks, then each
/// core's in-EMC flag, saved-PKRS slot with its nesting depth, and
/// interrupt depth. This *is* architectural state: a core migrated
/// mid-EMC must resume with the same grant/revoke bookkeeping or the
/// first interrupt return on the destination would restore the wrong
/// PKRS.
impl Wire for EmcGate {
    fn encode(&self, w: &mut WireWriter) {
        w.put(&self.entry);
        w.put(&self.secure_stacks);
        for cpu in 0..self.secure_stacks.len() {
            w.put(&(self.in_emc[cpu], self.saved_pkrs[cpu], self.int_depth[cpu]));
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let entry = r.get()?;
        let secure_stacks: Vec<VirtAddr> = r.get()?;
        let cores: Vec<CoreLedger> = r.items(secure_stacks.len())?;
        Ok(EmcGate {
            entry,
            secure_stacks,
            in_emc: cores.iter().map(|c| c.0).collect(),
            saved_pkrs: cores.iter().map(|c| c.1).collect(),
            int_depth: cores.iter().map(|c| c.2).collect(),
        })
    }
}

impl EmcGate {
    /// Create gate state for `cores` logical cores.
    #[must_use]
    pub fn new(entry: VirtAddr, secure_stacks: Vec<VirtAddr>) -> EmcGate {
        let cores = secure_stacks.len();
        EmcGate {
            entry,
            secure_stacks,
            in_emc: vec![false; cores],
            saved_pkrs: vec![None; cores],
            int_depth: vec![0; cores],
        }
    }

    /// Whether core `cpu` is currently inside an EMC.
    #[must_use]
    pub fn in_emc(&self, cpu: usize) -> bool {
        self.in_emc[cpu]
    }

    /// The PKRS value stashed by a preempting interrupt, if any
    /// (invariant checkers consult this to tell a live EMC from a
    /// preempted one).
    #[must_use]
    pub fn saved_pkrs(&self, cpu: usize) -> Option<u64> {
        self.saved_pkrs[cpu].map(|(v, _)| v)
    }

    /// Interrupt-nesting depth the `#INT` gate has tracked for `cpu`.
    #[must_use]
    pub fn int_depth(&self, cpu: usize) -> u32 {
        self.int_depth[cpu]
    }

    /// The entry gate (Fig. 5a): indirect branch (IBT-checked), scratch
    /// spills, PKRS grant, stack switch.
    ///
    /// # Errors
    /// `#CP` if the caller aims anywhere but the landing pad; fetch faults;
    /// `#GP`/`#UD` if somehow reached from an illegitimate context.
    pub fn enter(&mut self, machine: &mut Machine, cpu: usize) -> Result<(), Fault> {
        machine.charged_to(Bucket::Monitor, |machine| {
            let prev_domain = machine.cpus[cpu].domain;
            let prev_rip = machine.cpus[cpu].ctx.rip;
            // ① Indirect call to the gate: hardware IBT check; on success the
            // core's code domain becomes Monitor.
            machine.indirect_branch(cpu, self.entry)?;
            let c = &machine.costs;
            // Scratch register spills + fills (3 each way), stack switch, and
            // the serializing-write pipeline overhead.
            machine
                .cycles
                .charge(6 * c.mem_op + c.stack_switch + 2 * c.alu + c.gate_overhead);
            // Arm the in-EMC flag *before* the PKRS grant: a preemption
            // landing between these two steps then goes through the `#INT`
            // gate's save/revoke path like any other mid-EMC interrupt.
            self.in_emc[cpu] = true;
            if machine.chaos_preempt(InjectionPoint::GateEnter { cpu }) {
                self.injected_preemption(machine, cpu);
            }
            // Grant monitor memory access for this core only. A fault on
            // either MSR op unwinds the whole entry: the caller must observe
            // the same state as if the gate had never been taken.
            let granted = machine
                .rdmsr(cpu, Msr::Pkrs)
                .and_then(|_old| machine.wrmsr(cpu, Msr::Pkrs, policy::monitor_mode_pkrs().0));
            if let Err(f) = granted {
                self.in_emc[cpu] = false;
                machine.cpus[cpu].domain = prev_domain;
                machine.cpus[cpu].ctx.rip = prev_rip;
                return Err(f);
            }
            Ok(())
        })?;
        machine.trace_event(cpu, TraceEvent::GateEnter);
        Ok(())
    }

    /// Model an interrupt delivered inside a gate window: the `#INT` gate
    /// runs, the injector observes what the kernel handler would see, and
    /// the handler returns.
    fn injected_preemption(&mut self, machine: &mut Machine, cpu: usize) {
        let entered = self.interrupt_entry(machine, cpu).is_ok();
        machine.chaos_observe(cpu);
        if entered && self.interrupt_return(machine, cpu).is_err() {
            // The return's restoring `wrmsr` faulted. The real gate's
            // recovery is straight-line verified monitor code, so the
            // rollback itself is not injectable: put the saved value back
            // and unwind the depth the failed return left bumped.
            if let Some((saved, at_depth)) = self.saved_pkrs[cpu] {
                if at_depth == self.int_depth[cpu] {
                    machine.restore_msr(cpu, Msr::Pkrs, saved);
                    self.saved_pkrs[cpu] = None;
                }
            }
            self.int_depth[cpu] = self.int_depth[cpu].saturating_sub(1);
        }
    }

    /// The exit gate (Fig. 5b): revoke monitor access, restore scratch,
    /// return to the kernel at `return_to`.
    ///
    /// # Errors
    /// Propagates register/branch faults.
    pub fn exit(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        return_to: VirtAddr,
    ) -> Result<(), Fault> {
        machine.charged_to(Bucket::Monitor, |machine| {
            let c = &machine.costs;
            machine
                .cycles
                .charge(6 * c.mem_op + c.stack_switch + 2 * c.alu + c.call_ret + c.gate_overhead);
            if machine.chaos_preempt(InjectionPoint::GateExit { cpu }) {
                self.injected_preemption(machine, cpu);
            }
            // The exit gate reads then rewrites PKRS (Fig. 5b lines 9-12).
            // Faults here leave all state untouched — still inside the EMC.
            let cur = machine.rdmsr(cpu, Msr::Pkrs)?;
            machine.wrmsr(cpu, Msr::Pkrs, policy::normal_mode_pkrs().0)?;
            self.in_emc[cpu] = false;
            if let Err(f) = machine.direct_branch(cpu, return_to) {
                // The return never left the monitor: put the EMC state back so
                // `in_emc`/PKRS/domain agree that we are still inside.
                self.in_emc[cpu] = true;
                machine.restore_msr(cpu, Msr::Pkrs, cur);
                return Err(f);
            }
            Ok(())
        })?;
        machine.trace_event(cpu, TraceEvent::GateExit);
        Ok(())
    }

    /// The `#INT` gate, interrupt-entry half (Fig. 5c-right ⓐ): if this
    /// core is inside an EMC, save the elevated PKRS onto the secure stack
    /// and revoke it before the OS handler runs.
    ///
    /// Must be invoked by the platform's interrupt interposer *before*
    /// transferring to any kernel handler. Idempotent outside EMCs.
    ///
    /// # Errors
    /// Propagates MSR faults.
    pub fn interrupt_entry(&mut self, machine: &mut Machine, cpu: usize) -> Result<(), Fault> {
        machine.charged_to(Bucket::Monitor, |machine| {
            // Register save/restore cost of the gate.
            machine.cycles.charge(16 * machine.costs.mem_op);
            self.int_depth[cpu] = self.int_depth[cpu].saturating_add(1);
            if self.in_emc[cpu] && self.saved_pkrs[cpu].is_none() {
                let revoked = machine.rdmsr(cpu, Msr::Pkrs).and_then(|cur| {
                    machine
                        .wrmsr(cpu, Msr::Pkrs, policy::normal_mode_pkrs().0)
                        .map(|()| cur)
                });
                match revoked {
                    Ok(cur) => self.saved_pkrs[cpu] = Some((cur, self.int_depth[cpu])),
                    Err(f) => {
                        // PKRS is untouched on either fault; undo the depth
                        // bump so the entry is a no-op, and refuse delivery.
                        self.int_depth[cpu] -= 1;
                        return Err(f);
                    }
                }
            }
            Ok(())
        })
    }

    /// The `#INT` gate, interrupt-return half (Fig. 5c-right ⓑ): restore
    /// the saved PKRS when returning into a preempted EMC — but only at
    /// the return matching the save. A nested interrupt returning first
    /// must leave the revoked PKRS in place, or the *outer* kernel
    /// handler would run with monitor memory access.
    ///
    /// # Errors
    /// Propagates MSR faults (state untouched on error).
    pub fn interrupt_return(&mut self, machine: &mut Machine, cpu: usize) -> Result<(), Fault> {
        machine.charged_to(Bucket::Monitor, |machine| {
            machine.cycles.charge(16 * machine.costs.mem_op);
            if let Some((saved, at_depth)) = self.saved_pkrs[cpu] {
                if at_depth == self.int_depth[cpu] {
                    machine.wrmsr(cpu, Msr::Pkrs, saved)?;
                    self.saved_pkrs[cpu] = None;
                }
            }
            self.int_depth[cpu] = self.int_depth[cpu].saturating_sub(1);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erebor_hw::cpu::Domain;
    use erebor_hw::layout;
    use erebor_hw::paging::{map_raw, Pte, PteFlags};
    use erebor_hw::regs::{s_cet, Cr0, Cr4};

    fn setup() -> (Machine, EmcGate) {
        let mut m = Machine::new(2, 32 * 1024 * 1024);
        let root = m.mem.alloc_frame().unwrap();
        let mon_code = m.mem.alloc_frame().unwrap();
        map_raw(
            &mut m.mem,
            root,
            layout::MONITOR_BASE,
            Pte::encode(mon_code, PteFlags::kernel_rx(crate::policy::PK_MONITOR)),
            erebor_hw::paging::intermediate_for(PteFlags::kernel_rx(0)),
        )
        .unwrap();
        let kern_code = m.mem.alloc_frame().unwrap();
        map_raw(
            &mut m.mem,
            root,
            layout::KERNEL_BASE,
            Pte::encode(kern_code, PteFlags::kernel_rx(crate::policy::PK_KTEXT)),
            erebor_hw::paging::intermediate_for(PteFlags::kernel_rx(0)),
        )
        .unwrap();
        for c in &mut m.cpus {
            c.cr3 = root;
            c.cr0 = Cr0(Cr0::WP | Cr0::PG);
            c.cr4 = Cr4(Cr4::SMEP | Cr4::SMAP | Cr4::PKS | Cr4::CET);
            c.domain = Domain::Kernel;
        }
        m.allow_sensitive(Domain::Monitor);
        // Enable IBT (normally done by boot through monitor wrmsr).
        m.cpus[0].domain = Domain::Monitor;
        m.wrmsr(0, Msr::SCet, s_cet::ENDBR_EN).unwrap();
        m.wrmsr(0, Msr::Pkrs, crate::policy::normal_mode_pkrs().0)
            .unwrap();
        m.cpus[0].domain = Domain::Kernel;
        let entry = layout::MONITOR_BASE;
        m.endbr.add(entry);
        let gate = EmcGate::new(entry, vec![VirtAddr(layout::MONITOR_BASE.0 + 0x10000); 2]);
        (m, gate)
    }

    #[test]
    fn enter_exit_roundtrip_costs_near_paper() {
        let (mut m, mut gate) = setup();
        let before = m.cycles.total();
        gate.enter(&mut m, 0).unwrap();
        assert!(gate.in_emc(0));
        assert_eq!(m.cpus[0].pkrs(), crate::policy::monitor_mode_pkrs());
        gate.exit(&mut m, 0, layout::KERNEL_BASE).unwrap();
        assert!(!gate.in_emc(0));
        assert_eq!(m.cpus[0].pkrs(), crate::policy::normal_mode_pkrs());
        let cost = m.cycles.total() - before;
        // Paper Table 3: empty EMC ≈ 1224 cycles.
        assert!((900..=1600).contains(&cost), "EMC roundtrip cost {cost}");
    }

    #[test]
    fn jump_past_entry_pad_is_cp_fault() {
        let (mut m, gate) = setup();
        let err = m.indirect_branch(0, gate.entry.add(0x40)).unwrap_err();
        assert!(matches!(err, Fault::ControlProtection(_)));
    }

    #[test]
    fn interrupt_during_emc_revokes_monitor_access() {
        let (mut m, mut gate) = setup();
        gate.enter(&mut m, 0).unwrap();
        gate.interrupt_entry(&mut m, 0).unwrap();
        // The kernel handler now runs with the normal-mode PKRS: monitor
        // memory is inaccessible.
        assert_eq!(m.cpus[0].pkrs(), crate::policy::normal_mode_pkrs());
        gate.interrupt_return(&mut m, 0).unwrap();
        assert_eq!(m.cpus[0].pkrs(), crate::policy::monitor_mode_pkrs());
        gate.exit(&mut m, 0, layout::KERNEL_BASE).unwrap();
    }

    #[test]
    fn interrupt_outside_emc_is_inert() {
        let (mut m, mut gate) = setup();
        gate.interrupt_entry(&mut m, 0).unwrap();
        assert_eq!(m.cpus[0].pkrs(), crate::policy::normal_mode_pkrs());
        gate.interrupt_return(&mut m, 0).unwrap();
        assert_eq!(m.cpus[0].pkrs(), crate::policy::normal_mode_pkrs());
    }

    #[test]
    fn nested_interrupts_keep_first_saved_pkrs() {
        let (mut m, mut gate) = setup();
        gate.enter(&mut m, 0).unwrap();
        gate.interrupt_entry(&mut m, 0).unwrap();
        gate.interrupt_entry(&mut m, 0).unwrap(); // nested
        // The nested handler returns first: the *outer* kernel handler is
        // still running, so monitor access must stay revoked.
        gate.interrupt_return(&mut m, 0).unwrap();
        assert_eq!(m.cpus[0].pkrs(), crate::policy::normal_mode_pkrs());
        assert_eq!(gate.saved_pkrs(0), Some(crate::policy::monitor_mode_pkrs().0));
        // Only the outermost return restores the saved monitor PKRS.
        gate.interrupt_return(&mut m, 0).unwrap();
        assert_eq!(m.cpus[0].pkrs(), crate::policy::monitor_mode_pkrs());
        assert_eq!(gate.int_depth(0), 0);
        gate.exit(&mut m, 0, layout::KERNEL_BASE).unwrap();
    }

    #[test]
    fn emc_inside_interrupt_handler_restores_at_matching_depth() {
        // An EMC can itself start inside an interrupt handler (the kernel
        // handler calls into the monitor). A nested preemption then saves
        // at depth 2, and must restore when *that* interrupt returns, not
        // when the stack unwinds to depth 0.
        let (mut m, mut gate) = setup();
        gate.interrupt_entry(&mut m, 0).unwrap(); // outer, outside EMC
        gate.enter(&mut m, 0).unwrap();
        gate.interrupt_entry(&mut m, 0).unwrap(); // nested, mid-EMC
        assert_eq!(m.cpus[0].pkrs(), crate::policy::normal_mode_pkrs());
        gate.interrupt_return(&mut m, 0).unwrap(); // back into the EMC
        assert_eq!(m.cpus[0].pkrs(), crate::policy::monitor_mode_pkrs());
        gate.exit(&mut m, 0, layout::KERNEL_BASE).unwrap();
        gate.interrupt_return(&mut m, 0).unwrap(); // outer handler done
        assert_eq!(gate.int_depth(0), 0);
        assert_eq!(m.cpus[0].pkrs(), crate::policy::normal_mode_pkrs());
    }

    /// One-shot injector faulting the next operation at a chosen point.
    struct Bomb {
        armed: bool,
        wrmsr: bool,
        branch: bool,
    }

    impl erebor_hw::inject::Injector for Bomb {
        fn inject_fault(&mut self, p: InjectionPoint) -> Option<Fault> {
            let hit = match p {
                InjectionPoint::Wrmsr { .. } => self.wrmsr,
                InjectionPoint::DirectBranch { .. } => self.branch,
                _ => false,
            };
            if self.armed && hit {
                self.armed = false;
                return Some(Fault::GeneralProtection("injected fault"));
            }
            None
        }
    }

    #[test]
    fn faulting_pkrs_grant_rolls_back_enter() {
        let (mut m, mut gate) = setup();
        m.set_injector(erebor_hw::inject::handle(Bomb {
            armed: true,
            wrmsr: true,
            branch: false,
        }));
        let err = gate.enter(&mut m, 0).unwrap_err();
        assert!(matches!(err, Fault::GeneralProtection(_)));
        // Fully unwound: the core is back where the caller left it, not
        // stranded in the Monitor domain with `in_emc == false`.
        assert!(!gate.in_emc(0));
        assert_eq!(m.cpus[0].domain, Domain::Kernel);
        assert_eq!(m.cpus[0].pkrs(), crate::policy::normal_mode_pkrs());
        // The bomb is spent: a retry succeeds.
        gate.enter(&mut m, 0).unwrap();
        assert!(gate.in_emc(0));
        gate.exit(&mut m, 0, layout::KERNEL_BASE).unwrap();
    }

    #[test]
    fn faulting_return_branch_restores_emc_state() {
        let (mut m, mut gate) = setup();
        gate.enter(&mut m, 0).unwrap();
        m.set_injector(erebor_hw::inject::handle(Bomb {
            armed: true,
            wrmsr: false,
            branch: true,
        }));
        let err = gate.exit(&mut m, 0, layout::KERNEL_BASE).unwrap_err();
        assert!(matches!(err, Fault::GeneralProtection(_)));
        // Control never left the monitor, and the gate state says so.
        assert!(gate.in_emc(0));
        assert_eq!(m.cpus[0].domain, Domain::Monitor);
        assert_eq!(m.cpus[0].pkrs(), crate::policy::monitor_mode_pkrs());
        // The retry completes the exit.
        gate.exit(&mut m, 0, layout::KERNEL_BASE).unwrap();
        assert!(!gate.in_emc(0));
        assert_eq!(m.cpus[0].pkrs(), crate::policy::normal_mode_pkrs());
    }

    #[test]
    fn faulting_revoke_unwinds_interrupt_entry() {
        let (mut m, mut gate) = setup();
        gate.enter(&mut m, 0).unwrap();
        m.set_injector(erebor_hw::inject::handle(Bomb {
            armed: true,
            wrmsr: true,
            branch: false,
        }));
        let err = gate.interrupt_entry(&mut m, 0).unwrap_err();
        assert!(matches!(err, Fault::GeneralProtection(_)));
        // No half-delivered interrupt: nothing saved, depth unchanged,
        // PKRS still the EMC's.
        assert_eq!(gate.saved_pkrs(0), None);
        assert_eq!(gate.int_depth(0), 0);
        assert_eq!(m.cpus[0].pkrs(), crate::policy::monitor_mode_pkrs());
        gate.interrupt_entry(&mut m, 0).unwrap();
        gate.interrupt_return(&mut m, 0).unwrap();
        gate.exit(&mut m, 0, layout::KERNEL_BASE).unwrap();
    }

    #[test]
    fn per_core_emc_state() {
        let (mut m, mut gate) = setup();
        gate.enter(&mut m, 0).unwrap();
        assert!(gate.in_emc(0));
        assert!(!gate.in_emc(1));
        assert_eq!(m.cpus[1].msr(Msr::Pkrs), 0, "core 1 PKRS untouched");
        gate.exit(&mut m, 0, layout::KERNEL_BASE).unwrap();
    }
}
