//! The adversarial scenario driver.
//!
//! A [`ChaosWorld`] is a small but complete machine — monitor and kernel
//! text mapped W⊕X under protection keys, an IDT whose vectors land on
//! the monitor's `#INT` interposer, per-core shadow stacks, a TDX module
//! with one device frame — across 2–4 cores. [`ChaosWorld::step`] decodes
//! one op byte into a gate/interrupt/TLB/tdcall/allocator action and
//! executes it, tolerating every injected fault the way the platform
//! does: errors roll back, they never panic. The caller audits the world
//! ([`ChaosWorld::audit`]) between steps.
//!
//! Everything the driver itself verifies (gate transactionality, the
//! gate-vs-hardware interrupt-depth pairing) is reported as a
//! [`Violation`] so it lands in the same replayable failure report as the
//! auditor's findings.

use crate::Violation;
use erebor_analyze::{AuditReport, MachineView};
use erebor_core::gate::EmcGate;
use erebor_core::policy;
use erebor_hw::cpu::{Domain, Machine};
use erebor_hw::fault::AccessKind;
use erebor_hw::idt::{vector, Idtr};
use erebor_hw::layout;
use erebor_hw::paging::{intermediate_for, leaf_slot, map_raw, Pte, PteFlags};
use erebor_hw::phys::Frame;
use erebor_hw::regs::{s_cet, Cr0, Cr4, GprContext, Msr};
use erebor_hw::VirtAddr;
use erebor_tdx::tdcall::{tdcall, TdcallLeaf, TdxModule};

/// Where the `#INT` interposer lives (monitor text, not an IBT pad:
/// interrupt delivery is not an indirect branch).
const INTERPOSER: VirtAddr = VirtAddr(layout::MONITOR_BASE.0 + 0x80);
/// The kernel's timer handler body.
const KERNEL_HANDLER: VirtAddr = VirtAddr(layout::KERNEL_BASE.0 + 0x100);
/// The in-memory IDT page.
const IDT_BASE: VirtAddr = VirtAddr(layout::KERNEL_BASE.0 + 0x10_0000);
/// First of the remappable kernel data pages.
const DATA_BASE: VirtAddr = VirtAddr(layout::KERNEL_BASE.0 + 0x20_0000);
/// How many remappable data pages the TLB ops cycle through.
const DATA_PAGES: usize = 8;
/// Cap on frames the allocator op holds live at once.
const ALLOC_RING: usize = 8;

/// A kernel data page with two backing frames the remap op toggles
/// between (each toggle makes every cached translation stale until the
/// accompanying shootdown lands).
#[derive(Debug)]
struct DataPage {
    va: VirtAddr,
    frames: [Frame; 2],
    cur: usize,
}

/// The world under test.
#[derive(Debug)]
pub struct ChaosWorld {
    /// The machine (install the injector on this).
    pub machine: Machine,
    /// The EMC gate under test.
    pub gate: EmcGate,
    /// TDX module backing the tdcall ops.
    pub module: TdxModule,
    /// The single page-table root every core runs on.
    pub root: Frame,
    device: Frame,
    data: Vec<DataPage>,
    saved: Vec<Vec<GprContext>>,
    emc_entered_depth: Vec<Option<u32>>,
    allocated: Vec<Frame>,
    cores: usize,
}

impl ChaosWorld {
    /// Build a booted world with `cores` cores (clamped to 2–4).
    ///
    /// # Panics
    /// On allocation failure during setup (the setup path runs before any
    /// injector is installed, so this is a genuine out-of-memory).
    #[must_use]
    pub fn new(cores: usize) -> ChaosWorld {
        let cores = cores.clamp(2, 4);
        let mut m = Machine::new(cores, 32 * 1024 * 1024);
        let root = m.mem.alloc_frame().unwrap();

        let mon_code = m.mem.alloc_frame().unwrap();
        map_raw(
            &mut m.mem,
            root,
            layout::MONITOR_BASE,
            Pte::encode(mon_code, PteFlags::kernel_rx(policy::PK_MONITOR)),
            intermediate_for(PteFlags::kernel_rx(0)),
        )
        .unwrap();
        let kern_code = m.mem.alloc_frame().unwrap();
        map_raw(
            &mut m.mem,
            root,
            layout::KERNEL_BASE,
            Pte::encode(kern_code, PteFlags::kernel_rx(policy::PK_KTEXT)),
            intermediate_for(PteFlags::kernel_rx(0)),
        )
        .unwrap();
        let idt = m.mem.alloc_frame().unwrap();
        map_raw(
            &mut m.mem,
            root,
            IDT_BASE,
            Pte::encode(idt, PteFlags::kernel_ro(policy::PK_IDT)),
            intermediate_for(PteFlags::kernel_ro(0)),
        )
        .unwrap();

        let mut data = Vec::new();
        for i in 0..DATA_PAGES {
            let va = VirtAddr(DATA_BASE.0 + (i as u64) * 0x1000);
            let frames = [m.mem.alloc_frame().unwrap(), m.mem.alloc_frame().unwrap()];
            map_raw(
                &mut m.mem,
                root,
                va,
                Pte::encode(frames[0], PteFlags::kernel_rw(policy::PK_DEFAULT)),
                intermediate_for(PteFlags::kernel_rw(0)),
            )
            .unwrap();
            data.push(DataPage { va, frames, cur: 0 });
        }

        for c in &mut m.cpus {
            c.cr3 = root;
            c.cr0 = Cr0(Cr0::WP | Cr0::PG);
            c.cr4 = Cr4(Cr4::SMEP | Cr4::SMAP | Cr4::PKS | Cr4::CET);
            c.domain = Domain::Kernel;
            c.ctx.rip = layout::KERNEL_BASE.0;
        }
        m.allow_sensitive(Domain::Monitor);
        for cpu in 0..cores {
            // Boot each core through the monitor: CET on (IBT + shadow
            // stacks), normal-mode PKRS, IDT loaded.
            m.cpus[cpu].domain = Domain::Monitor;
            m.wrmsr(cpu, Msr::SCet, s_cet::ENDBR_EN | s_cet::SH_STK_EN)
                .unwrap();
            m.wrmsr(cpu, Msr::Pkrs, policy::normal_mode_pkrs().0).unwrap();
            m.lidt(cpu, IDT_BASE).unwrap();
            m.cpus[cpu].domain = Domain::Kernel;
        }
        let idtr = Idtr { base: IDT_BASE };
        for vec in [vector::TIMER, vector::DEVICE, vector::IPI] {
            erebor_hw::idt::write_entry_raw(&mut m.mem, root, idtr, vec, INTERPOSER).unwrap();
        }

        m.endbr.add(layout::MONITOR_BASE);
        let gate = EmcGate::new(
            layout::MONITOR_BASE,
            (0..cores)
                .map(|i| VirtAddr(layout::MONITOR_BASE.0 + 0x10000 + (i as u64) * 0x1000))
                .collect(),
        );

        let mut module = TdxModule::new([7u8; 32]);
        let device = m.mem.alloc_frame().unwrap();
        module.sept.accept_private(device);

        ChaosWorld {
            machine: m,
            gate,
            module,
            root,
            device,
            data,
            saved: vec![Vec::new(); cores],
            emc_entered_depth: vec![None; cores],
            allocated: Vec::new(),
            cores,
        }
    }

    /// Number of cores in this world.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Run the state auditor over the world: its root, gate and sEPT.
    /// There is no monitor, so only the hardware-level checks apply.
    #[must_use]
    pub fn audit(&self) -> AuditReport {
        erebor_analyze::audit::audit(&MachineView {
            machine: &self.machine,
            roots: core::slice::from_ref(&self.root),
            gate: Some(&self.gate),
            monitor: None,
            sept: Some(&self.module.sept),
        })
    }

    /// Execute one op byte. Injected faults are tolerated (rolled back or
    /// retried later); driver-level consistency failures come back as
    /// violations.
    ///
    /// # Errors
    /// A [`Violation`] when a gate call breaks its transactional contract
    /// or the driver's `iret` fails.
    pub fn step(&mut self, byte: u8) -> Result<(), Violation> {
        let op = byte % 7;
        let rest = usize::from(byte) / 7;
        let cpu = rest % self.cores;
        let sel = rest / self.cores;
        match op {
            0 => self.op_enter(cpu)?,
            1 => self.op_exit(cpu)?,
            2 => self.op_interrupt(cpu)?,
            3 => self.op_interrupt_return(cpu)?,
            4 => self.op_remap_shootdown(cpu, sel),
            5 => self.op_tdcall(cpu, sel),
            6 => self.op_alloc(),
            _ => unreachable!(),
        }
        Ok(())
    }

    fn op_enter(&mut self, cpu: usize) -> Result<(), Violation> {
        if self.gate.in_emc(cpu) {
            return Ok(()); // gates are per-core non-reentrant
        }
        let pre_domain = self.machine.cpus[cpu].domain;
        let pre_rip = self.machine.cpus[cpu].ctx.rip;
        let pre_pkrs = self.machine.cpus[cpu].msr(Msr::Pkrs);
        match self.gate.enter(&mut self.machine, cpu) {
            Ok(()) => {
                self.emc_entered_depth[cpu] = Some(self.gate.int_depth(cpu));
                Ok(())
            }
            Err(_) => {
                // Transactional contract: a failed entry leaves the core
                // exactly where the caller had it.
                let c = &self.machine.cpus[cpu];
                if self.gate.in_emc(cpu)
                    || c.domain != pre_domain
                    || c.ctx.rip != pre_rip
                    || c.msr(Msr::Pkrs) != pre_pkrs
                {
                    return Err(Violation {
                        invariant: "gate-transactional-enter",
                        detail: format!(
                            "cpu {cpu}: failed enter left in_emc={} domain={:?} pkrs={:#x} \
                             (was domain={pre_domain:?} pkrs={pre_pkrs:#x})",
                            self.gate.in_emc(cpu),
                            c.domain,
                            c.msr(Msr::Pkrs)
                        ),
                    });
                }
                Ok(())
            }
        }
    }

    fn op_exit(&mut self, cpu: usize) -> Result<(), Violation> {
        if !self.gate.in_emc(cpu) || self.gate.saved_pkrs(cpu).is_some() {
            return Ok(()); // nothing to exit, or preempted (handler owns the core)
        }
        match self.gate.exit(&mut self.machine, cpu, layout::KERNEL_BASE) {
            Ok(()) => {
                self.emc_entered_depth[cpu] = None;
                Ok(())
            }
            Err(_) => {
                // Transactional contract: a failed exit means the core
                // never left the EMC, and all three pieces of state must
                // still say so.
                let c = &self.machine.cpus[cpu];
                if !self.gate.in_emc(cpu)
                    || c.domain != Domain::Monitor
                    || c.pkrs() != policy::monitor_mode_pkrs()
                {
                    return Err(Violation {
                        invariant: "gate-transactional-exit",
                        detail: format!(
                            "cpu {cpu}: failed exit left in_emc={} domain={:?} pkrs={:#x}",
                            self.gate.in_emc(cpu),
                            c.domain,
                            c.msr(Msr::Pkrs)
                        ),
                    });
                }
                Ok(())
            }
        }
    }

    fn op_interrupt(&mut self, cpu: usize) -> Result<(), Violation> {
        let Ok((_handler, saved)) = self.machine.deliver_interrupt(cpu, vector::TIMER) else {
            return Ok(());
        };
        if self.gate.interrupt_entry(&mut self.machine, cpu).is_ok() {
            // Interposer hands off to the kernel's handler body. A fault
            // on this branch leaves the handler running in the interposer
            // — harmless, the return op picks it up from there.
            let _ = self.machine.direct_branch(cpu, KERNEL_HANDLER);
            self.saved[cpu].push(saved);
        } else {
            // The `#INT` gate refused (its revoke faulted): delivery is
            // aborted and the interrupted context resumes immediately.
            return match self.machine.iret(cpu, saved) {
                Ok(()) => Ok(()),
                Err(f) => Err(Violation {
                    invariant: "driver-iret",
                    detail: format!("cpu {cpu}: abort-delivery iret failed: {f:?}"),
                }),
            };
        }
        Ok(())
    }

    fn op_interrupt_return(&mut self, cpu: usize) -> Result<(), Violation> {
        // A handler may only return once any EMC it opened itself has been
        // exited; interrupts nested above the EMC's depth return freely.
        if self.gate.in_emc(cpu)
            && self.emc_entered_depth[cpu].is_some_and(|d| self.gate.int_depth(cpu) <= d)
        {
            return Ok(());
        }
        let Some(saved) = self.saved[cpu].pop() else {
            return Ok(());
        };
        // Back through the interposer for the return half of the gate.
        if self.machine.direct_branch(cpu, INTERPOSER).is_err()
            || self.gate.interrupt_return(&mut self.machine, cpu).is_err()
        {
            // Injected fault en route: the handler is still live; retry
            // the return on a later op.
            self.saved[cpu].push(saved);
            return Ok(());
        }
        match self.machine.iret(cpu, saved) {
            Ok(()) => Ok(()),
            Err(f) => Err(Violation {
                invariant: "driver-iret",
                detail: format!("cpu {cpu}: iret failed: {f:?}"),
            }),
        }
    }

    fn op_remap_shootdown(&mut self, cpu: usize, sel: usize) {
        let neighbor = (cpu + 1) % self.cores;
        let page = &mut self.data[sel % DATA_PAGES];
        let va = page.va;
        // Warm two cores' TLBs with the current translation.
        let _ = self.machine.probe(cpu, va, AccessKind::Read);
        let _ = self.machine.probe(neighbor, va, AccessKind::Read);
        // The kernel's PTE edit: retarget the page to its partner frame
        // (a raw direct-map store; coherence now depends on the shootdown).
        page.cur ^= 1;
        let next = page.frames[page.cur];
        if let Ok(Some(slot)) = leaf_slot(&self.machine.mem, self.root, va) {
            let _ = self.machine.mem.write_u64(
                slot,
                Pte::encode(next, PteFlags::kernel_rw(policy::PK_DEFAULT)).0,
            );
        }
        let _ = self.machine.tlb_shootdown(cpu, va);
    }

    fn op_tdcall(&mut self, cpu: usize, sel: usize) {
        if self.gate.in_emc(cpu) && self.gate.saved_pkrs(cpu).is_none() {
            // Monitor context: drive MapGPA conversions on the device
            // frame (every completion class — success, injected error
            // status, host contention — must be tolerated).
            let shared = self.module.sept.is_shared(self.device);
            let _ = tdcall(
                &mut self.module,
                &mut self.machine,
                cpu,
                TdcallLeaf::MapGpa {
                    frame: self.device,
                    shared: !shared,
                },
            );
        } else {
            // Kernel context: touch data pages instead (more TLB traffic).
            let va = self.data[sel % DATA_PAGES].va;
            let _ = self.machine.probe(cpu, va, AccessKind::Write);
        }
    }

    fn op_alloc(&mut self) {
        // Err means injected (or genuine) exhaustion: callers cope.
        if let Ok(f) = self.machine.mem.alloc_frame() {
            self.allocated.push(f);
            if self.allocated.len() > ALLOC_RING {
                let old = self.allocated.remove(0);
                let _ = self.machine.mem.free_frame(old);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_boots_clean() {
        let w = ChaosWorld::new(4);
        assert_eq!(w.cores(), 4);
        let report = w.audit();
        assert!(report.is_clean(), "{}", report.json());
    }

    #[test]
    fn uninjected_ops_never_violate() {
        let mut w = ChaosWorld::new(3);
        for byte in 0u16..=255 {
            w.step(byte as u8).unwrap();
            let report = w.audit();
            assert!(report.is_clean(), "op {byte}: {}", report.json());
        }
    }
}
