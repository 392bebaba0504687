//! EREBOR-MONITOR: the privileged-mode security monitor (§5–§6).
//!
//! The monitor owns every sensitive interface of Table 2 on behalf of the
//! deprivileged kernel: the MMU (through [`crate::mmu_guard`]), control and
//! model-specific registers, the IDT, `stac`-based user copies, and GHCI.
//! It also owns the sandbox lifecycle and exit interposition of §6.

use crate::config::ExecConfig;
use crate::emc::{CopyDir, EmcError, EmcRequest, EmcResponse};
use crate::gate::EmcGate;
use crate::mmu_guard::{self, MapError};
use crate::policy::{FrameKind, FrameTable, PK_DEFAULT, PK_IDT, PK_MONITOR, RESERVED_PKEYS};
use crate::rng::DetRng;
use crate::sandbox::{CommonRegion, ExitDecision, Sandbox, SandboxId, SandboxState, SandboxTable};
use crate::scan;
use crate::stats::MonitorStats;
use erebor_hw::cpu::Machine;
use erebor_hw::fault::{Fault, VeReason};
use erebor_hw::idt;
use erebor_hw::isolation::{Backend, DomainId, IsolationError};
use erebor_hw::image::{Image, SectionKind};
use erebor_hw::layout::{self, direct_map};
use erebor_hw::paging::{self, Pte, PteFlags};
use erebor_hw::phys::Region;
use erebor_hw::regs::{Cr0, Cr4, GprContext, Msr};
use erebor_hw::{Frame, VirtAddr, PAGE_SIZE};
use erebor_tdx::tdcall::{tdcall, TdcallLeaf, TdcallResult, VmcallOp};
use erebor_tdx::TdxModule;
use erebor_trace::{Bucket, TraceEvent};
use erebor_wire::{index_by, Wire, WireError, WireReader, WireWriter};
use std::collections::BTreeMap;

/// The reserved file descriptor of the monitor I/O channel (§6.3).
pub const EREBOR_IO_FD: u64 = 1023;
/// `ioctl` request: receive client input into a sandbox buffer.
pub const IOCTL_INPUT: u64 = 0x4500;
/// `ioctl` request: submit output data for padding, sealing and return.
pub const IOCTL_OUTPUT: u64 = 0x4501;

/// Linux syscall numbers the interposer must recognise.
pub const SYS_IOCTL: u64 = 16;

/// Sandbox roots are registered in `address_spaces` under this tag
/// ORed with the sandbox id (kernel address spaces carry the ASID the
/// kernel asked for).
const SANDBOX_ASID_TAG: u32 = 0x8000_0000;

/// Run `f` with monitor privileges on `cpu`: monitor code executing
/// outside the EMC gate (interposers, container lifecycle) runs in ring
/// 0, monitor domain, with monitor PKRS, and hands the caller's mode,
/// domain and PKRS back once `f` returns. Transactional, like the EMC
/// gate's entry: if the PKRS grant faults, the core is put back in the
/// caller's domain and mode (a faulted `wrmsr` leaves PKRS as it was)
/// and `f` does not run.
pub(crate) fn privileged<R>(
    machine: &mut Machine,
    cpu: usize,
    f: impl FnOnce(&mut Machine) -> R,
) -> Result<R, Fault> {
    let c = &machine.cpus[cpu];
    let (domain, mode, pkrs) = (c.domain, c.mode, c.msr(Msr::Pkrs));
    machine.cpus[cpu].domain = erebor_hw::cpu::Domain::Monitor;
    machine.cpus[cpu].mode = erebor_hw::CpuMode::Supervisor;
    let r = machine
        .wrmsr(cpu, Msr::Pkrs, crate::policy::monitor_mode_pkrs().0)
        .map(|()| {
            let r = f(machine);
            machine.wrmsr(cpu, Msr::Pkrs, pkrs).ok();
            r
        });
    machine.cpus[cpu].domain = domain;
    machine.cpus[cpu].mode = mode;
    r
}

/// The security monitor.
pub struct Monitor {
    /// Active configuration (ablation switches).
    pub cfg: ExecConfig,
    /// Event counters.
    pub stats: MonitorStats,
    /// The physical frame table (ground truth for mapping policy).
    pub frames: FrameTable,
    /// The isolation backend confining sandbox memory: PKS protection
    /// keys (≤16 domains) or TME-MK keyed memory (≤4096). Selected by
    /// [`ExecConfig::backend`].
    pub backend: Backend,
    /// EMC gate state.
    pub gate: EmcGate,
    /// Deterministic randomness for channel keys.
    pub rng: DetRng,
    /// The kernel's (initial) address-space root.
    pub kernel_root: Frame,
    /// Monitor VA loaded into `IA32_LSTAR` (syscall interposer).
    pub syscall_interposer: VirtAddr,
    /// Monitor VA installed in every hardware IDT vector.
    pub interrupt_interposer: VirtAddr,
    /// Hardware IDT base (monitor-owned page).
    pub idt_base: VirtAddr,
    /// All live sandboxes.
    pub sandboxes: SandboxTable,
    /// All common regions.
    pub common_regions: BTreeMap<u32, CommonRegion>,
    kernel_text: Option<(VirtAddr, Vec<Frame>)>,
    kernel_syscall_entry: Option<VirtAddr>,
    vec_handlers: Vec<Option<VirtAddr>>,
    /// Every registered address-space root (kernel processes and
    /// sandboxes) with its ASID.
    address_spaces: BTreeMap<u64, u32>,
    cma: Region,
    device: Region,
    cpuid_cache: BTreeMap<u32, [u32; 4]>,
    kernel_return: VirtAddr,
    next_sandbox: u32,
    next_region: u32,
}

impl Monitor {
    /// Assemble the monitor. Called by [`crate::boot::boot_stage1`] after
    /// the monitor image is measured and mapped.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        cfg: ExecConfig,
        frames: FrameTable,
        gate: EmcGate,
        rng_seed: [u8; 32],
        kernel_root: Frame,
        idt_base: VirtAddr,
        cma: Region,
        device: Region,
    ) -> Monitor {
        Monitor {
            cfg,
            stats: MonitorStats::default(),
            frames,
            backend: Backend::new(cfg.backend, RESERVED_PKEYS, PK_MONITOR),
            gate,
            rng: DetRng::new(rng_seed),
            kernel_root,
            syscall_interposer: VirtAddr(layout::MONITOR_BASE.0 + 0x100),
            interrupt_interposer: VirtAddr(layout::MONITOR_BASE.0 + 0x200),
            idt_base,
            sandboxes: SandboxTable::new(),
            common_regions: BTreeMap::new(),
            kernel_text: None,
            kernel_syscall_entry: None,
            vec_handlers: vec![None; 256],
            address_spaces: BTreeMap::new(),
            cma,
            device,
            cpuid_cache: BTreeMap::new(),
            kernel_return: layout::KERNEL_BASE,
            next_sandbox: 1,
            next_region: 1,
        }
    }

    /// The kernel handler registered for `vec`, if any.
    #[must_use]
    pub fn kernel_vector_handler(&self, vec: u8) -> Option<VirtAddr> {
        self.vec_handlers[vec as usize]
    }

    /// The kernel's recorded syscall entry (forward target).
    #[must_use]
    pub fn kernel_syscall_entry(&self) -> Option<VirtAddr> {
        self.kernel_syscall_entry
    }

    /// Whether `root` is a monitor-registered address space.
    #[must_use]
    pub fn address_space_registered(&self, root: Frame) -> bool {
        root == self.kernel_root || self.address_spaces.contains_key(&root.0)
    }

    /// Every address-space root the monitor knows about: the kernel root
    /// plus every registered user root. Sandbox roots are *not* included —
    /// walk [`Monitor::sandboxes`] for those. Used by the state auditor to
    /// enumerate all page-table trees reachable from a saved CR3.
    #[must_use]
    pub fn address_space_roots(&self) -> Vec<Frame> {
        let mut roots = vec![self.kernel_root];
        roots.extend(self.address_spaces.keys().map(|&r| Frame(r)));
        roots
    }

    // ==================================================================
    // Stage-two boot: kernel verification and loading (§5.1)
    // ==================================================================

    /// Scan-verify and load the kernel image: text mapped RX under
    /// [`crate::policy::PK_KTEXT`], data RW/NX, all at the image's VAs.
    ///
    /// # Errors
    /// [`LoadError::Rejected`] when the byte scan finds sensitive
    /// instructions; mapping errors otherwise.
    pub fn load_kernel(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        image: &Image,
    ) -> Result<VirtAddr, LoadError> {
        scan::verify_image(image).map_err(LoadError::Rejected)?;
        let mut text_frames = Vec::new();
        let mut text_base = layout::KERNEL_BASE;
        for section in &image.sections {
            if layout::is_user(section.va) || layout::is_monitor(section.va) {
                return Err(LoadError::BadLayout("kernel section outside kernel half"));
            }
            let (kind, flags) = match section.kind {
                SectionKind::Text => (
                    FrameKind::KernelCode,
                    PteFlags::kernel_rx(crate::policy::PK_KTEXT),
                ),
                SectionKind::Rodata => (FrameKind::KernelData, PteFlags::kernel_ro(0)),
                SectionKind::Data => (FrameKind::KernelData, PteFlags::kernel_rw(0)),
            };
            let pages = section.bytes.len().div_ceil(PAGE_SIZE);
            for p in 0..pages {
                let frame = machine.mem.alloc_frame().map_err(|_| LoadError::NoMemory)?;
                self.frames
                    .set_kind(frame, kind)
                    .map_err(|_| LoadError::NoMemory)?;
                mmu_guard::retag_direct_map(machine, cpu, self.kernel_root, frame, kind)
                    .map_err(LoadError::Fault)?;
                let start = p * PAGE_SIZE;
                let end = (start + PAGE_SIZE).min(section.bytes.len());
                // Populate through the (monitor-privileged) direct map.
                machine
                    .write(cpu, direct_map(frame.base()), &section.bytes[start..end])
                    .map_err(LoadError::Fault)?;
                let va = section.va.add(start as u64);
                mmu_guard::checked_map(
                    machine,
                    cpu,
                    &mut self.frames,
                    self.kernel_root,
                    self.kernel_root,
                    va,
                    Pte::encode(frame, flags),
                )
                .map_err(LoadError::Map)?;
                if section.kind == SectionKind::Text {
                    text_frames.push(frame);
                }
            }
            if section.kind == SectionKind::Text {
                text_base = section.va;
            }
        }
        machine.endbr.add_image(image);
        self.kernel_text = Some((text_base, text_frames));
        self.kernel_return = VirtAddr(image.entry);
        Ok(VirtAddr(image.entry))
    }

    fn kernel_text_contains(&self, va: VirtAddr) -> bool {
        match &self.kernel_text {
            Some((base, frames)) => {
                va.0 >= base.0 && va.0 < base.0 + (frames.len() * PAGE_SIZE) as u64
            }
            // Before the kernel is loaded, accept kernel-half addresses
            // (used by unit tests that skip stage two).
            None => !layout::is_user(va) && !layout::is_monitor(va),
        }
    }

    // ==================================================================
    // The EMC dispatcher (§5.3)
    // ==================================================================

    /// Execute an EMC: entry gate, policy-checked dispatch, exit gate.
    ///
    /// # Errors
    /// [`EmcError`] on gate faults or policy denial.
    pub fn emc(
        &mut self,
        machine: &mut Machine,
        tdx: &mut TdxModule,
        cpu: usize,
        req: EmcRequest,
    ) -> Result<EmcResponse, EmcError> {
        if !self.cfg.emc_delegation() {
            return Err(EmcError::Denied("no monitor in this configuration"));
        }
        machine.charged_to(Bucket::Monitor, |machine| {
            let return_to = self.kernel_return;
            self.gate.enter(machine, cpu)?;
            self.stats.emc_calls = self.stats.emc_calls.saturating_add(1);
            let res = self.dispatch(machine, tdx, cpu, req);
            if res.is_err() {
                self.stats.emc_denied = self.stats.emc_denied.saturating_add(1);
                machine.trace_event(cpu, TraceEvent::Emc { op: "deny", arg: 0 });
            }
            self.gate.exit(machine, cpu, return_to)?;
            res
        })
    }

    fn dispatch(
        &mut self,
        machine: &mut Machine,
        tdx: &mut TdxModule,
        cpu: usize,
        req: EmcRequest,
    ) -> Result<EmcResponse, EmcError> {
        match req {
            EmcRequest::Nop => Ok(EmcResponse::Ok),
            EmcRequest::CreateAddressSpace { asid } => {
                let root = self.create_address_space(machine, cpu, asid)?;
                Ok(EmcResponse::Root(root))
            }
            EmcRequest::SwitchAddressSpace { root } => {
                if !self.address_space_registered(root) {
                    return Err(EmcError::Denied("unregistered address-space root"));
                }
                self.stats.cr_writes = self.stats.cr_writes.saturating_add(1);
                machine.write_cr3(cpu, root)?;
                Ok(EmcResponse::Ok)
            }
            EmcRequest::MapUserPage {
                root,
                va,
                frame,
                writable,
                executable,
            } => {
                let f = self.map_user_page(machine, cpu, root, va, frame, writable, executable)?;
                Ok(EmcResponse::Mapped(f))
            }
            EmcRequest::MapUserRange {
                root,
                va,
                pages,
                writable,
            } => {
                if !self.cfg.batched_mmu {
                    return Err(EmcError::Denied("batched MMU updates disabled"));
                }
                let mut first = None;
                for p in 0..pages {
                    let f = self.map_user_page(
                        machine,
                        cpu,
                        root,
                        va.add(p * PAGE_SIZE as u64),
                        None,
                        writable,
                        false,
                    )?;
                    first.get_or_insert(f);
                }
                Ok(EmcResponse::Mapped(first.unwrap_or(Frame(0))))
            }
            EmcRequest::UnmapUserPage { root, va } => {
                self.unmap_user_page(machine, cpu, root, va)?;
                Ok(EmcResponse::Ok)
            }
            EmcRequest::ProtectUserPage { root, va, writable } => {
                if !self.address_space_registered(root) {
                    return Err(EmcError::Denied("unregistered address-space root"));
                }
                let old = mmu_guard::checked_update_leaf(machine, cpu, root, va, |pte| {
                    if writable {
                        Pte::encode(
                            pte.frame(),
                            PteFlags {
                                writable: true,
                                ..pte.flags()
                            },
                        )
                    } else {
                        pte.read_only()
                    }
                })
                .map_err(map_err)?;
                match self.frames.kind(old.frame()) {
                    FrameKind::UserAnon { .. } => {
                        self.stats.pte_updates = self.stats.pte_updates.saturating_add(1);
                        if !writable {
                            // Downgrades must be visible on every core
                            // running this address space; upgrades can
                            // lazily re-fault.
                            machine
                                .tlb_shootdown_mm(cpu, root, &[va])
                                .map_err(EmcError::Fault)?;
                            machine.trace_event(
                                cpu,
                                TraceEvent::Emc {
                                    op: "downgrade",
                                    arg: va.0 >> 12,
                                },
                            );
                        }
                        Ok(EmcResponse::Ok)
                    }
                    _ => {
                        // Roll back: only plain user memory is kernel-adjustable.
                        mmu_guard::checked_update_leaf(machine, cpu, root, va, |_| old)
                            .map_err(map_err)?;
                        Err(EmcError::Denied("protection change on non-user frame"))
                    }
                }
            }
            EmcRequest::WriteCr { which, value } => {
                self.stats.cr_writes = self.stats.cr_writes.saturating_add(1);
                match which {
                    0 => {
                        let required = Cr0::WP | Cr0::PG;
                        if value & required != required {
                            return Err(EmcError::Denied("CR0.WP/PG are pinned"));
                        }
                        machine.write_cr0(cpu, value)?;
                    }
                    4 => {
                        let required = Cr4::SMEP | Cr4::SMAP | Cr4::PKS | Cr4::CET;
                        if value & required != required {
                            return Err(EmcError::Denied("CR4 protection bits are pinned"));
                        }
                        machine.write_cr4(cpu, value)?;
                    }
                    _ => return Err(EmcError::BadRequest("only CR0/CR4 are delegated")),
                }
                Ok(EmcResponse::Ok)
            }
            EmcRequest::WrMsr { msr, value } => {
                self.stats.msr_writes = self.stats.msr_writes.saturating_add(1);
                match msr {
                    Msr::Pkrs | Msr::SCet | Msr::Pl0Ssp => {
                        Err(EmcError::Denied("monitor-private MSR"))
                    }
                    Msr::Lstar => {
                        let target = VirtAddr(value);
                        if !self.kernel_text_contains(target) {
                            return Err(EmcError::Denied("LSTAR outside kernel text"));
                        }
                        self.kernel_syscall_entry = Some(target);
                        // With exit protection, the hardware register keeps
                        // pointing at the monitor's interposer; the ablation
                        // without it installs the kernel entry directly.
                        let hw_target = if self.cfg.exit_protection() {
                            self.syscall_interposer.0
                        } else {
                            target.0
                        };
                        machine.wrmsr(cpu, Msr::Lstar, hw_target)?;
                        Ok(EmcResponse::Ok)
                    }
                    _ => {
                        machine.wrmsr(cpu, msr, value)?;
                        Ok(EmcResponse::Ok)
                    }
                }
            }
            EmcRequest::SetVectorHandler { vec, handler } => {
                if !self.kernel_text_contains(handler) {
                    return Err(EmcError::Denied("vector handler outside kernel text"));
                }
                self.stats.idt_writes = self.stats.idt_writes.saturating_add(1);
                self.vec_handlers[vec as usize] = Some(handler);
                // With exit protection the hardware IDT entry points at the
                // interposer; otherwise at the kernel handler directly.
                let hw_target = if self.cfg.exit_protection() {
                    self.interrupt_interposer
                } else {
                    handler
                };
                self.write_idt_entry(machine, cpu, vec, hw_target)?;
                Ok(EmcResponse::Ok)
            }
            EmcRequest::UserCopy {
                dir,
                root,
                user_va,
                bytes,
            } => self.user_copy(machine, cpu, root, user_va, dir, bytes),
            EmcRequest::ConvertShared { frame, shared } => {
                self.convert_shared(machine, tdx, cpu, frame, shared)
            }
            EmcRequest::TextPoke { offset, bytes } => self.text_poke(machine, cpu, offset, &bytes),
            EmcRequest::LoadKernelModule { code, va } => {
                self.load_kernel_module(machine, cpu, &code, va)
            }
            EmcRequest::DeclareConfined {
                sandbox,
                va,
                pages,
                executable,
            } => {
                self.declare_confined(machine, cpu, SandboxId(sandbox), va, pages, executable)?;
                Ok(EmcResponse::Ok)
            }
            EmcRequest::AttachCommon {
                sandbox,
                region,
                va,
            } => {
                self.attach_common(machine, cpu, SandboxId(sandbox), region, va)?;
                Ok(EmcResponse::Ok)
            }
            EmcRequest::CreateCommon {
                pages,
                logical_bytes,
            } => {
                let id = self.create_common(machine, pages, logical_bytes)?;
                Ok(EmcResponse::Region(id))
            }
            EmcRequest::AttestReport { report_data } => {
                self.stats.ghci_ops = self.stats.ghci_ops.saturating_add(1);
                match tdcall(tdx, machine, cpu, TdcallLeaf::TdReport { report_data }) {
                    Ok(TdcallResult::Report(r)) => Ok(EmcResponse::Report(r)),
                    Ok(_) => Err(EmcError::BadRequest("unexpected tdcall result")),
                    Err(f) => Err(EmcError::Fault(f)),
                }
            }
            EmcRequest::CpuidEmulate { leaf } => {
                let value = match self.cpuid_cache_get(leaf) {
                    Some(v) => v,
                    None => {
                        self.stats.ghci_ops = self.stats.ghci_ops.saturating_add(1);
                        match tdcall(
                            tdx,
                            machine,
                            cpu,
                            TdcallLeaf::VmCall(VmcallOp::Cpuid { leaf }),
                        ) {
                            Ok(TdcallResult::Cpuid(v)) => {
                                self.cpuid_cache.insert(leaf, v);
                                v
                            }
                            _ => [0; 4],
                        }
                    }
                };
                Ok(EmcResponse::Cpuid(value))
            }
        }
    }

    /// cpuid cache probe shared by the EMC and `#VE` emulation paths;
    /// `stats.cpuid_cached` counts every hit. Only successful tdcalls
    /// fill the cache: a faulted or module-declined round trip must not
    /// pin zeros.
    fn cpuid_cache_get(&mut self, leaf: u32) -> Option<[u32; 4]> {
        let v = self.cpuid_cache.get(&leaf).copied();
        if v.is_some() {
            self.stats.cpuid_cached = self.stats.cpuid_cached.saturating_add(1);
        }
        v
    }

    fn create_address_space(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        asid: u32,
    ) -> Result<Frame, EmcError> {
        let root = machine.mem.alloc_frame().map_err(|_| EmcError::NoMemory)?;
        self.frames
            .set_kind(root, FrameKind::Ptp)
            .map_err(|_| EmcError::Denied("root frame conflict"))?;
        mmu_guard::retag_direct_map(machine, cpu, self.kernel_root, root, FrameKind::Ptp)?;
        // Link the shared kernel half (PML4 entries 256..512).
        for idx in 256..512usize {
            let src = erebor_hw::PhysAddr(self.kernel_root.base().0 + (idx * 8) as u64);
            let dst = erebor_hw::PhysAddr(root.base().0 + (idx * 8) as u64);
            let v = machine.mem.read_u64(src).map_err(|_| EmcError::NoMemory)?;
            if v != 0 {
                machine.write_u64(cpu, direct_map(dst), v)?;
            }
        }
        self.address_spaces.insert(root.0, asid);
        Ok(root)
    }

    #[allow(clippy::too_many_arguments)]
    fn map_user_page(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        root: Frame,
        va: VirtAddr,
        frame: Option<Frame>,
        writable: bool,
        executable: bool,
    ) -> Result<Frame, EmcError> {
        if !self.address_space_registered(root) {
            return Err(EmcError::Denied("unregistered address-space root"));
        }
        if self.sandbox_by_root(root).is_some() && self.cfg.mmu_protection() {
            return Err(EmcError::Denied("kernel may not map into a sandbox"));
        }
        if !layout::is_user(va) || va.page_offset() != 0 {
            return Err(EmcError::BadRequest("unaligned or non-user VA"));
        }
        if writable && executable {
            return Err(EmcError::Denied("W^X: writable+executable refused"));
        }
        let asid = self.address_spaces.get(&root.0).copied().unwrap_or(0);
        let f = match frame {
            None => {
                let f = machine.mem.alloc_frame().map_err(|_| EmcError::NoMemory)?;
                self.frames
                    .set_kind(f, FrameKind::UserAnon { asid })
                    .map_err(|_| EmcError::Denied("frame kind conflict"))?;
                f
            }
            Some(f) => match self.frames.kind(f) {
                FrameKind::UserAnon { asid: owner } if owner == asid => f,
                FrameKind::SharedDevice => f,
                _ => return Err(EmcError::Denied("frame not mappable by the kernel")),
            },
        };
        let flags = if executable {
            PteFlags::user_rx()
        } else if writable {
            PteFlags::user_rw()
        } else {
            PteFlags::user_ro()
        };
        mmu_guard::checked_map(
            machine,
            cpu,
            &mut self.frames,
            self.kernel_root,
            root,
            va,
            Pte::encode(f, flags),
        )
        .map_err(map_err)?;
        self.frames.inc_map(f);
        self.stats.pte_updates = self.stats.pte_updates.saturating_add(1);
        Ok(f)
    }

    fn unmap_user_page(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        root: Frame,
        va: VirtAddr,
    ) -> Result<(), EmcError> {
        if !self.address_space_registered(root) {
            return Err(EmcError::Denied("unregistered address-space root"));
        }
        let leaf = paging::lookup_raw(&machine.mem, root, va)
            .map_err(|_| EmcError::BadRequest("walk left DRAM"))?
            .ok_or(EmcError::BadRequest("not mapped"))?;
        let f = leaf.frame();
        match self.frames.kind(f) {
            FrameKind::UserAnon { .. } | FrameKind::SharedDevice => {}
            _ => return Err(EmcError::Denied("kernel may not unmap this frame")),
        }
        mmu_guard::checked_update_leaf(machine, cpu, root, va, |_| Pte::empty())
            .map_err(map_err)?;
        // Revocation anchor for the trace race detector: the PTE is gone
        // from this point on, so any core's cached use of the page without
        // an intervening invalidation is a stale-permission window.
        machine.trace_event(
            cpu,
            TraceEvent::Emc {
                op: "unmap",
                arg: va.0 >> 12,
            },
        );
        // Close the stale-translation window before the frame can be
        // reused: every core running this address space may hold a cached
        // translation for `va`.
        machine
            .tlb_shootdown_mm(cpu, root, &[va])
            .map_err(EmcError::Fault)?;
        self.frames.dec_map(f);
        self.stats.pte_updates = self.stats.pte_updates.saturating_add(1);
        if self.frames.mapcount(f) == 0 && matches!(self.frames.kind(f), FrameKind::UserAnon { .. })
        {
            machine.mem.free_frame(f).ok();
            self.frames.release(f).ok();
        }
        Ok(())
    }

    fn user_copy(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        root: Frame,
        user_va: VirtAddr,
        dir: CopyDir,
        bytes: Vec<u8>,
    ) -> Result<EmcResponse, EmcError> {
        if !self.address_space_registered(root) {
            return Err(EmcError::Denied("unregistered address-space root"));
        }
        // Refuse copies that touch sandbox confined memory: the kernel must
        // never read or corrupt client data through the user-copy service
        // (C6/C7). The check covers the whole byte range.
        if self.cfg.mmu_protection() {
            let mut off = 0u64;
            while off < bytes.len() as u64 + 1 {
                let page = user_va.add(off).page_base();
                if let Ok(Some(leaf)) = paging::lookup_raw(&machine.mem, root, page) {
                    if matches!(self.frames.kind(leaf.frame()), FrameKind::Confined { .. }) {
                        return Err(EmcError::Denied("user copy into confined memory"));
                    }
                }
                off += PAGE_SIZE as u64;
            }
        }
        self.stats.user_copies = self.stats.user_copies.saturating_add(1);
        let saved_root = machine.cpus[cpu].cr3;
        let switch = saved_root != root;
        if switch {
            machine.write_cr3(cpu, root)?;
        }
        machine.stac(cpu)?;
        let result = match dir {
            CopyDir::ToUser => machine
                .write(cpu, user_va, &bytes)
                .map(|()| EmcResponse::Ok),
            CopyDir::FromUser => {
                let mut buf = bytes;
                machine
                    .read(cpu, user_va, &mut buf)
                    .map(|()| EmcResponse::Data(buf))
            }
        };
        machine.clac(cpu)?;
        if switch {
            machine.write_cr3(cpu, saved_root)?;
        }
        result.map_err(EmcError::Fault)
    }

    fn convert_shared(
        &mut self,
        machine: &mut Machine,
        tdx: &mut TdxModule,
        cpu: usize,
        frame: Frame,
        shared: bool,
    ) -> Result<EmcResponse, EmcError> {
        if !self.device.contains(frame) {
            return Err(EmcError::Denied("conversion outside the device window"));
        }
        self.stats.ghci_ops = self.stats.ghci_ops.saturating_add(1);
        if shared {
            self.frames
                .set_kind(frame, FrameKind::SharedDevice)
                .map_err(|_| EmcError::Denied("frame kind conflict"))?;
        }
        match tdcall(tdx, machine, cpu, TdcallLeaf::MapGpa { frame, shared }) {
            Ok(TdcallResult::Failed(_)) => {
                // Module declined (e.g. host contention): the conversion
                // did not happen, so unwind the frame-kind change.
                if shared {
                    self.frames.release(frame).ok();
                }
                return Err(EmcError::Denied("host declined MapGPA conversion"));
            }
            Ok(_) => {}
            Err(f) => {
                if shared {
                    self.frames.release(frame).ok();
                }
                return Err(EmcError::Fault(f));
            }
        }
        if !shared {
            self.frames.release(frame).ok();
        }
        Ok(EmcResponse::Ok)
    }

    fn text_poke(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        offset: u64,
        bytes: &[u8],
    ) -> Result<EmcResponse, EmcError> {
        let (base, frames) = self
            .kernel_text
            .as_ref()
            .ok_or(EmcError::BadRequest("kernel not loaded"))?;
        let text_len = (frames.len() * PAGE_SIZE) as u64;
        let end = offset
            .checked_add(bytes.len() as u64)
            .ok_or(EmcError::BadRequest("patch overflow"))?;
        if end > text_len {
            return Err(EmcError::BadRequest("patch outside kernel text"));
        }
        let target_frame = *frames
            .get((offset / PAGE_SIZE as u64) as usize)
            .ok_or(EmcError::BadRequest("patch outside kernel text"))?;
        let base = *base;
        // Read surrounding bytes for straddle-safe verification.
        let ctx_lo = offset.saturating_sub(3);
        let mut before = vec![0u8; (offset - ctx_lo) as usize];
        machine
            .read(cpu, base.add(ctx_lo), &mut before)
            .map_err(EmcError::Fault)?;
        let ctx_hi = (end + 3).min(text_len);
        let mut after = vec![0u8; (ctx_hi - end) as usize];
        machine
            .read(cpu, base.add(end), &mut after)
            .map_err(EmcError::Fault)?;
        scan::verify_text_patch(&before, bytes, &after)
            .map_err(|_| EmcError::Denied("text patch contains sensitive instructions"))?;
        // Write through the (monitor-writable) direct-map alias.
        let in_page = (offset % PAGE_SIZE as u64) as usize;
        if in_page + bytes.len() > PAGE_SIZE {
            return Err(EmcError::BadRequest("patch crosses a page boundary"));
        }
        let pa = erebor_hw::PhysAddr(target_frame.base().0 + in_page as u64);
        machine
            .write(cpu, direct_map(pa), bytes)
            .map_err(EmcError::Fault)?;
        Ok(EmcResponse::Ok)
    }

    /// Dynamic kernel code loading (modules, eBPF): scan the bytes like a
    /// kernel image, then map them RX under the kernel-text key. Any
    /// sensitive instruction — including ones assembled against the bytes
    /// already at the boundary — is refused (§5.2 "the kernel requests the
    /// monitor to scan and verify the code before loading it").
    fn load_kernel_module(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        code: &[u8],
        va: VirtAddr,
    ) -> Result<EmcResponse, EmcError> {
        if layout::is_user(va) || layout::is_monitor(va) || va.page_offset() != 0 {
            return Err(EmcError::BadRequest(
                "module must load page-aligned in the kernel half",
            ));
        }
        if code.is_empty() {
            return Err(EmcError::BadRequest("empty module"));
        }
        if scan::verify_text_patch(&[], code, &[]).is_err() {
            return Err(EmcError::Denied("module contains sensitive instructions"));
        }
        let pages = code.len().div_ceil(PAGE_SIZE);
        for p in 0..pages {
            let frame = machine.mem.alloc_frame().map_err(|_| EmcError::NoMemory)?;
            self.frames
                .set_kind(frame, FrameKind::KernelCode)
                .map_err(|_| EmcError::Denied("frame kind conflict"))?;
            mmu_guard::retag_direct_map(
                machine,
                cpu,
                self.kernel_root,
                frame,
                FrameKind::KernelCode,
            )?;
            let start = p * PAGE_SIZE;
            let end = (start + PAGE_SIZE).min(code.len());
            machine
                .write(cpu, direct_map(frame.base()), &code[start..end])
                .map_err(EmcError::Fault)?;
            mmu_guard::checked_map(
                machine,
                cpu,
                &mut self.frames,
                self.kernel_root,
                self.kernel_root,
                va.add(start as u64),
                Pte::encode(frame, PteFlags::kernel_rx(crate::policy::PK_KTEXT)),
            )
            .map_err(map_err)?;
        }
        self.stats.pte_updates = self.stats.pte_updates.saturating_add(pages as u64);
        Ok(EmcResponse::Ok)
    }

    /// Write a hardware IDT entry through the checked (PK_IDT-guarded)
    /// path. Used at boot and by [`EmcRequest::SetVectorHandler`].
    ///
    /// # Errors
    /// Checked-write faults.
    pub fn write_idt_entry(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        vec: u8,
        handler: VirtAddr,
    ) -> Result<(), Fault> {
        let va = self.idt_base.add(u64::from(vec) * idt::ENTRY_SIZE);
        machine.write_u64(cpu, va, handler.0)?;
        let _ = PK_IDT; // the IDT page carries PK_IDT; the write above enforces it
        Ok(())
    }

    // ==================================================================
    // Sandbox lifecycle (§6.1)
    // ==================================================================

    /// Create a sandbox: a fresh address space plus monitor bookkeeping.
    ///
    /// # Errors
    /// Allocation or mapping failures.
    pub fn create_sandbox(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        budget_pages: u64,
    ) -> Result<SandboxId, EmcError> {
        // Allocate the isolation domain *before* consuming a sandbox id:
        // exhaustion must be a clean typed error, never a half-created
        // sandbox (the dense-id slab would panic on the next insert) and
        // never a silent reuse of a live key.
        let domain = self.backend.alloc_domain().map_err(|e| match e {
            IsolationError::DomainsExhausted { capacity } => {
                EmcError::DomainsExhausted { capacity }
            }
            IsolationError::InvalidDomain(_) => EmcError::BadRequest("isolation backend state"),
        })?;
        let id = SandboxId(self.next_sandbox);
        // Container creation is monitor code: raise privileges for the
        // page-table work (same pattern as the interposers).
        let root = machine
            .charged_to(Bucket::Monitor, |machine| {
                privileged(machine, cpu, |machine| {
                    self.create_address_space(machine, cpu, SANDBOX_ASID_TAG | id.0)
                })?
            })
            .inspect_err(|_| {
                // Failed before the sandbox existed: the domain must not
                // leak, and the id was never consumed.
                self.backend.free_domain(domain).ok();
            })?;
        self.next_sandbox += 1;
        let mut sandbox = Sandbox::new(id, root, budget_pages);
        sandbox.domain = domain;
        self.sandboxes.insert(id.0, sandbox);
        machine.trace_event(
            cpu,
            TraceEvent::Emc {
                op: "create",
                arg: u64::from(id.0),
            },
        );
        Ok(id)
    }

    /// The live sandbox owning `root`, if any (the CR3→sandbox lookup of
    /// the gate path: every kernel-requested mapping consults it). The
    /// root's registered ASID names the sandbox; the slab entry must
    /// then own that root and be live, because the kernel picks its own
    /// ASIDs and a dead sandbox keeps its registration.
    #[must_use]
    pub fn sandbox_by_root(&self, root: Frame) -> Option<SandboxId> {
        let asid = self.address_spaces.get(&root.0)?;
        let s = self.sandboxes.get(&(asid & !SANDBOX_ASID_TAG))?;
        (s.root == root && s.state != SandboxState::Dead).then_some(s.id)
    }

    fn declare_confined(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        id: SandboxId,
        va: VirtAddr,
        pages: u64,
        executable: bool,
    ) -> Result<(), EmcError> {
        let sandbox = self
            .sandboxes
            .get(&id.0)
            .ok_or(EmcError::BadRequest("no such sandbox"))?;
        if sandbox.state != SandboxState::Setup {
            return Err(EmcError::Denied("confined declaration after data install"));
        }
        if sandbox.confined_pages() + pages > sandbox.budget_pages {
            return Err(EmcError::Denied("confined memory budget exceeded"));
        }
        if !layout::is_user(va) || va.page_offset() != 0 {
            return Err(EmcError::BadRequest("unaligned or non-user VA"));
        }
        let declared = sandbox.confined.len();
        // Arena path for sandbox boot: grab the whole confined window from
        // the CMA in one batch. `alloc_frames_in` yields exactly the frames
        // the seed's per-page `alloc_frame_in` loop would (CMA frames and
        // page-table frames come from disjoint, reserved-separated pools,
        // so hoisting the data-frame allocations cannot renumber either
        // stream), but costs one bitmap pass instead of `pages` rescans.
        let mut arena: Vec<Frame> = Vec::with_capacity(pages as usize);
        let result = machine
            .mem
            .alloc_frames_in(self.cma, pages, &mut arena)
            .map_err(|_| EmcError::NoMemory)
            .and_then(|()| self.confine_arena(machine, cpu, id, va, executable, &arena));
        if result.is_err() {
            // The sandbox records a page only once it is mapped, and the
            // arena is mapped in order: everything past the recorded
            // prefix was taken by this request and is known to no one.
            // Give it back now; frames this request never confined (a
            // batch that failed mid-allocation, a kind conflict) only
            // go back to the allocator.
            let mapped = self
                .sandboxes
                .get(&id.0)
                .map_or(declared, |s| s.confined.len())
                .saturating_sub(declared);
            let (confined, unconfined): (Vec<Frame>, Vec<Frame>) = arena
                .get(mapped..)
                .unwrap_or(&[])
                .iter()
                .partition(|&&f| self.frames.kind(f) == FrameKind::Confined { sandbox: id.0 });
            for &frame in &unconfined {
                machine.mem.free_frame(frame).ok();
            }
            self.release_confined(machine, cpu, &confined);
        }
        result
    }

    /// Confine a freshly allocated arena to sandbox `id` and map it at
    /// `va`, recording each page in the sandbox as it is mapped.
    fn confine_arena(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        id: SandboxId,
        va: VirtAddr,
        executable: bool,
        arena: &[Frame],
    ) -> Result<(), EmcError> {
        let sandbox = self
            .sandboxes
            .get(&id.0)
            .ok_or(EmcError::BadRequest("no such sandbox"))?;
        let root = sandbox.root;
        // How this sandbox's confined memory is tagged: under PKS the
        // alias carries the sandbox's own pkey (access-disabled in
        // normal mode); under TME-MK it keeps the monitor pkey and adds
        // the sandbox's key-ID, programmed into the frame table below
        // (the PCONFIG analogue).
        let tag = self.backend.frame_tag(sandbox.domain);
        let frame_key = self.backend.frame_key(sandbox.domain);
        for &frame in arena {
            // Single-mapping policy: the frame must be fresh.
            if self.frames.mapcount(frame) != 0 {
                return Err(EmcError::Denied("confined frame already mapped"));
            }
            self.frames
                .set_kind(frame, FrameKind::Confined { sandbox: id.0 })
                .map_err(|_| EmcError::Denied("frame kind conflict"))?;
            // Program the frame's key (TME-MK; no-op key 0 under PKS).
            machine.mem.set_frame_key(frame, frame_key);
        }
        // Remove the kernel's direct-map view of the whole arena by
        // retagging the aliases with the backend's confined tag (the "not
        // even the kernel" rule, §6.1 — normal-mode PKRS access-disables
        // the tag's pkey under both backends). One shootdown covers the
        // run, and it lands before any frame enters the sandbox's tables.
        mmu_guard::retag_direct_maps(machine, cpu, self.kernel_root, arena, tag.pkey, tag.keyid)?;
        for (p, &frame) in arena.iter().enumerate() {
            let page_va = va.add(p as u64 * PAGE_SIZE as u64);
            let flags = if executable {
                PteFlags::user_rx()
            } else {
                PteFlags::user_rw()
            };
            mmu_guard::checked_map(
                machine,
                cpu,
                &mut self.frames,
                self.kernel_root,
                root,
                page_va,
                Pte::encode(frame, flags).with_keyid(tag.keyid),
            )
            .map_err(map_err)?;
            self.frames.inc_map(frame);
            // Pre-allocation of pinned confined memory triggers a page
            // fault per page whose handling runs at EMC-mediated cost —
            // the paper's one-time initialization overhead (§9.2,
            // Table 6 "Init. Overhead").
            machine
                .cycles
                .charge(machine.costs.pf_fixed + machine.costs.rdmsr + 2 * machine.costs.wrmsr);
            let sandbox = self
                .sandboxes
                .get_mut(&id.0)
                .ok_or(EmcError::BadRequest("no such sandbox"))?;
            sandbox.confined.push((page_va, frame));
            sandbox.logical_confined_bytes += PAGE_SIZE as u64;
        }
        self.stats.pte_updates = self.stats.pte_updates.saturating_add(arena.len() as u64);
        Ok(())
    }

    /// Give confined frames that no sandbox maps any more back: scrub,
    /// free and release each to [`FrameKind::Unused`], then retag every
    /// direct-map alias back to the default tag (pkey 0, key-ID 0), all
    /// under one broadcast shootdown. `free_frame` already dropped the
    /// frame's programmed key, so a surviving keyed alias would fault
    /// the frame's *next* owner; a sandbox-pkey alias would silently pin
    /// a now-free pkey under PKS. Runs with monitor privileges on `cpu`.
    fn release_confined(&mut self, machine: &mut Machine, cpu: usize, frames: &[Frame]) {
        for &frame in frames {
            machine.mem.zero_frame(frame).ok();
            machine.mem.free_frame(frame).ok();
            self.frames.release(frame).ok();
        }
        mmu_guard::retag_direct_maps(machine, cpu, self.kernel_root, frames, PK_DEFAULT, 0).ok();
    }

    fn create_common(
        &mut self,
        machine: &mut Machine,
        pages: u64,
        logical_bytes: u64,
    ) -> Result<u32, EmcError> {
        let id = self.next_region;
        self.next_region += 1;
        let mut frames = Vec::with_capacity(pages as usize);
        for _ in 0..pages {
            let f = machine.mem.alloc_frame().map_err(|_| EmcError::NoMemory)?;
            self.frames
                .set_kind(f, FrameKind::Common { region: id })
                .map_err(|_| EmcError::Denied("frame kind conflict"))?;
            frames.push(f);
        }
        self.common_regions.insert(
            id,
            CommonRegion {
                id,
                frames,
                sealed: false,
                logical_bytes,
                attached: Vec::new(),
            },
        );
        Ok(id)
    }

    fn attach_common(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        id: SandboxId,
        region_id: u32,
        va: VirtAddr,
    ) -> Result<(), EmcError> {
        let _ = (machine, cpu);
        if !self.common_regions.contains_key(&region_id) {
            return Err(EmcError::BadRequest("no such common region"));
        }
        {
            let sandbox = self
                .sandboxes
                .get_mut(&id.0)
                .ok_or(EmcError::BadRequest("no such sandbox"))?;
            if sandbox.state != SandboxState::Setup {
                return Err(EmcError::Denied("attach after data install"));
            }
        }
        // Common pages are *not* pinned and not eagerly mapped (§6.1): the
        // monitor materializes them on demand at sandbox #PF exits, which
        // is where the paper's runtime page-fault rates come from.
        self.common_regions
            .get_mut(&region_id)
            .ok_or(EmcError::BadRequest("no such common region"))?
            .attached
            .push((id, va));
        self.sandboxes
            .get_mut(&id.0)
            .ok_or(EmcError::BadRequest("no such sandbox"))?
            .attached_common
            .push((region_id, va));
        Ok(())
    }

    /// Sandbox `#PF` exit interposer: demand-map attached common pages;
    /// anything else after data install is a policy violation (confined
    /// memory is pinned, so a fault there cannot be benign).
    pub fn on_page_fault(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        id: SandboxId,
        va: VirtAddr,
        write: bool,
    ) -> ExitDecision {
        machine.charged_to(Bucket::Monitor, |machine| {
            self.charge_interpose(machine);
            self.stats.sandbox_pf_exits = self.stats.sandbox_pf_exits.saturating_add(1);
            let Some(sandbox) = self.sandboxes.get(&id.0) else {
                return ExitDecision::Killed {
                    reason: "no such sandbox",
                };
            };
            let root = sandbox.root;
            let state = sandbox.state;
            // Locate the attached common region containing the fault address.
            let hit = sandbox
                .attached_common
                .iter()
                .copied()
                .find_map(|(rid, base)| {
                    let region = self.common_regions.get(&rid)?;
                    let size = (region.frames.len() * PAGE_SIZE) as u64;
                    (va.0 >= base.0 && va.0 < base.0 + size).then_some((rid, base))
                });
            let Some((rid, base)) = hit else {
                if state == SandboxState::DataLoaded {
                    self.kill_sandbox(machine, id, "stray page fault after data install");
                    return ExitDecision::Killed {
                        reason: "stray page fault after data install",
                    };
                }
                // During setup, confined declarations handle memory; a stray
                // fault forwards to the kernel like any process fault.
                return match self.vec_handlers[idt::vector::PF as usize] {
                    Some(handler) => ExitDecision::ForwardToKernel { handler },
                    None => ExitDecision::Killed {
                        reason: "no #PF handler",
                    },
                };
            };
            let Some(region) = self.common_regions.get(&rid) else {
                return ExitDecision::Killed {
                    reason: "attached common region vanished",
                };
            };
            let sealed = region.sealed;
            if sealed && write {
                self.kill_sandbox(machine, id, "write to sealed common memory");
                return ExitDecision::Killed {
                    reason: "write to sealed common memory",
                };
            }
            let page = va.page_base();
            let idx = ((page.0 - base.0) / PAGE_SIZE as u64) as usize;
            let frame = region.frames[idx];
            let flags = if sealed {
                PteFlags::user_ro()
            } else {
                PteFlags::user_rw()
            };
            // Materialize the mapping with monitor privileges (the interposer
            // raises PKRS exactly like the EMC gate).
            let mapped = privileged(machine, cpu, |machine| {
                mmu_guard::checked_map(
                    machine,
                    cpu,
                    &mut self.frames,
                    self.kernel_root,
                    root,
                    page,
                    Pte::encode(frame, flags),
                )
            });
            let Ok(res) = mapped else {
                return ExitDecision::Killed {
                    reason: "interposer privilege fault",
                };
            };
            match res {
                Ok(()) => {
                    self.frames.inc_map(frame);
                    self.stats.pte_updates = self.stats.pte_updates.saturating_add(1);
                    machine.cycles.charge(machine.costs.pf_fixed);
                    if let Some(s) = self.sandboxes.get_mut(&id.0) {
                        s.common_mapped.push((rid, page));
                    }
                    ExitDecision::Handled { rax: 0 }
                }
                Err(_) => {
                    self.kill_sandbox(machine, id, "common mapping failed");
                    ExitDecision::Killed {
                        reason: "common mapping failed",
                    }
                }
            }
        })
    }

    /// Seal a common region: every mapping in every sandbox becomes
    /// read-only, forever (done automatically when the first attached
    /// sandbox receives client data, §6.1).
    ///
    /// # Errors
    /// Checked-write faults.
    pub fn seal_common(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        region_id: u32,
    ) -> Result<(), EmcError> {
        machine.charged_to(Bucket::Monitor, |machine| -> Result<(), EmcError> {
            let region = self
                .common_regions
                .get_mut(&region_id)
                .ok_or(EmcError::BadRequest("no such common region"))?;
            if region.sealed {
                return Ok(());
            }
            region.sealed = true;
            // Revoke write access on every mapping materialized so far; future
            // demand-mappings observe `sealed` and come up read-only.
            let attachments = region.attached.clone();
            for (sid, _base) in attachments {
                let (root, pages) = {
                    let s = self
                        .sandboxes
                        .get(&sid.0)
                        .ok_or(EmcError::BadRequest("attached sandbox vanished"))?;
                    let pages: Vec<VirtAddr> = s
                        .common_mapped
                        .iter()
                        .filter(|(r, _)| *r == region_id)
                        .map(|(_, va)| *va)
                        .collect();
                    (s.root, pages)
                };
                // Downgrade every materialized leaf, then one shootdown for
                // the sandbox's whole window.
                privileged(machine, cpu, |machine| {
                    let mut seal_res = Ok(());
                    let mut downgraded: Vec<VirtAddr> = Vec::with_capacity(pages.len());
                    for page in pages {
                        if let Err(e) =
                            mmu_guard::checked_update_leaf(machine, cpu, root, page, Pte::read_only)
                        {
                            seal_res = Err(map_err(e));
                            break;
                        }
                        downgraded.push(page);
                        self.stats.pte_updates = self.stats.pte_updates.saturating_add(1);
                    }
                    if let Err(e) = machine.tlb_shootdown_mm(cpu, root, &downgraded) {
                        seal_res = seal_res.and(Err(EmcError::Fault(e)));
                    }
                    seal_res
                })??;
            }
            Ok(())
        })?;
        machine.trace_event(
            cpu,
            TraceEvent::Emc {
                op: "seal",
                arg: u64::from(region_id),
            },
        );
        Ok(())
    }

    /// Memory-pressure reclaim: common pages are *not* pinned (§6.1), so
    /// the kernel's reclaim may evict them; the monitor revokes the oldest
    /// materialized common mappings (up to `max_pages`), forcing re-faults.
    /// Returns the number of pages reclaimed.
    pub fn reclaim_common(&mut self, machine: &mut Machine, cpu: usize, max_pages: u64) -> u64 {
        let reclaimed = machine.charged_to(Bucket::Monitor, |machine| {
            let ids: Vec<u32> = self.sandboxes.keys().copied().collect();
            let mut reclaimed = 0u64;
            for id in ids {
                if reclaimed >= max_pages {
                    break;
                }
                let (root, victims) = {
                    let Some(s) = self.sandboxes.get(&id) else {
                        continue;
                    };
                    if s.state == SandboxState::Dead || s.common_mapped.is_empty() {
                        continue;
                    }
                    let take = ((max_pages - reclaimed) as usize).min(s.common_mapped.len());
                    (s.root, s.common_mapped[..take].to_vec())
                };
                // Clear every victim leaf, one shootdown for the address
                // space, then the per-page bookkeeping. A victim leaves
                // `common_mapped` only once its leaf is clear, so a later
                // seal still downgrades whatever a fault left mapped.
                let raised = privileged(machine, cpu, |machine| {
                    let cleared: Vec<(u32, VirtAddr)> = victims
                        .into_iter()
                        .filter(|&(_, page)| {
                            mmu_guard::checked_update_leaf(machine, cpu, root, page, |_| {
                                Pte::empty()
                            })
                            .is_ok()
                        })
                        .collect();
                    let vas: Vec<VirtAddr> = cleared.iter().map(|&(_, p)| p).collect();
                    machine.tlb_shootdown_mm(cpu, root, &vas).ok();
                    if let Some(s) = self.sandboxes.get_mut(&id) {
                        s.common_mapped.retain(|v| !cleared.contains(v));
                    }
                    for (rid, page) in cleared {
                        if let Some(f) = self.common_frame(rid, id, page) {
                            self.frames.dec_map(f);
                        }
                        reclaimed += 1;
                        self.stats.pte_updates = self.stats.pte_updates.saturating_add(1);
                    }
                });
                if raised.is_err() {
                    return reclaimed;
                }
            }
            reclaimed
        });
        machine.trace_event(
            cpu,
            TraceEvent::Emc {
                op: "reclaim",
                arg: reclaimed,
            },
        );
        reclaimed
    }

    /// The common-region frame sandbox `sid` maps at `page`, located
    /// through the sandbox's attachment base in region `rid`.
    fn common_frame(&self, rid: u32, sid: u32, page: VirtAddr) -> Option<Frame> {
        let region = self.common_regions.get(&rid)?;
        let (_, base) = region.attached.iter().find(|(s, _)| s.0 == sid)?;
        let idx = page.0.checked_sub(base.0)? / PAGE_SIZE as u64;
        region.frames.get(usize::try_from(idx).ok()?).copied()
    }

    /// Kill a sandbox: mark it dead, unmap and scrub every confined frame,
    /// release them and revoke its domain (§6.3 cleanup). Unmapping
    /// *before* freeing is essential: a stale PTE in the dead container's
    /// page table must never alias a frame later granted to another
    /// tenant. The kill count, the reason and the `kill` event are
    /// recorded once, when a live sandbox dies. A kill whose privilege
    /// raise faults leaves the sandbox dead but not torn down, and a
    /// later kill only finishes the teardown; otherwise a kill of a dead
    /// sandbox or of an unknown id changes nothing.
    pub fn kill_sandbox(&mut self, machine: &mut Machine, id: SandboxId, reason: &'static str) {
        if self.retire(machine, id, reason) {
            self.stats.sandboxes_killed = self.stats.sandboxes_killed.saturating_add(1);
        }
    }

    /// Mark sandbox `id` dead with `reason` if it is live, then tear down
    /// whatever it still holds. Returns whether this call ended a live
    /// sandbox. The kill and [`Monitor::end_session`] share it; they
    /// differ only in whether the death counts as a kill.
    pub(crate) fn retire(
        &mut self,
        machine: &mut Machine,
        id: SandboxId,
        reason: &'static str,
    ) -> bool {
        let Some(sandbox) = self.sandboxes.get_mut(&id.0) else {
            return false;
        };
        let died = sandbox.state != SandboxState::Dead;
        if died {
            sandbox.state = SandboxState::Dead;
            sandbox.kill_reason = Some(reason);
            sandbox.pending_input.clear();
            sandbox.session = None;
        }
        machine.charged_to(Bucket::Monitor, |machine| self.teardown(machine, id));
        if died {
            // The teardown path is pinned to core 0; the event follows suit.
            machine.trace_event(
                0,
                TraceEvent::Emc {
                    op: "kill",
                    arg: u64::from(id.0),
                },
            );
        }
        died
    }

    /// Give back everything dead sandbox `id` still holds, with monitor
    /// privileges on core 0.
    fn teardown(&mut self, machine: &mut Machine, id: SandboxId) {
        // A torn-down sandbox holds no domain. Its old one may already
        // belong to a newer sandbox, so it must never be revoked twice.
        let Some(root) = self
            .sandboxes
            .get(&id.0)
            .filter(|s| s.domain != DomainId::DEFAULT)
            .map(|s| s.root)
        else {
            return;
        };
        // Raise before draining anything: a faulted raise must leave the
        // confined list intact for the kill that retries the teardown.
        privileged(machine, 0, |machine| {
            let Some(sandbox) = self.sandboxes.get_mut(&id.0) else {
                return;
            };
            let domain = core::mem::replace(&mut sandbox.domain, DomainId::DEFAULT);
            let confined: Vec<(VirtAddr, Frame)> = sandbox.confined.drain(..).collect();
            let commons: Vec<(u32, VirtAddr)> = sandbox.common_mapped.drain(..).collect();
            // Two-phase teardown: clear every leaf, then close the whole
            // stale-translation window with one shootdown (one IPI per
            // remote core; past the full-flush ceiling each core takes one
            // full flush instead of per-page invalidations). Frames are
            // scrubbed and freed only *after* the shootdown: a stale
            // translation to a freed frame is a cross-tenant leak.
            let vas: Vec<VirtAddr> = confined
                .iter()
                .map(|&(va, _)| va)
                .chain(commons.iter().map(|&(_, page)| page))
                .collect();
            for &va in &vas {
                mmu_guard::checked_update_leaf(machine, 0, root, va, |_| Pte::empty()).ok();
            }
            machine.tlb_shootdown_mm(0, root, &vas).ok();
            for (rid, page) in commons {
                if let Some(f) = self.common_frame(rid, id.0, page) {
                    self.frames.dec_map(f);
                }
            }
            let frames: Vec<Frame> = confined.iter().map(|&(_, frame)| frame).collect();
            self.release_confined(machine, 0, &frames);
            // Fence, once the frames and their aliases are back: revoke
            // the domain so the backend can reuse it.
            self.backend.free_domain(domain).ok();
        })
        .ok();
    }

    // ==================================================================
    // Exit interposition (§6.2, Fig. 7)
    // ==================================================================

    /// Cost of the monitor's interposer prologue/epilogue (PKRS grant and
    /// revoke around handler work).
    fn charge_interpose(&self, machine: &mut Machine) {
        let c = &machine.costs;
        machine.cycles.charge(c.rdmsr + 2 * c.wrmsr + 8 * c.mem_op);
    }

    /// The syscall interposer: every `syscall` lands here first (the
    /// hardware `IA32_LSTAR` points into the monitor).
    ///
    /// Reads the syscall number and arguments from the trapping context.
    pub fn on_syscall(
        &mut self,
        machine: &mut Machine,
        tdx: &mut TdxModule,
        cpu: usize,
        sandbox: Option<SandboxId>,
    ) -> ExitDecision {
        machine.charged_to(Bucket::Monitor, |machine| {
            self.charge_interpose(machine);
            let ctx = machine.cpus[cpu].ctx;
            let nr = ctx.gpr[0]; // rax
            let fd = ctx.gpr[7]; // rdi
            if let Some(id) = sandbox {
                let state = self.sandboxes.get(&id.0).map(|s| s.state);
                if state == Some(SandboxState::DataLoaded) {
                    // The monitor I/O channel is always monitor-handled (§6.3).
                    if nr == SYS_IOCTL && fd == EREBOR_IO_FD {
                        self.stats.sandbox_syscall_exits =
                            self.stats.sandbox_syscall_exits.saturating_add(1);
                        return self.handle_io_ioctl(machine, tdx, cpu, id);
                    }
                    // Any other software-controlled exit is fatal — when exit
                    // protection is enforced (§6.2).
                    if self.cfg.exit_protection() {
                        self.kill_sandbox(machine, id, "syscall after data install");
                        return ExitDecision::Killed {
                            reason: "syscall after data install",
                        };
                    }
                }
            }
            match self.kernel_syscall_entry {
                Some(entry) => ExitDecision::ForwardToKernel { handler: entry },
                None => ExitDecision::Killed {
                    reason: "no kernel syscall entry registered",
                },
            }
        })
    }

    /// The interrupt/exception interposer (hardware IDT target).
    ///
    /// For sandboxes, saves and scrubs the register context before the
    /// kernel handler runs; also services the `#INT` gate for preempted
    /// EMCs.
    pub fn on_interrupt(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        sandbox: Option<SandboxId>,
        vec: u8,
        interrupted: GprContext,
    ) -> ExitDecision {
        machine.charged_to(Bucket::Monitor, |machine| {
            self.charge_interpose(machine);
            if self.gate.interrupt_entry(machine, cpu).is_err() {
                // The #INT gate could not revoke the EMC's PKRS: forwarding
                // to the kernel handler would hand it monitor memory access,
                // so refuse delivery instead.
                return ExitDecision::Killed {
                    reason: "#INT gate failed to revoke EMC credentials",
                };
            }
            if let Some(id) = sandbox {
                if self.cfg.exit_protection() {
                    match vec {
                        idt::vector::TIMER => {
                            self.stats.sandbox_timer_exits =
                                self.stats.sandbox_timer_exits.saturating_add(1)
                        }
                        idt::vector::PF => {
                            self.stats.sandbox_pf_exits =
                                self.stats.sandbox_pf_exits.saturating_add(1)
                        }
                        idt::vector::DEVICE => {}
                        _ => {}
                    }
                    if let Some(s) = self.sandboxes.get_mut(&id.0) {
                        // Save then mask the sandbox context: the kernel's
                        // handler sees zeros (§6.2 ②). Full-state protection
                        // costs an xsave-class operation.
                        machine.cycles.charge(machine.costs.ctx_protect);
                        s.saved_ctx = Some(interrupted);
                        machine.cpus[cpu].ctx.scrub();
                    }
                }
            }
            match self.vec_handlers[vec as usize] {
                Some(handler) => ExitDecision::ForwardToKernel { handler },
                None => ExitDecision::Killed {
                    reason: "unregistered vector",
                },
            }
        })
    }

    /// Return from an interposed interrupt back into the sandbox: restore
    /// the protected context and the `#INT` gate state.
    ///
    /// # Errors
    /// MSR faults from the gate restore.
    pub fn resume_sandbox(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        id: SandboxId,
    ) -> Result<(), Fault> {
        machine.charged_to(Bucket::Monitor, |machine| {
            self.gate.interrupt_return(machine, cpu)?;
            if let Some(ctx) = self
                .sandboxes
                .get_mut(&id.0)
                .and_then(|s| s.saved_ctx.take())
            {
                machine.cycles.charge(machine.costs.ctx_protect);
                machine.cpus[cpu].ctx = ctx;
            }
            Ok(())
        })
    }

    /// `#VE` interposer: hypercall-class events from a sandbox.
    ///
    /// `cpuid` is emulated from the monitor's cache (one host round trip
    /// ever, §6.2 ④); anything else after data install kills the sandbox.
    pub fn on_ve(
        &mut self,
        machine: &mut Machine,
        tdx: &mut TdxModule,
        cpu: usize,
        sandbox: Option<SandboxId>,
        reason: VeReason,
        cpuid_leaf: u32,
    ) -> ExitDecision {
        machine.charged_to(Bucket::Monitor, |machine| {
            self.charge_interpose(machine);
            if let Some(id) = sandbox {
                if self.cfg.exit_protection()
                    && self.sandboxes.get(&id.0).map(|s| s.state) == Some(SandboxState::DataLoaded)
                {
                    self.stats.sandbox_ve_exits = self.stats.sandbox_ve_exits.saturating_add(1);
                    if reason == VeReason::Cpuid {
                        let value = match self.cpuid_cache_get(cpuid_leaf) {
                            Some(v) => v,
                            None => {
                                let res = tdcall(
                                    tdx,
                                    machine,
                                    cpu,
                                    TdcallLeaf::VmCall(VmcallOp::Cpuid { leaf: cpuid_leaf }),
                                );
                                // Cache only real results — a transient
                                // tdcall failure must not poison the cache
                                // with zeros for every later caller.
                                match res {
                                    Ok(TdcallResult::Cpuid(v)) => {
                                        self.cpuid_cache.insert(cpuid_leaf, v);
                                        v
                                    }
                                    _ => [0; 4],
                                }
                            }
                        };
                        machine.cpus[cpu].ctx.gpr[0] = u64::from(value[0]);
                        machine.cpus[cpu].ctx.gpr[3] = u64::from(value[1]);
                        return ExitDecision::Handled {
                            rax: u64::from(value[0]),
                        };
                    }
                    self.kill_sandbox(machine, id, "VM exit after data install");
                    return ExitDecision::Killed {
                        reason: "VM exit after data install",
                    };
                }
            }
            match self.vec_handlers[idt::vector::VE as usize] {
                Some(handler) => ExitDecision::ForwardToKernel { handler },
                None => ExitDecision::Killed {
                    reason: "no #VE handler",
                },
            }
        })
    }

    /// The sandbox data channel (§6.3), entered either from the syscall
    /// interposer (exit protection on) or from the kernel's `/dev/erebor`
    /// driver (ablation configs without exit interposition).
    pub fn sandbox_io(
        &mut self,
        machine: &mut Machine,
        tdx: &mut TdxModule,
        cpu: usize,
        id: SandboxId,
    ) -> ExitDecision {
        machine.charged_to(Bucket::Monitor, |machine| {
            self.handle_io_ioctl(machine, tdx, cpu, id)
        })
    }

    fn handle_io_ioctl(
        &mut self,
        machine: &mut Machine,
        _tdx: &mut TdxModule,
        cpu: usize,
        id: SandboxId,
    ) -> ExitDecision {
        let ctx = machine.cpus[cpu].ctx;
        let op = ctx.gpr[6]; // rsi
        let buf = VirtAddr(ctx.gpr[2]); // rdx
        let len = ctx.gpr[10] as usize; // r10
        match op {
            IOCTL_INPUT => match self.deliver_input(machine, cpu, id, buf, len) {
                Ok(n) => ExitDecision::Handled { rax: n as u64 },
                Err(reason) => {
                    self.kill_sandbox(machine, id, reason);
                    ExitDecision::Killed { reason }
                }
            },
            IOCTL_OUTPUT => match self.collect_output(machine, cpu, id, buf, len) {
                Ok(()) => ExitDecision::Handled { rax: 0 },
                Err(reason) => {
                    self.kill_sandbox(machine, id, reason);
                    ExitDecision::Killed { reason }
                }
            },
            _ => {
                self.kill_sandbox(machine, id, "unknown erebor ioctl");
                ExitDecision::Killed {
                    reason: "unknown erebor ioctl",
                }
            }
        }
    }

    /// Copy staged client input into sandbox confined memory (monitor
    /// `stac`-guarded copy with the sandbox's CR3).
    fn deliver_input(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        id: SandboxId,
        buf: VirtAddr,
        len: usize,
    ) -> Result<usize, &'static str> {
        let (root, data) = {
            let s = self.sandboxes.get_mut(&id.0).ok_or("no such sandbox")?;
            let data = s.pending_input.pop_front().ok_or("no pending input")?;
            (s.root, data)
        };
        if data.len() > len {
            return Err("input buffer too small");
        }
        // The destination must be confined memory, over the whole range.
        {
            let s = self.sandboxes.get(&id.0).ok_or("no such sandbox")?;
            let end = buf.add(data.len().max(1) as u64 - 1);
            let mut page = buf.page_base();
            while page.0 <= end.0 {
                if !s.owns_va(page) {
                    return Err("input buffer not confined");
                }
                page = page.add(PAGE_SIZE as u64);
            }
        }
        privileged(machine, cpu, |machine| {
            let saved_root = machine.cpus[cpu].cr3;
            let res = machine
                .write_cr3(cpu, root)
                .and_then(|()| machine.stac(cpu))
                .and_then(|()| machine.write(cpu, buf, &data));
            machine.clac(cpu).ok();
            machine.write_cr3(cpu, saved_root).ok();
            res
        })
        .map_err(|_| "privilege raise failed")?
        .map_err(|_| "confined write failed")?;
        Ok(data.len())
    }

    /// Read sandbox output, pad to the configured quantum, seal it on the
    /// client session, and queue it for the untrusted proxy (§6.3).
    fn collect_output(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        id: SandboxId,
        buf: VirtAddr,
        len: usize,
    ) -> Result<(), &'static str> {
        let sandbox = self.sandboxes.get(&id.0).ok_or("no such sandbox")?;
        let root = sandbox.root;
        // The output buffer must lie in the sandbox's own confined memory:
        // the monitor must never be tricked into sealing other memory into
        // the client channel.
        let end = buf.add(len.max(1) as u64 - 1);
        let mut page = buf.page_base();
        while page.0 <= end.0 {
            if !sandbox.owns_va(page) {
                return Err("output buffer not confined");
            }
            page = page.add(PAGE_SIZE as u64);
        }
        let mut data = vec![0u8; len];
        privileged(machine, cpu, |machine| {
            let saved_root = machine.cpus[cpu].cr3;
            let res = machine
                .write_cr3(cpu, root)
                .and_then(|()| machine.stac(cpu))
                .and_then(|()| machine.read(cpu, buf, &mut data));
            machine.clac(cpu).ok();
            machine.write_cr3(cpu, saved_root).ok();
            res
        })
        .map_err(|_| "privilege raise failed")?
        .map_err(|_| "output read failed")?;
        // Fixed-length padding: a 4-byte true length prefix, then data,
        // padded to the quantum.
        let quantum = self.cfg.output_pad_quantum.max(1);
        let mut framed = Vec::with_capacity(4 + data.len());
        framed.extend_from_slice(&(data.len() as u32).to_le_bytes());
        framed.extend_from_slice(&data);
        let padded_len = framed.len().div_ceil(quantum) * quantum;
        framed.resize(padded_len, 0);
        let s = self.sandboxes.get_mut(&id.0).ok_or("no such sandbox")?;
        let session = s.session.as_mut().ok_or("no client session")?;
        let record = session.send(&framed).map_err(|_| "channel exhausted")?;
        s.outbox.push_back(record);
        Ok(())
    }
}

impl core::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Monitor")
            .field("mode", &self.cfg.mode)
            .field("sandboxes", &self.sandboxes.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

fn map_err(e: MapError) -> EmcError {
    match e {
        MapError::NoMemory => EmcError::NoMemory,
        MapError::FrameConflict => EmcError::Denied("frame kind conflict"),
        MapError::NotMapped => EmcError::BadRequest("address not mapped"),
        MapError::Fault(f) => EmcError::Fault(f),
    }
}

/// Kernel-load failure (stage-two boot).
#[derive(Debug)]
pub enum LoadError {
    /// The byte scan found sensitive instructions.
    Rejected(scan::ScanRejection),
    /// Sections at illegal addresses.
    BadLayout(&'static str),
    /// Out of memory.
    NoMemory,
    /// Hardware fault while loading.
    Fault(Fault),
    /// Mapping failure.
    Map(MapError),
}

impl core::fmt::Display for LoadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LoadError::Rejected(r) => write!(f, "{r}"),
            LoadError::BadLayout(why) => write!(f, "bad kernel layout: {why}"),
            LoadError::NoMemory => write!(f, "out of memory loading kernel"),
            LoadError::Fault(e) => write!(f, "fault loading kernel: {e}"),
            LoadError::Map(e) => write!(f, "mapping failure loading kernel: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Live migration: full-monitor state transfer (§13) — configuration,
/// audit counters, frame policy, backend domains, EMC ledger, DRBG
/// position, interposer layout, every sandbox (including sealed channels
/// mid-stream), and every common region.
///
/// The monitor keeps no derived lookup state: import rebuilds nothing.
/// Everything is parsed and validated before the monitor is assembled,
/// so a torn or hostile stream never yields a half-imported monitor.
impl Wire for Monitor {
    fn encode(&self, w: &mut WireWriter) {
        w.nested(&self.cfg);
        w.nested(&self.stats);
        w.nested(&self.frames);
        w.bytes(&self.backend.export_state());
        w.nested(&self.gate);
        w.put(&self.rng.to_parts());
        w.put(&self.kernel_root);
        w.put(&self.syscall_interposer);
        w.put(&self.interrupt_interposer);
        w.put(&self.idt_base);
        w.nested_seq(self.sandboxes.values());
        w.nested_seq(self.common_regions.values());
        w.put(&self.kernel_text);
        w.put(&self.kernel_syscall_entry);
        w.put(&self.vec_handlers);
        w.put(&self.address_spaces);
        w.put(&self.cma);
        w.put(&self.device);
        w.put(&self.cpuid_cache);
        w.put(&self.kernel_return);
        w.put(&self.next_sandbox);
        w.put(&self.next_region);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let cfg: ExecConfig = r.nested()?;
        let stats = r.nested()?;
        let frames = r.nested()?;
        let backend_bytes = r.bytes()?;
        let gate = r.nested()?;
        let (rng_key, rng_ctr) = r.get()?;
        let kernel_root = r.get()?;
        let syscall_interposer = r.get()?;
        let interrupt_interposer = r.get()?;
        let idt_base = r.get()?;
        let parsed_sandboxes: Vec<Sandbox> = r.nested_seq()?;
        // The table is a dense slab keyed by id; ids must arrive as
        // exactly 1..=n or insertion invariants would not hold.
        if parsed_sandboxes
            .iter()
            .enumerate()
            .any(|(i, sb)| sb.id.0 as usize != i + 1)
        {
            return Err(WireError::BadValue {
                what: "sandbox id sequence",
            });
        }
        let common_regions = index_by(r.nested_seq()?, |region: &CommonRegion| region.id)?;
        let kernel_text = r.get()?;
        let kernel_syscall_entry = r.get()?;
        let vec_handlers: Vec<Option<VirtAddr>> = r.get()?;
        if vec_handlers.len() != 256 {
            return Err(WireError::BadValue {
                what: "vector handler table length",
            });
        }
        let address_spaces: BTreeMap<u64, u32> = r.get()?;
        let cma = r.get()?;
        let device = r.get()?;
        let cpuid_cache = r.get()?;
        let kernel_return = r.get()?;
        let next_sandbox: u32 = r.get()?;
        let next_region = r.get()?;
        if next_sandbox as usize != parsed_sandboxes.len() + 1 {
            return Err(WireError::BadValue {
                what: "next sandbox id",
            });
        }
        let mut backend = Backend::new(cfg.backend, RESERVED_PKEYS, PK_MONITOR);
        backend.import_state(backend_bytes)?;
        let mut sandboxes = SandboxTable::new();
        for sb in parsed_sandboxes {
            sandboxes.insert(sb.id.0, sb);
        }
        Ok(Monitor {
            cfg,
            stats,
            frames,
            backend,
            gate,
            rng: DetRng::from_parts(rng_key, rng_ctr),
            kernel_root,
            syscall_interposer,
            interrupt_interposer,
            idt_base,
            sandboxes,
            common_regions,
            kernel_text,
            kernel_syscall_entry,
            vec_handlers,
            address_spaces,
            cma,
            device,
            cpuid_cache,
            kernel_return,
            next_sandbox,
            next_region,
        })
    }
}

#[cfg(test)]
mod migration_tests {
    use super::*;
    use erebor_crypto::kx::{Role, SecureChannel, SessionKeys};

    /// A monitor with every field populated away from its default, so the
    /// roundtrip test exercises each codec arm.
    fn busy_monitor() -> Monitor {
        let mut cfg = ExecConfig::new(crate::config::Mode::Full);
        cfg.batched_mmu = true;
        cfg.output_interval_cycles = Some(12_345);
        let mut frames = FrameTable::new(64);
        let _ = frames.set_kind(Frame(1), FrameKind::Monitor);
        let _ = frames.set_kind(Frame(2), FrameKind::KernelCode);
        let _ = frames.set_kind(Frame(3), FrameKind::UserAnon { asid: 7 });
        let _ = frames.set_kind(Frame(4), FrameKind::Confined { sandbox: 1 });
        let _ = frames.set_kind(Frame(5), FrameKind::Common { region: 1 });
        frames.inc_map(Frame(3));
        let gate = EmcGate::new(VirtAddr(0x1000), vec![VirtAddr(0x2000), VirtAddr(0x3000)]);
        let mut m = Monitor::new(
            cfg,
            frames,
            gate,
            [9u8; 32],
            Frame(10),
            VirtAddr(0x5000),
            Region {
                start: Frame(20),
                end: Frame(30),
            },
            Region {
                start: Frame(40),
                end: Frame(44),
            },
        );
        m.stats.emc_calls = 17;
        m.stats.sandboxes_killed = 2;
        let _ = m.rng.next_32(); // advance the DRBG off zero
        m.kernel_text = Some((VirtAddr(0xffff_8000_0000_0000), vec![Frame(2)]));
        m.kernel_syscall_entry = Some(VirtAddr(0xffff_8000_0000_0100));
        m.vec_handlers[14] = Some(VirtAddr(0xffff_8000_0000_0200));
        m.vec_handlers[255] = Some(VirtAddr(0xffff_8000_0000_0300));
        m.address_spaces.insert(11, 7);
        m.address_spaces.insert(12, 8);
        // A kernel address space whose chosen ASID carries sandbox 1's tag.
        m.address_spaces.insert(14, SANDBOX_ASID_TAG | 1);
        m.cpuid_cache.insert(1, [0xa, 0xb, 0xc, 0xd]);

        let mut sb = Sandbox::new(SandboxId(1), Frame(50), 8);
        sb.domain = DomainId(3);
        sb.state = SandboxState::DataLoaded;
        sb.confined.push((VirtAddr(0x7000_0000), Frame(4)));
        sb.logical_confined_bytes = PAGE_SIZE as u64;
        sb.attached_common.push((1, VirtAddr(0x7100_0000)));
        sb.common_mapped.push((1, VirtAddr(0x7100_0000)));
        sb.pending_input.push_back(vec![1, 2, 3]);
        sb.outbox.push_back(vec![4, 5]);
        // A live mid-stream channel: counters must survive the trip.
        let keys = SessionKeys {
            c2s: [0x11; 32],
            s2c: [0x22; 32],
        };
        let mut chan = SecureChannel::new(keys, Role::Monitor);
        let _sealed = chan.send(b"hello").expect("seal one record");
        sb.session = Some(chan);
        m.address_spaces.insert(50, SANDBOX_ASID_TAG | 1);
        m.sandboxes.insert(1, sb);
        m.address_spaces.insert(51, SANDBOX_ASID_TAG | 2);
        let mut dead = Sandbox::new(SandboxId(2), Frame(51), 8);
        dead.state = SandboxState::Dead;
        dead.kill_reason = Some("W^X violation");
        m.sandboxes.insert(2, dead);
        m.next_sandbox = 3;

        m.common_regions.insert(
            1,
            CommonRegion {
                id: 1,
                frames: vec![Frame(5)],
                sealed: true,
                logical_bytes: 4096,
                attached: vec![(SandboxId(1), VirtAddr(0x7100_0000))],
            },
        );
        m.next_region = 2;
        m
    }

    #[test]
    fn monitor_state_roundtrips_byte_exact() -> Result<(), erebor_wire::WireError> {
        let m = busy_monitor();
        let bytes = m.to_wire();
        let imported = Monitor::from_wire(&bytes)?;
        // Fixed point first: re-export must be byte-identical.
        assert_eq!(imported.to_wire(), bytes);
        // Both lookups read the migrated address spaces and slab.
        assert!(imported.address_space_registered(Frame(11)));
        assert!(imported.address_space_registered(Frame(12)));
        assert!(!imported.address_space_registered(Frame(13)));
        assert_eq!(imported.sandbox_by_root(Frame(50)), Some(SandboxId(1)));
        assert_eq!(imported.sandbox_by_root(Frame(51)), None, "dead");
        assert_eq!(imported.sandbox_by_root(Frame(14)), None, "kernel root");
        // The channel resumed mid-stream: one record already sealed.
        let sb = imported.sandboxes.get(&1).expect("sandbox survives");
        let chan = sb.session.as_ref().expect("session survives");
        let (_, _, send_ctr, _) = chan.to_parts();
        assert_eq!(send_ctr, 1, "send counter resumes, never rewinds");
        Ok(())
    }

    #[test]
    fn truncated_monitor_state_is_rejected_everywhere() {
        let m = busy_monitor();
        let bytes = m.to_wire();
        // Every strict prefix must fail cleanly — no panic, no partial
        // monitor. Step to keep the sweep fast over a multi-KiB blob.
        for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            assert!(
                Monitor::from_wire(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not import"
            );
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(Monitor::from_wire(&extra).is_err(), "trailing byte");
    }

    /// A cpuid cache naming one leaf twice used to merge silently; the
    /// map rule now refuses it (a map encodes as a `Vec` of its pairs,
    /// which is how the duplicate is planted).
    #[test]
    fn duplicate_cpuid_leaf_is_refused() {
        let mut m = busy_monitor();
        m.cpuid_cache.insert(7, [1, 2, 3, 4]);
        let good = m.to_wire();
        assert!(Monitor::from_wire(&good).is_ok());
        let needle = m.cpuid_cache.to_wire();
        let dup = vec![(7u32, [1u32, 2, 3, 4]), (7, [5, 6, 7, 8])].to_wire();
        let at = good
            .windows(needle.len())
            .position(|w| w == needle.as_slice())
            .expect("cache bytes present in the blob");
        let bad = [&good[..at], &dup, &good[at + needle.len()..]].concat();
        assert_eq!(
            Monitor::from_wire(&bad).err(),
            Some(WireError::BadValue {
                what: "map key order"
            })
        );
    }

    #[test]
    fn sparse_sandbox_ids_are_rejected() {
        let mut m = busy_monitor();
        // Forge a stream whose second sandbox claims id 5: the dense
        // slab invariant must be enforced by validation, not by the
        // insert assertion.
        m.sandboxes.get_mut(&2).expect("exists").id = SandboxId(5);
        let bytes = m.to_wire();
        assert!(matches!(
            Monitor::from_wire(&bytes),
            Err(erebor_wire::WireError::BadValue { .. })
        ));
    }
}
