//! The kernel proper: scheduler, syscall dispatch, fault handling, and the
//! `/dev/erebor` driver.
//!
//! ABI note: this simulated kernel passes syscall arguments as plain
//! values (`args[0..6]`) rather than marshalling C structs through user
//! pointers; buffer *contents* still cross the user/kernel boundary through
//! the monitor-emulated user-copy path, which is where Erebor's costs and
//! checks live.

use crate::syscall::{nr, Errno};
use crate::task::{Pid, Task, TaskKind, TaskState, Vma};
use crate::vfs::{FileDesc, Vfs};
use crate::{entry, vm};
use erebor_core::emc::EmcRequest;
use erebor_core::monitor::Monitor;
use erebor_core::sandbox::SandboxId;
use erebor_hw::cpu::Machine;
use erebor_hw::idt::vector;
use erebor_hw::regs::Msr;
use erebor_hw::{VirtAddr, PAGE_SIZE};
use erebor_tdx::TdxModule;
use erebor_wire::{index_by, Wire, WireError, WireReader, WireWriter};
use std::collections::{BTreeMap, VecDeque};

/// The hardware/monitor context a kernel entry point executes against.
pub struct Hw<'a> {
    /// The machine.
    pub machine: &'a mut Machine,
    /// The TDX module + host.
    pub tdx: &'a mut TdxModule,
    /// The security monitor.
    pub monitor: &'a mut Monitor,
    /// Executing core.
    pub cpu: usize,
}

impl core::fmt::Debug for Hw<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Hw").field("cpu", &self.cpu).finish_non_exhaustive()
    }
}

erebor_wire::counters! {
    /// Kernel event counters (Fig. 8 / Table 6 raw material).
    #[derive(Debug, Default, Clone, Copy)]
    pub struct KernelStats {
        /// Syscalls dispatched.
        pub syscalls: u64,
        /// Page faults handled.
        pub page_faults: u64,
        /// Timer ticks.
        pub timer_ticks: u64,
        /// Context switches performed.
        pub ctx_switches: u64,
        /// Processes forked.
        pub forks: u64,
        /// Signals delivered to user handlers.
        pub signals_delivered: u64,
        /// `#VE` exits handled for native tasks.
        pub ve_handled: u64,
    }
}

/// `ioctl` requests of the `/dev/erebor` driver (LibOS → kernel → EMC).
pub mod erebor_ioctl {
    /// Declare confined memory: `args[2]=va, args[3]=pages, args[4]=exec`.
    pub const DECLARE_CONFINED: u64 = 0x4100;
    /// Create a common region: `args[2]=pages, args[3]=logical_bytes`.
    pub const CREATE_COMMON: u64 = 0x4101;
    /// Attach a common region: `args[2]=region, args[3]=va`.
    pub const ATTACH_COMMON: u64 = 0x4102;
}

/// The guest kernel.
#[derive(Debug)]
pub struct Kernel {
    /// All tasks.
    pub tasks: BTreeMap<u32, Task>,
    /// Event counters.
    pub stats: KernelStats,
    /// The filesystem.
    pub vfs: Vfs,
    /// Captured stdout per task.
    pub stdout: BTreeMap<u32, Vec<u8>>,
    /// Swapped-out anonymous page contents, keyed by (root frame, va).
    swap: BTreeMap<(u64, u64), Vec<u8>>,
    /// Per-CPU running task (the paper's CVM has 8 vCPUs).
    current: BTreeMap<usize, Pid>,
    runqueue: VecDeque<Pid>,
    next_pid: u32,
    next_asid: u32,
    initialized: bool,
}

impl Default for Kernel {
    fn default() -> Kernel {
        Kernel::new()
    }
}

impl Kernel {
    /// A fresh, un-initialized kernel.
    #[must_use]
    pub fn new() -> Kernel {
        Kernel {
            tasks: BTreeMap::new(),
            stats: KernelStats::default(),
            vfs: Vfs::new(),
            stdout: BTreeMap::new(),
            swap: BTreeMap::new(),
            current: BTreeMap::new(),
            runqueue: VecDeque::new(),
            next_pid: 1,
            next_asid: 1,
            initialized: false,
        }
    }

    /// Kernel boot: register the syscall entry and every vector handler —
    /// through EMC under Erebor, directly when native.
    ///
    /// # Errors
    /// [`Errno::Eperm`] if registration is refused.
    pub fn init(&mut self, hw: &mut Hw<'_>) -> Result<(), Errno> {
        let vectors: [(u8, VirtAddr); 8] = [
            (vector::PF, entry::PF),
            (vector::GP, entry::GP),
            (vector::UD, entry::UD),
            (vector::VE, entry::VE),
            (vector::CP, entry::CP),
            (vector::TIMER, entry::TIMER),
            (vector::IPI, entry::IPI),
            (vector::DEVICE, entry::DEVICE),
        ];
        if hw.monitor.cfg.emc_delegation() {
            hw.monitor
                .emc(
                    hw.machine,
                    hw.tdx,
                    hw.cpu,
                    EmcRequest::WrMsr {
                        msr: Msr::Lstar,
                        value: entry::SYSCALL.0,
                    },
                )
                .map_err(|_| Errno::Eperm)?;
            for (vec, handler) in vectors {
                hw.monitor
                    .emc(
                        hw.machine,
                        hw.tdx,
                        hw.cpu,
                        EmcRequest::SetVectorHandler { vec, handler },
                    )
                    .map_err(|_| Errno::Eperm)?;
            }
        } else {
            for cpu in 0..hw.machine.cpus.len() {
                hw.machine
                    .wrmsr(cpu, Msr::Lstar, entry::SYSCALL.0)
                    .map_err(|_| Errno::Eperm)?;
            }
            for (vec, handler) in vectors {
                let va = erebor_core::boot::IDT_VA.add(u64::from(vec) * erebor_hw::idt::ENTRY_SIZE);
                hw.machine
                    .write_u64(hw.cpu, va, handler.0)
                    .map_err(|_| Errno::Eperm)?;
            }
        }
        self.initialized = true;
        Ok(())
    }

    /// Create a native task with its own address space.
    ///
    /// # Errors
    /// Allocation failures.
    pub fn spawn_native(&mut self, hw: &mut Hw<'_>) -> Result<Pid, Errno> {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let asid = self.next_asid;
        self.next_asid += 1;
        let root = vm::create_address_space(hw, asid)?;
        self.tasks
            .insert(pid.0, Task::new(pid, TaskKind::Native, root));
        self.runqueue.push_back(pid);
        Ok(pid)
    }

    /// Create a sandbox-host task: the monitor creates the container and
    /// its address space; the kernel only schedules it.
    ///
    /// # Errors
    /// Monitor refusal / allocation failures.
    pub fn spawn_sandbox(
        &mut self,
        hw: &mut Hw<'_>,
        budget_pages: u64,
    ) -> Result<(Pid, SandboxId), Errno> {
        let id = hw
            .monitor
            .create_sandbox(hw.machine, hw.cpu, budget_pages)
            .map_err(|_| Errno::Enomem)?;
        let root = hw.monitor.sandboxes.get(&id.0).ok_or(Errno::Esrch)?.root;
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let mut task = Task::new(pid, TaskKind::Sandbox(id), root);
        task.fds.insert(
            erebor_core::monitor::EREBOR_IO_FD,
            crate::vfs::FileDesc::EreborDev,
        );
        self.tasks.insert(pid.0, task);
        self.runqueue.push_back(pid);
        Ok((pid, id))
    }

    /// The task currently scheduled on CPU 0 (single-core drivers).
    #[must_use]
    pub fn current(&self) -> Option<Pid> {
        self.current_on(0)
    }

    /// The task currently scheduled on `cpu`.
    #[must_use]
    pub fn current_on(&self, cpu: usize) -> Option<Pid> {
        self.current.get(&cpu).copied()
    }

    /// Look up a task.
    #[must_use]
    pub fn task(&self, pid: Pid) -> Option<&Task> {
        self.tasks.get(&pid.0)
    }

    /// Make `pid` the running task on `hw.cpu` (address-space switch).
    ///
    /// # Errors
    /// [`Errno::Esrch`] for unknown pids.
    pub fn schedule(&mut self, hw: &mut Hw<'_>, pid: Pid) -> Result<(), Errno> {
        let root = self.tasks.get(&pid.0).ok_or(Errno::Esrch)?.root;
        let cpu = hw.cpu;
        if self.current.get(&cpu) != Some(&pid) {
            self.stats.ctx_switches = self.stats.ctx_switches.saturating_add(1);
            vm::switch_address_space(hw, root)?;
            if let Some(prev) = self.current.get(&cpu).copied() {
                if let Some(t) = self.tasks.get_mut(&prev.0) {
                    if t.state == TaskState::Running {
                        t.state = TaskState::Ready;
                    }
                }
            }
            self.current.insert(cpu, pid);
            if let Some(t) = self.tasks.get_mut(&pid.0) {
                t.state = TaskState::Running;
            }
        }
        Ok(())
    }

    /// Per-tick kernel housekeeping: timer reprogramming, RCU/kswapd-style
    /// page-table churn, vmstat updates. Under Erebor each of these MMU and
    /// MSR operations is an EMC — this is the system-wide delegation
    /// traffic behind the paper's 40–90k EMC/s (Table 6); natively the
    /// same operations cost tens of cycles.
    fn housekeeping(&mut self, hw: &mut Hw<'_>) {
        const CHURN_PAIRS: u64 = 34;
        let root = hw.monitor.kernel_root;
        for i in 0..CHURN_PAIRS {
            let va = VirtAddr(0x7000_0000_0000 + i * PAGE_SIZE as u64);
            if vm::map_user_page(hw, root, va, true, false).is_ok() {
                vm::unmap_user_page(hw, root, va).ok();
            }
        }
        // APIC timer reprogram + perf MSR update.
        if hw.monitor.cfg.emc_delegation() {
            hw.monitor
                .emc(
                    hw.machine,
                    hw.tdx,
                    hw.cpu,
                    EmcRequest::WrMsr {
                        msr: Msr::ApicTimer,
                        value: self.stats.timer_ticks,
                    },
                )
                .ok();
            hw.monitor
                .emc(
                    hw.machine,
                    hw.tdx,
                    hw.cpu,
                    EmcRequest::WrMsr {
                        msr: Msr::Fmask,
                        value: 0x4700,
                    },
                )
                .ok();
        } else {
            hw.machine
                .wrmsr(hw.cpu, Msr::ApicTimer, self.stats.timer_ticks)
                .ok();
            hw.machine.wrmsr(hw.cpu, Msr::Fmask, 0x4700).ok();
        }
    }

    /// The scheduler tick (timer interrupt body): round-robin.
    /// Returns the task to run next.
    pub fn on_timer(&mut self, hw: &mut Hw<'_>) -> Option<Pid> {
        self.stats.timer_ticks = self.stats.timer_ticks.saturating_add(1);
        self.housekeeping(hw);
        // Deliver any pending signals of the current task.
        if let Some(pid) = self.current_on(hw.cpu) {
            self.deliver_signals(pid);
        }
        let next = self.pick_next(hw.cpu);
        if let Some(pid) = next {
            self.schedule(hw, pid).ok()?;
        }
        self.current_on(hw.cpu)
    }

    fn pick_next(&mut self, cpu: usize) -> Option<Pid> {
        let n = self.runqueue.len();
        for _ in 0..n {
            let pid = self.runqueue.pop_front()?;
            self.runqueue.push_back(pid);
            let Some(t) = self.tasks.get(&pid.0) else {
                continue;
            };
            // Ready, or already running *on this cpu* (requeue).
            let runnable = t.state == TaskState::Ready
                || (t.state == TaskState::Running && self.current_on(cpu) == Some(pid));
            // Never steal a task that is running on another cpu.
            let elsewhere = self
                .current
                .iter()
                .any(|(c, p)| *c != cpu && *p == pid && t.state == TaskState::Running);
            if runnable && !elsewhere {
                return Some(pid);
            }
        }
        None
    }

    fn deliver_signals(&mut self, pid: Pid) {
        let Some(t) = self.tasks.get_mut(&pid.0) else {
            return;
        };
        let pending = std::mem::take(&mut t.pending_signals);
        for sig in pending {
            if t.sig_handlers.contains_key(&sig) {
                self.stats.signals_delivered = self.stats.signals_delivered.saturating_add(1);
                if t.state == TaskState::Blocked {
                    t.state = TaskState::Ready;
                }
            }
        }
    }

    /// Memory-pressure reclaim for native tasks: unmap the oldest
    /// materialized pages of large VMAs (kswapd analogue). Contents are
    /// dropped (anonymous pages "swap out"); re-touch faults them back in.
    pub fn reclaim_pages(&mut self, hw: &mut Hw<'_>, max_pages: u64) -> u64 {
        let mut reclaimed = 0u64;
        let pids: Vec<u32> = self.tasks.keys().copied().collect();
        for pid in pids {
            if reclaimed >= max_pages {
                break;
            }
            let (root, victims) = {
                let Some(t) = self.tasks.get_mut(&pid) else {
                    continue;
                };
                let mut victims = Vec::new();
                for vma in &mut t.vmas {
                    // Only large, cold-able regions; leave small buffers.
                    if vma.mapped.len() > 16 && reclaimed < max_pages {
                        let take = ((max_pages - reclaimed) as usize).min(vma.mapped.len() / 2);
                        victims.extend(vma.mapped.drain(..take));
                        reclaimed += take as u64;
                    }
                }
                (t.root, victims)
            };
            for page in &victims {
                let page = *page;
                // Swap out: preserve contents before dropping the frame.
                if let Some(contents) = erebor_hw::native::read_mapped_page(hw.machine, root, page)
                {
                    if contents.iter().any(|&b| b != 0) {
                        self.swap.insert((root.0, page.0), contents);
                    }
                }
                hw.machine.cycles.charge(hw.machine.costs.dma_page); // swap write-out
                vm::unmap_user_page(hw, root, page).ok();
            }
            if !hw.monitor.cfg.mmu_protection() {
                // One mm-targeted IPI round per reclaim sweep (native
                // path; delegated unmaps were shot down page-by-page by
                // the monitor).
                erebor_hw::native::flush_mm_range(hw.machine, hw.cpu, root, &victims);
            }
        }
        reclaimed
    }

    // =================================================================
    // Fault handling
    // =================================================================

    /// Page-fault handler (demand paging).
    ///
    /// # Errors
    /// [`Errno::Efault`] for accesses outside any VMA (segfault).
    pub fn handle_page_fault(
        &mut self,
        hw: &mut Hw<'_>,
        pid: Pid,
        va: VirtAddr,
        write: bool,
    ) -> Result<(), Errno> {
        self.stats.page_faults = self.stats.page_faults.saturating_add(1);
        hw.machine.cycles.charge(hw.machine.costs.pf_fixed);
        let (root, writable, executable) = {
            let t = self.tasks.get(&pid.0).ok_or(Errno::Esrch)?;
            let vma = t.vma_for(va).ok_or(Errno::Efault)?;
            if write && !vma.writable {
                return Err(Errno::Efault);
            }
            (t.root, vma.writable, vma.executable)
        };
        let page = va.page_base();
        vm::map_user_page(hw, root, page, writable, executable)?;
        // Swap in: restore preserved contents if the page was reclaimed.
        if let Some(contents) = self.swap.remove(&(root.0, page.0)) {
            hw.machine.cycles.charge(hw.machine.costs.dma_page); // swap read-in
            vm::copy_to_user(hw, root, page, &contents)?;
        }
        let t = self.tasks.get_mut(&pid.0).ok_or(Errno::Esrch)?;
        if let Some(vma) = t.vma_for_mut(va) {
            vma.mapped.push(page);
        }
        Ok(())
    }

    /// `#VE` handler for *native* tasks: performs the GHCI round trip on
    /// behalf of the guest (Fig. 1 ③–⑤). Under Erebor this is an EMC
    /// (`ConvertShared`) or is monitor-handled; native kernels tdcall
    /// directly — both paths are exercised by the Fig. 10 workloads.
    pub fn handle_ve_native(&mut self, _hw: &mut Hw<'_>) {
        self.stats.ve_handled = self.stats.ve_handled.saturating_add(1);
    }

    // =================================================================
    // Syscall dispatch
    // =================================================================

    /// Dispatch a syscall for `pid`. Returns the `rax` value (result or
    /// negated errno).
    pub fn handle_syscall(
        &mut self,
        hw: &mut Hw<'_>,
        pid: Pid,
        syscall_nr: u64,
        args: [u64; 6],
    ) -> u64 {
        debug_assert!(self.initialized, "kernel entries not registered");
        self.stats.syscalls = self.stats.syscalls.saturating_add(1);
        hw.machine.cycles.charge(hw.machine.costs.syscall_dispatch);
        match self.do_syscall(hw, pid, syscall_nr, args) {
            Ok(v) => v,
            Err(e) => e.as_ret(),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn do_syscall(
        &mut self,
        hw: &mut Hw<'_>,
        pid: Pid,
        syscall_nr: u64,
        args: [u64; 6],
    ) -> Result<u64, Errno> {
        match syscall_nr {
            nr::GETPID => Ok(u64::from(pid.0)),
            nr::SCHED_YIELD => Ok(0),
            nr::NANOSLEEP => {
                // Charge the requested nanoseconds as idle cycles (2.1 GHz).
                hw.machine.cycles.charge(args[0].saturating_mul(21) / 10);
                Ok(0)
            }
            nr::EXIT => {
                let t = self.tasks.get_mut(&pid.0).ok_or(Errno::Esrch)?;
                t.state = TaskState::Zombie;
                t.exit_status = Some(args[0] as i64);
                self.current.retain(|_, p| *p != pid);
                Ok(0)
            }
            nr::BRK => {
                let t = self.tasks.get_mut(&pid.0).ok_or(Errno::Esrch)?;
                let new = VirtAddr(args[0]);
                if new.0 == 0 {
                    return Ok(t.brk.0);
                }
                let heap = t.vmas.get_mut(0).ok_or(Errno::Einval)?;
                if new.0 < heap.start.0 {
                    return Err(Errno::Einval);
                }
                heap.end = VirtAddr(new.0.next_multiple_of(PAGE_SIZE as u64));
                t.brk = new;
                Ok(new.0)
            }
            nr::MMAP => {
                let len = args[1];
                if len == 0 {
                    return Err(Errno::Einval);
                }
                let prot = args[2];
                let t = self.tasks.get_mut(&pid.0).ok_or(Errno::Esrch)?;
                let size = len.next_multiple_of(PAGE_SIZE as u64);
                // MAP_FIXED-style placement when a hint is given (page
                // aligned, user half, no overlap); otherwise bump-allocate.
                let start = if args[0] != 0 {
                    let hint = VirtAddr(args[0]);
                    if hint.page_offset() != 0 || !erebor_hw::layout::is_user(hint) {
                        return Err(Errno::Einval);
                    }
                    let end = hint.add(size);
                    if t.vmas.iter().any(|v| hint.0 < v.end.0 && v.start.0 < end.0) {
                        return Err(Errno::Einval);
                    }
                    hint
                } else {
                    let start = t.mmap_cursor;
                    t.mmap_cursor = start.add(size + PAGE_SIZE as u64); // guard page
                    start
                };
                t.vmas.push(Vma {
                    start,
                    end: start.add(size),
                    writable: prot & 2 != 0,
                    executable: prot & 4 != 0,
                    mapped: Vec::new(),
                });
                Ok(start.0)
            }
            nr::MUNMAP => {
                let start = VirtAddr(args[0]);
                let (root, mapped, idx) = {
                    let t = self.tasks.get(&pid.0).ok_or(Errno::Esrch)?;
                    let idx = t
                        .vmas
                        .iter()
                        .position(|v| v.start == start)
                        .ok_or(Errno::Einval)?;
                    (t.root, t.vmas[idx].mapped.clone(), idx)
                };
                for page in &mapped {
                    vm::unmap_user_page(hw, root, *page).ok();
                }
                if !hw.monitor.cfg.mmu_protection() {
                    // Native path: one mm-targeted IPI round for the
                    // whole range (under delegation the monitor's
                    // per-page EMC unmap already shot each page down).
                    erebor_hw::native::flush_mm_range(hw.machine, hw.cpu, root, &mapped);
                }
                let t = self.tasks.get_mut(&pid.0).ok_or(Errno::Esrch)?;
                t.vmas.remove(idx);
                Ok(0)
            }
            nr::MPROTECT => {
                let start = VirtAddr(args[0]);
                let writable = args[2] & 2 != 0;
                let (root, mapped) = {
                    let t = self.tasks.get_mut(&pid.0).ok_or(Errno::Esrch)?;
                    let vma = t.vma_for_mut(start).ok_or(Errno::Einval)?;
                    vma.writable = writable;
                    (
                        t.root,
                        t.vma_for(start).ok_or(Errno::Einval)?.mapped.clone(),
                    )
                };
                for page in mapped {
                    if hw.monitor.cfg.emc_delegation() {
                        hw.monitor
                            .emc(
                                hw.machine,
                                hw.tdx,
                                hw.cpu,
                                EmcRequest::ProtectUserPage {
                                    root,
                                    va: page,
                                    writable,
                                },
                            )
                            .map_err(|_| Errno::Eperm)?;
                    }
                }
                Ok(0)
            }
            nr::OPEN => {
                // args: [path_ptr, path_len, flags] — see module ABI note.
                let path_bytes = self.read_user(hw, pid, VirtAddr(args[0]), args[1] as usize)?;
                let path = String::from_utf8(path_bytes).map_err(|_| Errno::Einval)?;
                let create = args[2] & 0x40 != 0; // O_CREAT
                let desc = self.vfs.open(&path, create)?;
                let t = self.tasks.get_mut(&pid.0).ok_or(Errno::Esrch)?;
                let fd = t.next_fd();
                t.fds.insert(fd, desc);
                Ok(fd)
            }
            nr::CLOSE => {
                let t = self.tasks.get_mut(&pid.0).ok_or(Errno::Esrch)?;
                t.fds.remove(&args[0]).ok_or(Errno::Ebadf)?;
                Ok(0)
            }
            nr::LSEEK => {
                let t = self.tasks.get_mut(&pid.0).ok_or(Errno::Esrch)?;
                match t.fds.get_mut(&args[0]) {
                    Some(FileDesc::File { offset, .. }) => {
                        *offset = args[1];
                        Ok(args[1])
                    }
                    Some(_) => Err(Errno::Einval),
                    None => Err(Errno::Ebadf),
                }
            }
            nr::READ => {
                let fd_num = args[0];
                let mut desc = {
                    let t = self.tasks.get(&pid.0).ok_or(Errno::Esrch)?;
                    t.fds.get(&fd_num).ok_or(Errno::Ebadf)?.clone()
                };
                let len = args[2] as usize;
                let mut tmp = vec![0u8; len];
                let n = self.vfs.read(&mut desc, &mut tmp)?;
                self.write_user(hw, pid, VirtAddr(args[1]), &tmp[..n])?;
                let t = self.tasks.get_mut(&pid.0).ok_or(Errno::Esrch)?;
                t.fds.insert(fd_num, desc);
                Ok(n as u64)
            }
            nr::WRITE => {
                let fd_num = args[0];
                let mut desc = {
                    let t = self.tasks.get(&pid.0).ok_or(Errno::Esrch)?;
                    t.fds.get(&fd_num).ok_or(Errno::Ebadf)?.clone()
                };
                let data = self.read_user(hw, pid, VirtAddr(args[1]), args[2] as usize)?;
                if matches!(desc, FileDesc::Stdout) {
                    self.stdout
                        .entry(pid.0)
                        .or_default()
                        .extend_from_slice(&data);
                }
                let n = self.vfs.write(&mut desc, &data)?;
                let t = self.tasks.get_mut(&pid.0).ok_or(Errno::Esrch)?;
                t.fds.insert(fd_num, desc);
                Ok(n as u64)
            }
            nr::IOCTL => self.do_ioctl(hw, pid, args),
            nr::RT_SIGACTION => {
                let t = self.tasks.get_mut(&pid.0).ok_or(Errno::Esrch)?;
                t.sig_handlers.insert(args[0], VirtAddr(args[1]));
                Ok(0)
            }
            nr::KILL => {
                let target = Pid(args[0] as u32);
                let sig = args[1];
                let t = self.tasks.get_mut(&target.0).ok_or(Errno::Esrch)?;
                t.pending_signals.push(sig);
                // Immediate delivery if a handler is installed (lmbench's
                // signal-catch path).
                self.deliver_signals(target);
                Ok(0)
            }
            nr::FUTEX => {
                const FUTEX_WAIT: u64 = 0;
                const FUTEX_WAKE: u64 = 1;
                match args[1] {
                    FUTEX_WAIT => {
                        let t = self.tasks.get_mut(&pid.0).ok_or(Errno::Esrch)?;
                        t.state = TaskState::Blocked;
                        Ok(0)
                    }
                    FUTEX_WAKE => {
                        let mut woken = 0u64;
                        for t in self.tasks.values_mut() {
                            if t.state == TaskState::Blocked && woken < args[2] {
                                t.state = TaskState::Ready;
                                woken += 1;
                            }
                        }
                        Ok(woken)
                    }
                    _ => Err(Errno::Enosys),
                }
            }
            nr::FORK => self.do_fork(hw, pid),
            nr::CLONE => {
                // Thread-style clone: shares the address space.
                let (root, kind) = {
                    let t = self.tasks.get(&pid.0).ok_or(Errno::Esrch)?;
                    (t.root, t.kind)
                };
                let child = Pid(self.next_pid);
                self.next_pid += 1;
                self.tasks.insert(child.0, Task::new(child, kind, root));
                self.runqueue.push_back(child);
                Ok(u64::from(child.0))
            }
            _ => Err(Errno::Enosys),
        }
    }

    fn do_ioctl(&mut self, hw: &mut Hw<'_>, pid: Pid, args: [u64; 6]) -> Result<u64, Errno> {
        let desc = {
            let t = self.tasks.get(&pid.0).ok_or(Errno::Esrch)?;
            t.fds.get(&args[0]).ok_or(Errno::Ebadf)?.clone()
        };
        match desc {
            FileDesc::EreborDev => {
                let (sandbox, _root) = {
                    let t = self.tasks.get(&pid.0).ok_or(Errno::Esrch)?;
                    (t.sandbox().ok_or(Errno::Eperm)?, t.root)
                };
                match args[1] {
                    erebor_core::monitor::IOCTL_INPUT | erebor_core::monitor::IOCTL_OUTPUT => {
                        // Ablation without exit interposition: the driver
                        // forwards the data channel to the monitor.
                        match hw.monitor.sandbox_io(hw.machine, hw.tdx, hw.cpu, sandbox) {
                            erebor_core::sandbox::ExitDecision::Handled { rax } => Ok(rax),
                            _ => Err(Errno::Eperm),
                        }
                    }
                    erebor_ioctl::DECLARE_CONFINED => {
                        hw.monitor
                            .emc(
                                hw.machine,
                                hw.tdx,
                                hw.cpu,
                                EmcRequest::DeclareConfined {
                                    sandbox: sandbox.0,
                                    va: VirtAddr(args[2]),
                                    pages: args[3],
                                    executable: args[4] != 0,
                                },
                            )
                            .map_err(|_| Errno::Eperm)?;
                        Ok(0)
                    }
                    erebor_ioctl::CREATE_COMMON => {
                        match hw.monitor.emc(
                            hw.machine,
                            hw.tdx,
                            hw.cpu,
                            EmcRequest::CreateCommon {
                                pages: args[2],
                                logical_bytes: args[3],
                            },
                        ) {
                            Ok(erebor_core::emc::EmcResponse::Region(id)) => Ok(u64::from(id)),
                            _ => Err(Errno::Eperm),
                        }
                    }
                    erebor_ioctl::ATTACH_COMMON => {
                        hw.monitor
                            .emc(
                                hw.machine,
                                hw.tdx,
                                hw.cpu,
                                EmcRequest::AttachCommon {
                                    sandbox: sandbox.0,
                                    region: args[2] as u32,
                                    va: VirtAddr(args[3]),
                                },
                            )
                            .map_err(|_| Errno::Eperm)?;
                        Ok(0)
                    }
                    _ => Err(Errno::Einval),
                }
            }
            _ => Err(Errno::Einval),
        }
    }

    fn do_fork(&mut self, hw: &mut Hw<'_>, pid: Pid) -> Result<u64, Errno> {
        self.stats.forks = self.stats.forks.saturating_add(1);
        let asid = self.next_asid;
        self.next_asid += 1;
        let child_root = vm::create_address_space(hw, asid)?;
        let (parent_root, vmas, kind) = {
            let t = self.tasks.get(&pid.0).ok_or(Errno::Esrch)?;
            (t.root, t.vmas.clone(), t.kind)
        };
        // Eagerly copy every materialized page (the expensive MMU-heavy
        // path the paper's fork benchmark measures). With batched MMU
        // updates (§9.1) contiguous runs are mapped in one EMC.
        for vma in &vmas {
            if hw.monitor.cfg.batched_mmu {
                let mut sorted = vma.mapped.clone();
                sorted.sort_unstable_by_key(|v| v.0);
                sorted.dedup();
                let mut i = 0;
                while i < sorted.len() {
                    let mut run = 1;
                    while i + run < sorted.len()
                        && sorted[i + run].0 == sorted[i].0 + (run * PAGE_SIZE) as u64
                    {
                        run += 1;
                    }
                    vm::map_user_range(hw, child_root, sorted[i], run as u64, vma.writable)?;
                    i += run;
                }
            } else {
                for page in &vma.mapped {
                    vm::map_user_page(hw, child_root, *page, vma.writable, vma.executable)?;
                }
            }
            for page in &vma.mapped {
                let data = vm::copy_from_user(hw, parent_root, *page, PAGE_SIZE)?;
                vm::copy_to_user(hw, child_root, *page, &data)?;
            }
        }
        let child = Pid(self.next_pid);
        self.next_pid += 1;
        let mut task = Task::new(child, kind, child_root);
        task.vmas = vmas;
        self.tasks.insert(child.0, task);
        self.runqueue.push_back(child);
        Ok(u64::from(child.0))
    }

    // =================================================================
    // User-copy helpers (route through the monitor under Erebor)
    // =================================================================

    /// Read a user buffer on a task's behalf (faulting pages in first).
    ///
    /// # Errors
    /// [`Errno::Efault`] on unmapped/forbidden ranges.
    pub fn read_user(
        &mut self,
        hw: &mut Hw<'_>,
        pid: Pid,
        va: VirtAddr,
        len: usize,
    ) -> Result<Vec<u8>, Errno> {
        let root = self.tasks.get(&pid.0).ok_or(Errno::Esrch)?.root;
        self.ensure_mapped(hw, pid, va, len, false)?;
        vm::copy_from_user(hw, root, va, len)
    }

    /// Write a user buffer on a task's behalf (faulting pages in first).
    ///
    /// # Errors
    /// [`Errno::Efault`] on unmapped/forbidden ranges.
    pub fn write_user(
        &mut self,
        hw: &mut Hw<'_>,
        pid: Pid,
        va: VirtAddr,
        bytes: &[u8],
    ) -> Result<(), Errno> {
        let root = self.tasks.get(&pid.0).ok_or(Errno::Esrch)?.root;
        self.ensure_mapped(hw, pid, va, bytes.len(), true)?;
        vm::copy_to_user(hw, root, va, bytes)
    }

    /// Fault in any unmapped pages of a user range before a copy (the
    /// kernel's `fixup` path).
    fn ensure_mapped(
        &mut self,
        hw: &mut Hw<'_>,
        pid: Pid,
        va: VirtAddr,
        len: usize,
        write: bool,
    ) -> Result<(), Errno> {
        if len == 0 {
            return Ok(());
        }
        let root = self.tasks.get(&pid.0).ok_or(Errno::Esrch)?.root;
        let mut page = va.page_base();
        let end = va.add(len as u64 - 1).page_base();
        loop {
            if !erebor_hw::native::is_mapped(hw.machine, root, page) {
                self.handle_page_fault(hw, pid, page, write)?;
            }
            if page == end {
                break;
            }
            page = page.add(PAGE_SIZE as u64);
        }
        Ok(())
    }
}

/// Live migration: every task (each a nested blob, in pid order), the
/// counters, the filesystem, captured stdout, swapped-out page contents,
/// and the scheduler state. Everything is validated before assembly — a
/// torn stream yields an error, not a half-imported scheduler: every pid
/// the runqueue or a CPU names must be a known task, and `next_pid` must
/// be past them all.
impl Wire for Kernel {
    fn encode(&self, w: &mut WireWriter) {
        w.nested_seq(self.tasks.values());
        w.put(&self.stats);
        w.nested(&self.vfs);
        w.put(&self.stdout);
        w.put(&self.swap);
        w.put(&self.current);
        w.put(&self.runqueue);
        w.put(&self.next_pid);
        w.put(&self.next_asid);
        w.put(&self.initialized);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let tasks = index_by(r.nested_seq()?, |task: &Task| task.pid.0)?;
        let k = Kernel {
            tasks,
            stats: r.get()?,
            vfs: r.nested()?,
            stdout: r.get()?,
            swap: r.get()?,
            current: r.get()?,
            runqueue: r.get()?,
            next_pid: r.get()?,
            next_asid: r.get()?,
            initialized: r.get()?,
        };
        if k.current.values().any(|pid| !k.tasks.contains_key(&pid.0)) {
            return Err(WireError::BadValue {
                what: "current pid unknown",
            });
        }
        if k.runqueue.iter().any(|pid| !k.tasks.contains_key(&pid.0)) {
            return Err(WireError::BadValue {
                what: "runqueue pid unknown",
            });
        }
        if k.tasks.keys().any(|&pid| pid >= k.next_pid) {
            return Err(WireError::BadValue {
                what: "next pid not past live pids",
            });
        }
        Ok(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erebor_core::boot::{boot_stage1, BootConfig, Cvm};
    use erebor_core::config::{ExecConfig, Mode};
    use erebor_hw::image::Image;
    use erebor_hw::layout::KERNEL_BASE;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    /// Captured stdout naming one pid twice used to merge silently; the
    /// map rule now refuses it (a map encodes as a `Vec` of its pairs,
    /// which is how the duplicate is planted).
    #[test]
    fn duplicate_stdout_pid_is_refused() -> Result<(), WireError> {
        let mut k = Kernel::new();
        k.stdout.insert(1, b"a".to_vec());
        let good = k.to_wire();
        Kernel::from_wire(&good)?;
        let needle = k.stdout.to_wire();
        let at = good
            .windows(needle.len())
            .position(|w| w == needle.as_slice())
            .ok_or(WireError::BadValue {
                what: "stdout bytes",
            })?;
        let dup = vec![(1u32, b"a".to_vec()), (1u32, b"b".to_vec())].to_wire();
        let bad = [&good[..at], &dup, &good[at + needle.len()..]].concat();
        assert_eq!(
            Kernel::from_wire(&bad).err(),
            Some(WireError::BadValue {
                what: "map key order"
            })
        );
        Ok(())
    }

    fn booted(mode: Mode) -> Result<(Cvm, Kernel), Box<dyn std::error::Error>> {
        let cfg = BootConfig {
            cores: 2,
            dram_bytes: 48 * 1024 * 1024,
            config: ExecConfig::new(mode),
            seed: 11,
            paravisor: false,
        };
        let kernel_img = Image::builder("k")
            .benign_text(".text", KERNEL_BASE, 64 * 1024, 5)
            .entry(KERNEL_BASE)
            .build();
        let mut cvm = boot_stage1(cfg)?;
        cvm.load_kernel(&kernel_img)?;
        cvm.enter_kernel()?;
        let kernel = Kernel::new();
        Ok((cvm, kernel))
    }

    fn hw(cvm: &mut Cvm) -> Hw<'_> {
        Hw {
            machine: &mut cvm.machine,
            tdx: &mut cvm.tdx,
            monitor: &mut cvm.monitor,
            cpu: 0,
        }
    }

    #[test]
    fn init_registers_entries_via_emc() -> TestResult {
        let (mut cvm, mut kernel) = booted(Mode::Full)?;
        kernel.init(&mut hw(&mut cvm))?;
        assert_eq!(cvm.monitor.kernel_syscall_entry(), Some(entry::SYSCALL));
        assert_eq!(
            cvm.monitor.kernel_vector_handler(vector::PF),
            Some(entry::PF)
        );
        // The hardware LSTAR still points at the monitor's interposer.
        assert_eq!(
            cvm.machine.cpus[0].msr(Msr::Lstar),
            cvm.monitor.syscall_interposer.0
        );
        assert!(cvm.monitor.stats.emc_calls >= 9);
        Ok(())
    }

    #[test]
    fn init_native_writes_hardware_directly() -> TestResult {
        let (mut cvm, mut kernel) = booted(Mode::Native)?;
        kernel.init(&mut hw(&mut cvm))?;
        assert_eq!(cvm.machine.cpus[0].msr(Msr::Lstar), entry::SYSCALL.0);
        assert_eq!(cvm.monitor.stats.emc_calls, 0);
        Ok(())
    }

    #[test]
    fn spawn_and_schedule_tasks() -> TestResult {
        let (mut cvm, mut kernel) = booted(Mode::Full)?;
        kernel.init(&mut hw(&mut cvm))?;
        let a = kernel.spawn_native(&mut hw(&mut cvm))?;
        let b = kernel.spawn_native(&mut hw(&mut cvm))?;
        assert_ne!(a, b);
        kernel.schedule(&mut hw(&mut cvm), a)?;
        assert_eq!(kernel.current(), Some(a));
        let next = kernel.on_timer(&mut hw(&mut cvm)).ok_or(Errno::Esrch)?;
        assert!(next == a || next == b);
        assert!(kernel.stats.ctx_switches >= 1);
        Ok(())
    }

    #[test]
    fn mmap_pagefault_write_read_roundtrip() -> TestResult {
        let (mut cvm, mut kernel) = booted(Mode::Full)?;
        kernel.init(&mut hw(&mut cvm))?;
        let pid = kernel.spawn_native(&mut hw(&mut cvm))?;
        kernel.schedule(&mut hw(&mut cvm), pid)?;
        let addr = kernel.handle_syscall(&mut hw(&mut cvm), pid, nr::MMAP, [0, 8192, 3, 0, 0, 0]);
        assert!((addr as i64) > 0);
        // Demand-fault the pages via a user copy.
        let pf_before = kernel.stats.page_faults;
        kernel.write_user(
            &mut cvm_hw(&mut cvm),
            pid,
            VirtAddr(addr),
            b"hello across pages",
        )?;
        assert!(kernel.stats.page_faults > pf_before);
        let back = kernel.read_user(&mut cvm_hw(&mut cvm), pid, VirtAddr(addr), 18)?;
        assert_eq!(&back, b"hello across pages");
        Ok(())
    }

    fn cvm_hw(cvm: &mut Cvm) -> Hw<'_> {
        Hw {
            machine: &mut cvm.machine,
            tdx: &mut cvm.tdx,
            monitor: &mut cvm.monitor,
            cpu: 0,
        }
    }

    #[test]
    fn segfault_outside_vma() -> TestResult {
        let (mut cvm, mut kernel) = booted(Mode::Full)?;
        kernel.init(&mut hw(&mut cvm))?;
        let pid = kernel.spawn_native(&mut hw(&mut cvm))?;
        let r = kernel.handle_page_fault(&mut cvm_hw(&mut cvm), pid, VirtAddr(0x7f00_dead_0000), true);
        assert_eq!(r, Err(Errno::Efault));
        Ok(())
    }

    #[test]
    fn vfs_syscalls_through_user_copies() -> TestResult {
        let (mut cvm, mut kernel) = booted(Mode::Full)?;
        kernel.init(&mut hw(&mut cvm))?;
        let pid = kernel.spawn_native(&mut hw(&mut cvm))?;
        kernel.schedule(&mut hw(&mut cvm), pid)?;
        kernel.vfs.put("/data/input.txt", b"file contents".to_vec());
        // Stage the path string in user memory.
        let buf =
            kernel.handle_syscall(&mut cvm_hw(&mut cvm), pid, nr::MMAP, [0, 4096, 3, 0, 0, 0]);
        kernel.write_user(&mut cvm_hw(&mut cvm), pid, VirtAddr(buf), b"/data/input.txt")?;
        let fd = kernel.handle_syscall(&mut cvm_hw(&mut cvm), pid, nr::OPEN, [buf, 15, 0, 0, 0, 0]);
        assert!((fd as i64) >= 3, "open returned {fd}");
        let data_buf = buf + 1024;
        let n = kernel.handle_syscall(
            &mut cvm_hw(&mut cvm),
            pid,
            nr::READ,
            [fd, data_buf, 13, 0, 0, 0],
        );
        assert_eq!(n, 13);
        let back = kernel.read_user(&mut cvm_hw(&mut cvm), pid, VirtAddr(data_buf), 13)?;
        assert_eq!(&back, b"file contents");
        Ok(())
    }

    #[test]
    fn fork_copies_address_space() -> TestResult {
        let (mut cvm, mut kernel) = booted(Mode::Full)?;
        kernel.init(&mut hw(&mut cvm))?;
        let pid = kernel.spawn_native(&mut hw(&mut cvm))?;
        kernel.schedule(&mut hw(&mut cvm), pid)?;
        let addr =
            kernel.handle_syscall(&mut cvm_hw(&mut cvm), pid, nr::MMAP, [0, 4096, 3, 0, 0, 0]);
        kernel.write_user(&mut cvm_hw(&mut cvm), pid, VirtAddr(addr), b"parent data")?;
        let child = kernel.handle_syscall(&mut cvm_hw(&mut cvm), pid, nr::FORK, [0; 6]);
        assert!((child as i64) > 0);
        let child_pid = Pid(child as u32);
        let back = kernel.read_user(&mut cvm_hw(&mut cvm), child_pid, VirtAddr(addr), 11)?;
        assert_eq!(&back, b"parent data");
        // Writes in the child do not affect the parent (separate spaces).
        kernel.write_user(&mut cvm_hw(&mut cvm), child_pid, VirtAddr(addr), b"child  data")?;
        let parent = kernel.read_user(&mut cvm_hw(&mut cvm), pid, VirtAddr(addr), 11)?;
        assert_eq!(&parent, b"parent data");
        assert_eq!(kernel.stats.forks, 1);
        Ok(())
    }

    #[test]
    fn signals_registered_and_delivered() -> TestResult {
        let (mut cvm, mut kernel) = booted(Mode::Full)?;
        kernel.init(&mut hw(&mut cvm))?;
        let pid = kernel.spawn_native(&mut hw(&mut cvm))?;
        kernel.schedule(&mut hw(&mut cvm), pid)?;
        kernel.handle_syscall(
            &mut cvm_hw(&mut cvm),
            pid,
            nr::RT_SIGACTION,
            [10, 0x40_2000, 0, 0, 0, 0],
        );
        kernel.handle_syscall(
            &mut cvm_hw(&mut cvm),
            pid,
            nr::KILL,
            [u64::from(pid.0), 10, 0, 0, 0, 0],
        );
        assert_eq!(kernel.stats.signals_delivered, 1);
        Ok(())
    }

    #[test]
    fn unknown_syscall_is_enosys() -> TestResult {
        let (mut cvm, mut kernel) = booted(Mode::Full)?;
        kernel.init(&mut hw(&mut cvm))?;
        let pid = kernel.spawn_native(&mut hw(&mut cvm))?;
        let r = kernel.handle_syscall(&mut cvm_hw(&mut cvm), pid, 9999, [0; 6]);
        assert_eq!(r as i64, -38);
        Ok(())
    }

    #[test]
    fn futex_wait_wake() -> TestResult {
        let (mut cvm, mut kernel) = booted(Mode::Full)?;
        kernel.init(&mut hw(&mut cvm))?;
        let pid = kernel.spawn_native(&mut hw(&mut cvm))?;
        kernel.handle_syscall(
            &mut cvm_hw(&mut cvm),
            pid,
            nr::FUTEX,
            [0x1000, 0, 0, 0, 0, 0],
        );
        assert_eq!(kernel.task(pid).map(|t| t.state), Some(TaskState::Blocked));
        kernel.handle_syscall(
            &mut cvm_hw(&mut cvm),
            pid,
            nr::FUTEX,
            [0x1000, 1, 1, 0, 0, 0],
        );
        assert_eq!(kernel.task(pid).map(|t| t.state), Some(TaskState::Ready));
        Ok(())
    }

    #[test]
    fn kernel_state_roundtrips_byte_exact() -> TestResult {
        let (mut cvm, mut kernel) = booted(Mode::Full)?;
        kernel.init(&mut hw(&mut cvm))?;
        let pid = kernel.spawn_native(&mut hw(&mut cvm))?;
        kernel.schedule(&mut hw(&mut cvm), pid)?;
        let addr =
            kernel.handle_syscall(&mut cvm_hw(&mut cvm), pid, nr::MMAP, [0, 8192, 3, 0, 0, 0]);
        kernel.write_user(&mut cvm_hw(&mut cvm), pid, VirtAddr(addr), b"resident data")?;
        kernel.vfs.put("/data/f", b"contents".to_vec());
        kernel.handle_syscall(&mut cvm_hw(&mut cvm), pid, nr::WRITE, [1, addr, 8, 0, 0, 0]);
        let bytes = kernel.to_wire();
        let back = Kernel::from_wire(&bytes)?;
        assert_eq!(back.to_wire(), bytes, "fixed point");
        assert_eq!(back.current(), Some(pid));
        assert_eq!(back.stats.syscalls, kernel.stats.syscalls);
        // Truncation sweep: no prefix imports (step keeps it fast).
        for cut in (0..bytes.len()).step_by(5).chain([bytes.len() - 1]) {
            assert!(Kernel::from_wire(&bytes[..cut]).is_err());
        }
        Ok(())
    }

    #[test]
    fn kernel_import_rejects_dangling_scheduler_refs() -> TestResult {
        let (mut cvm, mut kernel) = booted(Mode::Full)?;
        kernel.init(&mut hw(&mut cvm))?;
        let pid = kernel.spawn_native(&mut hw(&mut cvm))?;
        kernel.schedule(&mut hw(&mut cvm), pid)?;
        // Forge a stream whose runqueue names a pid with no task.
        kernel.runqueue.push_back(Pid(999));
        let bytes = kernel.to_wire();
        assert!(matches!(
            Kernel::from_wire(&bytes),
            Err(erebor_wire::WireError::BadValue { .. })
        ));
        Ok(())
    }
}
