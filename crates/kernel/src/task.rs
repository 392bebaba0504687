//! Tasks: process control blocks, VMAs and file descriptor tables.

use crate::vfs::FileDesc;
use erebor_core::sandbox::SandboxId;
use erebor_hw::regs::GprContext;
use erebor_hw::{Frame, VirtAddr};
use erebor_wire::{Wire, WireError, WireReader, WireWriter};
use std::collections::BTreeMap;

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

erebor_wire::wire_newtype!(Pid);

/// What kind of task this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// An ordinary (non-sandboxed) process — proxies, servers, tooling.
    Native,
    /// The userspace host of an EREBOR-SANDBOX container.
    Sandbox(SandboxId),
}

/// Migration: tag 0 for native, tag 1 followed by the sandbox id.
impl Wire for TaskKind {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            TaskKind::Native => w.u8(0),
            TaskKind::Sandbox(id) => w.put(&(1u8, *id)),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(TaskKind::Native),
            1 => Ok(TaskKind::Sandbox(r.get()?)),
            t => Err(WireError::BadTag {
                what: "TaskKind",
                tag: u64::from(t),
            }),
        }
    }
}

/// Scheduler state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Runnable.
    Ready,
    /// Currently on a CPU.
    Running,
    /// Waiting (futex, sleep).
    Blocked,
    /// Exited; awaiting reap.
    Zombie,
}

erebor_wire::wire_enum!(TaskState {
    Ready = 0,
    Running = 1,
    Blocked = 2,
    Zombie = 3
});

/// A virtual memory area.
#[derive(Debug, Clone)]
pub struct Vma {
    /// Inclusive start (page aligned).
    pub start: VirtAddr,
    /// Exclusive end (page aligned).
    pub end: VirtAddr,
    /// Writable.
    pub writable: bool,
    /// Executable.
    pub executable: bool,
    /// Pages actually materialized (demand paging).
    pub mapped: Vec<VirtAddr>,
}

erebor_wire::wire_struct!(Vma {
    start,
    end,
    writable,
    executable,
    mapped
});

impl Vma {
    /// Whether `va` falls inside the area.
    #[must_use]
    pub fn contains(&self, va: VirtAddr) -> bool {
        va.0 >= self.start.0 && va.0 < self.end.0
    }

    /// Size in pages.
    #[must_use]
    pub fn pages(&self) -> u64 {
        (self.end.0 - self.start.0) / erebor_hw::PAGE_SIZE as u64
    }
}

/// A process control block.
#[derive(Debug)]
pub struct Task {
    /// Identifier.
    pub pid: Pid,
    /// Kind (native vs sandbox host).
    pub kind: TaskKind,
    /// Address-space root.
    pub root: Frame,
    /// Scheduler state.
    pub state: TaskState,
    /// Saved user context.
    pub ctx: GprContext,
    /// Open file descriptors.
    pub fds: BTreeMap<u64, FileDesc>,
    /// Program-break top (heap).
    pub brk: VirtAddr,
    /// Memory areas.
    pub vmas: Vec<Vma>,
    /// Registered signal handlers (sig → user handler address).
    pub sig_handlers: BTreeMap<u64, VirtAddr>,
    /// Pending signals.
    pub pending_signals: Vec<u64>,
    /// Exit status if zombie.
    pub exit_status: Option<i64>,
    /// Next free mmap address (simple bump).
    pub mmap_cursor: VirtAddr,
}

// Migration: identity, scheduler state, the saved user context, fd
// table, VMAs, and signal machinery.
erebor_wire::wire_struct!(Task {
    pid,
    kind,
    root,
    state,
    ctx,
    fds,
    brk,
    vmas,
    sig_handlers,
    pending_signals,
    exit_status,
    mmap_cursor
});

impl Task {
    /// A fresh task with the conventional layout.
    #[must_use]
    pub fn new(pid: Pid, kind: TaskKind, root: Frame) -> Task {
        let mut fds = BTreeMap::new();
        fds.insert(0, FileDesc::Stdin);
        fds.insert(1, FileDesc::Stdout);
        fds.insert(2, FileDesc::Stdout);
        Task {
            pid,
            kind,
            root,
            state: TaskState::Ready,
            ctx: GprContext::default(),
            fds,
            brk: VirtAddr(0x0000_1000_0000),
            vmas: vec![Vma {
                start: VirtAddr(0x0000_1000_0000),
                end: VirtAddr(0x0000_1000_0000),
                writable: true,
                executable: false,
                mapped: Vec::new(),
            }],
            sig_handlers: BTreeMap::new(),
            pending_signals: Vec::new(),
            exit_status: None,
            mmap_cursor: VirtAddr(0x0000_2000_0000),
        }
    }

    /// The VMA containing `va`, if any.
    #[must_use]
    pub fn vma_for(&self, va: VirtAddr) -> Option<&Vma> {
        self.vmas.iter().find(|v| v.contains(va))
    }

    /// Mutable VMA lookup.
    pub fn vma_for_mut(&mut self, va: VirtAddr) -> Option<&mut Vma> {
        self.vmas.iter_mut().find(|v| v.contains(va))
    }

    /// Allocate the next free fd number.
    #[must_use]
    pub fn next_fd(&self) -> u64 {
        // `(3..)` is unbounded and `fds` is finite, so `find` always
        // yields; the fallback is unreachable.
        (3..)
            .find(|fd| !self.fds.contains_key(fd))
            .unwrap_or(u64::MAX)
    }

    /// The sandbox this task hosts, if any.
    #[must_use]
    pub fn sandbox(&self) -> Option<SandboxId> {
        match self.kind {
            TaskKind::Sandbox(id) => Some(id),
            TaskKind::Native => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_task_layout() {
        let t = Task::new(Pid(1), TaskKind::Native, Frame(10));
        assert_eq!(t.state, TaskState::Ready);
        assert!(t.fds.contains_key(&0) && t.fds.contains_key(&1) && t.fds.contains_key(&2));
        assert_eq!(t.next_fd(), 3);
        assert!(t.sandbox().is_none());
    }

    #[test]
    fn vma_lookup() {
        let mut t = Task::new(Pid(1), TaskKind::Native, Frame(10));
        t.vmas.push(Vma {
            start: VirtAddr(0x2000_0000),
            end: VirtAddr(0x2000_4000),
            writable: true,
            executable: false,
            mapped: Vec::new(),
        });
        assert!(t.vma_for(VirtAddr(0x2000_1234)).is_some());
        assert!(t.vma_for(VirtAddr(0x3000_0000)).is_none());
        assert_eq!(t.vma_for(VirtAddr(0x2000_0000)).map(Vma::pages), Some(4));
    }

    #[test]
    fn state_roundtrips_byte_exact() -> Result<(), WireError> {
        let mut t = Task::new(Pid(4), TaskKind::Sandbox(SandboxId(2)), Frame(99));
        t.state = TaskState::Blocked;
        t.ctx.gpr[0] = 0xdead;
        t.ctx.rip = 0x40_1000;
        t.fds.insert(5, FileDesc::File {
            path: "/tmp/x".to_string(),
            offset: 12,
        });
        t.vmas[0].mapped.push(VirtAddr(0x1000_0000));
        t.sig_handlers.insert(10, VirtAddr(0x40_2000));
        t.pending_signals.push(10);
        t.exit_status = Some(-3);
        let bytes = t.to_wire();
        let back = Task::from_wire(&bytes)?;
        assert_eq!(back.to_wire(), bytes);
        assert_eq!(back.sandbox(), Some(SandboxId(2)));
        assert_eq!(back.state, TaskState::Blocked);
        for cut in 0..bytes.len() {
            assert!(Task::from_wire(&bytes[..cut]).is_err());
        }
        Ok(())
    }
}
