//! # erebor-kernel — the deprivileged guest kernel
//!
//! A small but functional guest operating system that plays the role of the
//! paper's instrumented Linux v6.6: it manages tasks, scheduling, virtual
//! memory, files and signals — but it is **untrusted**, owns no sensitive
//! instruction, and reaches every Table 2 operation through the monitor's
//! EMC interface. Its executable image is synthesized bytes that the
//! monitor byte-scans at stage-two boot.
//!
//! Every privileged operation goes through one routine,
//! [`Hw::privileged`]: an EMC where the mode delegates the operation's
//! class, otherwise done directly at native cost — in the `Native`
//! configuration the same kernel runs *with* its hardware privileges (the
//! paper's baseline).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod image;
pub mod kernel;
pub mod syscall;
pub mod task;
pub mod vfs;
pub mod vm;

pub use kernel::{Hw, Kernel, KernelStats};
pub use syscall::{nr, Errno};
pub use task::{Pid, Task, TaskKind, TaskState};

/// Virtual addresses of the kernel's entry points inside its text image.
pub mod entry {
    use erebor_hw::layout::KERNEL_BASE;
    use erebor_hw::VirtAddr;

    /// Syscall entry (`entry_SYSCALL_64` analogue).
    pub const SYSCALL: VirtAddr = VirtAddr(KERNEL_BASE.0 + 0x100);
    /// Page-fault handler.
    pub const PF: VirtAddr = VirtAddr(KERNEL_BASE.0 + 0x200);
    /// General-protection handler.
    pub const GP: VirtAddr = VirtAddr(KERNEL_BASE.0 + 0x280);
    /// Invalid-opcode handler.
    pub const UD: VirtAddr = VirtAddr(KERNEL_BASE.0 + 0x300);
    /// `#VE` handler (GHCI path).
    pub const VE: VirtAddr = VirtAddr(KERNEL_BASE.0 + 0x380);
    /// Control-protection handler.
    pub const CP: VirtAddr = VirtAddr(KERNEL_BASE.0 + 0x3c0);
    /// APIC timer handler (scheduler tick).
    pub const TIMER: VirtAddr = VirtAddr(KERNEL_BASE.0 + 0x400);
    /// IPI handler.
    pub const IPI: VirtAddr = VirtAddr(KERNEL_BASE.0 + 0x480);
    /// External device handler.
    pub const DEVICE: VirtAddr = VirtAddr(KERNEL_BASE.0 + 0x500);
}
