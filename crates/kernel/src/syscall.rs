//! Syscall numbers (Linux x86-64 ABI) and error codes.

/// Syscall numbers the kernel implements (Linux x86-64 values).
pub mod nr {
    /// `read(fd, buf, len)`.
    pub const READ: u64 = 0;
    /// `write(fd, buf, len)`.
    pub const WRITE: u64 = 1;
    /// `open(path, flags)`.
    pub const OPEN: u64 = 2;
    /// `close(fd)`.
    pub const CLOSE: u64 = 3;
    /// `lseek(fd, off, whence)`.
    pub const LSEEK: u64 = 8;
    /// `mmap(addr, len, prot, flags, fd, off)`.
    pub const MMAP: u64 = 9;
    /// `munmap(addr, len)`.
    pub const MUNMAP: u64 = 11;
    /// `brk(addr)`.
    pub const BRK: u64 = 12;
    /// `rt_sigaction(sig, handler)`.
    pub const RT_SIGACTION: u64 = 13;
    /// `ioctl(fd, req, arg)`.
    pub const IOCTL: u64 = 16;
    /// `sched_yield()`.
    pub const SCHED_YIELD: u64 = 24;
    /// `nanosleep(ns)`.
    pub const NANOSLEEP: u64 = 35;
    /// `getpid()`.
    pub const GETPID: u64 = 39;
    /// `clone(flags, stack)`.
    pub const CLONE: u64 = 56;
    /// `fork()`.
    pub const FORK: u64 = 57;
    /// `exit(status)`.
    pub const EXIT: u64 = 60;
    /// `kill(pid, sig)`.
    pub const KILL: u64 = 62;
    /// `futex(addr, op, val)`.
    pub const FUTEX: u64 = 202;
}

/// Kernel error codes (negated Linux errno values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Errno {
    /// No such file or directory.
    Enoent,
    /// Bad file descriptor.
    Ebadf,
    /// Out of memory.
    Enomem,
    /// Bad address.
    Efault,
    /// Invalid argument.
    Einval,
    /// Function not implemented.
    Enosys,
    /// Operation not permitted.
    Eperm,
    /// No such process.
    Esrch,
    /// Try again (futex wait).
    Eagain,
}

impl Errno {
    /// The Linux numeric value.
    #[must_use]
    pub fn code(self) -> i64 {
        match self {
            Errno::Enoent => 2,
            Errno::Esrch => 3,
            Errno::Ebadf => 9,
            Errno::Eagain => 11,
            Errno::Enomem => 12,
            Errno::Efault => 14,
            Errno::Einval => 22,
            Errno::Enosys => 38,
            Errno::Eperm => 1,
        }
    }

    /// The value returned in `rax` (negated errno, Linux convention).
    #[must_use]
    pub fn as_ret(self) -> u64 {
        (-self.code()) as u64
    }
}

impl core::fmt::Display for Errno {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self:?}({})", self.code())
    }
}

impl std::error::Error for Errno {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_linux_values() {
        assert_eq!(Errno::Enoent.code(), 2);
        assert_eq!(Errno::Enomem.code(), 12);
        assert_eq!(Errno::Enoent.as_ret() as i64, -2);
    }
}
