//! Kernel virtual-memory operations: typed wrappers over
//! [`Hw::privileged`], which delegates each one through EMC or performs
//! it natively as the mode prescribes — the MMU row of Table 4.

use crate::kernel::Hw;
use crate::syscall::Errno;
use erebor_core::emc::{CopyDir, EmcError, EmcRequest, EmcResponse};
use erebor_hw::{native, Frame, VirtAddr};

/// Create a user address space.
///
/// # Errors
/// [`Errno::Enomem`] on allocation failure.
pub fn create_address_space(hw: &mut Hw<'_>, asid: u32) -> Result<Frame, Errno> {
    match hw.privileged(EmcRequest::CreateAddressSpace { asid }) {
        Ok(EmcResponse::Root(root)) => Ok(root),
        _ => Err(Errno::Enomem),
    }
}

/// Map one anonymous user page (demand-paging fill). Returns the frame.
///
/// # Errors
/// [`Errno::Enomem`] / [`Errno::Eperm`] per the monitor's policy.
pub fn map_user_page(
    hw: &mut Hw<'_>,
    root: Frame,
    va: VirtAddr,
    writable: bool,
    executable: bool,
) -> Result<Frame, Errno> {
    match hw.privileged(EmcRequest::MapUserPage {
        root,
        va,
        frame: None,
        writable,
        executable,
    }) {
        Ok(EmcResponse::Mapped(f)) => Ok(f),
        Err(EmcError::NoMemory) => Err(Errno::Enomem),
        _ => Err(Errno::Eperm),
    }
}

/// Map `pages` fresh anonymous user pages in one batched EMC (§9.1's
/// optimization) — page by page when batching is off.
///
/// # Errors
/// [`Errno::Enomem`] on failure.
pub fn map_user_range(
    hw: &mut Hw<'_>,
    root: Frame,
    va: VirtAddr,
    pages: u64,
    writable: bool,
) -> Result<(), Errno> {
    hw.privileged(EmcRequest::MapUserRange {
        root,
        va,
        pages,
        writable,
    })
    .map(|_| ())
    .map_err(|_| Errno::Enomem)
}

/// Unmap one user page.
///
/// # Errors
/// [`Errno::Efault`] if not mapped or refused.
pub fn unmap_user_page(hw: &mut Hw<'_>, root: Frame, va: VirtAddr) -> Result<(), Errno> {
    hw.privileged(EmcRequest::UnmapUserPage { root, va })
        .map(|_| ())
        .map_err(|_| Errno::Efault)
}

/// Finish unmapping `pages` of one address space (munmap, reclaim). A
/// delegated unmap was shot down page by page inside its EMC; a native
/// one invalidated only the local core and owes one mm-targeted IPI round
/// for the whole range, as `flush_tlb_mm_range` amortizes it.
pub fn flush_unmapped(hw: &mut Hw<'_>, root: Frame, pages: &[VirtAddr]) {
    let Some(&va) = pages.first() else { return };
    let unmap = EmcRequest::UnmapUserPage { root, va };
    if !hw.monitor.cfg.delegates(&unmap) {
        native::flush_mm_range(hw.machine, hw.cpu, root, pages);
    }
}

/// Switch CR3 to a task's address space.
///
/// # Errors
/// [`Errno::Eperm`] if the monitor refuses.
pub fn switch_address_space(hw: &mut Hw<'_>, root: Frame) -> Result<(), Errno> {
    if hw.machine.cr3(hw.cpu) == root {
        return Ok(());
    }
    hw.privileged(EmcRequest::SwitchAddressSpace { root })
        .map(|_| ())
        .map_err(|_| Errno::Eperm)
}

/// Copy bytes into user memory (`copy_to_user`; under Erebor the kernel
/// has no `stac`, so the monitor emulates it).
///
/// # Errors
/// [`Errno::Efault`] on permission failures.
pub fn copy_to_user(hw: &mut Hw<'_>, root: Frame, va: VirtAddr, bytes: &[u8]) -> Result<(), Errno> {
    hw.privileged(EmcRequest::UserCopy {
        dir: CopyDir::ToUser,
        root,
        user_va: va,
        bytes: bytes.to_vec(),
    })
    .map(|_| ())
    .map_err(|_| Errno::Efault)
}

/// Copy bytes out of user memory (`copy_from_user`).
///
/// # Errors
/// [`Errno::Efault`] on permission failures.
pub fn copy_from_user(
    hw: &mut Hw<'_>,
    root: Frame,
    va: VirtAddr,
    len: usize,
) -> Result<Vec<u8>, Errno> {
    match hw.privileged(EmcRequest::UserCopy {
        dir: CopyDir::FromUser,
        root,
        user_va: va,
        bytes: vec![0u8; len],
    }) {
        Ok(EmcResponse::Data(d)) => Ok(d),
        _ => Err(Errno::Efault),
    }
}
