//! The LibOS core: loader, runtime services, and the program interface.

use crate::api::{Sys, SysError};
use crate::fs::MemFs;
use crate::heap::{Heap, CONFINED_HEAP_BASE};
use crate::manifest::Manifest;
use crate::thread::ThreadPool;
use erebor_core::monitor::{EREBOR_IO_FD, IOCTL_INPUT, IOCTL_OUTPUT};
use erebor_hw::PAGE_SIZE;
use erebor_kernel::kernel::erebor_ioctl;
use erebor_kernel::syscall::nr;
use std::collections::BTreeMap;

/// Base user VA where common regions are attached, spaced 1 GiB apart.
pub const COMMON_BASE: u64 = 0x0000_0001_0000_0000;

/// Registry of already-created common regions, shared across sandboxes of
/// the same service (name → monitor region id). Owned by the service
/// provider's deployment tooling. It migrates with the TD (as a map,
/// through its [`erebor_wire::Wire`] encoding) so post-migration
/// sandboxes attach the *existing* regions instead of re-creating them.
pub type CommonRegistry = BTreeMap<String, u32>;

/// A LibOS-visible common region.
#[derive(Debug, Clone)]
pub struct CommonHandle {
    /// Monitor region id.
    pub region: u32,
    /// Base user VA in this sandbox.
    pub base: u64,
    /// Pages in the physical window.
    pub pages: u64,
}

/// LibOS failure.
#[derive(Debug)]
pub enum LibOsError {
    /// Underlying platform/sandbox error.
    Sys(SysError),
    /// Confined heap exhausted.
    OutOfHeap,
    /// Unknown common region name.
    NoSuchCommon(String),
}

impl From<SysError> for LibOsError {
    fn from(e: SysError) -> LibOsError {
        LibOsError::Sys(e)
    }
}

impl core::fmt::Display for LibOsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LibOsError::Sys(e) => write!(f, "{e}"),
            LibOsError::OutOfHeap => write!(f, "confined heap exhausted"),
            LibOsError::NoSuchCommon(n) => write!(f, "no common region named {n}"),
        }
    }
}

impl std::error::Error for LibOsError {}

/// A service program the provider deploys into EREBOR-SANDBOX.
pub trait ServiceProgram {
    /// Program name (for tables/logs).
    fn name(&self) -> &str;

    /// The manifest the loader sets up.
    fn manifest(&self) -> Manifest;

    /// Pre-data initialization: populate common regions, warm caches.
    /// Runs while the sandbox is still in `Setup`.
    ///
    /// # Errors
    /// Propagates platform errors.
    fn init(&mut self, os: &mut LibOs, sys: &mut dyn Sys) -> Result<(), SysError> {
        let _ = (os, sys);
        Ok(())
    }

    /// Process one client request (after data install): the request bytes
    /// arrived through the monitor channel; the returned bytes go back the
    /// same way.
    ///
    /// # Errors
    /// Propagates platform errors.
    fn serve(
        &mut self,
        os: &mut LibOs,
        sys: &mut dyn Sys,
        request: &[u8],
    ) -> Result<Vec<u8>, SysError>;
}

/// How the LibOS exchanges client data.
#[derive(Debug)]
enum IoChannel {
    /// The monitor's reserved-fd ioctl channel (§6.3).
    Monitor {
        /// Staging buffer in confined memory.
        buf: u64,
        /// Buffer capacity.
        cap: u64,
    },
    /// The DebugFS-emulated channel of the LibOS-only baseline (artifact
    /// parity; unprotected).
    Debug {
        /// fd of `/sys/kernel/debug/encos-IO-emulate/in`.
        fd_in: u64,
        /// fd of `/sys/kernel/debug/encos-IO-emulate/out`.
        fd_out: u64,
        /// Staging buffer.
        buf: u64,
        /// Buffer capacity.
        cap: u64,
    },
}

/// The LibOS instance inside one sandbox.
#[derive(Debug)]
pub struct LibOs {
    /// The manifest it was loaded with.
    pub manifest: Manifest,
    /// Confined-heap allocator.
    pub heap: Heap,
    /// In-memory stateless FS.
    pub fs: MemFs,
    /// Green-thread pool.
    pub pool: ThreadPool,
    /// Attached common regions by name.
    pub commons: BTreeMap<String, CommonHandle>,
    io: IoChannel,
    fd_table: BTreeMap<u64, OpenFile>,
    next_fd: u64,
}

/// An open LibOS file (emulated entirely in userspace — no exits).
#[derive(Debug, Clone)]
struct OpenFile {
    path: String,
    offset: usize,
}

/// Default I/O staging buffer capacity (confined memory).
const IO_BUF_CAP: u64 = 256 * 1024;

impl LibOs {
    /// The loader (§7): declare all confined memory through the
    /// `/dev/erebor` driver, create/attach common regions, preload files,
    /// and pre-create the thread pool — everything that must happen before
    /// client data arrives.
    ///
    /// # Errors
    /// Propagates driver/EMC refusals.
    pub fn load(
        manifest: Manifest,
        registry: &mut CommonRegistry,
        sys: &mut dyn Sys,
        use_driver: bool,
    ) -> Result<LibOs, LibOsError> {
        let heap_pages = manifest.heap_pages + IO_BUF_CAP.div_ceil(PAGE_SIZE as u64);
        let mut commons = BTreeMap::new();
        let (heap_base, io) = if use_driver {
            // 1a. Declare and pin the confined heap through /dev/erebor.
            sys_ioctl(
                sys,
                erebor_ioctl::DECLARE_CONFINED,
                [CONFINED_HEAP_BASE, heap_pages, 0, 0],
            )?;
            // 2a. Common regions: create once per service, attach per
            // sandbox.
            for (i, spec) in manifest.commons.iter().enumerate() {
                let region = match registry.get(&spec.name) {
                    Some(id) => *id,
                    None => {
                        let id = sys_ioctl(
                            sys,
                            erebor_ioctl::CREATE_COMMON,
                            [spec.pages, spec.logical_bytes, 0, 0],
                        )?;
                        registry.insert(spec.name.clone(), id as u32);
                        id as u32
                    }
                };
                let base = COMMON_BASE + ((i as u64) << 30);
                sys_ioctl(
                    sys,
                    erebor_ioctl::ATTACH_COMMON,
                    [u64::from(region), base, 0, 0],
                )?;
                commons.insert(
                    spec.name.clone(),
                    CommonHandle {
                        region,
                        base,
                        pages: spec.pages,
                    },
                );
            }
            let io_buf = CONFINED_HEAP_BASE + manifest.heap_pages * PAGE_SIZE as u64;
            (
                CONFINED_HEAP_BASE,
                IoChannel::Monitor {
                    buf: io_buf,
                    cap: IO_BUF_CAP,
                },
            )
        } else {
            // LibOS-only baseline (normal CVM, §9): plain mmap windows and
            // the DebugFS-emulated data channel. "Shared" regions are
            // process-private — each instance replicates them (§9.2's
            // memory comparison).
            let heap_base = sys
                .syscall(nr::MMAP, [0, heap_pages * PAGE_SIZE as u64, 3, 0, 0, 0])
                .map_err(LibOsError::Sys)?;
            for spec in &manifest.commons {
                let base = sys
                    .syscall(nr::MMAP, [0, spec.pages * PAGE_SIZE as u64, 3, 0, 0, 0])
                    .map_err(LibOsError::Sys)?;
                commons.insert(
                    spec.name.clone(),
                    CommonHandle {
                        region: 0,
                        base,
                        pages: spec.pages,
                    },
                );
            }
            // Open the emulated channel endpoints.
            let scratch = sys
                .syscall(nr::MMAP, [0, PAGE_SIZE as u64, 3, 0, 0, 0])
                .map_err(LibOsError::Sys)?;
            let open_path = |sys: &mut dyn Sys, path: &str| -> Result<u64, LibOsError> {
                sys.write_mem(scratch, path.as_bytes())
                    .map_err(LibOsError::Sys)?;
                sys.syscall(nr::OPEN, [scratch, path.len() as u64, 0, 0, 0, 0])
                    .map_err(LibOsError::Sys)
            };
            let fd_in = open_path(sys, erebor_kernel::vfs::DEBUG_IN)?;
            let fd_out = open_path(sys, erebor_kernel::vfs::DEBUG_OUT)?;
            let io_buf = heap_base + manifest.heap_pages * PAGE_SIZE as u64;
            (
                heap_base,
                IoChannel::Debug {
                    fd_in,
                    fd_out,
                    buf: io_buf,
                    cap: IO_BUF_CAP,
                },
            )
        };
        let mut heap = Heap::new(heap_base, manifest.heap_pages);

        // 3. Preload files.
        let mut fs = MemFs::new();
        for (path, contents) in &manifest.preload_files {
            sys.compute(contents.len() as u64 / 8 + 1)
                .map_err(LibOsError::Sys)?;
            fs.preload(path, contents.clone()).ok();
        }

        // 4. Pre-create the thread pool (clone syscalls, init-time only).
        for _ in 1..manifest.max_threads {
            sys.syscall(nr::CLONE, [0; 6]).map_err(LibOsError::Sys)?;
        }
        let pool = ThreadPool::new(manifest.max_threads);

        // Touch the heap pages once: confined memory is pinned and mapped
        // eagerly (Gramine also pre-allocates), so this is part of the
        // paper's *initialization* overhead (Table 6), not the runtime path.
        let mut page = heap_base;
        let end = heap_base + heap_pages * PAGE_SIZE as u64;
        while page < end {
            sys.touch(page, true).map_err(LibOsError::Sys)?;
            page += PAGE_SIZE as u64;
        }

        let _ = &mut heap;
        Ok(LibOs {
            manifest,
            heap,
            fs,
            pool,
            commons,
            io,
            fd_table: BTreeMap::new(),
            next_fd: 3,
        })
    }

    /// Base user VA of the heap window.
    #[must_use]
    pub fn heap_base(&self) -> u64 {
        self.heap.base()
    }

    // ----- POSIX-style file API (Gramine-class emulation, §6.2) --------
    //
    // Opens, reads and writes are served from the in-memory stateless FS
    // without leaving the sandbox; a small compute charge models the
    // userspace emulation work.

    /// `open(2)`: open a preloaded or temporary file.
    ///
    /// # Errors
    /// [`LibOsError`] if the path does not exist (and `create` is false).
    pub fn open(&mut self, sys: &mut dyn Sys, path: &str, create: bool) -> Result<u64, LibOsError> {
        sys.compute(120).map_err(LibOsError::Sys)?;
        if self.fs.read(path).is_err() {
            if !create {
                return Err(LibOsError::Sys(SysError::Errno(-2)));
            }
            self.fs.write_temp(path, Vec::new());
        }
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fd_table.insert(
            fd,
            OpenFile {
                path: path.to_string(),
                offset: 0,
            },
        );
        Ok(fd)
    }

    /// `read(2)`: read from the file cursor into `buf`; returns bytes read.
    ///
    /// # Errors
    /// [`LibOsError`] on bad descriptors.
    pub fn read(
        &mut self,
        sys: &mut dyn Sys,
        fd: u64,
        buf: &mut [u8],
    ) -> Result<usize, LibOsError> {
        sys.compute(60 + buf.len() as u64 / 8)
            .map_err(LibOsError::Sys)?;
        let file = self
            .fd_table
            .get_mut(&fd)
            .ok_or(LibOsError::Sys(SysError::Errno(-9)))?;
        let contents = self
            .fs
            .read(&file.path)
            .map_err(|_| LibOsError::Sys(SysError::Errno(-2)))?;
        let start = file.offset.min(contents.len());
        let n = buf.len().min(contents.len() - start);
        buf[..n].copy_from_slice(&contents[start..start + n]);
        file.offset += n;
        Ok(n)
    }

    /// `write(2)`: append/overwrite at the cursor (temporary files only —
    /// the FS is stateless after preload, §6.2).
    ///
    /// # Errors
    /// [`LibOsError`] on bad descriptors.
    pub fn write(&mut self, sys: &mut dyn Sys, fd: u64, data: &[u8]) -> Result<usize, LibOsError> {
        sys.compute(60 + data.len() as u64 / 8)
            .map_err(LibOsError::Sys)?;
        let file = self
            .fd_table
            .get_mut(&fd)
            .ok_or(LibOsError::Sys(SysError::Errno(-9)))?;
        let mut contents = self
            .fs
            .read(&file.path)
            .map(<[u8]>::to_vec)
            .unwrap_or_default();
        if contents.len() < file.offset + data.len() {
            contents.resize(file.offset + data.len(), 0);
        }
        contents[file.offset..file.offset + data.len()].copy_from_slice(data);
        file.offset += data.len();
        self.fs.write_temp(&file.path, contents);
        Ok(data.len())
    }

    /// `lseek(2)`: set the cursor.
    ///
    /// # Errors
    /// [`LibOsError`] on bad descriptors.
    pub fn lseek(&mut self, fd: u64, offset: usize) -> Result<(), LibOsError> {
        self.fd_table
            .get_mut(&fd)
            .ok_or(LibOsError::Sys(SysError::Errno(-9)))?
            .offset = offset;
        Ok(())
    }

    /// `close(2)`.
    ///
    /// # Errors
    /// [`LibOsError`] on bad descriptors.
    pub fn close(&mut self, fd: u64) -> Result<(), LibOsError> {
        self.fd_table
            .remove(&fd)
            .map(|_| ())
            .ok_or(LibOsError::Sys(SysError::Errno(-9)))
    }

    /// Allocate confined memory.
    ///
    /// # Errors
    /// [`LibOsError::OutOfHeap`].
    pub fn malloc(&mut self, len: u64) -> Result<u64, LibOsError> {
        self.heap.alloc(len).map_err(|_| LibOsError::OutOfHeap)
    }

    /// Handle to a common region.
    ///
    /// # Errors
    /// [`LibOsError::NoSuchCommon`].
    pub fn common(&self, name: &str) -> Result<CommonHandle, LibOsError> {
        self.commons
            .get(name)
            .cloned()
            .ok_or_else(|| LibOsError::NoSuchCommon(name.to_string()))
    }

    /// Populate a common region before sealing: writes a deterministic
    /// pattern across every page (model weights / database load). Each
    /// first-touch demand-maps the page through a `#PF` exit.
    ///
    /// # Errors
    /// Platform errors (e.g. writes after seal kill the sandbox).
    pub fn populate_common(&mut self, sys: &mut dyn Sys, name: &str) -> Result<(), LibOsError> {
        let h = self.common(name)?;
        for p in 0..h.pages {
            let va = h.base + p * PAGE_SIZE as u64;
            let stamp = (p ^ 0x5eed).to_le_bytes();
            sys.write_mem(va, &stamp).map_err(LibOsError::Sys)?;
            // Deserialization/parse work per page of the shared instance
            // (model weights, database records) — identical natively.
            sys.compute(3_500).map_err(LibOsError::Sys)?;
        }
        Ok(())
    }

    /// Read (and fault in) one common page; returns its 8-byte stamp.
    ///
    /// # Errors
    /// Platform errors.
    pub fn read_common_page(
        &mut self,
        sys: &mut dyn Sys,
        name: &str,
        page: u64,
    ) -> Result<[u8; 8], LibOsError> {
        let h = self.common(name)?;
        let va = h.base + (page % h.pages) * PAGE_SIZE as u64;
        let mut buf = [0u8; 8];
        sys.read_mem(va, &mut buf).map_err(LibOsError::Sys)?;
        Ok(buf)
    }

    /// Receive the next client request through the monitor channel
    /// (the `INPUT` ioctl on the reserved fd, §6.3).
    ///
    /// # Errors
    /// Platform errors / kill.
    pub fn input(&mut self, sys: &mut dyn Sys) -> Result<Vec<u8>, LibOsError> {
        let (buf, n) = match self.io {
            IoChannel::Monitor { buf, cap } => {
                let n = sys
                    .syscall(nr::IOCTL, [EREBOR_IO_FD, IOCTL_INPUT, buf, cap, 0, 0])
                    .map_err(LibOsError::Sys)?;
                (buf, n)
            }
            IoChannel::Debug {
                fd_in, buf, cap, ..
            } => {
                let n = sys
                    .syscall(nr::READ, [fd_in, buf, cap, 0, 0, 0])
                    .map_err(LibOsError::Sys)?;
                (buf, n)
            }
        };
        let mut data = vec![0u8; n as usize];
        sys.read_mem(buf, &mut data).map_err(LibOsError::Sys)?;
        Ok(data)
    }

    /// Send result bytes back through the monitor channel (the `OUTPUT`
    /// ioctl: the monitor pads, seals and queues them for the proxy).
    ///
    /// # Errors
    /// Platform errors / kill.
    pub fn output(&mut self, sys: &mut dyn Sys, data: &[u8]) -> Result<(), LibOsError> {
        match self.io {
            IoChannel::Monitor { buf, cap } => {
                let len = (data.len() as u64).min(cap);
                sys.write_mem(buf, &data[..len as usize])
                    .map_err(LibOsError::Sys)?;
                sys.syscall(nr::IOCTL, [EREBOR_IO_FD, IOCTL_OUTPUT, buf, len, 0, 0])
                    .map_err(LibOsError::Sys)?;
            }
            IoChannel::Debug {
                fd_out, buf, cap, ..
            } => {
                let len = (data.len() as u64).min(cap);
                sys.write_mem(buf, &data[..len as usize])
                    .map_err(LibOsError::Sys)?;
                sys.syscall(nr::WRITE, [fd_out, buf, len, 0, 0, 0])
                    .map_err(LibOsError::Sys)?;
            }
        }
        Ok(())
    }
}

fn sys_ioctl(sys: &mut dyn Sys, req: u64, extra: [u64; 4]) -> Result<u64, LibOsError> {
    sys.syscall(
        nr::IOCTL,
        [EREBOR_IO_FD, req, extra[0], extra[1], extra[2], extra[3]],
    )
    .map_err(LibOsError::Sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use erebor_wire::{Wire, WireError};

    #[test]
    fn common_base_spacing() {
        // Regions must not overlap at 1 GiB spacing for reasonable sizes.
        let r0 = COMMON_BASE;
        let r1 = COMMON_BASE + (1u64 << 30);
        assert!(r1 - r0 >= (1 << 30));
    }

    #[test]
    fn registry_roundtrips_byte_exact() -> Result<(), WireError> {
        let mut reg = CommonRegistry::new();
        reg.insert("model".to_string(), 1);
        reg.insert("embeddings".to_string(), 2);
        let bytes = reg.to_wire();
        let back = CommonRegistry::from_wire(&bytes)?;
        assert_eq!(back, reg);
        assert_eq!(back.to_wire(), bytes);
        for cut in 0..bytes.len() {
            assert!(CommonRegistry::from_wire(&bytes[..cut]).is_err());
        }
        Ok(())
    }
}
