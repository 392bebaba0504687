//! An in-memory virtual filesystem, including the devices the Erebor
//! artifact exposes: `/dev/erebor` (the EMC driver used by the LibOS) and
//! the DebugFS-emulated I/O channel
//! (`/sys/kernel/debug/encos-IO-emulate/{in,out}`) used in the paper's
//! artifact evaluation (§A.4).

use crate::syscall::Errno;
use erebor_wire::{Wire, WireError, WireReader, WireWriter};
use std::collections::BTreeMap;

/// Path of the Erebor pseudo-device.
pub const EREBOR_DEV: &str = "/dev/erebor-psudeo-io-dev";
/// DebugFS emulated input channel (artifact parity).
pub const DEBUG_IN: &str = "/sys/kernel/debug/encos-IO-emulate/in";
/// DebugFS emulated output channel (artifact parity).
pub const DEBUG_OUT: &str = "/sys/kernel/debug/encos-IO-emulate/out";

/// A file descriptor's backing object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileDesc {
    /// Standard input (reads empty).
    Stdin,
    /// Standard output (captured per task).
    Stdout,
    /// A regular in-memory file with a cursor.
    File {
        /// Path.
        path: String,
        /// Read/write offset.
        offset: u64,
    },
    /// The `/dev/erebor` EMC driver.
    EreborDev,
    /// DebugFS emulated input channel.
    DebugIn,
    /// DebugFS emulated output channel.
    DebugOut,
}

/// Migration: a one-byte tag in declaration order; a regular file adds
/// its path and cursor.
impl Wire for FileDesc {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            FileDesc::Stdin => w.u8(0),
            FileDesc::Stdout => w.u8(1),
            FileDesc::File { path, offset } => {
                w.u8(2);
                w.put(path);
                w.put(offset);
            }
            FileDesc::EreborDev => w.u8(3),
            FileDesc::DebugIn => w.u8(4),
            FileDesc::DebugOut => w.u8(5),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => FileDesc::Stdin,
            1 => FileDesc::Stdout,
            2 => FileDesc::File {
                path: r.get()?,
                offset: r.get()?,
            },
            3 => FileDesc::EreborDev,
            4 => FileDesc::DebugIn,
            5 => FileDesc::DebugOut,
            t => {
                return Err(WireError::BadTag {
                    what: "FileDesc",
                    tag: u64::from(t),
                })
            }
        })
    }
}

/// The filesystem: path → contents, plus the debug channel buffers.
#[derive(Debug, Default)]
pub struct Vfs {
    files: BTreeMap<String, Vec<u8>>,
    /// Bytes queued on the emulated input channel.
    pub debug_in: Vec<u8>,
    /// Bytes written to the emulated output channel.
    pub debug_out: Vec<u8>,
}

impl Vfs {
    /// An empty filesystem.
    #[must_use]
    pub fn new() -> Vfs {
        Vfs::default()
    }

    /// Create or replace a file.
    pub fn put(&mut self, path: &str, contents: Vec<u8>) {
        self.files.insert(path.to_string(), contents);
    }

    /// Read a whole file.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<&Vec<u8>> {
        self.files.get(path)
    }

    /// Open: classify the path into a descriptor.
    ///
    /// # Errors
    /// [`Errno::Enoent`] for unknown regular paths.
    pub fn open(&mut self, path: &str, create: bool) -> Result<FileDesc, Errno> {
        match path {
            EREBOR_DEV => Ok(FileDesc::EreborDev),
            DEBUG_IN => Ok(FileDesc::DebugIn),
            DEBUG_OUT => Ok(FileDesc::DebugOut),
            _ => {
                if !self.files.contains_key(path) {
                    if create {
                        self.files.insert(path.to_string(), Vec::new());
                    } else {
                        return Err(Errno::Enoent);
                    }
                }
                Ok(FileDesc::File {
                    path: path.to_string(),
                    offset: 0,
                })
            }
        }
    }

    /// Read from a descriptor into `buf`; returns bytes read and advances
    /// file cursors.
    ///
    /// # Errors
    /// [`Errno::Ebadf`] for write-only descriptors.
    pub fn read(&mut self, fd: &mut FileDesc, buf: &mut [u8]) -> Result<usize, Errno> {
        match fd {
            FileDesc::Stdin => Ok(0),
            FileDesc::Stdout => Err(Errno::Ebadf),
            FileDesc::File { path, offset } => {
                let data = self.files.get(path.as_str()).ok_or(Errno::Enoent)?;
                let start = (*offset as usize).min(data.len());
                let n = buf.len().min(data.len() - start);
                buf[..n].copy_from_slice(&data[start..start + n]);
                *offset += n as u64;
                Ok(n)
            }
            FileDesc::DebugIn => {
                let n = buf.len().min(self.debug_in.len());
                buf[..n].copy_from_slice(&self.debug_in[..n]);
                self.debug_in.drain(..n);
                Ok(n)
            }
            FileDesc::DebugOut => {
                let n = buf.len().min(self.debug_out.len());
                buf[..n].copy_from_slice(&self.debug_out[..n]);
                Ok(n)
            }
            FileDesc::EreborDev => Err(Errno::Einval),
        }
    }

    /// Write `buf` through a descriptor; returns bytes written.
    ///
    /// # Errors
    /// [`Errno::Ebadf`] for read-only descriptors.
    pub fn write(&mut self, fd: &mut FileDesc, buf: &[u8]) -> Result<usize, Errno> {
        match fd {
            FileDesc::Stdin => Err(Errno::Ebadf),
            FileDesc::Stdout => Ok(buf.len()),
            FileDesc::File { path, offset } => {
                let data = self.files.entry(path.clone()).or_default();
                let start = *offset as usize;
                if data.len() < start + buf.len() {
                    data.resize(start + buf.len(), 0);
                }
                data[start..start + buf.len()].copy_from_slice(buf);
                *offset += buf.len() as u64;
                Ok(buf.len())
            }
            FileDesc::DebugIn => {
                self.debug_in.extend_from_slice(buf);
                Ok(buf.len())
            }
            FileDesc::DebugOut => {
                self.debug_out.extend_from_slice(buf);
                Ok(buf.len())
            }
            FileDesc::EreborDev => Err(Errno::Einval),
        }
    }
}

// Migration: every regular file plus both debug channel buffers.
erebor_wire::wire_struct!(Vfs {
    files,
    debug_in,
    debug_out
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_read_write_roundtrip() -> Result<(), Errno> {
        let mut vfs = Vfs::new();
        let mut fd = vfs.open("/tmp/x", true)?;
        vfs.write(&mut fd, b"hello world")?;
        let mut rd = vfs.open("/tmp/x", false)?;
        let mut buf = [0u8; 5];
        assert_eq!(vfs.read(&mut rd, &mut buf)?, 5);
        assert_eq!(&buf, b"hello");
        assert_eq!(vfs.read(&mut rd, &mut buf)?, 5);
        assert_eq!(&buf, b" worl");
        Ok(())
    }

    #[test]
    fn missing_file_enoent() {
        let mut vfs = Vfs::new();
        assert_eq!(vfs.open("/nope", false), Err(Errno::Enoent));
    }

    #[test]
    fn device_paths_classified() -> Result<(), Errno> {
        let mut vfs = Vfs::new();
        assert_eq!(vfs.open(EREBOR_DEV, false)?, FileDesc::EreborDev);
        assert_eq!(vfs.open(DEBUG_IN, false)?, FileDesc::DebugIn);
        assert_eq!(vfs.open(DEBUG_OUT, false)?, FileDesc::DebugOut);
        Ok(())
    }

    #[test]
    fn debug_channels_fifo() -> Result<(), Errno> {
        let mut vfs = Vfs::new();
        let mut din = vfs.open(DEBUG_IN, false)?;
        vfs.write(&mut din, b"prompt")?;
        let mut buf = [0u8; 3];
        assert_eq!(vfs.read(&mut din, &mut buf)?, 3);
        assert_eq!(&buf, b"pro");
        assert_eq!(vfs.read(&mut din, &mut buf)?, 3);
        assert_eq!(&buf, b"mpt");
        assert_eq!(vfs.read(&mut din, &mut buf)?, 0);
        Ok(())
    }

    #[test]
    fn sparse_write_extends() -> Result<(), Errno> {
        let mut vfs = Vfs::new();
        let mut fd = vfs.open("/f", true)?;
        if let FileDesc::File { offset, .. } = &mut fd {
            *offset = 10;
        }
        vfs.write(&mut fd, b"xy")?;
        assert_eq!(vfs.get("/f").ok_or(Errno::Enoent)?.len(), 12);
        Ok(())
    }

    #[test]
    fn state_roundtrips_byte_exact() -> Result<(), Box<dyn std::error::Error>> {
        let mut vfs = Vfs::new();
        vfs.put("/data/model.bin", vec![7; 300]);
        vfs.put("/tmp/out", b"partial".to_vec());
        vfs.debug_in.extend_from_slice(b"queued input");
        vfs.debug_out.extend_from_slice(b"emitted");
        let bytes = vfs.to_wire();
        let back = Vfs::from_wire(&bytes)?;
        assert_eq!(back.to_wire(), bytes);
        assert_eq!(back.get("/data/model.bin").map(Vec::len), Some(300));
        assert_eq!(back.debug_in, b"queued input");
        // Truncation never yields a partial filesystem.
        for cut in 0..bytes.len() {
            assert!(Vfs::from_wire(&bytes[..cut]).is_err());
        }
        Ok(())
    }
}
