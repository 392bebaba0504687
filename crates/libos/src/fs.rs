//! The in-memory stateless filesystem (§6.2 service 2).
//!
//! Files are preloaded before client data arrives; afterwards the sandbox
//! operates statelessly, creating only temporary in-memory files whose
//! bytes live in confined memory (the LibOS charges confined-heap space
//! for them).

use std::collections::BTreeMap;

/// Filesystem error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// No such file.
    NotFound,
    /// The preload phase is over (filesystem is sealed stateless).
    Sealed,
}

impl core::fmt::Display for FsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FsError::NotFound => write!(f, "file not found"),
            FsError::Sealed => write!(f, "filesystem sealed (preload phase over)"),
        }
    }
}

impl std::error::Error for FsError {}

/// The stateless in-memory FS.
#[derive(Debug, Default)]
pub struct MemFs {
    preloaded: BTreeMap<String, Vec<u8>>,
    temp: BTreeMap<String, Vec<u8>>,
    sealed: bool,
}

impl MemFs {
    /// Empty filesystem in the preload phase.
    #[must_use]
    pub fn new() -> MemFs {
        MemFs::default()
    }

    /// Preload a file (loader only).
    ///
    /// # Errors
    /// [`FsError::Sealed`] after the preload phase.
    pub fn preload(&mut self, path: &str, contents: Vec<u8>) -> Result<(), FsError> {
        if self.sealed {
            return Err(FsError::Sealed);
        }
        self.preloaded.insert(path.to_string(), contents);
        Ok(())
    }

    /// End the preload phase (called when client data is installed).
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    /// Read a file (preloaded or temporary).
    ///
    /// # Errors
    /// [`FsError::NotFound`].
    pub fn read(&self, path: &str) -> Result<&[u8], FsError> {
        self.temp
            .get(path)
            .or_else(|| self.preloaded.get(path))
            .map(Vec::as_slice)
            .ok_or(FsError::NotFound)
    }

    /// Create or overwrite a *temporary* file (always allowed; temp files
    /// are confined-memory state that dies with the session).
    pub fn write_temp(&mut self, path: &str, contents: Vec<u8>) {
        self.temp.insert(path.to_string(), contents);
    }

    /// Bytes held in temporary files (charged against confined memory).
    #[must_use]
    pub fn temp_bytes(&self) -> u64 {
        self.temp.values().map(|v| v.len() as u64).sum()
    }

    /// Wipe all temporary state (session teardown).
    pub fn clear_temp(&mut self) {
        self.temp.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preload_then_seal() {
        let mut fs = MemFs::new();
        fs.preload("/lib/libc.so", vec![1, 2, 3]).unwrap();
        fs.seal();
        assert_eq!(fs.preload("/late", vec![]), Err(FsError::Sealed));
        assert_eq!(fs.read("/lib/libc.so").unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn temp_files_shadow_and_clear() {
        let mut fs = MemFs::new();
        fs.preload("/cfg", b"orig".to_vec()).unwrap();
        fs.seal();
        fs.write_temp("/cfg", b"new!".to_vec());
        assert_eq!(fs.read("/cfg").unwrap(), b"new!");
        assert_eq!(fs.temp_bytes(), 4);
        fs.clear_temp();
        assert_eq!(fs.read("/cfg").unwrap(), b"orig");
    }

    #[test]
    fn missing_file() {
        let fs = MemFs::new();
        assert_eq!(fs.read("/nope"), Err(FsError::NotFound));
    }
}
