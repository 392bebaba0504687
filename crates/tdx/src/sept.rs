//! The secure EPT: private/shared state per guest physical frame.
//!
//! The TDX module is the only writer of this table; the guest influences it
//! exclusively through `tdcall MapGPA` (§2.1), and the host can allocate or
//! reclaim, but never read, private frames.

use erebor_hw::Frame;
use std::collections::BTreeMap;

/// Host-visibility state of a guest physical frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpaState {
    /// Encrypted, guest-only. Host and device access is blocked.
    Private,
    /// Host- and DMA-visible (the CVM "shared" window).
    Shared,
}

erebor_wire::wire_enum!(GpaState {
    Private = 0,
    Shared = 1
});

/// Secure EPT error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeptError {
    /// Frame was never accepted into the TD.
    NotAccepted(Frame),
    /// Frame is already in the requested state.
    AlreadyInState(Frame, GpaState),
}

impl core::fmt::Display for SeptError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SeptError::NotAccepted(fr) => write!(f, "{fr:?} not accepted into the TD"),
            SeptError::AlreadyInState(fr, s) => write!(f, "{fr:?} already {s:?}"),
        }
    }
}

impl std::error::Error for SeptError {}

/// The secure EPT.
#[derive(Debug, Default, Clone)]
pub struct Sept {
    state: BTreeMap<u64, GpaState>,
}

impl Sept {
    /// Empty table.
    #[must_use]
    pub fn new() -> Sept {
        Sept::default()
    }

    /// Accept a frame into the TD as private (boot-time / host allocation
    /// path). Idempotent for private frames.
    pub fn accept_private(&mut self, frame: Frame) {
        self.state.insert(frame.0, GpaState::Private);
    }

    /// Current state of a frame.
    #[must_use]
    pub fn state(&self, frame: Frame) -> Option<GpaState> {
        self.state.get(&frame.0).copied()
    }

    /// Whether a frame is currently shared (host/DMA visible).
    #[must_use]
    pub fn is_shared(&self, frame: Frame) -> bool {
        self.state(frame) == Some(GpaState::Shared)
    }

    /// Convert a frame between private and shared (the `MapGPA` leaf).
    ///
    /// # Errors
    /// [`SeptError`] if the frame is unknown or already in that state.
    pub fn convert(&mut self, frame: Frame, to: GpaState) -> Result<(), SeptError> {
        let cur = self.state(frame).ok_or(SeptError::NotAccepted(frame))?;
        if cur == to {
            return Err(SeptError::AlreadyInState(frame, to));
        }
        self.state.insert(frame.0, to);
        Ok(())
    }

    /// All currently shared frames (host's view of the shared window).
    pub fn shared_frames(&self) -> impl Iterator<Item = Frame> + '_ {
        self.state
            .iter()
            .filter(|(_, s)| **s == GpaState::Shared)
            .map(|(f, _)| Frame(*f))
    }

    /// Number of accepted frames.
    #[must_use]
    pub fn accepted_count(&self) -> usize {
        self.state.len()
    }
}

// Migration: every accepted frame with its private/shared state. The
// map rule makes frames arrive strictly ascending.
erebor_wire::wire_struct!(Sept { state });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_and_convert() {
        let mut sept = Sept::new();
        sept.accept_private(Frame(10));
        assert_eq!(sept.state(Frame(10)), Some(GpaState::Private));
        sept.convert(Frame(10), GpaState::Shared).unwrap();
        assert!(sept.is_shared(Frame(10)));
        sept.convert(Frame(10), GpaState::Private).unwrap();
        assert!(!sept.is_shared(Frame(10)));
    }

    #[test]
    fn convert_unknown_frame_rejected() {
        let mut sept = Sept::new();
        assert_eq!(
            sept.convert(Frame(5), GpaState::Shared),
            Err(SeptError::NotAccepted(Frame(5)))
        );
    }

    #[test]
    fn double_convert_rejected() {
        let mut sept = Sept::new();
        sept.accept_private(Frame(1));
        sept.convert(Frame(1), GpaState::Shared).unwrap();
        assert_eq!(
            sept.convert(Frame(1), GpaState::Shared),
            Err(SeptError::AlreadyInState(Frame(1), GpaState::Shared))
        );
    }

    #[test]
    fn shared_enumeration() {
        let mut sept = Sept::new();
        for f in 0..6 {
            sept.accept_private(Frame(f));
        }
        sept.convert(Frame(2), GpaState::Shared).unwrap();
        sept.convert(Frame(4), GpaState::Shared).unwrap();
        let shared: Vec<Frame> = sept.shared_frames().collect();
        assert_eq!(shared, vec![Frame(2), Frame(4)]);
    }
}
