//! Control-flow Enforcement Technology: indirect-branch tracking (IBT) and
//! hardware shadow stacks (SST), per §2.2.
//!
//! IBT: at an indirect `call`/`jmp` target the hardware requires the first
//! instruction to be `endbr64`; otherwise `#CP`. The simulator keeps the set
//! of landing-pad addresses loaded from verified images.
//!
//! SST: per-logical-core shadow stacks with activation tokens. `call`
//! pushes the return address; `ret` verifies it. Kernel shadow-stack pages
//! are non-writable-but-dirty in the page tables (enforced by the monitor's
//! mapping policy, not here).

use crate::fault::{CpReason, Fault};
use crate::VirtAddr;
use std::collections::BTreeSet;

/// Machine-wide registry of `endbr64` landing pads, populated from images
/// at load time.
#[derive(Debug, Default, Clone)]
pub struct EndbrRegistry {
    targets: BTreeSet<u64>,
}

impl EndbrRegistry {
    /// New, empty registry.
    #[must_use]
    pub fn new() -> EndbrRegistry {
        EndbrRegistry::default()
    }

    /// Register a landing pad.
    pub fn add(&mut self, va: VirtAddr) {
        self.targets.insert(va.0);
    }

    /// Register all landing pads of an image.
    pub fn add_image(&mut self, image: &crate::image::Image) {
        for va in image.endbr_targets() {
            self.add(va);
        }
    }

    /// Whether `va` is a valid indirect-branch target.
    #[must_use]
    pub fn is_target(&self, va: VirtAddr) -> bool {
        self.targets.contains(&va.0)
    }

    /// Number of registered pads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

erebor_wire::wire_struct!(EndbrRegistry { targets });

/// A hardware shadow stack with a busy token.
///
/// The token models CET's supervisor shadow-stack tokens: a stack can be
/// active on at most one logical core at a time (§2.2).
#[derive(Debug, Clone)]
pub struct ShadowStack {
    /// Base virtual address of the stack window (for diagnostics).
    pub base: VirtAddr,
    frames: Vec<u64>,
    active_on: Option<usize>,
}

impl ShadowStack {
    /// Create an inactive shadow stack at `base`.
    #[must_use]
    pub fn new(base: VirtAddr) -> ShadowStack {
        ShadowStack {
            base,
            frames: Vec::new(),
            active_on: None,
        }
    }

    /// Activate on logical core `core`; fails with `#CP` if the token is
    /// already held by another core.
    ///
    /// # Errors
    /// [`Fault::ControlProtection`] with [`CpReason::TokenBusy`].
    pub fn activate(&mut self, core: usize) -> Result<(), Fault> {
        match self.active_on {
            Some(c) if c != core => Err(Fault::ControlProtection(CpReason::TokenBusy)),
            _ => {
                self.active_on = Some(core);
                Ok(())
            }
        }
    }

    /// Release the token.
    pub fn deactivate(&mut self) {
        self.active_on = None;
    }

    /// Push a return address at `call` (or exception delivery).
    pub fn push(&mut self, ret: VirtAddr) {
        self.frames.push(ret.0);
    }

    /// Verify and pop at `ret`/`iret`.
    ///
    /// # Errors
    /// [`Fault::ControlProtection`] with [`CpReason::ShadowStackMismatch`]
    /// if `actual` does not match the recorded return address (or the stack
    /// is empty — an underflow is also a mismatch).
    pub fn pop(&mut self, actual: VirtAddr) -> Result<(), Fault> {
        match self.frames.pop() {
            Some(expect) if expect == actual.0 => Ok(()),
            _ => Err(Fault::ControlProtection(CpReason::ShadowStackMismatch)),
        }
    }

    /// Current depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The core holding the busy token, if any.
    #[must_use]
    pub(crate) fn active_on(&self) -> Option<usize> {
        self.active_on
    }
}

erebor_wire::wire_struct!(ShadowStack {
    base,
    frames,
    active_on
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_membership() {
        let mut reg = EndbrRegistry::new();
        reg.add(VirtAddr(0x1000));
        assert!(reg.is_target(VirtAddr(0x1000)));
        assert!(!reg.is_target(VirtAddr(0x1004)));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn shadow_stack_balanced_calls() {
        let mut ss = ShadowStack::new(VirtAddr(0xffff_a100_0000_0000));
        ss.push(VirtAddr(0x100));
        ss.push(VirtAddr(0x200));
        assert_eq!(ss.depth(), 2);
        ss.pop(VirtAddr(0x200)).unwrap();
        ss.pop(VirtAddr(0x100)).unwrap();
    }

    #[test]
    fn shadow_stack_detects_rop() {
        let mut ss = ShadowStack::new(VirtAddr(0));
        ss.push(VirtAddr(0x100));
        let err = ss.pop(VirtAddr(0xdead)).unwrap_err();
        assert_eq!(err, Fault::ControlProtection(CpReason::ShadowStackMismatch));
    }

    #[test]
    fn shadow_stack_underflow_is_mismatch() {
        let mut ss = ShadowStack::new(VirtAddr(0));
        assert!(ss.pop(VirtAddr(0)).is_err());
    }

    #[test]
    fn token_exclusive_activation() {
        let mut ss = ShadowStack::new(VirtAddr(0));
        ss.activate(0).unwrap();
        assert_eq!(
            ss.activate(1).unwrap_err(),
            Fault::ControlProtection(CpReason::TokenBusy)
        );
        ss.activate(0).unwrap(); // re-activation on same core is fine
        ss.deactivate();
        ss.activate(1).unwrap();
    }
}
