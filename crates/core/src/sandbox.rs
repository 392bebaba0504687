//! EREBOR-SANDBOX types and lifecycle (§6).
//!
//! A sandbox is a dedicated address space processing one client's data.
//! Its memory is *confined* (exclusively owned, pinned, single-mapped) or
//! *common* (read-only shared instances such as models and databases).
//! After client data is installed, every software-controlled exit is fatal
//! except the monitor's own I/O channel; asynchronous exits are interposed
//! and the register state scrubbed (Fig. 7).

use erebor_crypto::kx::{Role, SecureChannel, SessionKeys};
use erebor_hw::fault::VeReason;
use erebor_hw::isolation::DomainId;
use erebor_hw::regs::GprContext;
use erebor_hw::{Frame, VirtAddr};
use erebor_wire::{Wire, WireError, WireReader, WireWriter};
use std::collections::VecDeque;

/// Identifier of a sandbox container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SandboxId(pub u32);

erebor_wire::wire_newtype!(SandboxId);

/// Lifecycle state of a sandbox (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SandboxState {
    /// Initializing: LibOS may declare memory, preload files, write common
    /// regions; syscalls still forward to the kernel.
    Setup,
    /// Client data installed: all software-controlled exits are fatal
    /// except the monitor I/O channel.
    DataLoaded,
    /// Killed or torn down; memory scrubbed.
    Dead,
}

erebor_wire::wire_enum!(SandboxState {
    Setup = 0,
    DataLoaded = 1,
    Dead = 2
});

/// A shared common region (model weights, databases, shared libraries).
#[derive(Debug)]
pub struct CommonRegion {
    /// Region id.
    pub id: u32,
    /// Backing frames.
    pub frames: Vec<Frame>,
    /// Once sealed, all mappings are read-only forever.
    pub sealed: bool,
    /// Declared logical size (for Table 6 reporting; the simulation backs
    /// a scaled-down physical window).
    pub logical_bytes: u64,
    /// Sandboxes the region is mapped into, with their base VAs.
    pub attached: Vec<(SandboxId, VirtAddr)>,
}

erebor_wire::wire_struct!(CommonRegion {
    id,
    frames,
    sealed,
    logical_bytes,
    attached
});

/// Monitor-side bookkeeping for one sandbox.
pub struct Sandbox {
    /// Identifier.
    pub id: SandboxId,
    /// The sandbox's page-table root.
    pub root: Frame,
    /// Isolation domain the backend allocated for this sandbox (a pkey
    /// under PKS, a TME-MK key-ID under keyed memory). The kill's teardown
    /// frees it and leaves [`DomainId::DEFAULT`] here.
    pub domain: DomainId,
    /// Lifecycle state.
    pub state: SandboxState,
    /// Confined mappings `(va, frame)`, pinned for the sandbox lifetime.
    pub confined: Vec<(VirtAddr, Frame)>,
    /// Hard limit on confined pages (set by the service provider, §6.1).
    pub budget_pages: u64,
    /// Declared logical confined bytes (Table 6 "Conf." column).
    pub logical_confined_bytes: u64,
    /// Attached common regions and their base VAs.
    pub attached_common: Vec<(u32, VirtAddr)>,
    /// Common pages materialized so far (demand-mapped on #PF exits).
    pub common_mapped: Vec<(u32, VirtAddr)>,
    /// Context saved (then scrubbed) at asynchronous exits.
    pub saved_ctx: Option<GprContext>,
    /// Why the sandbox was killed, if it was.
    pub kill_reason: Option<&'static str>,
    /// Plaintext client input staged in monitor memory, awaiting the
    /// LibOS's INPUT ioctl.
    pub pending_input: VecDeque<Vec<u8>>,
    /// The monitor's end of the client secure channel.
    pub session: Option<SecureChannel>,
    /// Sealed output records awaiting proxy pickup.
    pub outbox: VecDeque<Vec<u8>>,
}

impl Sandbox {
    /// A fresh sandbox in [`SandboxState::Setup`].
    #[must_use]
    pub fn new(id: SandboxId, root: Frame, budget_pages: u64) -> Sandbox {
        Sandbox {
            id,
            root,
            domain: DomainId::DEFAULT,
            state: SandboxState::Setup,
            confined: Vec::new(),
            budget_pages,
            logical_confined_bytes: 0,
            attached_common: Vec::new(),
            common_mapped: Vec::new(),
            saved_ctx: None,
            kill_reason: None,
            pending_input: VecDeque::new(),
            session: None,
            outbox: VecDeque::new(),
        }
    }

    /// Pages of confined memory currently declared.
    #[must_use]
    pub fn confined_pages(&self) -> u64 {
        self.confined.len() as u64
    }

    /// Whether the given user VA falls in a confined mapping.
    #[must_use]
    pub fn owns_va(&self, va: VirtAddr) -> bool {
        let page = va.page_base();
        self.confined.iter().any(|(base, _)| *base == page)
    }
}

/// Migration: lifecycle, confined map, staged client I/O, and the live
/// secure-channel keys and counters (`Role` as a one-byte tag).
impl Wire for Sandbox {
    fn encode(&self, w: &mut WireWriter) {
        w.put(&(self.id, self.root, self.domain, self.state));
        w.put(&self.confined);
        w.put(&(self.budget_pages, self.logical_confined_bytes));
        w.put(&self.attached_common);
        w.put(&self.common_mapped);
        w.put(&(self.saved_ctx, self.kill_reason));
        w.put(&self.pending_input);
        w.put(&self.session.as_ref().map(|chan| {
            let (keys, role, send_ctr, recv_ctr) = chan.to_parts();
            let role = match role {
                Role::Client => 0u8,
                Role::Monitor => 1,
            };
            (keys.c2s, keys.s2c, role, send_ctr, recv_ctr)
        }));
        w.put(&self.outbox);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let id: SandboxId = r.get()?;
        if id.0 == 0 {
            return Err(WireError::BadValue {
                what: "sandbox id zero",
            });
        }
        Ok(Sandbox {
            id,
            root: r.get()?,
            domain: r.get()?,
            state: r.get()?,
            confined: r.get()?,
            budget_pages: r.get()?,
            logical_confined_bytes: r.get()?,
            attached_common: r.get()?,
            common_mapped: r.get()?,
            saved_ctx: r.get()?,
            kill_reason: r.get()?,
            pending_input: r.get()?,
            session: r
                .get::<Option<([u8; 32], [u8; 32], u8, u64, u64)>>()?
                .map(|(c2s, s2c, role, send_ctr, recv_ctr)| {
                    let role = match role {
                        0 => Role::Client,
                        1 => Role::Monitor,
                        tag => {
                            return Err(WireError::BadTag {
                                what: "Role",
                                tag: u64::from(tag),
                            })
                        }
                    };
                    Ok(SecureChannel::from_parts(
                        SessionKeys { c2s, s2c },
                        role,
                        send_ctr,
                        recv_ctr,
                    ))
                })
                .transpose()?,
            outbox: r.get()?,
        })
    }
}

/// Dense slab of sandboxes keyed by [`SandboxId`].
///
/// Ids are assigned monotonically from 1 and never reused, so slot
/// `id - 1` holds sandbox `id` for the whole platform lifetime — dead
/// sandboxes stay in place, exactly like the ordered map this replaces
/// (kills mark [`SandboxState::Dead`], they never remove entries). Point
/// lookups are O(1) array indexing and iteration runs in id order, so
/// every observable behaviour (contents, iteration order, Debug output
/// derived from it) is byte-identical to the `BTreeMap<u32, Sandbox>`
/// seed representation. Because ids are never reused, the slot index
/// itself acts as the generation: a stale id can only miss (point past
/// the end) or land on the one sandbox that ever owned it.
#[derive(Default)]
pub struct SandboxTable {
    slots: Vec<Sandbox>,
}

impl SandboxTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> SandboxTable {
        SandboxTable { slots: Vec::new() }
    }

    fn slot_of(&self, id: u32) -> Option<usize> {
        (id >= 1)
            .then(|| (id - 1) as usize)
            .filter(|&i| i < self.slots.len())
    }

    /// The sandbox with this id, if one was ever created.
    #[must_use]
    pub fn get(&self, id: &u32) -> Option<&Sandbox> {
        self.slot_of(*id).map(|i| &self.slots[i])
    }

    /// Mutable access to the sandbox with this id.
    pub fn get_mut(&mut self, id: &u32) -> Option<&mut Sandbox> {
        self.slot_of(*id).map(move |i| &mut self.slots[i])
    }

    /// Whether this id names a (live or dead) sandbox.
    #[must_use]
    pub fn contains_key(&self, id: &u32) -> bool {
        self.slot_of(*id).is_some()
    }

    /// Insert the next sandbox. Ids are dense and monotonic by
    /// construction ([`crate::monitor::Monitor::create_sandbox`] is the
    /// only caller); the map-compatible return is always `None`.
    ///
    /// # Panics
    /// If `id` is not exactly one past the current highest id.
    pub fn insert(&mut self, id: u32, sandbox: Sandbox) -> Option<Sandbox> {
        assert_eq!(
            id as usize,
            self.slots.len() + 1,
            "sandbox ids are dense and monotonic"
        );
        self.slots.push(sandbox);
        None
    }

    /// All sandboxes in id order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &Sandbox> {
        self.slots.iter()
    }

    /// All ids in order (map-compatible `&u32` items).
    pub fn keys(&self) -> impl Iterator<Item = &u32> {
        self.slots.iter().map(|s| &s.id.0)
    }

    /// Number of sandboxes ever created (dead ones included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no sandbox was ever created.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl core::ops::Index<&u32> for SandboxTable {
    type Output = Sandbox;

    fn index(&self, id: &u32) -> &Sandbox {
        self.get(id).expect("no such sandbox") // lint:allow(panic) — Index's contract is to panic on a missing key
    }
}

impl core::fmt::Debug for SandboxTable {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_map().entries(self.keys().zip(self.values())).finish()
    }
}

impl core::fmt::Debug for Sandbox {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Sandbox")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("confined_pages", &self.confined.len())
            .field("kill_reason", &self.kill_reason)
            .finish_non_exhaustive()
    }
}

/// Why the sandbox exited to ring 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitCause {
    /// `syscall` instruction with this number.
    Syscall {
        /// Syscall number (rax).
        nr: u64,
    },
    /// Virtualization exception (attempted hypercall-class event).
    Ve(VeReason),
    /// APIC timer interrupt (scheduler tick).
    Timer,
    /// External device interrupt.
    Device,
    /// A hardware exception with this vector (e.g. #UD, divide error).
    Exception(u8),
}

/// The monitor's disposition of an interposed exit (Fig. 7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitDecision {
    /// Protected state saved; continue into this kernel handler with a
    /// scrubbed context.
    ForwardToKernel {
        /// Kernel handler address.
        handler: VirtAddr,
    },
    /// The monitor fully handled the exit (I/O channel, cached cpuid);
    /// resume the sandbox with this syscall return value in `rax`.
    Handled {
        /// Value placed in `rax` on resume.
        rax: u64,
    },
    /// Policy violation: the sandbox was killed and scrubbed.
    Killed {
        /// Human-readable reason.
        reason: &'static str,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sandbox_new_defaults() {
        let s = Sandbox::new(SandboxId(3), Frame(100), 64);
        assert_eq!(s.state, SandboxState::Setup);
        assert_eq!(s.confined_pages(), 0);
        assert!(s.kill_reason.is_none());
    }

    #[test]
    fn owns_va_matches_page() {
        let mut s = Sandbox::new(SandboxId(1), Frame(1), 4);
        s.confined.push((VirtAddr(0x40_0000), Frame(9)));
        assert!(s.owns_va(VirtAddr(0x40_0123)));
        assert!(!s.owns_va(VirtAddr(0x41_0000)));
    }
}
