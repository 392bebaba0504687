//! `erebor-analyze`: static analysis over the simulated machine, its
//! traces, and the workspace source.
//!
//! Three deterministic, hermetic passes (no external dependencies):
//!
//! * [`audit`] — the **state auditor**: an exhaustive walk of every
//!   page-table tree reachable from any tracked CR3, the sEPT, the IDT,
//!   and the pinned MSRs, mechanically verifying machine-checkable
//!   encodings of the paper's security claims C1–C8 (DESIGN.md §9 maps
//!   each check to its claim). It proves the claims over a whole
//!   snapshot, and it is the only state checker: every boot and every
//!   step of every chaos case becomes a proof obligation.
//! * [`race`] — the **trace race detector**: a vector-clock
//!   happens-before pass over the [`erebor_trace::TraceRecord`] stream
//!   that flags stale-permission windows: a core's TLB-served access to
//!   a page after its revocation (unmap/downgrade/shootdown) without an
//!   intervening invalidation or shootdown-IPI ack edge on that core.
//! * [`lint`] — the **source lint**: token-level workspace rules (no
//!   `unwrap`/`expect`/`panic!` in library code outside tests,
//!   saturating arithmetic on stats counters, no `Ordering::Relaxed`,
//!   the `EREBOR_JSON:` marker in every JSON-emitting bin), run by
//!   `cargo run -p erebor-analyze --bin lint`.
//! * [`privilege`] — the **privilege-separation auditor**: a
//!   workspace-wide module-level reference graph of every mention of a
//!   privileged symbol (raw frame mutation, MSR/CR/PKRS state, PTE and
//!   sEPT construction, domain pools, TLB/IPI primitives, `unsafe`),
//!   checked against the declared privilege manifest — the allowlisted
//!   trusted core (`erebor-hw`, the monitor, the TDX substrate, the
//!   state auditor, the platform embedder). Zero findings is the CI
//!   baseline; waivers are refused by default. Run by
//!   `cargo run -p erebor-analyze --bin privilege` (DESIGN.md §14).
//!
//! Everything reports through the structured types in [`findings`] with
//! hand-rolled, byte-stable JSON like the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod findings;
pub mod lint;
pub mod privilege;
pub mod race;
pub mod source;

pub use audit::MachineView;
pub use findings::{AuditReport, Finding};
pub use privilege::{PrivilegeFinding, PrivilegeReport};
pub use race::{detect_races, RaceFinding};
