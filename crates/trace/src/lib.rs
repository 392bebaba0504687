//! `erebor-trace`: deterministic event tracing and cycle attribution.
//!
//! The observability substrate for the reproduction. Two pieces:
//!
//! * [`TraceBuffer`] — a per-core bounded ring of typed [`TraceEvent`]s,
//!   each stamped with the *simulated* cycle counter (never wall clock)
//!   and a global sequence number. The same seed therefore yields a
//!   byte-identical trace, and a chaos invariant failure can dump the
//!   last-N events leading up to the violation.
//! * [`Attribution`] — the cycle-attribution profiler: every charged
//!   cycle lands in exactly one [`Bucket`] (monitor / kernel / sandbox /
//!   tdcall / page-walk, with `other` catching boot and harness work), so
//!   the buckets always sum to the machine's total cycle count — the
//!   paper's Table 6 / §7-style cost breakdown.
//!
//! This crate sits *below* `erebor-hw` (it has no dependencies): the
//! machine owns the buffer and the counter, and every upper layer
//! reaches tracing through the `&mut Machine` it already holds. Events
//! carry only primitive payloads for the same reason.
//!
//! JSON export is hand-rolled here (integers stay exact u64; field order
//! is fixed) so exports are byte-stable across runs and independent of
//! any serializer elsewhere in the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use erebor_wire::{wire_struct, Wire, WireError, WireReader, WireWriter};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// A cycle-attribution bucket: which part of the stack a charged cycle
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Bucket {
    /// Monitor code: EMC gates, dispatch, interposers, mmu-guard work.
    Monitor,
    /// Deprivileged guest-kernel code.
    Kernel,
    /// Sandbox / user execution (including workload compute).
    Sandbox,
    /// `tdcall` round trips through the TDX module and host.
    Tdcall,
    /// Address translation: TLB lookups and page-table walks.
    PageWalk,
    /// Everything else: boot, firmware, test-harness driving. The
    /// default, so cycles charged before any layer claims a bucket
    /// still land somewhere and the buckets sum to the total.
    #[default]
    Other,
}

impl Bucket {
    /// Stable lowercase name (the JSON key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Bucket::Monitor => "monitor",
            Bucket::Kernel => "kernel",
            Bucket::Sandbox => "sandbox",
            Bucket::Tdcall => "tdcall",
            Bucket::PageWalk => "page_walk",
            Bucket::Other => "other",
        }
    }

    /// All buckets, in export order.
    pub const ALL: [Bucket; 6] = [
        Bucket::Monitor,
        Bucket::Kernel,
        Bucket::Sandbox,
        Bucket::Tdcall,
        Bucket::PageWalk,
        Bucket::Other,
    ];
}

/// Per-bucket cycle totals. All arithmetic saturates, matching the
/// workspace's saturating-counter convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Attribution {
    /// Cycles charged while monitor code ran.
    pub monitor: u64,
    /// Cycles charged while kernel code ran.
    pub kernel: u64,
    /// Cycles charged while sandbox/user code ran.
    pub sandbox: u64,
    /// Cycles charged inside `tdcall`.
    pub tdcall: u64,
    /// Cycles charged by address translation.
    pub page_walk: u64,
    /// Cycles charged before/outside any attributed region.
    pub other: u64,
}

impl Attribution {
    /// Add `n` cycles to `bucket` (saturating).
    pub fn charge(&mut self, bucket: Bucket, n: u64) {
        let slot = self.slot_mut(bucket);
        *slot = slot.saturating_add(n);
    }

    /// The total for one bucket.
    #[must_use]
    pub fn get(&self, bucket: Bucket) -> u64 {
        match bucket {
            Bucket::Monitor => self.monitor,
            Bucket::Kernel => self.kernel,
            Bucket::Sandbox => self.sandbox,
            Bucket::Tdcall => self.tdcall,
            Bucket::PageWalk => self.page_walk,
            Bucket::Other => self.other,
        }
    }

    fn slot_mut(&mut self, bucket: Bucket) -> &mut u64 {
        match bucket {
            Bucket::Monitor => &mut self.monitor,
            Bucket::Kernel => &mut self.kernel,
            Bucket::Sandbox => &mut self.sandbox,
            Bucket::Tdcall => &mut self.tdcall,
            Bucket::PageWalk => &mut self.page_walk,
            Bucket::Other => &mut self.other,
        }
    }

    /// Sum of every bucket (saturating). Equals the machine's total
    /// cycle count when every charge goes through the attributed
    /// counter — which the hw crate guarantees by construction.
    #[must_use]
    pub fn total(&self) -> u64 {
        Bucket::ALL
            .iter()
            .fold(0u64, |acc, &b| acc.saturating_add(self.get(b)))
    }

    /// Elementwise saturating difference `self - earlier`.
    #[must_use]
    pub fn delta(&self, earlier: &Attribution) -> Attribution {
        Attribution {
            monitor: self.monitor.saturating_sub(earlier.monitor),
            kernel: self.kernel.saturating_sub(earlier.kernel),
            sandbox: self.sandbox.saturating_sub(earlier.sandbox),
            tdcall: self.tdcall.saturating_sub(earlier.tdcall),
            page_walk: self.page_walk.saturating_sub(earlier.page_walk),
            other: self.other.saturating_sub(earlier.other),
        }
    }

    /// Deterministic JSON object, buckets in [`Bucket::ALL`] order plus
    /// a trailing exact `total`.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = String::from("{");
        for b in Bucket::ALL {
            let _ = write!(s, "\"{}\":{},", b.name(), self.get(b));
        }
        let _ = write!(s, "\"total\":{}}}", self.total());
        s
    }
}

/// One typed trace event. Payloads are primitives only (this crate sits
/// below the hardware model) and every string is a static identifier, so
/// serialization needs no escaping and stays byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// EMC entry gate taken (PKRS granted).
    GateEnter,
    /// EMC exit gate taken (PKRS revoked, control returned).
    GateExit,
    /// An EMC lifecycle transition: `op` is one of
    /// `create`/`seal`/`downgrade`/`unmap`/`reclaim`/`kill`/`deny`; `arg`
    /// is the sandbox id, region id, page number, or page count the op
    /// concerns.
    Emc {
        /// Lifecycle operation name.
        op: &'static str,
        /// Operation argument (sandbox/region id or count).
        arg: u64,
    },
    /// A page-walk fault: translation failed for `va_page` (VA >> 12).
    PageFault {
        /// Faulting page number.
        va_page: u64,
        /// Whether the access was a write.
        write: bool,
    },
    /// A `tdcall` leaf left the guest.
    TdcallLeave {
        /// Leaf name.
        leaf: &'static str,
    },
    /// The in-flight `tdcall` completed (`ok == false` covers both
    /// faults and error completions).
    TdcallDone {
        /// Whether the leaf completed successfully.
        ok: bool,
    },
    /// A TLB-shootdown IPI was sent to core `to`.
    IpiSent {
        /// Destination core.
        to: u32,
    },
    /// A TLB-shootdown IPI arrived and was serviced on this core.
    IpiReceived {
        /// Initiating core.
        from: u32,
    },
    /// An injected loss: the IPI to core `to` never arrived.
    IpiDropped {
        /// Destination core that kept its stale entries.
        to: u32,
    },
    /// An injected spurious invalidation serviced on this core.
    IpiSpurious,
    /// The chaos injector delivered a fault at the named point.
    ChaosFault {
        /// Injection-point name.
        point: &'static str,
    },
    /// MMU-trace (gated): the initiator committed a translation
    /// revocation for `page` under `root` (`0` = every root) and now owes
    /// the invalidation round. Recorded once per page per shootdown,
    /// before any core invalidates — the opening edge of a
    /// stale-permission window.
    TlbShootdown {
        /// Targeted page-table root (`Frame.0`; `0` for a broadcast).
        root: u64,
        /// Revoked page number (VA >> 12).
        page: u64,
    },
    /// MMU-trace (gated): this core dropped its cached translation(s)
    /// for `page` — the closing edge of any open window for the page.
    TlbInvlpg {
        /// Invalidated page number.
        page: u64,
    },
    /// MMU-trace (gated): this core flushed its entire TLB, closing
    /// every open window on the core.
    TlbFlush,
    /// MMU-trace (gated): a translation on this core was served from its
    /// TLB rather than a fresh walk — the access edge the race detector
    /// checks against open revocation windows.
    TlbHit {
        /// Page-table root the cached entry is tagged with (`Frame.0`).
        root: u64,
        /// Accessed page number.
        page: u64,
    },
}

impl TraceEvent {
    /// Stable snake_case type tag (the JSON `type` field).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::GateEnter => "gate_enter",
            TraceEvent::GateExit => "gate_exit",
            TraceEvent::Emc { .. } => "emc",
            TraceEvent::PageFault { .. } => "page_fault",
            TraceEvent::TdcallLeave { .. } => "tdcall_leave",
            TraceEvent::TdcallDone { .. } => "tdcall_done",
            TraceEvent::IpiSent { .. } => "ipi_sent",
            TraceEvent::IpiReceived { .. } => "ipi_received",
            TraceEvent::IpiDropped { .. } => "ipi_dropped",
            TraceEvent::IpiSpurious => "ipi_spurious",
            TraceEvent::ChaosFault { .. } => "chaos_fault",
            TraceEvent::TlbShootdown { .. } => "tlb_shootdown",
            TraceEvent::TlbInvlpg { .. } => "tlb_invlpg",
            TraceEvent::TlbFlush => "tlb_flush",
            TraceEvent::TlbHit { .. } => "tlb_hit",
        }
    }

    fn write_extra(&self, s: &mut String) {
        match self {
            TraceEvent::GateEnter
            | TraceEvent::GateExit
            | TraceEvent::IpiSpurious
            | TraceEvent::TlbFlush => {}
            TraceEvent::TlbShootdown { root, page } | TraceEvent::TlbHit { root, page } => {
                let _ = write!(s, ",\"root\":{root},\"page\":{page}");
            }
            TraceEvent::TlbInvlpg { page } => {
                let _ = write!(s, ",\"page\":{page}");
            }
            TraceEvent::Emc { op, arg } => {
                let _ = write!(s, ",\"op\":\"{op}\",\"arg\":{arg}");
            }
            TraceEvent::PageFault { va_page, write } => {
                let _ = write!(s, ",\"va_page\":{va_page},\"write\":{write}");
            }
            TraceEvent::TdcallLeave { leaf } => {
                let _ = write!(s, ",\"leaf\":\"{leaf}\"");
            }
            TraceEvent::TdcallDone { ok } => {
                let _ = write!(s, ",\"ok\":{ok}");
            }
            TraceEvent::IpiSent { to } | TraceEvent::IpiDropped { to } => {
                let _ = write!(s, ",\"to\":{to}");
            }
            TraceEvent::IpiReceived { from } => {
                let _ = write!(s, ",\"from\":{from}");
            }
            TraceEvent::ChaosFault { point } => {
                let _ = write!(s, ",\"point\":\"{point}\"");
            }
        }
    }
}

/// Migration encoding: a one-byte tag in declaration order, then the
/// payload fields in order.
impl Wire for TraceEvent {
    fn encode(&self, w: &mut WireWriter) {
        match *self {
            TraceEvent::GateEnter => w.u8(0),
            TraceEvent::GateExit => w.u8(1),
            TraceEvent::Emc { op, arg } => w.put(&(2u8, op, arg)),
            TraceEvent::PageFault { va_page, write } => w.put(&(3u8, va_page, write)),
            TraceEvent::TdcallLeave { leaf } => w.put(&(4u8, leaf)),
            TraceEvent::TdcallDone { ok } => w.put(&(5u8, ok)),
            TraceEvent::IpiSent { to } => w.put(&(6u8, to)),
            TraceEvent::IpiReceived { from } => w.put(&(7u8, from)),
            TraceEvent::IpiDropped { to } => w.put(&(8u8, to)),
            TraceEvent::IpiSpurious => w.u8(9),
            TraceEvent::ChaosFault { point } => w.put(&(10u8, point)),
            TraceEvent::TlbShootdown { root, page } => w.put(&(11u8, root, page)),
            TraceEvent::TlbInvlpg { page } => w.put(&(12u8, page)),
            TraceEvent::TlbFlush => w.u8(13),
            TraceEvent::TlbHit { root, page } => w.put(&(14u8, root, page)),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => TraceEvent::GateEnter,
            1 => TraceEvent::GateExit,
            2 => TraceEvent::Emc {
                op: r.get()?,
                arg: r.get()?,
            },
            3 => TraceEvent::PageFault {
                va_page: r.get()?,
                write: r.get()?,
            },
            4 => TraceEvent::TdcallLeave { leaf: r.get()? },
            5 => TraceEvent::TdcallDone { ok: r.get()? },
            6 => TraceEvent::IpiSent { to: r.get()? },
            7 => TraceEvent::IpiReceived { from: r.get()? },
            8 => TraceEvent::IpiDropped { to: r.get()? },
            9 => TraceEvent::IpiSpurious,
            10 => TraceEvent::ChaosFault { point: r.get()? },
            11 => TraceEvent::TlbShootdown {
                root: r.get()?,
                page: r.get()?,
            },
            12 => TraceEvent::TlbInvlpg { page: r.get()? },
            13 => TraceEvent::TlbFlush,
            14 => TraceEvent::TlbHit {
                root: r.get()?,
                page: r.get()?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "TraceEvent",
                    tag: u64::from(tag),
                })
            }
        })
    }
}

/// One recorded event: global sequence number, simulated-cycle stamp,
/// the recording core, and the event itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global (cross-core) record order.
    pub seq: u64,
    /// Simulated cycle counter at record time.
    pub cycles: u64,
    /// Core the event happened on.
    pub cpu: u32,
    /// The event.
    pub event: TraceEvent,
}

wire_struct!(TraceRecord {
    seq,
    cycles,
    cpu,
    event
});

impl TraceRecord {
    /// Deterministic JSON object for this record.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"seq\":{},\"cycles\":{},\"cpu\":{},\"type\":\"{}\"",
            self.seq,
            self.cycles,
            self.cpu,
            self.event.kind()
        );
        self.event.write_extra(&mut s);
        s.push('}');
        s
    }
}

impl core::fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "[seq {} cyc {} cpu {}] {:?}",
            self.seq, self.cycles, self.cpu, self.event
        )
    }
}

/// Default per-core ring capacity. Sized so one full-system request
/// round trip (boot → deploy → attest → serve, a few thousand events
/// dominated by shootdown IPIs) keeps its gate and EMC lifecycle events
/// resident alongside the IPI flood.
pub const DEFAULT_CAPACITY: usize = 1024;

/// A per-core bounded ring buffer of [`TraceRecord`]s.
///
/// Eviction is deterministic (oldest record of the recording core's
/// ring), and recording never charges cycles, so tracing cannot perturb
/// the cycle model it observes.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    rings: Vec<VecDeque<TraceRecord>>,
    capacity: usize,
    seq: u64,
    dropped: u64,
}

impl TraceBuffer {
    /// A buffer with one ring per core at [`DEFAULT_CAPACITY`].
    #[must_use]
    pub fn new(cores: usize) -> TraceBuffer {
        TraceBuffer::with_capacity(cores, DEFAULT_CAPACITY)
    }

    /// A buffer with an explicit per-core capacity (min 1).
    #[must_use]
    pub fn with_capacity(cores: usize, capacity: usize) -> TraceBuffer {
        let capacity = capacity.max(1);
        TraceBuffer {
            rings: (0..cores).map(|_| VecDeque::new()).collect(),
            capacity,
            seq: 0,
            dropped: 0,
        }
    }

    /// Record `event` on `cpu` at the given simulated-cycle stamp.
    /// Out-of-range cores fold onto ring 0 (never panics: tracing must
    /// not introduce failure paths into the machine).
    pub fn record(&mut self, cpu: usize, cycles: u64, event: TraceEvent) {
        if self.rings.is_empty() {
            return;
        }
        let idx = if cpu < self.rings.len() { cpu } else { 0 };
        let ring = &mut self.rings[idx];
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped = self.dropped.saturating_add(1);
        }
        ring.push_back(TraceRecord {
            seq: self.seq,
            cycles,
            cpu: cpu as u32,
            event,
        });
        self.seq = self.seq.saturating_add(1);
    }

    /// Records currently held for one core, oldest first.
    #[must_use]
    pub fn core(&self, cpu: usize) -> &VecDeque<TraceRecord> {
        &self.rings[cpu]
    }

    /// Number of cores (rings).
    #[must_use]
    pub fn cores(&self) -> usize {
        self.rings.len()
    }

    /// Per-core ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently held across every ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rings.iter().map(VecDeque::len).sum()
    }

    /// Whether no events have been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rings.iter().all(VecDeque::is_empty)
    }

    /// Records evicted so far (ring overflow).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total records ever recorded (== next sequence number).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.seq
    }

    /// The last `n` retained records across every core, merged in
    /// global (sequence) order — the chaos failure dump.
    #[must_use]
    pub fn last_n(&self, n: usize) -> Vec<TraceRecord> {
        let mut all: Vec<TraceRecord> = self.rings.iter().flatten().copied().collect();
        all.sort_by_key(|r| r.seq);
        let skip = all.len().saturating_sub(n);
        all.split_off(skip)
    }

    /// Decompose the buffer for migration: `(capacity, seq, dropped,
    /// per-core rings oldest-first)`. Together with
    /// [`TraceBuffer::from_parts`] this round-trips the buffer exactly —
    /// including the global sequence counter and eviction count, so a
    /// migrated machine's subsequent trace export is byte-identical to
    /// an unmigrated one's.
    #[must_use]
    pub fn to_parts(&self) -> (usize, u64, u64, Vec<Vec<TraceRecord>>) {
        (
            self.capacity,
            self.seq,
            self.dropped,
            self.rings
                .iter()
                .map(|r| r.iter().copied().collect())
                .collect(),
        )
    }

    /// Rebuild a buffer from [`TraceBuffer::to_parts`] output.
    #[must_use]
    pub fn from_parts(
        capacity: usize,
        seq: u64,
        dropped: u64,
        rings: Vec<Vec<TraceRecord>>,
    ) -> TraceBuffer {
        TraceBuffer {
            rings: rings.into_iter().map(VecDeque::from).collect(),
            capacity: capacity.max(1),
            seq,
            dropped,
        }
    }

    /// Deterministic JSON document: capacity, totals, and each core's
    /// retained records oldest-first.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"capacity\":{},\"recorded\":{},\"dropped\":{},\"cores\":[",
            self.capacity, self.seq, self.dropped
        );
        for (i, ring) in self.rings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('[');
            for (j, rec) in ring.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&rec.json());
            }
            s.push(']');
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_roundtrips_on_the_wire() {
        let events = [
            TraceEvent::GateEnter,
            TraceEvent::GateExit,
            TraceEvent::Emc {
                op: "create",
                arg: 3,
            },
            TraceEvent::PageFault {
                va_page: 9,
                write: true,
            },
            TraceEvent::TdcallLeave { leaf: "MapGpa" },
            TraceEvent::TdcallDone { ok: false },
            TraceEvent::IpiSent { to: 1 },
            TraceEvent::IpiReceived { from: 2 },
            TraceEvent::IpiDropped { to: 3 },
            TraceEvent::IpiSpurious,
            TraceEvent::ChaosFault { point: "wrmsr" },
            TraceEvent::TlbShootdown { root: 4, page: 5 },
            TraceEvent::TlbInvlpg { page: 6 },
            TraceEvent::TlbFlush,
            TraceEvent::TlbHit { root: 7, page: 8 },
        ];
        for (tag, e) in events.into_iter().enumerate() {
            let bytes = e.to_wire();
            assert_eq!(usize::from(bytes[0]), tag, "tags follow declaration order");
            assert_eq!(TraceEvent::from_wire(&bytes), Ok(e));
        }
        assert_eq!(
            TraceEvent::from_wire(&[15]),
            Err(WireError::BadTag {
                what: "TraceEvent",
                tag: 15
            })
        );
    }

    #[test]
    fn parts_roundtrip_exactly() {
        let mut t = TraceBuffer::with_capacity(2, 2);
        t.record(0, 10, TraceEvent::GateEnter);
        t.record(1, 20, TraceEvent::Emc { op: "create", arg: 1 });
        t.record(0, 30, TraceEvent::GateExit);
        t.record(0, 40, TraceEvent::TlbFlush); // evicts GateEnter
        let (cap, seq, dropped, rings) = t.to_parts();
        let rebuilt = TraceBuffer::from_parts(cap, seq, dropped, rings);
        assert_eq!(rebuilt.json(), t.json(), "byte-identical export");
        assert_eq!(rebuilt.recorded(), t.recorded());
        assert_eq!(rebuilt.dropped(), t.dropped());
    }

    #[test]
    fn attribution_saturates_and_sums() {
        let mut a = Attribution::default();
        a.charge(Bucket::Monitor, u64::MAX);
        a.charge(Bucket::Monitor, 1); // would overflow unchecked
        assert_eq!(a.monitor, u64::MAX);
        a.charge(Bucket::Kernel, 7);
        assert_eq!(a.total(), u64::MAX, "total saturates too");
        let d = a.delta(&Attribution::default());
        assert_eq!(d.kernel, 7);
    }

    #[test]
    fn ring_evicts_oldest_deterministically() {
        let mut t = TraceBuffer::with_capacity(2, 2);
        t.record(0, 10, TraceEvent::GateEnter);
        t.record(0, 20, TraceEvent::GateExit);
        t.record(0, 30, TraceEvent::IpiSpurious);
        assert_eq!(t.core(0).len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.core(0)[0].event, TraceEvent::GateExit);
        // Core 1 untouched.
        assert!(t.core(1).is_empty());
    }

    #[test]
    fn last_n_merges_in_sequence_order() {
        let mut t = TraceBuffer::new(2);
        t.record(0, 1, TraceEvent::GateEnter);
        t.record(1, 2, TraceEvent::IpiReceived { from: 0 });
        t.record(0, 3, TraceEvent::GateExit);
        let last = t.last_n(2);
        assert_eq!(last.len(), 2);
        assert_eq!(last[0].event, TraceEvent::IpiReceived { from: 0 });
        assert_eq!(last[1].event, TraceEvent::GateExit);
        assert_eq!(t.last_n(100).len(), 3);
    }

    #[test]
    fn json_is_stable_and_structural() {
        let mut t = TraceBuffer::with_capacity(1, 4);
        t.record(0, 5, TraceEvent::Emc { op: "create", arg: 1 });
        t.record(0, 9, TraceEvent::TdcallDone { ok: false });
        let a = t.json();
        let b = t.clone().json();
        assert_eq!(a, b, "same buffer serializes byte-identically");
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"type\":\"emc\""));
        assert!(a.contains("\"op\":\"create\""));
        assert!(a.contains("\"ok\":false"));
        let attr = Attribution {
            monitor: 3,
            ..Attribution::default()
        };
        assert_eq!(
            attr.json(),
            "{\"monitor\":3,\"kernel\":0,\"sandbox\":0,\"tdcall\":0,\
             \"page_walk\":0,\"other\":0,\"total\":3"
                .to_owned()
                + "}"
        );
    }

    #[test]
    fn out_of_range_core_folds_to_ring_zero() {
        let mut t = TraceBuffer::new(1);
        t.record(9, 1, TraceEvent::GateEnter);
        assert_eq!(t.core(0).len(), 1);
        assert_eq!(t.core(0)[0].cpu, 9, "original core id preserved");
    }
}
