//! The trace race detector: a vector-clock happens-before pass over a
//! [`TraceRecord`] stream that flags **stale-permission windows**.
//!
//! A window opens on a *revocation edge* — the initiator publishing a
//! permission downgrade for a page (`tlb_shootdown` under MMU tracing,
//! or the monitor's `emc unmap`/`downgrade` lifecycle events) — and
//! closes on each core independently when that core drops the cached
//! translation (`tlb_invlpg` for the page, any `tlb_flush`) or when a
//! shootdown-IPI ack edge from the initiator reaches it (`ipi_sent` →
//! `ipi_received`, tracked with per-core vector clocks). A TLB-served
//! access (`tlb_hit`) on a core inside one of its open windows is a
//! stale-permission race: the core used a translation the rest of the
//! system believes revoked.
//!
//! Windows whose invalidation IPI the fault injector *dropped* are
//! reported with [`RaceFinding::dropped`] set: the staleness is a
//! modelled loss (mirroring the hardware `pending_shootdowns` ledger),
//! which chaos campaigns tolerate while a real missing-shootdown bug —
//! `dropped == false` — fails the case.
//!
//! Raw PTE rewrites that bypass every revocation edge are invisible to
//! the detector by design (there is no anchor event); the state
//! auditor's C8 ledger check covers that class statically.

use erebor_trace::{TraceEvent, TraceRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One detected stale-permission window use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceFinding {
    /// Core that used the stale translation.
    pub cpu: u32,
    /// Page number (VA >> 12) the access hit.
    pub page: u64,
    /// Root the revocation targeted (`0` = every root).
    pub root: u64,
    /// Sequence number of the revocation edge that opened the window.
    pub revoke_seq: u64,
    /// Sequence number of the stale access.
    pub access_seq: u64,
    /// Whether the window is explained by an injected IPI loss.
    pub dropped: bool,
}

impl RaceFinding {
    /// Deterministic JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"cpu\":{},\"page\":{},\"root\":{},\"revoke_seq\":{},\"access_seq\":{},\
             \"dropped\":{}}}",
            self.cpu, self.page, self.root, self.revoke_seq, self.access_seq, self.dropped
        );
        s
    }
}

impl core::fmt::Display for RaceFinding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "cpu {} hit stale page {:#x} at seq {} (revoked at seq {}, root {:#x}{})",
            self.cpu,
            self.page,
            self.access_seq,
            self.revoke_seq,
            self.root,
            if self.dropped { ", IPI dropped" } else { "" }
        )
    }
}

/// An open stale-permission window on one core.
#[derive(Debug, Clone)]
struct Window {
    root: u64,
    revoke_seq: u64,
    initiator: usize,
    /// The initiator's clock component at revocation time: an
    /// `ipi_received` from the initiator carrying a later component is an
    /// ack edge that closes the window.
    revoke_clock: u64,
    dropped: bool,
    reported: bool,
}

/// Detector state: per-core vector clocks, in-flight IPI channel
/// snapshots, and per-core open windows.
struct Detector {
    cores: usize,
    clocks: Vec<Vec<u64>>,
    /// FIFO of clock snapshots per (from, to) channel, pushed at
    /// `ipi_sent` and joined at `ipi_received`.
    channels: BTreeMap<(usize, usize), Vec<Vec<u64>>>,
    /// Open windows keyed by (core, page). A newer revocation for the
    /// same page supersedes the old window (any still-cached entry is
    /// covered by the newer, stricter revocation).
    windows: BTreeMap<(usize, u64), Window>,
    findings: Vec<RaceFinding>,
}

impl Detector {
    fn new(cores: usize) -> Detector {
        Detector {
            cores,
            clocks: vec![vec![0; cores]; cores],
            channels: BTreeMap::new(),
            windows: BTreeMap::new(),
            findings: Vec::new(),
        }
    }

    fn core_index(&self, cpu: u32) -> usize {
        let c = cpu as usize;
        if c < self.cores {
            c
        } else {
            0 // out-of-range cores fold to ring 0, as the trace buffer does
        }
    }

    fn open_windows(&mut self, initiator: usize, root: u64, page: u64, seq: u64) {
        let revoke_clock = self.clocks[initiator][initiator];
        for core in 0..self.cores {
            self.windows.insert(
                (core, page),
                Window {
                    root,
                    revoke_seq: seq,
                    initiator,
                    revoke_clock,
                    dropped: false,
                    reported: false,
                },
            );
        }
    }

    fn step(&mut self, rec: &TraceRecord) {
        let cpu = self.core_index(rec.cpu);
        // Every event advances its core's own clock component.
        self.clocks[cpu][cpu] = self.clocks[cpu][cpu].saturating_add(1);
        match rec.event {
            TraceEvent::TlbShootdown { root, page } => {
                self.open_windows(cpu, root, page, rec.seq);
            }
            TraceEvent::Emc { op: "unmap" | "downgrade", arg } => {
                // Lifecycle revocation: the root is not carried, so the
                // window matches accesses under any root.
                self.open_windows(cpu, 0, arg, rec.seq);
            }
            TraceEvent::TlbInvlpg { page } => {
                self.windows.remove(&(cpu, page));
            }
            TraceEvent::TlbFlush => {
                let stale: Vec<(usize, u64)> = self
                    .windows
                    .keys()
                    .filter(|&&(c, _)| c == cpu)
                    .copied()
                    .collect();
                for k in stale {
                    self.windows.remove(&k);
                }
            }
            TraceEvent::IpiSent { to } => {
                let to = self.core_index(to);
                let snapshot = self.clocks[cpu].clone();
                self.channels.entry((cpu, to)).or_default().push(snapshot);
            }
            TraceEvent::IpiDropped { to } => {
                // The initiator knows this core never saw the
                // invalidation: mark every window it opened there as a
                // modelled loss.
                let to = self.core_index(to);
                for w in self
                    .windows
                    .iter_mut()
                    .filter(|(&(c, _), w)| c == to && w.initiator == cpu)
                    .map(|(_, w)| w)
                {
                    w.dropped = true;
                }
            }
            TraceEvent::IpiReceived { from } => {
                let from = self.core_index(from);
                let snapshot = {
                    let queue = self.channels.entry((from, cpu)).or_default();
                    if queue.is_empty() {
                        None
                    } else {
                        Some(queue.remove(0))
                    }
                };
                if let Some(snap) = snapshot {
                    for (mine, theirs) in self.clocks[cpu].iter_mut().zip(&snap) {
                        *mine = (*mine).max(*theirs);
                    }
                }
                // Ack edge: windows whose revocation happened-before this
                // delivery are closed on the receiving core.
                let seen = self.clocks[cpu][from];
                let acked: Vec<(usize, u64)> = self
                    .windows
                    .iter()
                    .filter(|(&(c, _), w)| {
                        c == cpu && w.initiator == from && w.revoke_clock <= seen
                    })
                    .map(|(&k, _)| k)
                    .collect();
                for k in acked {
                    self.windows.remove(&k);
                }
            }
            TraceEvent::TlbHit { root, page } => {
                if let Some(w) = self.windows.get_mut(&(cpu, page)) {
                    let root_matches = w.root == 0 || w.root == root;
                    if root_matches && !w.reported {
                        w.reported = true;
                        self.findings.push(RaceFinding {
                            cpu: rec.cpu,
                            page,
                            root: w.root,
                            revoke_seq: w.revoke_seq,
                            access_seq: rec.seq,
                            dropped: w.dropped,
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

/// Run the happens-before pass over `records` (any order; they are
/// re-sorted by global sequence number) for a machine with `cores`
/// cores. Returns every stale-window use, one finding per window.
#[must_use]
pub fn detect_races(records: &[TraceRecord], cores: usize) -> Vec<RaceFinding> {
    let cores = cores.max(1);
    let mut sorted: Vec<&TraceRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.seq);
    let mut det = Detector::new(cores);
    for rec in sorted {
        det.step(rec);
    }
    det.findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, cpu: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq,
            cycles: seq * 10,
            cpu,
            event,
        }
    }

    #[test]
    fn delivered_shootdown_opens_no_window() {
        let t = vec![
            rec(0, 0, TraceEvent::TlbShootdown { root: 7, page: 0x40 }),
            rec(1, 0, TraceEvent::IpiSent { to: 1 }),
            rec(2, 1, TraceEvent::IpiReceived { from: 0 }),
            rec(3, 1, TraceEvent::TlbInvlpg { page: 0x40 }),
            rec(4, 0, TraceEvent::TlbInvlpg { page: 0x40 }),
            rec(5, 1, TraceEvent::TlbHit { root: 7, page: 0x40 }),
        ];
        assert!(detect_races(&t, 2).is_empty());
    }

    #[test]
    fn dropped_ipi_then_hit_is_a_dropped_finding() {
        let t = vec![
            rec(0, 0, TraceEvent::TlbShootdown { root: 7, page: 0x40 }),
            rec(1, 0, TraceEvent::IpiSent { to: 1 }),
            rec(2, 0, TraceEvent::IpiDropped { to: 1 }),
            rec(3, 0, TraceEvent::TlbInvlpg { page: 0x40 }),
            rec(4, 1, TraceEvent::TlbHit { root: 7, page: 0x40 }),
        ];
        let f = detect_races(&t, 2);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].cpu, 1);
        assert_eq!(f[0].page, 0x40);
        assert!(f[0].dropped);
    }

    #[test]
    fn missing_shootdown_after_unmap_is_a_real_finding() {
        // The monitor revoked the page but no shootdown/invalidation ever
        // reached core 1: its later TLB-served access is the bug class
        // the hand-written stale-TLB attack tests probe.
        let t = vec![
            rec(0, 0, TraceEvent::Emc { op: "unmap", arg: 0x99 }),
            rec(1, 1, TraceEvent::TlbHit { root: 3, page: 0x99 }),
        ];
        let f = detect_races(&t, 2);
        assert_eq!(f.len(), 1);
        assert!(!f[0].dropped, "no injected loss explains this window");
        assert_eq!(f[0].revoke_seq, 0);
        assert_eq!(f[0].access_seq, 1);
    }

    #[test]
    fn full_flush_closes_every_window_on_the_core() {
        let t = vec![
            rec(0, 0, TraceEvent::TlbShootdown { root: 0, page: 0x10 }),
            rec(1, 0, TraceEvent::TlbShootdown { root: 0, page: 0x11 }),
            rec(2, 1, TraceEvent::TlbFlush),
            rec(3, 1, TraceEvent::TlbHit { root: 5, page: 0x10 }),
            rec(4, 1, TraceEvent::TlbHit { root: 5, page: 0x11 }),
        ];
        assert!(detect_races(&t, 2).is_empty());
    }

    #[test]
    fn root_targeted_window_ignores_other_address_spaces() {
        let t = vec![
            rec(0, 0, TraceEvent::TlbShootdown { root: 7, page: 0x40 }),
            rec(1, 1, TraceEvent::TlbHit { root: 8, page: 0x40 }),
        ];
        assert!(
            detect_races(&t, 2).is_empty(),
            "a hit under a different root is a different translation"
        );
        let t2 = vec![
            rec(0, 0, TraceEvent::TlbShootdown { root: 7, page: 0x40 }),
            rec(1, 1, TraceEvent::TlbHit { root: 7, page: 0x40 }),
        ];
        assert_eq!(detect_races(&t2, 2).len(), 1);
    }

    #[test]
    fn ack_edge_via_vector_clock_closes_without_explicit_invlpg() {
        // Core 1 receives the shootdown IPI sent after the revocation;
        // the happens-before edge alone must close the window even if
        // the per-page invalidation event was lost from the ring.
        let t = vec![
            rec(0, 0, TraceEvent::TlbShootdown { root: 7, page: 0x40 }),
            rec(1, 0, TraceEvent::IpiSent { to: 1 }),
            rec(2, 1, TraceEvent::IpiReceived { from: 0 }),
            rec(3, 1, TraceEvent::TlbHit { root: 7, page: 0x40 }),
        ];
        assert!(detect_races(&t, 2).is_empty());
    }

    #[test]
    fn stale_accesses_register_individually() {
        // Every access records its own TlbHit — never a coalesced
        // summary event — so distinct stale pages touched in a row each
        // produce their own finding, and the access sequence numbers
        // identify the individual accesses.
        let t = vec![
            rec(0, 0, TraceEvent::TlbShootdown { root: 7, page: 0x40 }),
            rec(1, 0, TraceEvent::TlbShootdown { root: 7, page: 0x41 }),
            rec(2, 1, TraceEvent::TlbHit { root: 7, page: 0x40 }),
            rec(3, 1, TraceEvent::TlbHit { root: 7, page: 0x41 }),
            rec(4, 1, TraceEvent::TlbHit { root: 7, page: 0x40 }),
        ];
        let f = detect_races(&t, 2);
        assert_eq!(f.len(), 2, "one finding per stale page, none hidden");
        assert_eq!(f[0].access_seq, 2, "first stale access, not a summary");
        assert_eq!(f[1].access_seq, 3);
    }

    #[test]
    fn each_window_reports_once() {
        let t = vec![
            rec(0, 0, TraceEvent::Emc { op: "downgrade", arg: 0x40 }),
            rec(1, 1, TraceEvent::TlbHit { root: 1, page: 0x40 }),
            rec(2, 1, TraceEvent::TlbHit { root: 1, page: 0x40 }),
        ];
        assert_eq!(detect_races(&t, 2).len(), 1, "deduped per window");
    }
}
