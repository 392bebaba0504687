//! Criterion: the batched execution fast path vs the slow permission
//! pipeline on a paging-heavy workload.
//!
//! The headline numbers land in the JSON `meta` block (persisted as
//! `BENCH_fastpath.json`), each bound declared once here; the bench
//! exits non-zero when one breaks:
//!
//! - `fastpath_events_per_sec` / `slowpath_events_per_sec` — wall-clock
//!   batch-op throughput with the decision cache on vs off (same
//!   machine shape, same op program, `mmu_trace` off so hits take the
//!   deferred-side-effect path), each the median over [`ROUNDS`]
//!   rounds;
//! - `fastpath_speedup` — the median of the per-round ratios, floor 5.
//!   Each round times both loops back to back on fresh machines, so a
//!   burst of host load that slows one side skews one round, not the
//!   headline. `fastpath_speedup_min` / `_max` give the rounds' spread;
//! - `decision_hit_rate` — fraction of batch ops served from the
//!   decision cache on the cached run, floor 0.9.
//!
//! The equivalence of the two paths is not this bench's job — the
//! differential suite (`tests/fastpath_equivalence.rs`) proves the
//! observable state byte-identical; this bench proves the memoization
//! actually pays.

use std::time::Instant;

use erebor_hw::cpu::{Domain, Machine};
use erebor_hw::decision::FastpathStats;
use erebor_hw::fault::AccessKind;
use erebor_hw::paging::{self, Pte, PteFlags};
use erebor_hw::regs::{Cr0, Cr4};
use erebor_hw::{BatchOp, Frame, VirtAddr};
use erebor_testkit::bench::{smoke, Criterion};
use erebor_testkit::{criterion_group, criterion_main};

/// Mapped kernel pages the workload cycles over (within one TLB/decision
/// set's worth of slots, so the cache stays warm like a hot loop would).
const PAGES: u64 = 8;
const BASE: u64 = 0xffff_8000_0000_0000;

fn build() -> (Machine, Frame) {
    let mut m = Machine::new(2, 32 * 1024 * 1024);
    let root = m.mem.alloc_frame().expect("root");
    let flags = PteFlags {
        present: true,
        writable: true,
        user: false,
        accessed: false,
        dirty: false,
        nx: true,
        pkey: 0,
    };
    for i in 0..PAGES {
        let frame = m.mem.alloc_frame().expect("frame");
        paging::map_raw(
            &mut m.mem,
            root,
            VirtAddr(BASE + i * 0x1000),
            Pte::encode(frame, flags),
            paging::intermediate_for(flags),
        )
        .expect("map");
    }
    for c in &mut m.cpus {
        c.cr3 = root;
        c.cr0 = Cr0(Cr0::WP | Cr0::PG);
        c.cr4 = Cr4(Cr4::SMEP | Cr4::SMAP | Cr4::PKS);
        c.domain = Domain::Monitor;
    }
    m.allow_sensitive(Domain::Monitor);
    // Deferred-side-effect fast path: no per-hit trace events.
    m.mmu_trace = false;
    (m, root)
}

/// The paging workload: a straight-line batch of permission checks over
/// the working set — the translation/permission path the decision cache
/// memoizes, matching the probe-based shape of the `paging` bench. The
/// DRAM transfer itself costs the same with the cache on or off, so the
/// headline workload isolates what the cache actually changes.
fn workload() -> Vec<BatchOp> {
    let mut ops = Vec::new();
    for round in 0..32u64 {
        for i in 0..PAGES {
            let va = VirtAddr(BASE + i * 0x1000 + (round % 8) * 64);
            ops.push(BatchOp::Probe {
                va,
                kind: if (round + i) % 2 == 0 {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                },
            });
        }
    }
    ops
}

/// A marshalling-shaped batch (probes, loads, stores) for the
/// criterion-visible timings: the realistic mix a batched
/// syscall-argument copy would issue.
fn mixed_workload() -> Vec<BatchOp> {
    let mut ops = Vec::new();
    for round in 0..32u64 {
        for i in 0..PAGES {
            let va = VirtAddr(BASE + i * 0x1000 + (round % 8) * 64);
            ops.push(match (round + i) % 4 {
                0 => BatchOp::Probe {
                    va,
                    kind: AccessKind::Read,
                },
                1 => BatchOp::ReadU64 { va },
                2 => BatchOp::WriteU64 {
                    va,
                    v: round << 32 | i,
                },
                _ => BatchOp::Probe {
                    va,
                    kind: AccessKind::Write,
                },
            });
        }
    }
    ops
}

/// Rounds of the headline measurement (odd, so the median is a round's
/// own ratio).
const ROUNDS: usize = 15;

/// A fast (decision cache on) and a slow (cache off) machine, fresh.
fn build_pair() -> (Machine, Machine) {
    let (fast, _) = build();
    let (mut slow, _) = build();
    slow.fastpath_enabled = false;
    (fast, slow)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Wall-clock ops/sec for `ops` replayed `reps` times on `m`.
fn events_per_sec(m: &mut Machine, ops: &[BatchOp], reps: u64) -> f64 {
    let t = Instant::now();
    let mut executed = 0u64;
    for _ in 0..reps {
        let out = m.run_batch(0, ops);
        assert!(out.fault.is_none(), "workload must not fault: {:?}", out.fault);
        executed += out.executed as u64;
    }
    executed as f64 / t.elapsed().as_secs_f64()
}

fn bench_fastpath(c: &mut Criterion) {
    let ops = workload();
    let reps = if smoke() { 1_000 } else { 4_000 };

    // Criterion-visible per-batch timings for the two configurations, on
    // both the probe (paging) and the marshalling-shaped mixed batch.
    let mixed = mixed_workload();
    let (mut fast, mut slow) = build_pair();
    assert!(fast.fastpath_enabled);
    c.bench_function("batch_probe_fastpath_on", |b| {
        b.iter(|| fast.run_batch(0, &ops));
    });
    c.bench_function("batch_mixed_fastpath_on", |b| {
        b.iter(|| fast.run_batch(0, &mixed));
    });
    c.bench_function("batch_probe_fastpath_off", |b| {
        b.iter(|| slow.run_batch(0, &ops));
    });
    c.bench_function("batch_mixed_fastpath_off", |b| {
        b.iter(|| slow.run_batch(0, &mixed));
    });

    // Headline throughput: interleaved rounds on fresh machines, the
    // side that runs first alternating. Both sides pay their cold misses;
    // the steady state dominates at `reps` repetitions.
    let mut fast_eps = Vec::with_capacity(ROUNDS);
    let mut slow_eps = Vec::with_capacity(ROUNDS);
    let mut ratios = Vec::with_capacity(ROUNDS);
    let mut stats = FastpathStats::default();
    for round in 0..ROUNDS {
        let (mut fast, mut slow) = build_pair();
        let (f, s) = if round % 2 == 0 {
            let f = events_per_sec(&mut fast, &ops, reps);
            (f, events_per_sec(&mut slow, &ops, reps))
        } else {
            let s = events_per_sec(&mut slow, &ops, reps);
            (events_per_sec(&mut fast, &ops, reps), s)
        };
        // The ablated run must be a true ablation — zero cached decisions.
        assert_eq!(
            slow.fastpath.decision_hits, 0,
            "ablated machine must never serve a cached decision"
        );
        stats.batches = stats.batches.saturating_add(fast.fastpath.batches);
        stats.decision_hits = stats
            .decision_hits
            .saturating_add(fast.fastpath.decision_hits);
        stats.slow_ops = stats.slow_ops.saturating_add(fast.fastpath.slow_ops);
        fast_eps.push(f);
        slow_eps.push(s);
        ratios.push(f / s);
    }

    c.meta("fastpath_events_per_sec", median(fast_eps));
    c.meta("slowpath_events_per_sec", median(slow_eps));
    c.meta("fastpath_rounds", ROUNDS as f64);
    ratios.sort_by(f64::total_cmp);
    c.meta("fastpath_speedup_min", ratios[0]);
    c.meta("fastpath_speedup_max", ratios[ROUNDS - 1]);
    c.floor("fastpath_speedup", ratios[ROUNDS / 2], 5.0);
    c.floor("decision_hit_rate", stats.hit_rate(), 0.9);
    c.meta("fastpath_batches", stats.batches as f64);
    c.meta("fastpath_slow_ops", stats.slow_ops as f64);
}

criterion_group!(benches, bench_fastpath);
criterion_main!(benches);
