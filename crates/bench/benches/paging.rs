//! Criterion: the simulated MMU paths (checked mapping, permission walks).
//!
//! The translation-path counters in `meta` (`tlb_hits`, `tlb_misses`,
//! `tlb_flushes`, `tlb_shootdown_ipis` and `tlb_hit_rate`, floor 0.5)
//! come from a fixed probe program on a fresh platform, not from the
//! timed loops, whose iteration counts follow wall time: two runs print
//! identical counters.

use erebor::{Mode, Platform};
use erebor_hw::fault::AccessKind;
use erebor_hw::VirtAddr;
use erebor_kernel::Pid;
use erebor_libos::api::Sys;
use erebor_testkit::bench::Criterion;
use erebor_testkit::{criterion_group, criterion_main};

/// Probes of the mapped page, TLB flush-and-probes, and mmap/fault/unmap
/// cycles in the fixed probe program, one pass of each timed loop's body.
const HIT_PROBES: u64 = 1024;
const COLD_PROBES: u64 = 64;
const MAP_CYCLES: u64 = 64;

/// A fixed address so the page-table pages are reused across the hot
/// loop (criterion runs millions of iterations).
const FIXED: u64 = 0x7a00_0000_0000;

/// A Full platform with one native process and one touched page, timer
/// and reclaim off so only the caller's accesses translate.
fn setup() -> (Platform, Pid, VirtAddr) {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    p.cvm.monitor.cfg.timer_quantum_cycles = u64::MAX / 4;
    p.driver.reclaim_period_ticks = 0;
    let pid = p.spawn_native().expect("spawn");
    let va = p
        .proc(pid)
        .syscall(erebor_kernel::syscall::nr::MMAP, [0, 4096, 3, 0, 0, 0])
        .expect("mmap");
    p.proc(pid).touch(va, true).expect("touch");
    (p, pid, VirtAddr(va))
}

fn probe(p: &mut Platform, va: VirtAddr) {
    p.cvm.machine.probe(0, va, AccessKind::Read).expect("probe");
}

fn cold_probe(p: &mut Platform, va: VirtAddr) {
    p.cvm.machine.flush_tlb(0);
    probe(p, va);
}

fn mmap_fault_unmap(p: &mut Platform, pid: Pid) {
    let a = p
        .proc(pid)
        .syscall(erebor_kernel::syscall::nr::MMAP, [FIXED, 4096, 3, 0, 0, 0])
        .expect("mmap");
    p.proc(pid).touch(a, true).expect("touch");
    p.proc(pid)
        .syscall(erebor_kernel::syscall::nr::MUNMAP, [a, 4096, 0, 0, 0, 0])
        .expect("munmap");
}

fn bench_paging(c: &mut Criterion) {
    let (mut p, pid, va) = setup();

    c.bench_function("mmu_probe_mapped_page", |b| {
        b.iter(|| probe(&mut p, va));
    });

    // Simulator-side translation cost, deterministic (cycle-model, not
    // wall-clock): one probe served from the TLB vs one after a flush.
    // The floor on their ratio checks the TLB actually short-circuits the
    // four-level walk.
    probe(&mut p, va);
    let before = p.cvm.machine.cycles.total();
    probe(&mut p, va);
    let hit_cycles = p.cvm.machine.cycles.total() - before;
    let before = p.cvm.machine.cycles.total();
    cold_probe(&mut p, va);
    let cold_cycles = p.cvm.machine.cycles.total() - before;
    c.meta("sim_cycles_per_probe_tlb_hit", hit_cycles as f64);
    c.meta("sim_cycles_per_probe_tlb_cold", cold_cycles as f64);
    c.floor(
        "tlb_hit_speedup",
        cold_cycles as f64 / hit_cycles as f64,
        5.0,
    );

    c.bench_function("mmu_probe_tlb_hit", |b| {
        // The first probe fills; every timed iteration after it hits.
        b.iter(|| probe(&mut p, va));
    });

    c.bench_function("mmu_probe_tlb_cold", |b| {
        b.iter(|| cold_probe(&mut p, va));
    });

    c.bench_function("mmap_fault_unmap_cycle", |b| {
        b.iter(|| mmap_fault_unmap(&mut p, pid));
    });

    // Translation-path counters of the fixed probe program.
    let (mut p, pid, va) = setup();
    let before = p.cvm.machine.stats;
    for _ in 0..HIT_PROBES {
        probe(&mut p, va);
    }
    for _ in 0..COLD_PROBES {
        cold_probe(&mut p, va);
    }
    for _ in 0..MAP_CYCLES {
        mmap_fault_unmap(&mut p, pid);
    }
    let stats = p.cvm.machine.stats.delta(&before);
    c.floor("tlb_hit_rate", stats.hit_rate(), 0.5);
    c.meta("tlb_hits", stats.tlb_hits as f64);
    c.meta("tlb_misses", stats.tlb_misses as f64);
    c.meta("tlb_flushes", stats.tlb_flushes as f64);
    c.meta("tlb_shootdown_ipis", stats.tlb_shootdown_ipis as f64);
}

criterion_group!(benches, bench_paging);
criterion_main!(benches);
