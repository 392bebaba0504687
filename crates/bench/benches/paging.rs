//! Criterion: the simulated MMU paths (checked mapping, permission walks).

use erebor_testkit::bench::Criterion;
use erebor_testkit::{criterion_group, criterion_main};
use erebor::{Mode, Platform};
use erebor_hw::fault::AccessKind;
use erebor_hw::VirtAddr;
use erebor_libos::api::Sys;

fn bench_paging(c: &mut Criterion) {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    p.cvm.monitor.cfg.timer_quantum_cycles = u64::MAX / 4;
    p.reclaim_period_ticks = 0;
    let pid = p.spawn_native().expect("spawn");
    let va = p
        .proc(pid)
        .syscall(erebor_kernel::syscall::nr::MMAP, [0, 4096, 3, 0, 0, 0])
        .expect("mmap");
    p.proc(pid).touch(va, true).expect("touch");

    c.bench_function("mmu_probe_mapped_page", |b| {
        b.iter(|| {
            p.cvm
                .machine
                .probe(0, VirtAddr(va), AccessKind::Read)
                .expect("probe")
        });
    });

    // Simulator-side translation cost, deterministic (cycle-model, not
    // wall-clock): one probe served from the TLB vs one after a flush.
    // The floor on their ratio checks the TLB actually short-circuits the
    // four-level walk.
    let m = &mut p.cvm.machine;
    m.probe(0, VirtAddr(va), AccessKind::Read).expect("warm");
    let before = m.cycles.total();
    m.probe(0, VirtAddr(va), AccessKind::Read).expect("hit");
    let hit_cycles = m.cycles.total() - before;
    m.flush_tlb(0);
    let before = m.cycles.total();
    m.probe(0, VirtAddr(va), AccessKind::Read).expect("cold");
    let cold_cycles = m.cycles.total() - before;
    c.meta("sim_cycles_per_probe_tlb_hit", hit_cycles as f64);
    c.meta("sim_cycles_per_probe_tlb_cold", cold_cycles as f64);
    c.floor(
        "tlb_hit_speedup",
        cold_cycles as f64 / hit_cycles as f64,
        5.0,
    );

    c.bench_function("mmu_probe_tlb_hit", |b| {
        // The first probe fills; every timed iteration after it hits.
        b.iter(|| {
            p.cvm
                .machine
                .probe(0, VirtAddr(va), AccessKind::Read)
                .expect("probe")
        });
    });

    c.bench_function("mmu_probe_tlb_cold", |b| {
        b.iter(|| {
            p.cvm.machine.flush_tlb(0);
            p.cvm
                .machine
                .probe(0, VirtAddr(va), AccessKind::Read)
                .expect("probe")
        });
    });

    // A fixed address so the page-table pages are reused across the hot
    // loop (criterion runs millions of iterations).
    let fixed = 0x7a00_0000_0000u64;
    c.bench_function("mmap_fault_unmap_cycle", |b| {
        b.iter(|| {
            let a = p
                .proc(pid)
                .syscall(erebor_kernel::syscall::nr::MMAP, [fixed, 4096, 3, 0, 0, 0])
                .expect("mmap");
            p.proc(pid).touch(a, true).expect("touch");
            p.proc(pid)
                .syscall(erebor_kernel::syscall::nr::MUNMAP, [a, 4096, 0, 0, 0, 0])
                .expect("munmap");
        });
    });

    // Aggregate translation-path counters over the whole bench run.
    let stats = p.cvm.machine.stats;
    c.floor("tlb_hit_rate", stats.hit_rate(), 0.5);
    c.meta("tlb_hits", stats.tlb_hits as f64);
    c.meta("tlb_misses", stats.tlb_misses as f64);
    c.meta("tlb_flushes", stats.tlb_flushes as f64);
    c.meta("tlb_shootdown_ipis", stats.tlb_shootdown_ipis as f64);
}

criterion_group!(benches, bench_paging);
criterion_main!(benches);
