//! LMBench-style system microbenchmarks (artifact experiment E1, Fig. 8):
//! runs the suite under the native CVM and under Erebor and prints the
//! per-operation latencies and ratios.
//!
//! Run with: `cargo run --release --example lmbench`

use erebor::{Mode, Platform};
use erebor_workloads::lmbench;

fn run_suite(mode: Mode, ops: u64) -> Vec<lmbench::BenchResult> {
    let mut p = Platform::boot(mode).expect("boot");
    // Isolate per-op latency: no timer or reclaim noise.
    p.cvm.monitor.cfg.timer_quantum_cycles = u64::MAX / 4;
    p.driver.reclaim_period_ticks = 0;
    let pid = p.spawn_native().expect("spawn");
    let mut h = p.proc(pid);
    lmbench::run_suite(&mut h, ops).expect("suite")
}

fn main() {
    println!("running LMBench suite natively and under Erebor (512 ops/bench)...\n");
    let native = run_suite(Mode::Native, 512);
    let erebor = run_suite(Mode::Full, 512);
    println!(
        "{:<12} {:>12} {:>12} {:>8}",
        "benchmark", "native", "erebor", "ratio"
    );
    println!("{}", "-".repeat(48));
    for (n, e) in native.iter().zip(erebor.iter()) {
        println!(
            "{:<12} {:>9.0} cyc {:>9.0} cyc {:>7.2}x",
            n.name,
            n.cycles_per_op,
            e.cycles_per_op,
            e.cycles_per_op / n.cycles_per_op
        );
    }
    println!("\npaper Fig. 8: overheads up to 3.8x, pagefault worst; costs amortize");
    println!("during real execution (Fig. 9 shows 4.5-13.2% end-to-end).");
}
