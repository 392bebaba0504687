//! Extension features beyond the paper's prototype: CET shadow stacks
//! (lifted §7 limitation), batched MMU updates (§9.1's optimization), and
//! quantized output intervals (§11's covert-channel mitigation).

use erebor::{BootConfig, Mode, Platform};
use erebor_core::config::ExecConfig;
use erebor_hw::fault::{CpReason, Fault};
use erebor_hw::idt::vector;
use erebor_libos::api::Sys;
use erebor_workloads::hello::HelloWorld;
use erebor_workloads::lmbench;

fn boot_with(mut f: impl FnMut(&mut ExecConfig)) -> Platform {
    let mut cfg = BootConfig {
        config: ExecConfig::new(Mode::Full),
        ..BootConfig::default()
    };
    f(&mut cfg.config);
    Platform::boot_with(cfg).expect("boot")
}

// ====================================================================
// Shadow stacks (backward CFI)
// ====================================================================

#[test]
fn shadow_stack_allows_balanced_interrupts() {
    let mut p = boot_with(|c| c.shadow_stacks = true);
    assert!(p.cvm.machine.cpus[0].sstk_enabled());
    // A full interposed round trip (timer) must balance the shadow stack.
    let mut svc = p
        .deploy(Box::new(HelloWorld::default()), 4096)
        .expect("deploy");
    let mut client = p.connect_client(&svc, [9; 32]).expect("attest");
    let reply = p
        .serve_request(&mut svc, &mut client, b"go")
        .expect("serve");
    assert!(!reply.is_empty());
    assert_eq!(p.cvm.machine.sstk[0].depth(), 0, "balanced push/pop");
}

#[test]
fn shadow_stack_detects_kernel_rop() {
    let mut p = boot_with(|c| c.shadow_stacks = true);
    // Deliver an interrupt, then try to iret to an attacker-chosen address
    // instead of the interrupted rip: hardware #CP.
    p.cvm.machine.cpus[0].ctx.rip = 0x40_2000;
    let (_h, mut saved) = p
        .cvm
        .machine
        .deliver_interrupt(0, vector::TIMER)
        .expect("deliver");
    saved.rip = 0x40_666; // ROP target
    let err = p.cvm.machine.iret(0, saved).expect_err("must #CP");
    assert_eq!(err, Fault::ControlProtection(CpReason::ShadowStackMismatch));
}

#[test]
fn shadow_stack_cost_is_negligible() {
    // The paper argues omitted SST checks have minimal performance impact
    // (§7); with the simulator we can verify that claim.
    let run = |sst: bool| -> u64 {
        let mut p = boot_with(|c| c.shadow_stacks = sst);
        let mut svc = p
            .deploy(Box::new(HelloWorld::default()), 4096)
            .expect("deploy");
        let mut client = p.connect_client(&svc, [1; 32]).expect("attest");
        let before = p.snapshot().cycles;
        p.serve_request(&mut svc, &mut client, b"x").expect("serve");
        p.snapshot().cycles - before
    };
    let without = run(false);
    let with = run(true);
    let overhead = with as f64 / without as f64 - 1.0;
    assert!(overhead < 0.01, "SST overhead {overhead:.4} should be <1%");
}

// ====================================================================
// Batched MMU updates (§9.1)
// ====================================================================

#[test]
fn batched_mmu_lowers_fork_cost() {
    let fork_cycles = |batched: bool| -> f64 {
        let mut p = boot_with(|c| c.batched_mmu = batched);
        p.cvm.monitor.cfg.timer_quantum_cycles = u64::MAX / 4;
        p.driver.reclaim_period_ticks = 0;
        let pid = p.spawn_native().expect("spawn");
        let mut h = p.proc(pid);
        lmbench::bench_fork(&mut h, 8)
            .expect("fork bench")
            .cycles_per_op
    };
    let plain = fork_cycles(false);
    let batched = fork_cycles(true);
    assert!(
        batched < plain * 0.85,
        "batching must cut fork cost: {plain:.0} -> {batched:.0}"
    );
}

#[test]
fn batched_mmu_denied_when_disabled() {
    let mut p = boot_with(|c| c.batched_mmu = false);
    let root = p.cvm.monitor.kernel_root;
    let err = p
        .cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            erebor_core::emc::EmcRequest::MapUserRange {
                root,
                va: erebor_hw::VirtAddr(0x7100_0000_0000),
                pages: 4,
                writable: true,
            },
        )
        .expect_err("disabled batching must be denied");
    assert!(matches!(err, erebor_core::emc::EmcError::Denied(_)));
}

#[test]
fn batched_fork_preserves_copy_semantics() {
    let mut p = boot_with(|c| c.batched_mmu = true);
    let pid = p.spawn_native().expect("spawn");
    let addr = p
        .proc(pid)
        .syscall(erebor_kernel::syscall::nr::MMAP, [0, 3 * 4096, 3, 0, 0, 0])
        .expect("mmap");
    for i in 0..3u64 {
        p.proc(pid)
            .write_mem(addr + i * 4096, format!("page-{i}").as_bytes())
            .expect("write");
    }
    let child = p
        .proc(pid)
        .syscall(erebor_kernel::syscall::nr::FORK, [0; 6])
        .expect("fork");
    let child_pid = erebor_kernel::Pid(child as u32);
    for i in 0..3u64 {
        let mut buf = [0u8; 6];
        p.proc(child_pid)
            .read_mem(addr + i * 4096, &mut buf)
            .expect("read");
        assert_eq!(&buf, format!("page-{i}").as_bytes());
    }
}

// ====================================================================
// Quantized output intervals (§11)
// ====================================================================

#[test]
fn output_interval_quantizes_completion_time() {
    const Q: u64 = 1_000_000;
    let finish_cycles = |len: usize| -> u64 {
        let mut p = boot_with(|c| c.output_interval_cycles = Some(Q));
        let mut svc = p
            .deploy(Box::new(HelloWorld { len }), 4096)
            .expect("deploy");
        let mut client = p.connect_client(&svc, [3; 32]).expect("attest");
        let reply = p.serve_request(&mut svc, &mut client, b"r").expect("serve");
        assert_eq!(reply.len(), len);
        p.snapshot().cycles
    };
    let t1 = finish_cycles(1);
    let t2 = finish_cycles(2000);
    assert_eq!(
        t1 % Q,
        0,
        "completion time must sit on an interval boundary"
    );
    assert_eq!(
        t2 % Q,
        0,
        "completion time must sit on an interval boundary"
    );
}
