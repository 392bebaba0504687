//! The paper's security analysis (§8) as executable scenarios: claims
//! C1–C8, each exercised through the same hardware checks the real system
//! relies on.

use erebor::{Mode, Platform};
use erebor_core::boot::{boot_stage1, BootConfig, IDT_VA};
use erebor_core::config::ExecConfig;
use erebor_core::emc::{EmcError, EmcRequest};
use erebor_core::monitor::LoadError;
use erebor_core::policy;
use erebor_core::sandbox::{ExitCause, ExitDecision};
use erebor_core::BootError;
use erebor_hw::cpu::Domain;
use erebor_hw::fault::{Fault, PfReason};
use erebor_hw::image::{Image, SectionKind};
use erebor_hw::insn::{encode, SensitiveClass};
use erebor_hw::layout::{self, direct_map};
use erebor_hw::regs::Msr;
use erebor_hw::{Frame, VirtAddr};
use erebor_kernel::image::{benign_kernel, malicious_kernel};
use erebor_workloads::hello::HelloWorld;

fn small_cfg() -> BootConfig {
    BootConfig {
        cores: 2,
        dram_bytes: 48 * 1024 * 1024,
        config: ExecConfig::new(Mode::Full),
        seed: 99,
        paravisor: false,
    }
}

// ====================================================================
// C1: the monitor loads first and refuses kernels containing sensitive
// instructions.
// ====================================================================

#[test]
fn c1_kernel_with_any_sensitive_instruction_rejected() {
    for class in SensitiveClass::ALL {
        let mut cvm = boot_stage1(small_cfg()).expect("stage1");
        let evil = malicious_kernel(1, class, 0x3000);
        let err = cvm.load_kernel(&evil).expect_err("must reject");
        assert!(
            matches!(err, BootError::Load(LoadError::Rejected(_))),
            "{class:?}: got {err}"
        );
    }
}

#[test]
fn c1_monitor_measured_before_kernel() {
    let cvm = boot_stage1(small_cfg()).expect("stage1");
    // MRTD covers exactly firmware+monitor — a client can verify it before
    // any kernel exists.
    let expect = erebor_tdx::attest::expected_mrtd(&[
        &cvm.firmware_image.measurement_bytes(),
        &cvm.monitor_image.measurement_bytes(),
    ]);
    assert_eq!(cvm.tdx.attest.mrtd(), expect);
}

#[test]
fn c1_sensitive_bytes_straddling_unaligned_offsets_rejected() {
    // The byte scan is offset-blind: hide wrmsr mid-"instruction".
    let mut cvm = boot_stage1(small_cfg()).expect("stage1");
    let benign = benign_kernel(1);
    let mut text = benign.sections[0].bytes.clone();
    let enc = encode(SensitiveClass::Wrmsr);
    // Place at an odd offset inside what scanning-by-instruction would
    // consider an operand.
    text[0x1001..0x1001 + enc.len()].copy_from_slice(&enc);
    let evil = Image::builder("evil")
        .section(".text", layout::KERNEL_BASE, SectionKind::Text, text)
        .entry(layout::KERNEL_BASE)
        .build();
    assert!(cvm.load_kernel(&evil).is_err());
}

// ====================================================================
// C2: the deprivileged kernel cannot insert + execute sensitive
// instructions (W⊕X, SMEP, validated dynamic code).
// ====================================================================

#[test]
fn c2_kernel_text_is_not_writable() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    // Through the kernel-text VA: read-only mapping.
    let err = p
        .cvm
        .machine
        .write_u64(0, erebor_kernel::entry::SYSCALL, 0x9090)
        .expect_err("text write must fault");
    assert!(matches!(err, Fault::PageFault { .. }), "{err}");
}

#[test]
fn c2_kernel_cannot_execute_sensitive_ops() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    // domain = Kernel, ring 0 — and still every Table 2 op is #UD because
    // the verified image contains none of them.
    assert!(matches!(
        p.cvm.machine.wrmsr(0, Msr::Pkrs, 0),
        Err(Fault::UndefinedInstruction(_))
    ));
    assert!(matches!(
        p.cvm.machine.write_cr4(0, 0),
        Err(Fault::UndefinedInstruction(_))
    ));
    assert!(matches!(
        p.cvm.machine.stac(0),
        Err(Fault::UndefinedInstruction(_))
    ));
    assert!(matches!(
        p.cvm.machine.lidt(0, VirtAddr(0x1000)),
        Err(Fault::UndefinedInstruction(_))
    ));
    assert!(matches!(
        p.cvm.machine.tdcall_guard(0),
        Err(Fault::UndefinedInstruction(_))
    ));
}

#[test]
fn c2_text_poke_with_sensitive_bytes_rejected() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let err = p
        .cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::TextPoke {
                offset: 0x2000,
                bytes: encode(SensitiveClass::Tdcall),
            },
        )
        .expect_err("sensitive patch must be rejected");
    assert!(matches!(err, EmcError::Denied(_)), "{err}");
    // A benign patch is fine.
    p.cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::TextPoke {
                offset: 0x2000,
                bytes: vec![0x90; 16],
            },
        )
        .expect("benign patch");
}

// ====================================================================
// C3: the kernel cannot touch monitor memory.
// ====================================================================

#[test]
fn c3_monitor_memory_inaccessible_to_kernel() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    // Monitor text via its VA.
    let err = p
        .cvm
        .machine
        .read_u64(0, layout::MONITOR_BASE)
        .expect_err("read");
    assert!(err.is_pf(PfReason::PksAccessDisabled));
    // Monitor frames via the direct map (frame 100 is in the monitor
    // region of the boot layout).
    let err = p
        .cvm
        .machine
        .write_u64(0, direct_map(Frame(100).base()), 0xdead)
        .expect_err("write");
    assert!(err.is_pf(PfReason::PksAccessDisabled));
}

#[test]
fn c3_idt_read_only_for_kernel() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    // Reading the IDT is fine; redirecting a vector is not.
    p.cvm.machine.read_u64(0, IDT_VA).expect("IDT readable");
    let err = p
        .cvm
        .machine
        .write_u64(0, IDT_VA, erebor_kernel::entry::TIMER.0)
        .expect_err("IDT write must fault");
    assert!(err.is_pf(PfReason::PksWriteDisabled));
}

#[test]
fn c3_device_dma_cannot_reach_monitor_or_kernel() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    // All private frames are DMA-unreachable; only the device window may
    // ever become shared.
    let monitor_frame = Frame(100);
    let err = p
        .cvm
        .host_dma_write(monitor_frame, b"dma inject")
        .expect_err("DMA to private memory must fail");
    let _ = err;
    // And the kernel cannot convert a monitor frame to shared.
    let res = p.cvm.monitor.emc(
        &mut p.cvm.machine,
        &mut p.cvm.tdx,
        0,
        EmcRequest::ConvertShared {
            frame: monitor_frame,
            shared: true,
        },
    );
    assert!(matches!(res, Err(EmcError::Denied(_))), "{res:?}");
}

// ====================================================================
// C4: EMC gates are the only entry; interrupts revoke permissions.
// ====================================================================

#[test]
fn c4_indirect_jump_into_monitor_body_is_cp() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    // The entry gate works...
    let pad = p.cvm.monitor.gate.entry;
    p.cvm.machine.indirect_branch(0, pad).expect("gate entry");
    // ...and so do the hardware interposer pads (like Linux's IBT
    // idtentry stubs, they begin with endbr64 because interrupt and
    // syscall delivery are tracked transfers)...
    for off in [0x100u64, 0x200] {
        p.cvm.machine.cpus[0].domain = Domain::Kernel;
        p.cvm.machine.indirect_branch(0, pad.add(off)).expect("interposer pad");
    }
    // ...but any other monitor address is not a landing pad.
    for off in [4u64, 0x40, 0x104, 0x204, 0x1000] {
        p.cvm.machine.cpus[0].domain = Domain::Kernel;
        let err = p
            .cvm
            .machine
            .indirect_branch(0, pad.add(off))
            .expect_err("must #CP");
        assert!(
            matches!(err, Fault::ControlProtection(_)),
            "+{off:#x}: {err}"
        );
    }
}

#[test]
fn c4_interrupt_during_emc_runs_kernel_without_monitor_access() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let monitor = &mut p.cvm.monitor;
    // Enter the gate (as an EMC would).
    monitor.gate.enter(&mut p.cvm.machine, 0).expect("enter");
    assert_eq!(p.cvm.machine.cpus[0].pkrs(), policy::monitor_mode_pkrs());
    // An IPI preempts the EMC; the #INT gate revokes permissions.
    monitor
        .gate
        .interrupt_entry(&mut p.cvm.machine, 0)
        .expect("int gate");
    p.cvm.machine.cpus[0].domain = Domain::Kernel;
    let err = p
        .cvm
        .machine
        .read_u64(0, layout::MONITOR_BASE)
        .expect_err("blocked");
    assert!(err.is_pf(PfReason::PksAccessDisabled));
    // Returning restores them for the preempted EMC.
    p.cvm.machine.cpus[0].domain = Domain::Monitor;
    monitor
        .gate
        .interrupt_return(&mut p.cvm.machine, 0)
        .expect("int return");
    assert_eq!(p.cvm.machine.cpus[0].pkrs(), policy::monitor_mode_pkrs());
    monitor
        .gate
        .exit(&mut p.cvm.machine, 0, layout::KERNEL_BASE)
        .expect("exit");
}

#[test]
fn c4_kernel_cannot_write_ptes_directly() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let root = p.cvm.monitor.kernel_root;
    // Any PTE slot of any table: write-protected by PK_PTP.
    let slot = erebor_hw::paging::pte_slot(root, VirtAddr(0x40_0000), 4);
    let err = p
        .cvm
        .machine
        .write_u64(0, direct_map(slot), 0xdead_beef)
        .expect_err("PTE write must fault");
    assert!(err.is_pf(PfReason::PksWriteDisabled));
}

#[test]
fn c4_emc_policy_denies_pinned_bit_changes() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    // CR0 without WP, CR4 without SMEP/SMAP/PKS: denied.
    for (which, value) in [(0u8, 0u64), (4, 0)] {
        let err = p
            .cvm
            .monitor
            .emc(
                &mut p.cvm.machine,
                &mut p.cvm.tdx,
                0,
                EmcRequest::WriteCr { which, value },
            )
            .expect_err("pinned bits");
        assert!(matches!(err, EmcError::Denied(_)), "{err}");
    }
    // Monitor-private MSRs: denied.
    for msr in [Msr::Pkrs, Msr::SCet, Msr::Pl0Ssp] {
        let err = p
            .cvm
            .monitor
            .emc(
                &mut p.cvm.machine,
                &mut p.cvm.tdx,
                0,
                EmcRequest::WrMsr { msr, value: 0 },
            )
            .expect_err("private msr");
        assert!(matches!(err, EmcError::Denied(_)), "{err}");
    }
    // LSTAR redirect outside kernel text: denied.
    let err = p
        .cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::WrMsr {
                msr: Msr::Lstar,
                value: layout::MONITOR_BASE.0,
            },
        )
        .expect_err("lstar hijack");
    assert!(matches!(err, EmcError::Denied(_)));
}

// ====================================================================
// C5/C6/C7/C8 are covered end-to-end in tests/attacks.rs and tests/e2e.rs;
// here: the mapping-policy corners.
// ====================================================================

#[test]
fn c6_confined_frames_cannot_be_double_mapped() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let svc = p
        .deploy(Box::new(HelloWorld::default()), 4096)
        .expect("deploy");
    let sandbox = &p.cvm.monitor.sandboxes[&svc.sandbox.0];
    let (_va, frame) = sandbox.confined[0];
    // The kernel asks to map the confined frame into another process.
    let victim_root = p.cvm.monitor.kernel_root;
    p.enter_kernel_mode();
    let err = p
        .cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::MapUserPage {
                root: victim_root,
                va: VirtAddr(0x6000_0000),
                frame: Some(frame),
                writable: false,
                executable: false,
            },
        )
        .expect_err("double map must be denied");
    assert!(matches!(err, EmcError::Denied(_)), "{err}");
    drop(svc);
}

#[test]
fn c6_kernel_cannot_read_confined_memory_via_direct_map() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let svc = p
        .deploy(Box::new(HelloWorld::default()), 4096)
        .expect("deploy");
    let (_va, frame) = p.cvm.monitor.sandboxes[&svc.sandbox.0].confined[0];
    p.enter_kernel_mode();
    let err = p
        .cvm
        .machine
        .read_u64(0, direct_map(frame.base()))
        .expect_err("confined direct-map read must fault");
    assert!(err.is_pf(PfReason::PksAccessDisabled), "{err}");
}

#[test]
fn c6_user_copy_into_confined_memory_denied() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let svc = p
        .deploy(Box::new(HelloWorld::default()), 4096)
        .expect("deploy");
    let sandbox = &p.cvm.monitor.sandboxes[&svc.sandbox.0];
    let (va, _) = sandbox.confined[0];
    let root = sandbox.root;
    p.enter_kernel_mode();
    // The kernel tries to use the monitor's own user-copy service to read
    // client data out of the sandbox.
    let err = p
        .cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::UserCopy {
                dir: erebor_core::emc::CopyDir::FromUser,
                root,
                user_va: va,
                bytes: vec![0u8; 64],
            },
        )
        .expect_err("copy from confined must be denied");
    assert!(matches!(err, EmcError::Denied(_)), "{err}");
}

#[test]
fn c7_budget_limits_confined_declarations() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    // Budget of 4 pages; the LibOS loader needs more — deploy fails.
    let err = p
        .deploy(Box::new(HelloWorld::default()), 4)
        .expect_err("budget");
    let _ = err;
}

#[test]
fn c8_registers_scrubbed_at_sandbox_interrupts() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let svc = p
        .deploy(Box::new(HelloWorld::default()), 4096)
        .expect("deploy");
    // Simulate the sandbox running with secrets in registers.
    p.cvm.machine.cpus[0].ctx.gpr = [0x5ec2e7; 16];
    let saved = p.cvm.machine.cpus[0].ctx;
    let cause = ExitCause::Interrupt(erebor_hw::idt::vector::TIMER);
    let decision = p.cvm.monitor.on_exit(
        &mut p.cvm.machine,
        &mut p.cvm.tdx,
        0,
        Some(svc.sandbox),
        cause,
        saved,
    );
    assert_eq!(decision, ExitDecision::ForwardToKernel);
    // What the kernel sees: zeros.
    assert!(
        p.cvm.machine.cpus[0].ctx.is_scrubbed(),
        "registers leaked to OS"
    );
    // Resume restores the true context.
    p.cvm
        .monitor
        .on_exit_return(&mut p.cvm.machine, 0, Some(svc.sandbox), cause)
        .expect("resume");
    assert_eq!(p.cvm.machine.cpus[0].ctx.gpr[0], 0x5ec2e7);
}
