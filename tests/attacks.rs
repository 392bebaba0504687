//! The threat model's attack vectors (§3.2) executed end-to-end:
//!
//! * **AV1** — OS data retrieval: direct reads, shared-memory conversion +
//!   DMA, register snooping at interrupts.
//! * **AV2** — program direct leakage: system calls and hypercalls from a
//!   sandbox holding client data.
//! * **AV3** — program covert leakage: encoding data into call parameters
//!   and user-mode interrupts.

use erebor::{Mode, Platform, ServiceInstance};
use erebor_core::channel::Client;
use erebor_core::emc::{EmcError, EmcRequest};
use erebor_core::monitor::{EREBOR_IO_FD, IOCTL_INPUT, IOCTL_OUTPUT, SYS_IOCTL};
use erebor_core::sandbox::{ExitCause, ExitDecision, SandboxState};
use erebor_hw::fault::{Fault, PfReason, VeReason};
use erebor_hw::layout::direct_map;
use erebor_hw::regs::Msr;
use erebor_hw::VirtAddr;
use erebor_libos::api::{Sys, SysError};
use erebor_libos::manifest::Manifest;
use erebor_libos::os::{LibOs, ServiceProgram};
use erebor_workloads::hello::HelloWorld;

const SECRET: &[u8] = b"patient record: diagnosis code F41.1";

fn deployed() -> (Platform, ServiceInstance, Client) {
    let mut platform = Platform::boot(Mode::Full).expect("boot");
    let mut svc = platform
        .deploy(Box::new(HelloWorld::default()), 4096)
        .expect("deploy");
    let mut client = platform.connect_client(&svc, [0xc1; 32]).expect("attest");
    // Install the secret so the sandbox is in DataLoaded.
    platform
        .client_send(&svc, &mut client, SECRET)
        .expect("send");
    let pid = svc.pid;
    let data = svc.os.input(&mut platform.proc(pid)).expect("input");
    assert_eq!(data, SECRET);
    (platform, svc, client)
}

// ====================================================================
// AV1 — OS data retrieval
// ====================================================================

#[test]
fn av1_kernel_cannot_read_secret_from_confined_memory() {
    let (mut p, svc, _client) = deployed();
    p.enter_kernel_mode();
    // The secret now lives in the sandbox's confined pages. Try them all.
    let sandbox = &p.cvm.monitor.sandboxes[&svc.sandbox.0];
    let frames: Vec<_> = sandbox.confined.iter().map(|(_, f)| *f).collect();
    for frame in frames {
        let err = p
            .cvm
            .machine
            .read_u64(0, direct_map(frame.base()))
            .expect_err("kernel read of confined frame must fault");
        assert!(err.is_pf(PfReason::PksAccessDisabled));
    }
}

#[test]
fn av1_kernel_cannot_convert_confined_memory_to_shared_for_dma() {
    let (mut p, svc, _client) = deployed();
    p.enter_kernel_mode();
    let (_, frame) = p.cvm.monitor.sandboxes[&svc.sandbox.0].confined[0];
    // Step 1: ask the monitor to convert the frame to shared (GHCI).
    let err = p
        .cvm
        .monitor
        .emc(
            &mut p.cvm.machine,
            &mut p.cvm.tdx,
            0,
            EmcRequest::ConvertShared {
                frame,
                shared: true,
            },
        )
        .expect_err("conversion outside device window must be denied");
    assert!(matches!(err, EmcError::Denied(_)));
    // Step 2: even a direct DMA attempt fails (frame is private).
    assert!(p.cvm.host_dma_write(frame, b"x").is_err());
    // And the host never saw the secret.
    assert!(!p.cvm.tdx.host.observed_contains(SECRET));
}

#[test]
fn av1_kernel_sees_scrubbed_registers_at_interrupts() {
    let (mut p, svc, _client) = deployed();
    // Sandbox computes on the secret; registers hold pieces of it.
    p.cvm.machine.cpus[0].ctx.gpr[3] = u64::from_le_bytes(SECRET[..8].try_into().unwrap());
    let saved = p.cvm.machine.cpus[0].ctx;
    let decision = p.cvm.monitor.on_exit(
        &mut p.cvm.machine,
        &mut p.cvm.tdx,
        0,
        Some(svc.sandbox),
        ExitCause::Interrupt(erebor_hw::idt::vector::TIMER),
        saved,
    );
    assert_eq!(decision, ExitDecision::ForwardToKernel);
    assert!(p.cvm.machine.cpus[0].ctx.is_scrubbed());
    // The TDX module additionally scrubs what the *host* sees at the
    // async exit.
    let host_view = p.cvm.tdx.async_exit_context_protect(&mut p.cvm.machine, 0);
    assert!(host_view.is_scrubbed());
}

#[test]
fn av1_forged_attestation_cannot_impersonate_the_monitor() {
    // A malicious OS stands up its own "monitor" on a machine it controls
    // and replays a handshake: the client's root-key check defeats it.
    let real = Platform::boot(Mode::Full).expect("boot");
    let expected = erebor_tdx::attest::expected_mrtd(&[
        &real.cvm.firmware_image.measurement_bytes(),
        &real.cvm.monitor_image.measurement_bytes(),
    ]);
    let root = real.cvm.tdx.attest.root_public();
    // Attacker's quote: right measurement values, wrong signing key.
    let mut fake_attest = erebor_tdx::attest::Attestation::new([0xbd; 32]);
    fake_attest.extend_mrtd(&real.cvm.firmware_image.measurement_bytes());
    fake_attest.extend_mrtd(&real.cvm.monitor_image.measurement_bytes());
    fake_attest.seal_mrtd();
    let (mut client, hello) = Client::new([1; 32], root, expected);
    let fake_pub = erebor_crypto::x25519::public_key(&[0xee; 32]);
    let binding = erebor_crypto::kx::binding_hash(&hello.client_pub, &fake_pub);
    let mut rd = [0u8; 64];
    rd[..32].copy_from_slice(&binding);
    let quote = fake_attest.quote(fake_attest.tdreport(rd));
    let err = client
        .finish(&erebor_core::channel::ServerHello {
            monitor_pub: fake_pub,
            quote,
        })
        .expect_err("forged quote must fail");
    let _ = err;
}

// ====================================================================
// AV2 — program direct leakage
// ====================================================================

/// A malicious service program that tries to exfiltrate the client data
/// through every direct channel it can reach.
struct Exfiltrator {
    attempt: &'static str,
}

impl ServiceProgram for Exfiltrator {
    fn name(&self) -> &str {
        "exfiltrator"
    }
    fn manifest(&self) -> Manifest {
        Manifest::new("exfiltrator", 8)
    }
    fn serve(
        &mut self,
        _os: &mut LibOs,
        sys: &mut dyn Sys,
        request: &[u8],
    ) -> Result<Vec<u8>, SysError> {
        match self.attempt {
            // write(2) the secret to a file the OS can read.
            "write" => {
                sys.syscall(
                    erebor_kernel::syscall::nr::WRITE,
                    [1, request.as_ptr() as u64, request.len() as u64, 0, 0, 0],
                )?;
            }
            // open(2) with the secret embedded in the path (parameter
            // encoding).
            "open" => {
                sys.syscall(
                    erebor_kernel::syscall::nr::OPEN,
                    [0x5000_0000, 32, 0x40, 0, 0, 0],
                )?;
            }
            _ => {}
        }
        Ok(b"done".to_vec())
    }
}

#[test]
fn av2_syscall_after_data_install_kills_sandbox() {
    for attempt in ["write", "open"] {
        let mut p = Platform::boot(Mode::Full).expect("boot");
        let mut svc = p
            .deploy(Box::new(Exfiltrator { attempt }), 4096)
            .expect("deploy");
        let mut client = p.connect_client(&svc, [0xa2; 32]).expect("attest");
        let err = p
            .serve_request(&mut svc, &mut client, SECRET)
            .expect_err("exfiltration syscall must kill the sandbox");
        let msg = format!("{err}");
        assert!(msg.contains("killed"), "{attempt}: {msg}");
        // The sandbox is dead, its memory scrubbed.
        let sb = &p.cvm.monitor.sandboxes[&svc.sandbox.0];
        assert_eq!(sb.state, SandboxState::Dead);
        assert!(sb.confined.is_empty(), "confined frames must be released");
        // Nothing reached the attacker.
        assert!(!p.cvm.tdx.host.observed_contains(SECRET));
        assert!(p.kernel.vfs.debug_out.is_empty());
    }
}

#[test]
fn av2_sandbox_hypercall_attempt_kills_sandbox() {
    let (mut p, svc, _client) = deployed();
    // A #VE-class synchronous exit that is not cpuid (e.g. an MSR probe
    // trying to marshal data to the host).
    let interrupted = p.cvm.machine.cpus[0].ctx;
    let decision = p.cvm.monitor.on_exit(
        &mut p.cvm.machine,
        &mut p.cvm.tdx,
        0,
        Some(svc.sandbox),
        ExitCause::Ve {
            reason: VeReason::MsrAccess,
            leaf: 0,
        },
        interrupted,
    );
    assert!(
        matches!(decision, ExitDecision::Killed { .. }),
        "{decision:?}"
    );
    assert_eq!(
        p.cvm.monitor.sandboxes[&svc.sandbox.0].state,
        SandboxState::Dead
    );
}

#[test]
fn av2_sandbox_cannot_execute_tdcall_directly() {
    let (mut p, _svc, _client) = deployed();
    // From user mode (ring 3), tdcall traps with #GP (§2.1).
    p.cvm.machine.cpus[0].mode = erebor_hw::CpuMode::User;
    p.cvm.machine.cpus[0].domain = erebor_hw::cpu::Domain::User;
    let err = erebor_tdx::tdcall::tdcall(
        &mut p.cvm.tdx,
        &mut p.cvm.machine,
        0,
        erebor_tdx::tdcall::TdcallLeaf::VmCall(erebor_tdx::tdcall::VmcallOp::Data(SECRET.to_vec())),
    )
    .expect_err("user tdcall must #GP");
    assert!(matches!(err, Fault::GeneralProtection(_)));
    assert!(!p.cvm.tdx.host.observed_contains(SECRET));
}

#[test]
fn av2_sandbox_writes_outside_confined_memory_fault() {
    let (mut p, svc, _client) = deployed();
    let pid = svc.pid;
    // Unmapped user address: stray PF after data install kills.
    let err = p
        .proc(pid)
        .write_mem(0x7f00_0000_0000, b"leak")
        .expect_err("stray write");
    assert!(matches!(err, SysError::Killed(_)), "{err:?}");
}

// ====================================================================
// AV3 — covert leakage
// ====================================================================

#[test]
fn av3_user_interrupts_disabled_after_data_install() {
    let (p, _svc, _client) = deployed();
    // IA32_UINTR_TT.valid must be clear (§6.2 ④).
    assert_eq!(
        p.cvm.machine.cpus[0].msr(Msr::UintrTt) & 1,
        0,
        "user-interrupt target table must be invalidated"
    );
}

#[test]
fn av3_output_size_channel_closed_by_padding() {
    // Two sandboxes answering 1 byte vs ~3900 bytes produce identical
    // record sizes on the wire (§6.3).
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let mut s1 = p
        .deploy(Box::new(HelloWorld { len: 1 }), 4096)
        .expect("deploy");
    let mut s2 = p
        .deploy(Box::new(HelloWorld { len: 3900 }), 4096)
        .expect("deploy");
    let mut c1 = p.connect_client(&s1, [1; 32]).expect("attest");
    let mut c2 = p.connect_client(&s2, [2; 32]).expect("attest");
    let observed_before = p.cvm.tdx.host.observed.len();
    let r1 = p.serve_request(&mut s1, &mut c1, b"q").expect("r1");
    let r2 = p.serve_request(&mut s2, &mut c2, b"q").expect("r2");
    assert_eq!(r1.len(), 1);
    assert_eq!(r2.len(), 3900);
    // Compare what crossed the proxy after the requests.
    let records: Vec<&Vec<u8>> = p.cvm.tdx.host.observed[observed_before..]
        .iter()
        .filter(|r| r.len() > 64)
        .collect();
    assert!(records.len() >= 2, "two sealed replies crossed the proxy");
    let reply_sizes: std::collections::BTreeSet<usize> = records.iter().map(|r| r.len()).collect();
    // r1's reply (1 byte) and r2's reply (3900 bytes) must be
    // indistinguishable by size: one padded record size.
    assert_eq!(
        reply_sizes.len(),
        1,
        "padded record sizes must not track output length: {reply_sizes:?}"
    );
}

#[test]
fn av3_ioctl_parameter_encoding_cannot_reach_the_kernel() {
    // After data install, the only permitted ioctl is the reserved fd; its
    // arguments are consumed by the monitor, never the kernel. An ioctl on
    // any other fd (parameters as covert payload) kills the sandbox.
    let (mut p, svc, _client) = deployed();
    let pid = svc.pid;
    let before = p.kernel.stats.syscalls;
    let err = p
        .proc(pid)
        .syscall(
            SYS_IOCTL,
            [5 /* not the reserved fd */, 0x41, 0x42, 0x43, 0, 0],
        )
        .expect_err("non-channel ioctl must kill");
    assert!(matches!(err, SysError::Killed(_)));
    assert_eq!(
        p.kernel.stats.syscalls, before,
        "the kernel must never have dispatched the covert syscall"
    );
}

/// The I/O channel's buffer length is the sandbox's to choose. A range
/// that runs past its confined memory, or wraps around the address
/// space, kills the sandbox before the monitor allocates or copies
/// anything for it.
#[test]
fn av3_io_buffer_past_confined_memory_kills_before_any_copy() {
    // Two bytes below the top: the 4-byte input and any output wrap.
    let top = VirtAddr(u64::MAX - 1);
    for (op, at_top, len, reason) in [
        (IOCTL_OUTPUT, false, 1 << 46, "output buffer not confined"),
        (IOCTL_OUTPUT, false, u64::MAX, "output buffer not confined"),
        (IOCTL_OUTPUT, true, 0x1000, "output buffer not confined"),
        (IOCTL_INPUT, true, 0x1000, "input buffer not confined"),
    ] {
        let (mut p, svc, mut client) = deployed();
        p.client_send(&svc, &mut client, b"next").expect("send");
        let buf = if at_top {
            top
        } else {
            p.cvm.monitor.sandboxes[&svc.sandbox.0].confined[0].0
        };
        let err = p
            .proc(svc.pid)
            .syscall(SYS_IOCTL, [EREBOR_IO_FD, op, buf.0, len, 0, 0])
            .expect_err("an unconfined buffer must kill");
        assert!(
            matches!(err, SysError::Killed(r) if r == reason),
            "op {op:#x} at {buf:?}, len {len:#x}: {err:?}"
        );
    }
}

#[test]
fn av3_cpuid_served_from_cache_without_host_exit() {
    let (mut p, svc, _client) = deployed();
    let pid = svc.pid;
    let vmcalls_before = p.cvm.tdx.stats.vmcalls;
    // First cpuid may consult the host once; later ones must not.
    for _ in 0..8 {
        p.proc(pid).cpuid(1).expect("cpuid");
    }
    let vmcalls = p.cvm.tdx.stats.vmcalls - vmcalls_before;
    assert!(
        vmcalls <= 1,
        "cpuid frequency channel must be closed ({vmcalls} exits)"
    );
    assert_eq!(
        p.cvm.monitor.sandboxes[&svc.sandbox.0].state,
        SandboxState::DataLoaded
    );
}

#[test]
fn end_to_end_secret_never_visible_outside() {
    let (mut p, mut svc, mut client) = deployed();
    // Finish the request legitimately.
    let pid = svc.pid;
    let res = svc
        .program
        .serve(&mut svc.os, &mut p.proc(pid), SECRET)
        .expect("serve");
    svc.os.output(&mut p.proc(pid), &res).expect("output");
    let reply = p.client_recv(&svc, &mut client).expect("recv");
    assert!(!reply.is_empty());
    // Sweep every attacker-visible surface for the secret.
    assert!(
        !p.cvm.tdx.host.observed_contains(SECRET),
        "host/proxy saw the secret"
    );
    assert!(
        !p.kernel
            .vfs
            .debug_out
            .windows(SECRET.len())
            .any(|w| w == SECRET),
        "debugfs saw the secret"
    );
    for out in p.kernel.stdout.values() {
        assert!(
            !out.windows(SECRET.len()).any(|w| w == SECRET),
            "stdout saw the secret"
        );
    }
}

#[test]
fn av2_sandbox_write_to_sealed_common_kills() {
    // The model/database is common memory, sealed read-only at data
    // install; a malicious program trying to scribble the shared model
    // (e.g. to signal a colluding sandbox) dies on the spot (C7).
    use erebor_workloads::{SandboxedWorkload, Workload, WorkloadParams};

    struct CommonScribbler;
    impl Workload for CommonScribbler {
        fn name(&self) -> &'static str {
            "scribbler"
        }
        fn params(&self) -> WorkloadParams {
            WorkloadParams {
                private_pages: 8,
                shared_pages: 8,
                logical_private: 1 << 20,
                logical_shared: 1 << 20,
                threads: 1,
            }
        }
        fn serve(
            &mut self,
            env: &mut dyn erebor_workloads::Env,
            _request: &[u8],
        ) -> Result<Vec<u8>, SysError> {
            // touch_shared is a read; get the base and write directly.
            env.touch_shared(0)?; // materialize (read-only now)
            Err(SysError::Fault) // unreachable marker; real write below
        }
    }

    let mut p = Platform::boot(Mode::Full).expect("boot");
    let mut svc = p
        .deploy(Box::new(SandboxedWorkload::new(CommonScribbler)), 4096)
        .expect("deploy");
    let mut client = p.connect_client(&svc, [0x5c; 32]).expect("attest");
    p.client_send(&svc, &mut client, b"secret").expect("send");
    let pid = svc.pid;
    svc.os.input(&mut p.proc(pid)).expect("input");
    // Write to the (sealed) common region from user mode.
    let base = svc.os.common("shared").expect("handle").base;
    let err = p
        .proc(pid)
        .write_mem(base, b"corrupt the shared model")
        .expect_err("sealed common must refuse writes");
    assert!(
        matches!(err, SysError::Killed(_) | SysError::Fault),
        "{err:?}"
    );
    // If the monitor killed it, the state reflects that; either way the
    // write never landed.
    let region = &p.cvm.monitor.common_regions[&1];
    assert!(region.sealed);
}

#[test]
fn common_writable_during_init_then_frozen() {
    use erebor_workloads::{SandboxedWorkload, Workload, WorkloadParams};

    struct Toucher;
    impl Workload for Toucher {
        fn name(&self) -> &'static str {
            "toucher"
        }
        fn params(&self) -> WorkloadParams {
            WorkloadParams {
                private_pages: 8,
                shared_pages: 4,
                logical_private: 1 << 20,
                logical_shared: 1 << 20,
                threads: 1,
            }
        }
        fn serve(
            &mut self,
            env: &mut dyn erebor_workloads::Env,
            _request: &[u8],
        ) -> Result<Vec<u8>, SysError> {
            env.touch_shared(1)?; // read of populated page: fine
            Ok(b"read ok".to_vec())
        }
    }

    let mut p = Platform::boot(Mode::Full).expect("boot");
    let mut svc = p
        .deploy(Box::new(SandboxedWorkload::new(Toucher)), 4096)
        .expect("deploy");
    // populate_common already wrote the pages during init (pre-seal).
    assert!(!p.cvm.monitor.common_regions[&1].sealed);
    let mut client = p.connect_client(&svc, [0x5d; 32]).expect("attest");
    let reply = p
        .serve_request(&mut svc, &mut client, b"go")
        .expect("serve");
    assert_eq!(reply, b"read ok");
    assert!(p.cvm.monitor.common_regions[&1].sealed, "sealed at install");
}
