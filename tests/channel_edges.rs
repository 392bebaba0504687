//! Edge cases of the secure data channel (§6.3): padding boundaries,
//! oversized inputs, session-order violations, and replay across the
//! proxy.

use erebor::{Mode, Platform, ServiceInstance};
use erebor_core::channel::Client;
use erebor_libos::api::Sys;
use erebor_libos::manifest::Manifest;
use erebor_libos::os::{LibOs, ServiceProgram};
use erebor_workloads::hello::HelloWorld;

/// Echo service: replies with exactly the request bytes.
struct Echo;

impl ServiceProgram for Echo {
    fn name(&self) -> &str {
        "echo"
    }
    fn manifest(&self) -> Manifest {
        Manifest::new("echo", 16)
    }
    fn serve(
        &mut self,
        _os: &mut LibOs,
        _sys: &mut dyn Sys,
        request: &[u8],
    ) -> Result<Vec<u8>, erebor_libos::api::SysError> {
        Ok(request.to_vec())
    }
}

fn echo_platform() -> (Platform, ServiceInstance, Client) {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let svc = p.deploy(Box::new(Echo), 4096).expect("deploy");
    let client = p.connect_client(&svc, [0x21; 32]).expect("attest");
    (p, svc, client)
}

#[test]
fn padding_boundaries_roundtrip_exactly() {
    let (mut p, mut svc, mut client) = echo_platform();
    let quantum = p.cvm.monitor.cfg.output_pad_quantum;
    // Sizes straddling the frame: quantum-5..quantum-3 cross the boundary
    // because of the 4-byte length prefix.
    for len in [
        0,
        1,
        quantum - 5,
        quantum - 4,
        quantum - 3,
        quantum,
        quantum + 1,
        2 * quantum - 4,
    ] {
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let reply = p
            .serve_request(&mut svc, &mut client, &payload)
            .expect("echo");
        assert_eq!(reply, payload, "len {len} corrupted");
    }
}

#[test]
fn record_sizes_quantize_not_track() {
    let (mut p, mut svc, mut client) = echo_platform();
    let quantum = p.cvm.monitor.cfg.output_pad_quantum;
    let mut sizes = std::collections::BTreeMap::new();
    for len in [1usize, 100, quantum - 4, quantum - 3, quantum + 7] {
        let payload = vec![0x55u8; len];
        p.client_send(&svc, &mut client, &payload).expect("send");
        let pid = svc.pid;
        let req = svc.os.input(&mut p.proc(pid)).expect("input");
        let res = svc
            .program
            .serve(&mut svc.os, &mut p.proc(pid), &req)
            .expect("serve");
        svc.os.output(&mut p.proc(pid), &res).expect("output");
        let record = p.cvm.monitor.fetch_output(svc.sandbox).expect("record");
        client.open_result(&record).expect("open");
        sizes.insert(len, record.len());
    }
    // ≤ quantum−4 payloads share one size; the larger two bump to the next
    // quantum exactly.
    assert_eq!(sizes[&1], sizes[&100]);
    assert_eq!(sizes[&1], sizes[&(quantum - 4)]);
    assert_eq!(sizes[&(quantum - 3)], 2 * quantum + 16);
    assert_eq!(sizes[&(quantum + 7)], 2 * quantum + 16);
    assert_eq!(sizes[&1], quantum + 16);
}

#[test]
fn oversized_input_kills_the_sandbox() {
    let (mut p, mut svc, mut client) = echo_platform();
    // The LibOS staging buffer is 256 KiB; a larger record cannot be
    // delivered and the INPUT ioctl kills the container rather than
    // truncating silently.
    let huge = vec![0xaau8; 300 * 1024];
    p.client_send(&svc, &mut client, &huge).expect("send");
    let pid = svc.pid;
    let err = svc
        .os
        .input(&mut p.proc(pid))
        .expect_err("oversized input must fail");
    assert!(format!("{err}").contains("killed"), "{err}");
}

#[test]
fn install_before_handshake_is_rejected() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let svc = p
        .deploy(Box::new(HelloWorld::default()), 4096)
        .expect("deploy");
    // No channel_accept: a record out of nowhere must be refused.
    let err = p
        .cvm
        .monitor
        .install_client_data(&mut p.cvm.machine, 0, svc.sandbox, b"garbage record")
        .expect_err("no session");
    assert_eq!(err, "no client session");
}

#[test]
fn proxy_replay_of_a_request_is_rejected() {
    let (mut p, svc, mut client) = echo_platform();
    let record = client.seal(b"pay $100 to mallory").expect("seal");
    p.cvm
        .monitor
        .install_client_data(&mut p.cvm.machine, 0, svc.sandbox, &record)
        .expect("first install");
    // The malicious proxy replays the same sealed record.
    let err = p
        .cvm
        .monitor
        .install_client_data(&mut p.cvm.machine, 0, svc.sandbox, &record)
        .expect_err("replay must be rejected");
    assert_eq!(err, "record rejected");
    // Exactly one copy was staged.
    assert_eq!(
        p.cvm.monitor.sandboxes[&svc.sandbox.0].pending_input.len(),
        1
    );
}

#[test]
fn second_client_handshake_replaces_the_session() {
    // A service may serve sequential clients; a new handshake supersedes
    // the old keys, and the old client's records stop verifying.
    let (mut p, svc, mut old_client) = echo_platform();
    let mut new_client = p.connect_client(&svc, [0x99; 32]).expect("re-attest");
    let stale = old_client.seal(b"stale").expect("seal");
    let err = p
        .cvm
        .monitor
        .install_client_data(&mut p.cvm.machine, 0, svc.sandbox, &stale)
        .expect_err("old session keys must be dead");
    assert_eq!(err, "record rejected");
    let fresh = new_client.seal(b"fresh").expect("seal");
    p.cvm
        .monitor
        .install_client_data(&mut p.cvm.machine, 0, svc.sandbox, &fresh)
        .expect("new session works");
}

#[test]
fn handshake_with_a_dead_sandbox_is_refused() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let svc = p
        .deploy(Box::new(HelloWorld::default()), 4096)
        .expect("deploy");
    p.cvm.monitor.kill_sandbox(
        &mut p.cvm.machine,
        svc.sandbox,
        "killed before the handshake",
    );
    let tdcalls = p.cvm.tdx.stats.tdcalls;
    let err = p
        .connect_client(&svc, [0x42; 32])
        .expect_err("a dead sandbox takes no session");
    assert!(
        matches!(err, erebor::PlatformError::Channel("sandbox is dead")),
        "{err}"
    );
    assert!(p.cvm.monitor.sandboxes[&svc.sandbox.0].session.is_none());
    assert_eq!(p.cvm.tdx.stats.tdcalls, tdcalls, "no attestation tdcall");
}
