//! Multi-tenant private information retrieval: several clients, each with
//! its own EREBOR-SANDBOX, all sharing one read-only drug database in
//! common memory (the paper's cost-efficiency story, §6.1 + §9.2).
//!
//! Run with: `cargo run --release --example multi_tenant_pir`

use erebor::{Mode, Platform};
use erebor_workloads::fleet::splitmix64;
use erebor_workloads::retrieval::Retrieval;
use erebor_workloads::SandboxedWorkload;

const TENANTS: usize = 4;

fn main() {
    let mut platform = Platform::boot(Mode::Full).expect("boot");

    println!("deploying {TENANTS} PIR sandboxes sharing one common database...");
    let mut services = Vec::new();
    for i in 0..TENANTS {
        let svc = platform
            .deploy(
                Box::new(SandboxedWorkload::new(Retrieval::default())),
                1 << 20,
            )
            .expect("deploy");
        println!("  tenant {i}: sandbox {:?}", svc.sandbox);
        services.push(svc);
    }
    // All instances attached the same region.
    assert_eq!(platform.cvm.monitor.common_regions.len(), 1);
    let region = &platform.cvm.monitor.common_regions[&1];
    println!(
        "one {}-MB (logical) database region, attached to {} sandboxes",
        region.logical_bytes >> 20,
        region.attached.len()
    );

    println!("\neach client attests and queries privately:");
    let mut clients = Vec::new();
    for (i, svc) in services.iter().enumerate() {
        let c = platform
            .connect_client(svc, [i as u8 + 1; 32])
            .expect("attest");
        clients.push(c);
    }
    let mut traffic = 0xc11e;
    for (i, (svc, client)) in services.iter_mut().zip(clients.iter_mut()).enumerate() {
        // A batch of 500 retrieval queries under a fresh sub-seed.
        let query = format!("q=500;{}", splitmix64(&mut traffic) as u32).into_bytes();
        let reply = platform.serve_request(svc, client, &query).expect("query");
        println!("  tenant {i}: {}", String::from_utf8_lossy(&reply));
        // No tenant's query string is visible to the host/proxy/kernel.
        assert!(!platform.cvm.tdx.host.observed_contains(&query));
    }

    // Memory accounting: the whole point of common memory.
    let per_instance = services[0].os.manifest.logical_confined_bytes >> 20;
    let shared = platform.cvm.monitor.common_regions[&1].logical_bytes >> 20;
    let with_sharing = TENANTS as u64 * per_instance + shared;
    let replicated = TENANTS as u64 * (per_instance + shared);
    println!("\nmemory (logical): {with_sharing} MB shared vs {replicated} MB replicated");
    println!(
        "saving: {:.1}%  (paper reports up to 89.1%)",
        (1.0 - with_sharing as f64 / replicated as f64) * 100.0
    );

    // Isolation spot-check: tenant 0's confined frames are invisible to
    // the kernel and unmappable elsewhere.
    platform.enter_kernel_mode();
    let (_, frame) = platform.cvm.monitor.sandboxes[&services[0].sandbox.0].confined[0];
    assert!(platform
        .cvm
        .machine
        .read_u64(0, erebor_hw::layout::direct_map(frame.base()))
        .is_err());
    println!("\ncross-tenant isolation verified; all queries served privately.");
}
