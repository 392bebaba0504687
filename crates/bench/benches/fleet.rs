//! Criterion: the fleet-scale serving campaign — hundreds of concurrent
//! sandboxes, a six-figure request stream, and kill/redeploy churn —
//! on the keyed backend.
//!
//! The headline numbers land in the JSON `meta` block so CI
//! (`scripts/ci.sh --fleet`) can assert them from the persisted
//! `BENCH_fleet.json`:
//!
//! - `fleet_sandboxes` / `fleet_requests` — campaign scale (768 and
//!   100k for the full run);
//! - `fleet_determinism` — 1.0 iff two same-seed fleet runs produced
//!   byte-identical trace documents and counter snapshots;
//! - `fleet_throughput_rps` vs `fleet_throughput_rps_floor` —
//!   serve-phase requests per wall-clock second, asserted against the
//!   *self-described* floor here *and* in CI;
//! - `fleet_gate_p50_cycles` / `_p99_` / `_p999_` — per-request
//!   monitor-bucket (gate + interposition) cycle deltas;
//! - `fleet_wall_secs` — the faster of the two campaigns, boot to last
//!   op (the post-campaign audit is excluded);
//! - `fleet_allocated_frames` / `fleet_words_scanned` — frames live at
//!   the end and the allocator's bitmap scan work.
//!
//! Correctness of the lookup and allocator structures is checked
//! against reference models in `tests/fleet_equivalence.rs` and
//! `crates/hw/tests/alloc_model.rs`.

use std::time::Instant;

use erebor::{BootConfig, Mode, Platform};
use erebor_core::channel::Client;
use erebor_testkit::bench::{smoke, Criterion};
use erebor_testkit::{criterion_group, criterion_main};
use erebor_trace::Bucket;
use erebor_workloads::env::SandboxedWorkload;
use erebor_workloads::fleet::{FleetConfig, FleetDriver, FleetOp, LatencyRecorder};

/// FNV-1a over the deterministic trace document: cheap, stable digest
/// for the byte-identical determinism claim.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Serve-phase requests per wall-clock second the campaign must
/// sustain, for both the smoke and the full shape (the full run measured
/// 15.1k; smoke runs measure 23k–39k).
const THROUGHPUT_RPS_FLOOR: f64 = 5000.0;

fn boot_fleet_platform() -> Platform {
    let mut config = erebor_core::config::ExecConfig::new(Mode::Full);
    // Small pad quantum keeps reply sealing cheap at request volume.
    config.output_pad_quantum = 512;
    // 64–768 concurrent sandboxes is far past the 10 usable PKS keys:
    // fleet scale runs on the keyed TME-MK backend (create_sandbox now
    // fails typed at capacity instead of silently wrapping onto a live
    // key, so the old config would refuse the campaign outright).
    config.backend = erebor::ehw::isolation::BackendKind::TmeMk;
    let cfg = BootConfig {
        cores: 32,
        dram_bytes: 10 * 1024 * 1024 * 1024,
        config,
        ..BootConfig::default()
    };
    let mut p = Platform::boot_with(cfg).expect("fleet boot");
    // Scope the allocator counters to the campaign.
    p.cvm.machine.mem.alloc_stats = Default::default();
    p
}

struct CampaignResult {
    wall_secs: f64,
    serve_secs: f64,
    requests: u64,
    latency: LatencyRecorder,
    trace_digest: u64,
    snapshot: String,
    allocated_frames: u64,
    words_scanned: u64,
}

/// Interpret the deterministic op schedule against one platform.
fn run_campaign(cfg: FleetConfig) -> CampaignResult {
    let t0 = Instant::now();
    let mut p = boot_fleet_platform();
    let ops = FleetDriver::new(cfg).schedule();
    let mut svcs: Vec<Option<erebor::ServiceInstance>> =
        (0..cfg.sandboxes).map(|_| None).collect();
    let mut clients: Vec<Option<Client>> = (0..cfg.clients).map(|_| None).collect();
    let mut latency = LatencyRecorder::new();
    let mut requests = 0u64;
    let mut serve_secs = 0.0f64;
    for op in ops {
        match op {
            FleetOp::Deploy { slot, class } => {
                let program = SandboxedWorkload::new(class.workload(cfg.private_pages));
                svcs[slot] = Some(
                    p.deploy(Box::new(program), cfg.budget_pages)
                        .expect("fleet deploy"),
                );
            }
            FleetOp::Connect { slot } => {
                let svc = svcs[slot].as_ref().expect("connect before deploy");
                let seed = [u8::try_from(slot & 0xff).expect("masked"); 32];
                clients[slot] = Some(p.connect_client(svc, seed).expect("fleet attest"));
            }
            FleetOp::Request { slot, payload } => {
                let svc = svcs[slot].as_mut().expect("request before deploy");
                let client = clients[slot].as_mut().expect("request before connect");
                let gate_before = p.cvm.machine.cycles.attribution().get(Bucket::Monitor);
                let t = Instant::now();
                p.serve_request(svc, client, &payload).expect("fleet serve");
                serve_secs += t.elapsed().as_secs_f64();
                let gate_after = p.cvm.machine.cycles.attribution().get(Bucket::Monitor);
                latency.push(gate_after - gate_before);
                requests += 1;
            }
            FleetOp::Churn { slot, class } => {
                let old = svcs[slot].take().expect("churn before deploy");
                p.cvm
                    .monitor
                    .kill_sandbox(&mut p.cvm.machine, old.sandbox, "fleet churn");
                let program = SandboxedWorkload::new(class.workload(cfg.private_pages));
                svcs[slot] = Some(
                    p.deploy(Box::new(program), cfg.budget_pages)
                        .expect("fleet redeploy"),
                );
            }
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    let report = p.audit();
    assert!(report.is_clean(), "fleet campaign broke an audit claim");
    CampaignResult {
        wall_secs,
        serve_secs,
        requests,
        latency,
        trace_digest: fnv1a(p.trace_json().as_bytes()),
        snapshot: format!("{:?}", p.snapshot()),
        allocated_frames: p.cvm.machine.mem.allocated_frames(),
        words_scanned: p.alloc_stats().words_scanned,
    }
}

fn bench_fleet(c: &mut Criterion) {
    let cfg = if smoke() {
        FleetConfig::smoke()
    } else {
        FleetConfig::full()
    };

    // Two same-seed fleet runs: the determinism claim.
    let run1 = run_campaign(cfg);
    let run2 = run_campaign(cfg);
    assert_eq!(
        run1.trace_digest, run2.trace_digest,
        "same-seed fleet campaigns must produce byte-identical traces"
    );
    assert_eq!(
        run1.snapshot, run2.snapshot,
        "same-seed fleet campaigns must produce identical counter snapshots"
    );
    let deterministic = f64::from(u8::from(
        run1.trace_digest == run2.trace_digest && run1.snapshot == run2.snapshot,
    ));

    // Best-of-two: the first campaign of the process pays one-time host
    // warmup (page faults, allocator pools).
    let wall_secs = run1.wall_secs.min(run2.wall_secs);
    let throughput = [&run1, &run2]
        .iter()
        .map(|r| r.requests as f64 / r.serve_secs)
        .fold(0.0, f64::max);

    // A criterion-visible per-request timing on a warm fleet platform.
    let mut p = boot_fleet_platform();
    let mut svc = p
        .deploy(
            Box::new(SandboxedWorkload::new(
                erebor_workloads::fleet::FleetClass::Nginx.workload(cfg.private_pages),
            )),
            cfg.budget_pages,
        )
        .expect("deploy");
    let mut client = p.connect_client(&svc, [9; 32]).expect("attest");
    c.bench_function("fleet_request_roundtrip", |b| {
        b.iter(|| p.serve_request(&mut svc, &mut client, b"f=16384").expect("serve"));
    });

    c.meta("fleet_sandboxes", cfg.sandboxes as f64);
    c.meta("fleet_requests", run1.requests as f64);
    c.meta("fleet_churn", cfg.churn as f64);
    c.meta("fleet_determinism", deterministic);
    c.meta("fleet_wall_secs", wall_secs);
    c.meta("fleet_throughput_rps", throughput);
    c.meta("fleet_throughput_rps_floor", THROUGHPUT_RPS_FLOOR);
    c.meta("fleet_gate_p50_cycles", run1.latency.quantile(0.5) as f64);
    c.meta("fleet_gate_p99_cycles", run1.latency.quantile(0.99) as f64);
    c.meta("fleet_gate_p999_cycles", run1.latency.quantile(0.999) as f64);
    c.meta("fleet_gate_mean_cycles", run1.latency.mean() as f64);
    c.meta("fleet_allocated_frames", run1.allocated_frames as f64);
    c.meta("fleet_words_scanned", run1.words_scanned as f64);

    assert!(
        (deterministic - 1.0).abs() < f64::EPSILON,
        "fleet campaign must be deterministic"
    );
    assert!(
        throughput >= THROUGHPUT_RPS_FLOOR,
        "fleet serve phase must sustain >={THROUGHPUT_RPS_FLOOR} req/s: \
         {throughput:.0} req/s"
    );
    assert!(
        run1.latency.quantile(0.999) > 0,
        "gate latency tail must be measured"
    );
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
