//! Criterion: EMC gate cost as a function of concurrently-resident
//! sandbox count, per isolation backend — the measurement behind the
//! "keyed backend lifts the ceiling without a gate-path tax" claim.
//!
//! Shapes: 16 / 64 / 256 resident confined sandboxes, under PKS and
//! under TME-MK. PKS caps out at 10 usable keys, so its larger shapes
//! churn (create + kill, exercising domain recycling) down to its peak
//! residency; the keyed backend holds every sandbox live at once. Each
//! shape deploys one measured service on top and reports the mean
//! monitor-bucket (gate + interposition) cycle delta per request, then
//! must pass the full state audit.
//!
//! Headline metas in `BENCH_keyed.json`, each bound declared once here;
//! the bench exits non-zero when one breaks:
//!
//! - `keyed_max_live` vs `keyed_max_live_floor` (256) — peak
//!   concurrently-live TME-MK domains;
//! - `keyed_gate_overhead` vs `keyed_gate_overhead_ceiling` (1.10) —
//!   TME-MK gate cycles over PKS gate cycles at the same (16-resident)
//!   shape. The keyed access check rides the MMU walk, not the gate, so
//!   the ratio must stay ~1;
//! - `keyed_gate_cycles_{pks,tmemk}_{16,64,256}` — the full matrix
//!   (PKS shapes past capacity are measured at peak residency, with
//!   the remaining population churned through recycled domains), each
//!   with a floor of 1 so an unmeasured shape fails.

use erebor::ehw::isolation::{BackendKind, IsolationBackend};
use erebor::{BootConfig, Mode, Platform};
use erebor_core::emc::EmcRequest;
use erebor_testkit::bench::{smoke, Criterion};
use erebor_testkit::{criterion_group, criterion_main};
use erebor_trace::Bucket;
use erebor_workloads::env::SandboxedWorkload;
use erebor_workloads::fleet::FleetClass;

/// Per-sandbox confined declaration (sandbox-private address spaces, so
/// one VA serves every resident).
const CONFINED_VA: erebor::ehw::VirtAddr = erebor::ehw::VirtAddr(0x7000_0000);

fn boot_keyed_platform(backend: BackendKind) -> Platform {
    let mut config = erebor_core::config::ExecConfig::new(Mode::Full);
    config.output_pad_quantum = 512;
    config.backend = backend;
    let cfg = BootConfig {
        cores: 8,
        dram_bytes: 2 * 1024 * 1024 * 1024,
        config,
        ..BootConfig::default()
    };
    Platform::boot_with(cfg).expect("keyed boot")
}

struct ShapeResult {
    /// Mean monitor-bucket cycles per served request.
    gate_mean: f64,
    /// Peak concurrently-live domains (residents + the measured service).
    peak_live: u16,
    /// Sandboxes created over the shape (> peak under PKS churn).
    created: usize,
}

/// Populate `residents` confined sandboxes (churning once the backend's
/// capacity is reached, so PKS shapes past 10 keys still create the full
/// count through recycled domains), then serve `requests` against one
/// deployed service and attribute the gate cost.
fn run_shape(backend: BackendKind, residents: usize, requests: usize) -> ShapeResult {
    let mut p = boot_keyed_platform(backend);
    let cap = usize::from(p.cvm.monitor.backend.capacity() - p.cvm.monitor.backend.reserved());
    // Leave one domain for the measured service deployed below.
    let live_target = residents.min(cap - 1);
    let mut live = std::collections::VecDeque::new();
    let mut created = 0usize;
    for _ in 0..residents {
        p.enter_kernel_mode();
        if live.len() >= live_target {
            let victim = live.pop_front().expect("non-empty at target");
            p.cvm
                .monitor
                .kill_sandbox(&mut p.cvm.machine, victim, "keyed churn");
        }
        let id = p
            .cvm
            .monitor
            .create_sandbox(&mut p.cvm.machine, 0, 8)
            .expect("resident create");
        p.cvm
            .monitor
            .emc(
                &mut p.cvm.machine,
                &mut p.cvm.tdx,
                0,
                EmcRequest::DeclareConfined {
                    sandbox: id.0,
                    va: CONFINED_VA,
                    pages: 1,
                    executable: false,
                },
            )
            .expect("declare confined");
        live.push_back(id);
        created += 1;
    }

    let mut svc = p
        .deploy(
            Box::new(SandboxedWorkload::new(FleetClass::Nginx.workload(8))),
            4096,
        )
        .expect("deploy measured service");
    let mut client = p.connect_client(&svc, [7; 32]).expect("attest");
    let peak_live = p.cvm.monitor.backend.live_domains();

    // One warmup request, then the attributed run.
    p.serve_request(&mut svc, &mut client, b"f=512").expect("warmup");
    let before = p.cvm.machine.cycles.attribution().get(Bucket::Monitor);
    for _ in 0..requests {
        p.serve_request(&mut svc, &mut client, b"f=512").expect("serve");
    }
    let after = p.cvm.machine.cycles.attribution().get(Bucket::Monitor);

    let report = p.audit();
    assert!(
        report.is_clean(),
        "{:?}/{residents} shape broke an audit claim: {}",
        backend,
        report.json()
    );

    ShapeResult {
        gate_mean: (after - before) as f64 / requests as f64,
        peak_live,
        created,
    }
}

fn bench_keyed(c: &mut Criterion) {
    let requests = if smoke() { 8 } else { 64 };
    let shapes = [16usize, 64, 256];

    let mut keyed_max_live = 0u16;
    let mut baseline = None;
    let mut overhead = None;
    for backend in [BackendKind::Pks, BackendKind::TmeMk] {
        for residents in shapes {
            let r = run_shape(backend, residents, requests);
            let name = format!(
                "keyed_gate_cycles_{}_{residents}",
                backend.label().to_lowercase()
            );
            c.floor(name, r.gate_mean, 1.0);
            assert_eq!(r.created, residents, "every shape creates its full count");
            match backend {
                BackendKind::Pks => {
                    assert!(
                        u64::from(r.peak_live) <= 16,
                        "PKS can never exceed its key space"
                    );
                    if residents == shapes[0] {
                        baseline = Some(r.gate_mean);
                    }
                }
                BackendKind::TmeMk => {
                    assert_eq!(
                        usize::from(r.peak_live),
                        residents + 1,
                        "keyed backend holds every sandbox live"
                    );
                    keyed_max_live = keyed_max_live.max(r.peak_live);
                    if residents == shapes[0] {
                        let base = baseline.expect("PKS shapes run first");
                        overhead = Some(r.gate_mean / base);
                    }
                }
            }
        }
    }
    let overhead = overhead.expect("both 16-resident shapes measured");

    // Domain create/kill round trip on the keyed backend: the recycling
    // hot path (alloc + PCONFIG-equivalent teardown fence).
    let mut p = boot_keyed_platform(BackendKind::TmeMk);
    p.enter_kernel_mode();
    c.bench_function("keyed_create_kill_roundtrip", |b| {
        b.iter(|| {
            let id = p
                .cvm
                .monitor
                .create_sandbox(&mut p.cvm.machine, 0, 4)
                .expect("create");
            p.cvm
                .monitor
                .kill_sandbox(&mut p.cvm.machine, id, "bench churn");
        });
    });

    c.meta("keyed_requests_per_shape", requests as f64);
    c.floor("keyed_max_live", f64::from(keyed_max_live), 256.0);
    c.ceiling("keyed_gate_overhead", overhead, 1.10);
    c.meta("keyed_capacity_pks", 16.0);
    c.meta("keyed_capacity_tmemk", 4096.0);
}

criterion_group!(benches, bench_keyed);
criterion_main!(benches);
