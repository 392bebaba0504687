//! Criterion: TD live-migration throughput and stop-and-copy pause.
//!
//! The headline numbers land in the JSON `meta` block (persisted as
//! `BENCH_migrate.json`), each bound declared once here; the bench
//! exits non-zero when one breaks:
//!
//! - `migrate_pages_per_sec` — end-to-end sealed-page throughput of a
//!   full outbound transfer (resident sweep + stop-and-copy), wall
//!   clock, floor 1 000 pages/sec;
//! - `migrate_stopcopy_pause_ns` — wall-clock length of the
//!   stop-and-copy window (quiesce → final dirty drain → sections →
//!   finish record), the time the TD is actually paused; under an
//!   absolute ceiling (the *bounded* stop-and-copy claim — the pause
//!   carries residual dirt plus fixed section exports, never the
//!   resident sweep);
//! - `migrate_stopcopy_pause_cycles` — simulated guest cycles consumed
//!   inside that window (shootdown draining is charged to the machine);
//! - `migrate_records_sealed` / `migrate_sections` /
//!   `migrate_precopy_pages` / `migrate_stopcopy_pages` — transfer
//!   shape, cross-checked against the record-count identity
//!   `records = pages + sections + begin + finish`;
//! - `migrate_import_ok` — the timed stream actually imports on a fresh
//!   destination with byte-identical trace JSON (1.0 or the bench
//!   panics).
//!
//! Fault handling is not this bench's job — the chaos campaign in
//! `tests/migration.rs` proves every damaged stream aborts typed; this
//! bench proves the transfer itself is fast and its pause bounded.

use std::time::Instant;

use erebor::ecore::channel::Client;
use erebor::{BootConfig, ExecConfig, MigrationKey, Mode, Platform};
use erebor_testkit::bench::{smoke, Criterion};
use erebor_testkit::{criterion_group, criterion_main};
use erebor_workloads::hello::HelloWorld;

const SEED: u64 = 0x4D16_7A7E;

/// Absolute stop-and-copy pause ceiling: the pause carries residual
/// dirty pages plus the fixed section exports, never the resident
/// sweep, so it must stay flat as the fleet grows. 100 ms is ~25x the
/// measured pause at this shape — a regression tripwire, not a target.
const PAUSE_CEILING_NS: f64 = 100_000_000.0;

fn boot() -> Platform {
    Platform::boot_with(BootConfig {
        seed: SEED,
        config: ExecConfig::new(Mode::Full),
        ..BootConfig::default()
    })
    .expect("boot")
}

/// A source platform with live sandboxes and served traffic, so the
/// transfer carries a realistic resident set (kernel, LibOS, sandbox
/// heaps, sealed-channel state).
fn build_src(sandboxes: u8) -> (Platform, erebor::ServiceInstance, Client) {
    let mut p = boot();
    let mut live = None;
    for i in 0..sandboxes {
        let mut svc = p
            .deploy(Box::new(HelloWorld { len: 4 }), 4096)
            .expect("deploy");
        let mut client = p.connect_client(&svc, [i + 1; 32]).expect("attest");
        p.serve_request(&mut svc, &mut client, b"warm")
            .expect("serve");
        live = Some((svc, client));
    }
    let (svc, client) = live.expect("at least one sandbox");
    (p, svc, client)
}

fn bench_migrate(c: &mut Criterion) {
    let sandboxes: u8 = if smoke() { 4 } else { 8 };
    let (mut src, mut svc, mut client) = build_src(sandboxes);
    let src_key = MigrationKey::from_seed([0x3A; 32]);
    let dest_key = MigrationKey::from_seed([0xC3; 32]);

    // One measured transfer with the begin/round/finish split exposed,
    // so the stop-and-copy window is timed on its own. The TD keeps
    // serving between the sweep and the pause — the dirtied pages drain
    // through a pre-copy round, which is exactly what keeps the pause
    // bounded. The destination platform only answers the offer here;
    // import correctness is re-proven below on a fresh boot.
    let offer_dest = boot();
    let offer = offer_dest.migration_offer(&dest_key, &src_key.public());

    let t0 = Instant::now();
    let (mut mig, mut records) = src.migrate_begin(&src_key, &offer).expect("begin");
    src.serve_request(&mut svc, &mut client, b"mid-flight")
        .expect("serve while migrating");
    records.extend(src.migrate_precopy_round(&mut mig).expect("round"));
    let precopy_ns = t0.elapsed().as_nanos() as f64;
    let t1 = Instant::now();
    let cycles1 = src.cvm.machine.cycles.total();
    let (tail, report) = src.migrate_finish(mig).expect("finish");
    let stopcopy_ns = t1.elapsed().as_nanos() as f64;
    let stopcopy_cycles = src.cvm.machine.cycles.total() - cycles1;
    let total_ns = precopy_ns + stopcopy_ns;
    records.extend(tail);

    let pages = report.precopy_pages + report.stopcopy_pages;
    let pages_per_sec = pages as f64 / (total_ns * 1e-9);

    // The timed stream must be a *working* stream: import it on a fresh
    // destination and require byte-identical trace JSON.
    let mut dest = boot();
    dest.migrate_from(&dest_key, src_key.public(), &records)
        .expect("import");
    let import_ok = if dest.trace_json() == src.trace_json() {
        1.0
    } else {
        0.0
    };

    // Steady-state wall-clock for the full transfer (offer reuse is
    // sound: migrate_to re-arms dirty tracking per call and the offer
    // only binds keys and measurement).
    let mut g = c.benchmark_group("migrate");
    g.sample_size(if smoke() { 3 } else { 10 });
    g.bench_function("full_transfer", |b| {
        b.iter(|| {
            let (records, report) = src.migrate_to(&src_key, &offer).expect("out");
            assert!(!records.is_empty() && report.sections == 7);
            records.len()
        })
    });
    g.finish();

    c.floor("migrate_pages_per_sec", pages_per_sec, 1_000.0);
    c.meta("migrate_precopy_ns", precopy_ns);
    c.ceiling("migrate_stopcopy_pause_ns", stopcopy_ns, PAUSE_CEILING_NS);
    c.meta("migrate_stopcopy_pause_cycles", stopcopy_cycles as f64);
    c.meta("migrate_records_sealed", report.records_sealed as f64);
    c.meta("migrate_sections", report.sections as f64);
    c.meta("migrate_precopy_pages", report.precopy_pages as f64);
    c.meta("migrate_stopcopy_pages", report.stopcopy_pages as f64);
    c.meta("migrate_precopy_rounds", report.precopy_rounds as f64);
    c.meta("migrate_sandboxes", sandboxes as f64);
    c.meta("migrate_import_ok", import_ok);

    assert_eq!(import_ok, 1.0, "timed stream must import byte-identically");
    assert_eq!(report.sections, 7, "all state sections must travel");
    assert_eq!(
        report.records_sealed,
        pages + report.sections + 2,
        "record count must be pages + sections + begin + finish"
    );
    assert!(
        report.stopcopy_pages <= report.precopy_pages,
        "pre-copy must carry the bulk: {} stop-copy vs {} pre-copy pages",
        report.stopcopy_pages,
        report.precopy_pages
    );
}

criterion_group!(benches, bench_migrate);
criterion_main!(benches);
