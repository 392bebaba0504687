//! Criterion: cost of the static analysis passes, plus their work
//! counters under declared budgets.
//!
//! The auditor is meant to run after boot and inside every chaos case,
//! so its cost must stay bounded: the `audit_*` meta entries pin the
//! amount of state it walks on a freshly booted Full platform (PTE
//! reads, TLB entries, IDT entries), and the bench fails unless the
//! total stays under a fixed budget with zero findings. The privilege
//! scan is held to zero findings, zero waivers and its own budget.

use erebor::eanalyze::detect_races;
use erebor::eanalyze::privilege::scan_workspace;
use erebor::{Mode, Platform, TraceEvent, TraceRecord};
use erebor_testkit::bench::Criterion;
use erebor_testkit::{criterion_group, criterion_main};
use std::path::PathBuf;

/// Ceiling on the state auditor's work metric over the boot snapshot,
/// so the audit each chaos case runs stays cheap.
const AUDIT_WORK_BUDGET: f64 = 120_000.0;

/// Ceiling on the privilege scan's work metric (lines of workspace
/// source scanned). The workspace sits well under half of this; growth
/// past the ceiling means the scan (which CI runs on every `--analyze`)
/// stopped being cheap and the budget needs a deliberate revisit.
const PRIVILEGE_WORK_BUDGET: f64 = 200_000.0;

fn bench_audit(c: &mut Criterion) {
    let p = Platform::boot(Mode::Full).expect("boot");
    let report = p.audit();
    c.ceiling("audit_findings", report.findings.len() as f64, 0.0);
    c.floor("audit_roots_walked", report.roots_walked as f64, 1.0);
    c.meta("audit_leaf_mappings", report.leaf_mappings as f64);
    c.meta("audit_pte_reads", report.pte_reads as f64);
    c.ceiling("audit_work", report.work() as f64, AUDIT_WORK_BUDGET);
    c.bench_function("audit_boot_snapshot", |b| {
        b.iter(|| p.audit());
    });
}

fn bench_race_detector(c: &mut Criterion) {
    // A synthetic 4-core trace mixing revocations, acks, and hits —
    // the same shapes a chaos case produces, at a fixed size.
    let cores = 4;
    let mut records = Vec::new();
    for i in 0u64..4096 {
        let cpu = (i % cores as u64) as u32;
        let event = match i % 5 {
            0 => TraceEvent::TlbShootdown {
                root: 7,
                page: i % 64,
            },
            1 => TraceEvent::IpiSent {
                to: (cpu + 1) % cores as u32,
            },
            2 => TraceEvent::IpiReceived {
                from: (cpu + cores as u32 - 1) % cores as u32,
            },
            3 => TraceEvent::TlbInvlpg { page: i % 64 },
            _ => TraceEvent::TlbHit {
                root: 7,
                page: i % 64,
            },
        };
        records.push(TraceRecord {
            seq: i,
            cycles: i * 10,
            cpu,
            event,
        });
    }
    c.floor("race_trace_records", records.len() as f64, 1.0);
    c.bench_function("race_detect_4k_records", |b| {
        b.iter(|| detect_races(&records, cores));
    });
}

fn bench_privilege(c: &mut Criterion) {
    // crates/bench -> workspace root is two levels up.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .expect("workspace root");
    let report = scan_workspace(&root);
    c.ceiling("privilege_findings", report.findings.len() as f64, 0.0);
    c.ceiling("privilege_waivers", report.waivers_seen as f64, 0.0);
    c.meta("privilege_files_scanned", report.files_scanned as f64);
    c.meta("privilege_modules", report.privileged_modules as f64);
    c.ceiling(
        "privilege_work",
        report.work() as f64,
        PRIVILEGE_WORK_BUDGET,
    );
    c.bench_function("privilege_scan_workspace", |b| {
        b.iter(|| scan_workspace(&root));
    });
}

criterion_group!(benches, bench_audit, bench_race_detector, bench_privilege);
criterion_main!(benches);
