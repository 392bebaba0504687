//! Every JSON document the reproduction emits is syntactically valid
//! JSON: the trace export, the state auditor's report, the privilege
//! and lint reports, and the bench harness document. Free-form fields
//! (finding details, file names, excerpts) carry `"` and `\` so each
//! writer's escaping is exercised.

use erebor::eanalyze::privilege::scan_workspace;
use erebor::eanalyze::{lint, Finding};
use erebor::{Mode, Platform};
use erebor_testkit::bench::{Criterion, Throughput};
use erebor_testkit::json::validate;
use erebor_workloads::hello::HelloWorld;

fn assert_valid(what: &str, doc: &str) {
    if let Err(e) = validate(doc) {
        panic!("{what} is not valid JSON ({e}):\n{doc}");
    }
}

#[test]
fn every_emitted_document_is_valid_json() {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    let mut svc = p
        .deploy(Box::new(HelloWorld { len: 4 }), 4096)
        .expect("deploy");
    let mut client = p.connect_client(&svc, [5; 32]).expect("attest");
    p.serve_request(&mut svc, &mut client, b"hi")
        .expect("serve");
    assert_valid("Platform::trace_json", &p.trace_json());

    let mut audit = p.audit();
    audit.findings.push(Finding::new(
        "wx-exclusive",
        "C1",
        "pte \"w+x\" under C:\\root\\leaf".to_string(),
    ));
    assert_valid("AuditReport::json", &audit.json());

    // A one-file tree whose file name holds `"` and whose source line
    // (the excerpt) holds `"` and `\`, breaking both passes' rules.
    let root = std::env::temp_dir().join(format!("erebor-json-documents-{}", std::process::id()));
    let dir = root.join("crates/libos/src");
    std::fs::create_dir_all(&dir).expect("temp tree");
    std::fs::write(
        dir.join("quote\"d.rs"),
        "fn f(m: &mut M) { m.mem.free_frame(f).unwrap(); let _ = \"a\\\\b\"; }\n",
    )
    .expect("fixture");
    let privilege = scan_workspace(&root);
    let lints = lint::lint_workspace(&root);
    std::fs::remove_dir_all(&root).expect("remove temp tree");
    assert!(
        !privilege.findings.is_empty(),
        "fixture must trip the privilege scan"
    );
    assert!(!lints.is_empty(), "fixture must trip the lint");
    assert_valid("PrivilegeReport::json", &privilege.json());
    assert_valid("lint::report_json", &lint::report_json(&lints));

    let mut c = Criterion::default();
    let mut g = c.benchmark_group("json");
    g.sample_size(2);
    g.throughput(Throughput::Elements(1));
    g.bench_function("noop", |b| b.iter(|| 1 + 1));
    g.finish();
    c.meta("label", "quote \" and backslash \\");
    c.meta("unmeasured", f64::NAN);
    c.floor("bounded", 1.5, 1.0);
    assert_valid("bench harness document", &c.document());
}
