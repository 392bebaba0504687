//! Regression guards: the regenerated tables/figures must keep the paper's
//! shape (ratios, orderings, bands). These are the quantitative claims of
//! EXPERIMENTS.md, executable.

#[test]
fn table3_shape() {
    let rows = erebor_bench::table3::run();
    let get = |n: &str| rows.iter().find(|r| r.name == n).expect(n).cycles as f64;
    let emc = get("EMC");
    // Paper: EMC 1224; syscall 0.56×; tdcall 4.31×; vmcall 3.29×.
    assert!((900.0..1700.0).contains(&emc), "EMC = {emc}");
    let syscall_ratio = get("SYSCALL") / emc;
    assert!(
        (0.3..0.8).contains(&syscall_ratio),
        "syscall/EMC = {syscall_ratio:.2}"
    );
    let tdcall_ratio = get("TDCALL") / emc;
    assert!(
        (3.0..6.0).contains(&tdcall_ratio),
        "tdcall/EMC = {tdcall_ratio:.2}"
    );
    let vmcall = get("VMCALL");
    assert!(
        vmcall < get("TDCALL"),
        "non-TD vmcall is cheaper (no context protect)"
    );
    assert!(
        vmcall > emc,
        "vmcall still beats EMC by a wide margin in cost"
    );
}

#[test]
fn table4_shape() {
    let rows = erebor_bench::table4::run();
    let get = |op: &str| rows.iter().find(|r| r.op == op).expect(op);
    // MMU suffers the most (paper 58.5×), GHCI barely (1.01×).
    assert!(
        get("MMU").times() > 30.0,
        "MMU ratio {:.1}",
        get("MMU").times()
    );
    assert!(
        get("GHCI").times() < 1.1,
        "GHCI ratio {:.3}",
        get("GHCI").times()
    );
    for op in ["CR", "IDT", "MSR"] {
        let t = get(op).times();
        assert!(
            (3.0..8.0).contains(&t),
            "{op} ratio {t:.1} (paper 4.4–5.4x)"
        );
    }
    let smap = get("SMAP").times();
    assert!(
        (10.0..40.0).contains(&smap),
        "SMAP ratio {smap:.1} (paper 20.8x)"
    );
    // Native columns match Table 4's absolute scale by construction.
    assert_eq!(get("MMU").native, 23);
    assert!((280..300).contains(&get("CR").native));
}

#[test]
fn fig8_shape() {
    let rows = erebor_bench::fig8::run(128);
    for r in &rows {
        assert!(r.ratio() > 1.0, "{} must cost more under Erebor", r.name);
    }
    let get = |n: &str| rows.iter().find(|r| r.name == n).expect(n).ratio();
    // Fault/fork paths dominate syscall-only paths.
    assert!(get("pagefault") > get("null"), "pagefault > null");
    assert!(
        get("fork") > get("pagefault"),
        "fork is the worst (MMU-heavy)"
    );
    assert!(get("null") < 3.0, "null syscall interposition bounded");
}

#[test]
fn memsave_shape() {
    let r = erebor_bench::memsave::run(8);
    // Paper: ~36 GB → ~8 GB.
    assert!(
        (7.0..9.0).contains(&r.shared_gb),
        "shared {:.1} GB",
        r.shared_gb
    );
    assert!(
        (34.0..38.0).contains(&r.replicated_gb),
        "replicated {:.1} GB",
        r.replicated_gb
    );
    assert!(r.saving() > 0.7, "saving {:.2}", r.saving());
    // Physically, the model pages exist exactly once.
    assert_eq!(r.common_frames, 1024);
    assert!(r.confined_frames >= 8 * 512);
}

#[test]
fn table6_init_overhead_in_paper_band() {
    // Paper: pre-allocating confined memory costs +11.5…+52.7 % over a
    // native init, across the five programs.
    for r in erebor_bench::table6::run() {
        assert!(
            (0.115..=0.527).contains(&r.init_overhead),
            "{} init overhead {:+.1} % outside the paper's +11.5…+52.7 %",
            r.workload,
            r.init_overhead * 100.0
        );
    }
}
