//! Exact pins of the simulated paper values. Simulated cycles are a
//! deterministic function of the code, so every value here is compared
//! bit for bit, not against a band (the bands live in `shapes.rs`).
//!
//! Rule: a change that moves a pinned value re-records it here and, in
//! the same change, lists each moved value (before → after) in
//! EXPERIMENTS.md with its cause. A mismatch prints the values the code
//! produces now, one row per line, in the form of the tables below.

use erebor_bench::{fig9, table6};

/// Fig. 9: serve cycles per workload, in `Mode::ALL` order (native,
/// LibOS only, LibOS + MMU, LibOS + exits, full Erebor).
#[rustfmt::skip]
const FIG9: [(&str, [u64; 5]); 5] = [
    ("llama.cpp", [497789585, 519249861, 564930112, 522391939, 567249643]),
    ("yolo", [824749035, 830230866, 902088656, 834306696, 905930320]),
    ("drugbank", [248463340, 250611121, 272819538, 252222944, 274048095]),
    ("graphchi", [397789296, 404945335, 439437974, 406475214, 441297720]),
    ("unicorn", [176419914, 177932669, 193146667, 178641906, 193889097]),
];

/// One Table 6 row: the rates (#PF/s, #Timer/s, #VE/s, EMC/s), the
/// serve time in simulated seconds, confined and common MB, and the
/// init overhead as a fraction of native.
type Table6Pin = (&'static str, [f64; 4], f64, u64, u64, f64);

#[rustfmt::skip]
const TABLE6: [Table6Pin; 5] = [
    ("llama.cpp", [1562.2751127936804, 666.3732708598637, 355.3990777919273, 69969.19344028569], 0.2701188776190476, 501, 4096, 0.6601626798784257),
    ("yolo", [259.6226164502365, 667.6010137291795, 18.54447260358832, 70098.10644156385], 0.43139539047619047, 757, 132, 1.4768268613090698),
    ("drugbank", [1992.3510141531908, 674.3341894056953, 153.2577703194762, 70268.68769147985], 0.13049909285714287, 814, 400, 0.9849687855608462),
    ("graphchi", [0.0, 666.2169022763136, 152.2781490917288, 69952.77473901292], 0.21014177142857143, 1340, 0, 2.2507371658171387),
    ("unicorn", [0.0, 660.6869699331262, 64.98560359997963, 69751.21453064481], 0.09232814142857143, 1254, 0, 2.2507371658171387),
];

#[test]
fn fig9_cells_are_pinned() {
    let got: Vec<(&str, [u64; 5])> = fig9::run()
        .into_iter()
        .map(|r| (r.workload, r.cycles))
        .collect();
    let now: String = got
        .iter()
        .map(|(w, c)| format!("    ({w:?}, {c:?}),\n"))
        .collect();
    assert_eq!(got, FIG9, "Fig. 9 cells moved; the code now gives:\n{now}");
}

/// Bit-exact comparison: `Debug` prints the shortest decimal that reads
/// back to the same `f64`, so the literals above are exact.
fn bits(row: &Table6Pin) -> (&'static str, [u64; 4], u64, u64, u64, u64) {
    let (w, rates, time, conf, com, init) = *row;
    (
        w,
        rates.map(f64::to_bits),
        time.to_bits(),
        conf,
        com,
        init.to_bits(),
    )
}

#[test]
fn table6_rows_are_pinned() {
    let got: Vec<Table6Pin> = table6::run()
        .into_iter()
        .map(|r| {
            (
                r.workload,
                [r.pf_rate, r.timer_rate, r.ve_rate, r.emc_rate],
                r.time,
                r.conf_mb,
                r.com_mb,
                r.init_overhead,
            )
        })
        .collect();
    let now: String = got
        .iter()
        .map(|(w, rates, time, conf, com, init)| {
            format!("    ({w:?}, {rates:?}, {time:?}, {conf}, {com}, {init:?}),\n")
        })
        .collect();
    assert_eq!(
        got.iter().map(bits).collect::<Vec<_>>(),
        TABLE6.iter().map(bits).collect::<Vec<_>>(),
        "Table 6 rows moved; the code now gives:\n{now}"
    );
}
