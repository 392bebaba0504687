//! Exact pins of the simulated paper values. Simulated cycles are a
//! deterministic function of the code, so every value here is compared
//! bit for bit, not against a band (the bands live in `shapes.rs`).
//! Each table is pinned at the size its bin prints (Table 3 at 64 round
//! trips, Fig. 8 at 512 ops per benchmark, memsave at 8 instances), and
//! the paper's value stands beside each row where the paper gives one.
//!
//! Rule: a change that moves a pinned value re-records it here and, in
//! the same change, lists each moved value (before → after) in
//! EXPERIMENTS.md with its cause. A mismatch prints the values the code
//! produces now, one row per line, in the form of the tables below.

use erebor_bench::{fig10, fig8, fig9, memsave, table3, table4, table6};

/// Compare `got` with `pinned` (both already in bit-exact form) and, on
/// a mismatch, print `rows` — the values the code gives now, in the
/// form of the pin table.
fn assert_pinned<T: PartialEq + std::fmt::Debug>(what: &str, got: &[T], pinned: &[T], rows: &str) {
    assert_eq!(got, pinned, "{what} moved; the code now gives:\n{rows}");
}

/// Table 3: round-trip cycles per transition, 64 round trips each.
#[rustfmt::skip]
const TABLE3: [(&str, u64); 4] = [
    ("EMC", 1293),     // paper 1224
    ("SYSCALL", 610),  // paper 684
    ("TDCALL", 5250),  // paper 5276
    ("VMCALL", 4000),  // paper 4031
];

#[test]
fn table3_rows_are_pinned() {
    let got: Vec<(&str, u64)> = table3::run_with_iters(64)
        .into_iter()
        .map(|r| (r.name, r.cycles))
        .collect();
    let now: String = got
        .iter()
        .map(|(n, c)| format!("    ({n:?}, {c}),\n"))
        .collect();
    assert_pinned("Table 3 rows", &got, &TABLE3, &now);
}

/// Table 4: native and Erebor cycles per privileged operation.
#[rustfmt::skip]
const TABLE4: [(&str, u64, u64); 6] = [
    ("MMU", 23, 1389),         // paper 23 → 1345
    ("CR", 290, 1583),         // paper 294 → 1593
    ("IDT", 258, 1298),        // paper 260 → 1369
    ("MSR", 364, 1657),        // paper 364 → 1613
    ("SMAP", 60, 1358),        // paper 62 → 1291
    ("GHCI", 126200, 127493),  // paper 126806 → 128081
];

#[test]
fn table4_rows_are_pinned() {
    let got: Vec<(&str, u64, u64)> = table4::run()
        .into_iter()
        .map(|r| (r.op, r.native, r.erebor))
        .collect();
    let now: String = got
        .iter()
        .map(|(op, n, e)| format!("    ({op:?}, {n}, {e}),\n"))
        .collect();
    assert_pinned("Table 4 rows", &got, &TABLE4, &now);
}

/// Fig. 8: native and Erebor cycles per op at 512 ops per benchmark.
/// The paper gives ratios of 1.0–3.8×, pagefault the highest.
#[rustfmt::skip]
const FIG8: [(&str, f64, f64); 8] = [
    ("null", 610.0, 1434.0),
    ("read", 763.0625, 2834.8125),
    ("write", 744.0, 2790.0),
    ("sig-install", 610.0, 1434.0),
    ("sig-catch", 610.0, 1434.0),
    ("mmap", 3098.1782945736436, 8075.604651162791),
    ("pagefault", 1761.638671875, 5237.2265625),
    ("fork", 6684.0, 65601.21875),
];

#[test]
fn fig8_rows_are_pinned() {
    let got: Vec<(&str, f64, f64)> = fig8::run(512)
        .into_iter()
        .map(|r| (r.name, r.native, r.erebor))
        .collect();
    let now: String = got
        .iter()
        .map(|(b, n, e)| format!("    ({b:?}, {n:?}, {e:?}),\n"))
        .collect();
    let exact = |rows: &[(&'static str, f64, f64)]| -> Vec<(&'static str, u64, u64)> {
        rows.iter()
            .map(|&(b, n, e)| (b, n.to_bits(), e.to_bits()))
            .collect()
    };
    assert_pinned("Fig. 8 rows", &exact(&got), &exact(&FIG8), &now);
}

/// Fig. 10: native and Erebor throughput (bytes per simulated cycle)
/// per server and file size. Paper: OpenSSH −8.2 % and Nginx −5.1 % on
/// average, −18 % and −17.6 % at the smallest files.
#[rustfmt::skip]
const FIG10: [(&str, u64, f64, f64); 16] = [
    ("openssh", 1024, 0.020077417967337585, 0.016449777519745988),
    ("openssh", 4096, 0.05636668058395412, 0.0476764864926185),
    ("openssh", 16384, 0.10262859165778111, 0.09108137570161941),
    ("openssh", 65536, 0.12801896863090348, 0.1137411907812423),
    ("openssh", 262144, 0.13647310713365, 0.12146171474613326),
    ("openssh", 1048576, 0.13876247261782992, 0.12353205184181087),
    ("openssh", 4194304, 0.1393492536760783, 0.12410107672885787),
    ("openssh", 16777216, 0.13948820791708064, 0.12414210636333871),
    ("nginx", 1024, 0.021858018269935987, 0.017617364136032147),
    ("nginx", 4096, 0.07289289795872969, 0.06012573941128294),
    ("nginx", 16384, 0.17462631262089517, 0.15056325565816017),
    ("nginx", 65536, 0.26759884353872354, 0.23985841373152225),
    ("nginx", 262144, 0.3074506818950989, 0.2771355364215325),
    ("nginx", 1048576, 0.3193113089780374, 0.28821996502356517),
    ("nginx", 4194304, 0.32245092916257323, 0.29089237277690594),
    ("nginx", 16777216, 0.32322749392342737, 0.29157440164040077),
];

#[test]
fn fig10_rows_are_pinned() {
    let got: Vec<(&str, u64, f64, f64)> = fig10::run()
        .into_iter()
        .map(|r| (r.server, r.size, r.native_tput, r.erebor_tput))
        .collect();
    let now: String = got
        .iter()
        .map(|(s, size, n, e)| format!("    ({s:?}, {size}, {n:?}, {e:?}),\n"))
        .collect();
    let exact = |rows: &[(&'static str, u64, f64, f64)]| -> Vec<(&'static str, u64, u64, u64)> {
        rows.iter()
            .map(|&(s, size, n, e)| (s, size, n.to_bits(), e.to_bits()))
            .collect()
    };
    assert_pinned("Fig. 10 rows", &exact(&got), &exact(&FIG10), &now);
}

/// §9.2 memory saving for 8 llama sandboxes: logical GB shared and
/// replicated, physical common and confined frames. Paper: ≈8 GB
/// against ≈36 GB.
const MEMSAVE: (u64, f64, f64, u64, u64) = (8, 7.9140625, 35.9140625, 1024, 4608);

#[test]
fn memsave_is_pinned() {
    let r = memsave::run(8);
    let got = (
        r.instances,
        r.shared_gb,
        r.replicated_gb,
        r.common_frames,
        r.confined_frames,
    );
    let exact = |(n, s, rep, com, conf): (u64, f64, f64, u64, u64)| {
        (n, s.to_bits(), rep.to_bits(), com, conf)
    };
    assert_pinned(
        "memsave",
        &[exact(got)],
        &[exact(MEMSAVE)],
        &format!("    {got:?}\n"),
    );
}

/// Fig. 9: serve cycles per workload, in `Mode::ALL` order (native,
/// LibOS only, LibOS + MMU, LibOS + exits, full Erebor).
#[rustfmt::skip]
const FIG9: [(&str, [u64; 5]); 5] = [
    ("llama.cpp", [497789585, 519249861, 564923925, 522384261, 567246443]),
    ("yolo", [824749035, 830230866, 902088656, 834287770, 905747106]),
    ("drugbank", [248463340, 250611121, 272813351, 252220241, 274050225]),
    ("graphchi", [397789296, 404945335, 439445554, 406494209, 441305300]),
    ("unicorn", [176419914, 177932669, 193154318, 178641975, 193896748]),
];

/// One Table 6 row: the rates (#PF/s, #Timer/s, #VE/s, EMC/s), the
/// serve time in simulated seconds, confined and common MB, and the
/// init overhead as a fraction of native.
type Table6Pin = (&'static str, [f64; 4], f64, u64, u64, f64);

#[rustfmt::skip]
const TABLE6: [Table6Pin; 5] = [
    ("llama.cpp", [1558.5818314245473, 666.3770300627518, 355.4010827001343, 69969.58815658894], 0.2701173538095238, 501, 4096, 0.43309804520286854),
    ("yolo", [259.67513276272064, 667.7360556755673, 18.54822376876576, 69949.98888795786], 0.4313081457142857, 757, 132, 0.43713454898088044),
    ("drugbank", [1992.3355290075021, 674.3289482794622, 153.25657915442324, 70268.14154230306], 0.13050010714285715, 814, 400, 0.4524072092638971),
    ("graphchi", [0.0, 666.2054591231966, 152.2755335138735, 69951.57320793564], 0.21014538095238094, 1340, 0, 0.3343592403535447),
    ("unicorn", [0.0, 671.4914063437516, 64.98303932358886, 69748.4622073187], 0.09233178476190476, 1254, 0, 0.3343592403535447),
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
    assert_pinned("Fig. 9 cells", &got, &FIG9, &now);
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
    assert_pinned(
        "Table 6 rows",
        &got.iter().map(bits).collect::<Vec<_>>(),
        &TABLE6.iter().map(bits).collect::<Vec<_>>(),
        &now,
    );
}
