//! `paper`: the reproduction's own results. Each op is one cell of the
//! Fig. 9 matrix (five paper workloads with their fixed requests, under
//! the five `Mode`s) on a freshly booted default platform; a pass runs
//! all 25 cells in an order shuffled from the seed, and every pass must
//! reproduce the first pass's simulated cycles cell for cell. After the
//! window, Table 3, Table 4, Fig. 8 and Fig. 10 run once and every
//! simulated paper metric is printed beside the paper's value and the
//! value EXPERIMENTS.md quotes.

use std::panic::{catch_unwind, AssertUnwindSafe};

use erebor::eworkloads::fleet::splitmix64;
use erebor::{run_workload_on, Mode, Platform};
use erebor_bench::{fig10, fig8, geomean, paper_workloads, table3, table4, WorkloadCtor};

use crate::run::{Extras, RunCfg, Sim, Tally, Workload};
use crate::spans::Tracer;

const MODES: usize = Mode::ALL.len();

/// Fig. 9 normalized runtimes EXPERIMENTS.md quotes, per workload, for
/// LibOS-only, LibOS-MMU, LibOS-Exit and full Erebor.
const DOC_FIG9: [(&str, [f64; 4]); 5] = [
    ("llama_cpp", [1.0433, 1.0947, 1.0500, 1.0989]),
    ("yolo", [1.0065, 1.0546, 1.0117, 1.0588]),
    ("drugbank", [1.0172, 1.0677, 1.0240, 1.0718]),
    ("graphchi", [1.0180, 1.0654, 1.0221, 1.0698]),
    ("unicorn", [1.0086, 1.0561, 1.0129, 1.0602]),
];
/// Fig. 8 ratios EXPERIMENTS.md quotes.
const DOC_FIG8: [(&str, f64); 8] = [
    ("null", 2.35),
    ("read", 3.72),
    ("write", 3.75),
    ("sig_install", 2.35),
    ("sig_catch", 2.35),
    ("mmap", 2.61),
    ("pagefault", 2.97),
    ("fork", 9.81),
];
/// Table 4 Erebor/native ratios: (row, paper, EXPERIMENTS.md).
const TABLE4: [(&str, f64, f64); 6] = [
    ("mmu", 58.5, 60.4),
    ("cr", 5.4, 5.5),
    ("idt", 5.3, 5.3),
    ("msr", 4.4, 4.6),
    ("smap", 20.8, 23.8),
    ("ghci", 1.01, 1.01),
];
/// Fig. 10 mean relative throughput: the paper's OpenSSH −8.2 % and
/// Nginx −5.1 % means, and EXPERIMENTS.md's −9.6 % for both.
const FIG10_PAPER: f64 = 1.0 - (0.082 + 0.051) / 2.0;
const FIG10_DOC: f64 = 1.0 - 0.096;

fn pct(geo_ratio: f64) -> f64 {
    (geo_ratio - 1.0) * 100.0
}

/// Geometric mean overhead, in %, of column `col` of the quoted Fig. 9.
fn doc_fig9_geomean_pct(col: usize) -> f64 {
    pct(geomean(&DOC_FIG9.map(|(_, r)| r[col])))
}

/// The Fig. 9 inputs and the first pass's simulated cycles.
pub struct Paper {
    inputs: Vec<(WorkloadCtor, Vec<u8>)>,
    /// Each input's workload name, as its first report gives it.
    names: Vec<&'static str>,
    rng: u64,
    order: Vec<usize>,
    first: Vec<Option<u64>>,
    smoke: bool,
}

impl Paper {
    /// Build the paper requests and boot one platform in every mode.
    pub fn setup(cfg: &RunCfg, tr: &mut Tracer, tally: &mut Tally) -> Option<Paper> {
        let inputs = paper_workloads();
        for mode in Mode::ALL {
            let p = tr.span("platform", "boot", |_| Platform::boot(mode));
            tally.record(p, "boot")?;
        }
        let cells = inputs.len() * MODES;
        Some(Paper {
            names: vec![""; inputs.len()],
            inputs,
            rng: cfg.seed,
            order: (0..cells).collect(),
            first: vec![None; cells],
            smoke: cfg.smoke,
        })
    }

    /// Fig. 9 normalized runtime of `(workload, mode)` from the first pass.
    fn norm(&self, w: usize, m: usize) -> Option<f64> {
        let c = |m| self.first[w * MODES + m];
        Some(c(m)? as f64 / c(0)? as f64)
    }

    /// Geometric-mean overhead (%) of mode `m` over the workloads.
    fn fig9_geomean_pct(&self, m: usize) -> Option<f64> {
        let r: Option<Vec<f64>> = (0..self.inputs.len()).map(|w| self.norm(w, m)).collect();
        Some(pct(geomean(&r?)))
    }
}

impl Workload for Paper {
    fn op(&mut self, i: u64, tr: &mut Tracer, tally: &mut Tally) -> Sim {
        let cells = self.order.len();
        let j = (i % cells as u64) as usize;
        if j == 0 {
            for k in (1..cells).rev() {
                let r = (splitmix64(&mut self.rng) % (k as u64 + 1)) as usize;
                self.order.swap(k, r);
            }
        }
        let cell = self.order[j];
        let mode = Mode::ALL[cell % MODES];
        let (ctor, request) = &self.inputs[cell / MODES];
        let p = tr.span("platform", "boot", |_| Platform::boot(mode));
        let Some(mut p) = tally.record(p, "boot") else {
            return Sim::default();
        };
        let report = tr.span("platform", "run_workload", |_| {
            let r = run_workload_on(&mut p, mode, ctor(), request);
            drop(p);
            r
        });
        let Some(report) = tally.record(report, "run_workload") else {
            return Sim::default();
        };
        self.names[cell / MODES] = report.workload;
        let first = *self.first[cell].get_or_insert(report.cycles());
        tally.check(
            first == report.cycles() && !report.output.is_empty(),
            || {
                format!(
                    "{} under {}: {} cycles vs {first} in pass 1, {} output bytes",
                    report.workload,
                    mode.label(),
                    report.cycles(),
                    report.output.len()
                )
            },
        );
        Sim::of(&report.serve)
    }

    /// Cells are independent fresh platforms; their cycle sequence is the state.
    fn sim_digest(&self) -> u64 {
        let cycles: Vec<u64> = self.first.iter().map(|c| c.unwrap_or(0)).collect();
        crate::stats::fnv1a(format!("{cycles:?}").as_bytes())
    }

    fn finish(&mut self, tally: &mut Tally, extras: &mut Extras) {
        let mut refs: Vec<(String, f64, Option<f64>, Option<f64>)> = Vec::new();
        if let Some(v) = self.fig9_geomean_pct(MODES - 1) {
            refs.push(("paper.fig9_overhead_pct".into(), v, Some(8.1), Some(7.2)));
        }
        for (m, name) in [(1, "libos_only"), (2, "libos_mmu"), (3, "libos_exit")] {
            if let Some(v) = self.fig9_geomean_pct(m) {
                let doc = doc_fig9_geomean_pct(m - 1);
                refs.push((format!("paper.fig9.{name}_geomean_pct"), v, None, Some(doc)));
            }
        }
        for (w, name) in self.names.iter().enumerate() {
            let name = name.replace('.', "_");
            let doc = DOC_FIG9
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, r)| pct(r[3]));
            if let Some(r) = self.norm(w, MODES - 1) {
                refs.push((format!("paper.fig9.{name}_overhead_pct"), pct(r), None, doc));
            }
        }
        let ops = if self.smoke { 32 } else { 512 };
        let kernels = catch_unwind(AssertUnwindSafe(|| {
            (table3::run(), table4::run(), fig8::run(ops), fig10::run())
        }));
        tally.check(kernels.is_ok(), || "a paper kernel panicked".into());
        if let Ok((t3, t4, f8, f10)) = kernels {
            if let Some(emc) = t3.iter().find(|r| r.name == "EMC") {
                refs.push((
                    "paper.emc_sim_cycles".into(),
                    emc.cycles as f64,
                    Some(1224.0),
                    Some(1293.0),
                ));
            }
            let ratios: Vec<f64> = f8.iter().map(|r| r.ratio()).collect();
            let doc8 = geomean(&DOC_FIG8.map(|(_, r)| r));
            refs.push((
                "paper.fig8_ratio_geomean".into(),
                geomean(&ratios),
                None,
                Some(doc8),
            ));
            for r in &f8 {
                let name = r.name.replace('-', "_");
                let doc = DOC_FIG8.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
                let paper = (name == "pagefault").then_some(3.8);
                refs.push((format!("paper.fig8.{name}_ratio"), r.ratio(), paper, doc));
            }
            for r in &t4 {
                let name = r.op.to_lowercase();
                let quoted = TABLE4.iter().find(|(n, _, _)| *n == name);
                let (paper, doc) = quoted.map_or((None, None), |q| (Some(q.1), Some(q.2)));
                refs.push((format!("paper.table4.{name}_ratio"), r.times(), paper, doc));
            }
            let rel: Vec<f64> = f10.iter().map(|r| r.relative()).collect();
            let mean = rel.iter().sum::<f64>() / rel.len().max(1) as f64;
            refs.push((
                "paper.fig10_rel_tput".into(),
                mean,
                Some(FIG10_PAPER),
                Some(FIG10_DOC),
            ));
        }
        let err = |v: f64, r: Option<f64>| {
            r.map_or("n/a".to_owned(), |r| {
                format!("{r:.4} ({:+.1}%)", (v / r - 1.0) * 100.0)
            })
        };
        for (name, v, paper, doc) in refs {
            println!(
                "# {name} measured {v:.4}  paper {}  EXPERIMENTS.md {}",
                err(v, paper),
                err(v, doc)
            );
            extras.insert(name, v);
        }
    }
}
