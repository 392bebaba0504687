//! `erebor-chaos`: deterministic fault injection under the state auditor.
//!
//! The standing bug-finding engine for the reproduction. A [`ChaosPlan`]
//! (an [`erebor_hw::inject::Injector`] driven by the testkit's seeded
//! ChaCha20 RNG) schedules adversarial events at the instrumented
//! injection points — interrupts landing inside the EMC gates, host sEPT
//! flips under an in-flight `MapGPA`, frame-allocation failures, `tdcall`
//! error completions, dropped and spurious TLB-shootdown IPIs — while a
//! [`ChaosWorld`] drives random interleavings of gate entries/exits,
//! interrupts, shootdowns and conversions across 2–4 cores. After every
//! step the state auditor ([`erebor_analyze::audit`]) re-derives the
//! security claims from machine state, and the happens-before race
//! detector reads the case's MMU trace once it ends.
//!
//! Everything is replayable: a case is fully determined by `(seed, op
//! bytes)`, failing op sequences are shrunk with the testkit's byte
//! shrinker, and [`run`] folds every trace into an order-sensitive digest
//! so two runs with the same seed can be compared byte-for-byte.
//!
//! Environment knobs (the `EREBOR_PT_SEED` convention):
//! - `EREBOR_CHAOS_SEED`  — base seed (default in [`ChaosConfig`]).
//! - `EREBOR_CHAOS_CASES` — number of cases.
//! - `EREBOR_CHAOS_OPS`   — op bytes per case.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod plan;
pub mod world;

pub use plan::{ChaosEvent, ChaosPlan, ChaosRates};
pub use world::ChaosWorld;

use erebor_analyze::{detect_races, Finding, RaceFinding};
use erebor_hw::inject::InjectorHandle;
use erebor_testkit::rng::TestRng;
use erebor_trace::{TraceEvent, TraceRecord};
use std::sync::{Arc, Mutex, MutexGuard};

/// Machine-trace records retained with a failing case (the tail of the
/// per-core ring buffers at violation time).
pub const FAILURE_TRACE_DEPTH: usize = 32;

/// Per-core trace ring capacity for chaos cases. MMU tracing is on so the
/// race detector sees every revocation/invalidation/hit edge; the rings
/// must hold a whole case or an evicted invalidation could leave a stale
/// window "open" forever (a false positive, not just lost data).
pub const TRACE_RING_DEPTH: usize = 8192;

/// Lock the shared plan, recovering from poisoning: a panicking check
/// inside the injector must not wedge trace collection — the
/// recorded schedule is exactly what we need to diagnose the panic.
fn lock_plan(plan: &Arc<Mutex<ChaosPlan>>) -> MutexGuard<'_, ChaosPlan> {
    plan.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A failed check: its stable name and the state that broke it. The name
/// is an auditor check's (`msr-pinning`, `emc-consistency`, …) or one of
/// the driver's own: gate transactionality, interrupt-depth pairing,
/// `iret`, the kernel's view of PKRS, and the race detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Short check name (stable across runs; replay keys off it).
    pub invariant: &'static str,
    /// Human-readable description of the offending state.
    pub detail: String,
}

impl From<&Finding> for Violation {
    fn from(f: &Finding) -> Violation {
        Violation {
            invariant: f.check,
            detail: format!("{}: {}", f.claim, f.detail),
        }
    }
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// A full chaos campaign: seed, budget, and injection rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Base seed; each case derives its own from this.
    pub seed: u64,
    /// Number of cases to run.
    pub cases: u32,
    /// Op bytes per case.
    pub ops_per_case: usize,
    /// Injection probabilities.
    pub rates: ChaosRates,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0xE2EB_0234,
            cases: 64,
            ops_per_case: 96,
            rates: ChaosRates::default(),
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => panic!("{name} must be a u64, got {raw:?}"),
    }
}

impl ChaosConfig {
    /// Defaults overridden by `EREBOR_CHAOS_SEED` / `EREBOR_CHAOS_CASES` /
    /// `EREBOR_CHAOS_OPS`.
    ///
    /// # Panics
    /// If a set variable does not parse as a `u64` (a silently ignored
    /// typo would silently change what a CI run tests).
    #[must_use]
    pub fn from_env() -> ChaosConfig {
        let mut cfg = ChaosConfig::default();
        if let Some(seed) = env_u64("EREBOR_CHAOS_SEED") {
            cfg.seed = seed;
        }
        if let Some(cases) = env_u64("EREBOR_CHAOS_CASES") {
            cfg.cases = cases as u32;
        }
        if let Some(ops) = env_u64("EREBOR_CHAOS_OPS") {
            cfg.ops_per_case = ops as usize;
        }
        cfg
    }
}

/// Seed for case number `case` under base seed `seed`.
#[must_use]
pub fn case_seed(seed: u64, case: u32) -> u64 {
    seed ^ (u64::from(case) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The outcome of one executed case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOutcome {
    /// Full event schedule (ops interleaved with injections).
    pub trace: Vec<ChaosEvent>,
    /// The first violation, if any.
    pub violation: Option<Violation>,
    /// The machine's last [`FAILURE_TRACE_DEPTH`] trace records at the end
    /// of the case — cycle-stamped hardware events (gates, IPIs, faults,
    /// injections) that situate the violation in simulated time. MMU
    /// bookkeeping events (TLB hits/invalidations) are filtered out so
    /// the tail stays readable; the race detector sees the full ring.
    pub machine_trace: Vec<TraceRecord>,
    /// Findings of the state audit after the case's last step (C1–C8
    /// over the world's root, gate, and sEPT; empty when no op ran). Every
    /// step is audited and its first finding is the case's violation: no
    /// op sequence, with or without injected faults, may leave the state
    /// machine bent.
    pub audit_findings: Vec<Finding>,
    /// Stale-permission windows the happens-before race detector found in
    /// the case's MMU trace. Windows caused by an *injected* IPI drop
    /// (`dropped == true`) are the fault model doing its job; an
    /// unexplained window is a violation.
    pub race_findings: Vec<RaceFinding>,
}

/// Whether a trace record is MMU-bookkeeping chatter (kept out of the
/// human-facing failure tail, still fed to the race detector).
fn is_mmu_noise(r: &TraceRecord) -> bool {
    matches!(
        r.event,
        TraceEvent::TlbHit { .. }
            | TraceEvent::TlbInvlpg { .. }
            | TraceEvent::TlbFlush
            | TraceEvent::TlbShootdown { .. }
    )
}

/// Execute one case: build a fresh world (2–4 cores, derived from the
/// seed), install a [`ChaosPlan`] seeded with `case_seed`, run the op
/// bytes, and audit the world after every step.
#[must_use]
pub fn exec_case(cfg: &ChaosConfig, case_seed: u64, ops: &[u8]) -> CaseOutcome {
    let cores = 2 + (case_seed % 3) as usize;
    let mut world = ChaosWorld::new(cores);
    // Deep rings + MMU tracing: the end-of-case race detector needs every
    // revocation/invalidation/access edge, not just the readable tail.
    world.machine.trace = erebor_trace::TraceBuffer::with_capacity(cores, TRACE_RING_DEPTH);
    world.machine.mmu_trace = true;
    let plan = Arc::new(Mutex::new(ChaosPlan::new(case_seed, cfg.rates)));
    let handle: InjectorHandle = plan.clone();
    world.machine.set_injector(handle);
    let mut violation = None;
    let mut audit_findings = Vec::new();
    for (index, &byte) in ops.iter().enumerate() {
        lock_plan(&plan).record(ChaosEvent::Op { index, byte });
        let stepped = world.step(byte);
        audit_findings = world.audit().findings;
        if let Err(v) = stepped {
            violation = Some(v);
            break;
        }
        if let Some(f) = audit_findings.first() {
            violation = Some(Violation::from(f));
            break;
        }
        if lock_plan(&plan).kernel_saw_monitor_pkrs() {
            violation = Some(Violation {
                invariant: "kernel-view",
                detail: "an injected preemption let kernel/user code observe a PKRS \
                         granting monitor memory"
                    .to_owned(),
            });
            break;
        }
    }
    world.machine.clear_injector();
    let full_trace = world.machine.trace.last_n(usize::MAX);
    let machine_trace: Vec<TraceRecord> = full_trace
        .iter()
        .filter(|r| !is_mmu_noise(r))
        .copied()
        .collect();
    let machine_trace = machine_trace
        .split_at(machine_trace.len().saturating_sub(FAILURE_TRACE_DEPTH))
        .1
        .to_vec();

    // End-of-case pass: the happens-before race detector over the whole
    // MMU trace.
    let race_findings = detect_races(&full_trace, cores);
    if violation.is_none() {
        if let Some(r) = race_findings.iter().find(|r| !r.dropped) {
            // An injected IPI drop (dropped == true) legitimately leaves a
            // stale window — that is the fault being modeled. A window with
            // the IPI *delivered* means an invalidation edge went missing.
            violation = Some(Violation {
                invariant: "race-detector",
                detail: r.to_string(),
            });
        }
    }
    let trace = lock_plan(&plan).take_trace();
    CaseOutcome {
        trace,
        violation,
        machine_trace,
        audit_findings,
        race_findings,
    }
}

/// One shrunk, replayable failure.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseFailure {
    /// Case number within the campaign.
    pub case: u32,
    /// The derived seed — replay with `exec_case(cfg, case_seed, &ops)`.
    pub case_seed: u64,
    /// Shrunk op bytes still reproducing a violation.
    pub ops: Vec<u8>,
    /// The violation the shrunk case produces.
    pub violation: Violation,
    /// The shrunk case's full event trace.
    pub trace: Vec<ChaosEvent>,
    /// The machine's last trace records at violation time (cycle-stamped
    /// hardware events from the replay of the shrunk case).
    pub machine_trace: Vec<TraceRecord>,
}

/// Campaign result: totals, an order-sensitive trace digest, failures.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Base seed the campaign ran under.
    pub seed: u64,
    /// Cases executed.
    pub cases: u32,
    /// Events recorded across every trace.
    pub total_events: u64,
    /// FNV-1a over every case's trace, in order: byte-identical across
    /// replays of the same seed.
    pub digest: u64,
    /// Shrunk failures (empty on a clean run).
    pub failures: Vec<CaseFailure>,
}

impl ChaosReport {
    /// Whether the campaign found no violations.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// A human-readable roll-up (what the CI stage prints).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!(
            "chaos: seed={:#x} cases={} events={} digest={:#018x} failures={}\n",
            self.seed,
            self.cases,
            self.total_events,
            self.digest,
            self.failures.len()
        );
        for f in &self.failures {
            s.push_str(&format!(
                "  case {} FAILED: {}\n    replay: EREBOR_CHAOS_SEED={} ops={:?}\n    trace: {:?}\n",
                f.case, f.violation, f.case_seed, f.ops, f.trace
            ));
            s.push_str(&format!(
                "    machine trace (last {} events):\n",
                f.machine_trace.len()
            ));
            for r in &f.machine_trace {
                s.push_str(&format!("      {r}\n"));
            }
        }
        s
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Run a full campaign. Failing cases are shrunk to a minimal op sequence
/// that still violates (under the same per-case seed, so the shrunk bytes
/// replay exactly).
#[must_use]
pub fn run(cfg: &ChaosConfig) -> ChaosReport {
    let mut digest = FNV_OFFSET;
    let mut total_events = 0u64;
    let mut failures = Vec::new();
    for case in 0..cfg.cases {
        let cs = case_seed(cfg.seed, case);
        // A distinct stream from the injection plan's, so op generation
        // and injection decisions never entangle.
        let mut rng = TestRng::seed_from_u64(cs ^ 0x6f70_735f); // "ops_"
        let mut ops = vec![0u8; cfg.ops_per_case];
        rng.fill(&mut ops);
        let outcome = exec_case(cfg, cs, &ops);
        total_events += outcome.trace.len() as u64;
        digest = fnv1a(digest, &cs.to_le_bytes());
        digest = fnv1a(digest, format!("{:?}", outcome.trace).as_bytes());
        if let Some(first) = outcome.violation {
            let shrunk = erebor_testkit::prop::shrink_bytes(&ops, &mut |bytes| {
                exec_case(cfg, cs, bytes).violation.is_some()
            });
            let replay = exec_case(cfg, cs, &shrunk);
            failures.push(CaseFailure {
                case,
                case_seed: cs,
                violation: replay.violation.unwrap_or(first),
                trace: replay.trace,
                machine_trace: replay.machine_trace,
                ops: shrunk,
            });
        }
    }
    ChaosReport {
        seed: cfg.seed,
        cases: cfg.cases,
        total_events,
        digest,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChaosConfig {
        ChaosConfig {
            cases: 8,
            ops_per_case: 64,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn small_campaign_is_clean() {
        let report = run(&small());
        assert!(report.passed(), "{}", report.summary());
        assert!(report.total_events > 0);
    }

    #[test]
    fn same_seed_replays_byte_identically() {
        let a = run(&small());
        let b = run(&small());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.total_events, b.total_events);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run(&small());
        let b = run(&ChaosConfig {
            seed: 0xDEAD_BEEF,
            ..small()
        });
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn case_seeds_are_distinct() {
        let s: std::collections::BTreeSet<u64> =
            (0..100).map(|c| case_seed(1, c)).collect();
        assert_eq!(s.len(), 100);
    }
}
