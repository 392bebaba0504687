//! The evaluation runner: executes any [`Workload`] under any Fig. 9
//! configuration with a warm start and separates initialization from the
//! measured serve phase — the methodology behind Fig. 9 and Table 6.

use crate::platform::{Platform, PlatformError, Snapshot};
use erebor_core::config::Mode;
use erebor_workloads::env::{NativeEnv, NativeState, Workload, WorkloadParams};
use erebor_workloads::SandboxedWorkload;

/// Result of one measured run.
#[derive(Debug)]
pub struct RunReport {
    /// Configuration used.
    pub mode: Mode,
    /// Workload name.
    pub workload: &'static str,
    /// Cycles spent in initialization (deploy / warm start), after boot.
    pub init_cycles: u64,
    /// Counter deltas across the serve phase.
    pub serve: Snapshot,
    /// The workload's response bytes.
    pub output: Vec<u8>,
    /// Sizing parameters (logical sizes feed Table 6).
    pub params: WorkloadParams,
}

impl RunReport {
    /// Serve-phase cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.serve.cycles
    }

    /// Serve-phase simulated seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.serve.seconds()
    }

    /// Events per simulated second for a raw count.
    #[must_use]
    pub fn rate(&self, count: u64) -> f64 {
        let s = self.seconds();
        if s > 0.0 {
            count as f64 / s
        } else {
            0.0
        }
    }
}

/// Run `workload` once under `mode` with a warm start, serving `request`.
///
/// ```
/// use erebor::runner::run_workload;
/// use erebor::Mode;
/// use erebor_workloads::retrieval::Retrieval;
///
/// let report = run_workload(Mode::Full, Box::new(Retrieval::default()), b"q=500;1")?;
/// assert!(report.cycles() > 0);
/// assert!(String::from_utf8_lossy(&report.output).contains("queries=500"));
/// # Ok::<(), erebor::PlatformError>(())
/// ```
///
/// # Errors
/// Any platform failure (boot, deploy, attestation, kill).
pub fn run_workload(
    mode: Mode,
    workload: Box<dyn Workload>,
    request: &[u8],
) -> Result<RunReport, PlatformError> {
    let mut platform = Platform::boot(mode)?;
    run_workload_on(&mut platform, mode, workload, request)
}

/// Like [`run_workload`], on an already-booted platform (lets callers run
/// several phases or share a platform between instances).
///
/// # Errors
/// Any platform failure.
pub fn run_workload_on(
    platform: &mut Platform,
    mode: Mode,
    workload: Box<dyn Workload>,
    request: &[u8],
) -> Result<RunReport, PlatformError> {
    let params = workload.params();
    let name = workload.name();
    let boot_snap = platform.snapshot();

    if mode == Mode::Native {
        let mut workload = workload;
        // Plain process: mmap windows, warm them, run directly.
        let pid = platform.spawn_native()?;
        let mut state = {
            let mut h = platform.proc(pid);
            let state = NativeState::setup(&mut h, params).map_err(PlatformError::Sys)?;
            state.warm(&mut h).map_err(PlatformError::Sys)?;
            state
        };
        {
            let mut h = platform.proc(pid);
            let mut env = NativeEnv::new(&mut h, &mut state);
            workload.init(&mut env).map_err(PlatformError::Sys)?;
        }
        let init_snap = platform.snapshot();
        let output = {
            let mut h = platform.proc(pid);
            let mut env = NativeEnv::new(&mut h, &mut state);
            workload
                .serve(&mut env, request)
                .map_err(PlatformError::Sys)?
        };
        let serve = platform.snapshot().delta(&init_snap);
        return Ok(RunReport {
            mode,
            workload: name,
            init_cycles: init_snap.cycles - boot_snap.cycles,
            serve,
            output,
            params,
        });
    }

    // LibOS-based paths: the ServiceProgram adapter handles manifests and
    // common population.
    let program = SandboxedWorkload::new(workload);
    let mut svc = platform.deploy(Box::new(program), 1 << 20)?;
    // Initialization ends at deploy; attestation/channel setup sits
    // between the measured windows (it is neither program init nor the
    // steady-state serve path).
    let init_snap = platform.snapshot();
    let output;
    let serve_snap;
    if platform.cvm.monitor.cfg.monitor_present() {
        let mut client = platform.connect_client(&svc, [0x42; 32])?;
        serve_snap = platform.snapshot();
        output = platform.serve_request(&mut svc, &mut client, request)?;
    } else {
        serve_snap = platform.snapshot();
        output = platform.serve_plain(&mut svc, request)?;
    }
    let serve = platform.snapshot().delta(&serve_snap);
    drop(svc);
    Ok(RunReport {
        mode,
        workload: name,
        init_cycles: init_snap.cycles - boot_snap.cycles,
        serve,
        output,
        params,
    })
}
