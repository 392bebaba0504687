//! The platform: assembles hardware, TDX module, monitor, kernel and LibOS
//! into a running CVM and drives the execution model — syscall and
//! interrupt interposition, demand paging, timer quanta, the client/proxy
//! data path — exactly as Fig. 7 lays it out.

use erebor_core::boot::{BootConfig, BootError, Cvm};
use erebor_core::channel::{Client, ClientError, Proxy};
use erebor_core::config::Mode;
use erebor_core::sandbox::{ExitCause, ExitDecision, SandboxId};
use erebor_core::stats::MonitorStats;
use erebor_hw::cpu::{CpuMode, Domain, Machine};
use erebor_hw::cycles::CLOCK_HZ;
use erebor_hw::fault::{AccessKind, Fault, PfReason, VeReason};
use erebor_hw::idt::vector;
use erebor_hw::inject::InjectorHandle;
use erebor_hw::{HwStats, VirtAddr};
use erebor_kernel::image::benign_kernel;
use erebor_kernel::kernel::KernelStats;
use erebor_kernel::{Hw, Kernel, Pid};
use erebor_libos::api::{Sys, SysError};
use erebor_libos::os::{CommonRegistry, LibOs, ServiceProgram};
use erebor_tdx::attest::{expected_mrtd, Expected, Quote};
use erebor_tdx::migrate::{
    check_pages_private, migration_binding, section, MigrationDest, MigrationError, MigrationKey,
    MigrationSource,
};
use erebor_tdx::tdcall::TdxStats;
use erebor_trace::{Attribution, Bucket};
use erebor_wire::{Wire, WireError};

/// The synthetic rip of user code (any user-half address works; only its
/// *half* matters to the privilege model).
const USER_RIP: u64 = 0x40_1000;

/// Platform-level failure.
#[derive(Debug)]
pub enum PlatformError {
    /// Boot failed.
    Boot(BootError),
    /// Kernel returned an errno at setup time.
    Errno(erebor_kernel::Errno),
    /// User-level failure (kill, fault).
    Sys(SysError),
    /// Channel / attestation failure.
    Channel(&'static str),
    /// Client-side verification failure.
    Client(ClientError),
    /// LibOS failure.
    LibOs(String),
    /// The post-boot state audit found violated security claims.
    Audit(erebor_analyze::AuditReport),
    /// A live-migration step failed. The stream is aborted; the source
    /// platform keeps running and stays auditable.
    Migration(MigrationError),
}

impl core::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlatformError::Boot(e) => write!(f, "boot: {e}"),
            PlatformError::Errno(e) => write!(f, "kernel: {e}"),
            PlatformError::Sys(e) => write!(f, "user: {e}"),
            PlatformError::Channel(e) => write!(f, "channel: {e}"),
            PlatformError::Client(e) => write!(f, "client: {e}"),
            PlatformError::LibOs(e) => write!(f, "libos: {e}"),
            PlatformError::Audit(r) => match r.findings.first() {
                Some(first) => write!(f, "audit: {} finding(s), first: {first}", r.findings.len()),
                None => write!(f, "audit: clean"),
            },
            PlatformError::Migration(e) => write!(f, "migration: {e}"),
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<SysError> for PlatformError {
    fn from(e: SysError) -> PlatformError {
        PlatformError::Sys(e)
    }
}

impl From<erebor_libos::os::LibOsError> for PlatformError {
    fn from(e: erebor_libos::os::LibOsError) -> PlatformError {
        PlatformError::LibOs(e.to_string())
    }
}

impl From<MigrationError> for PlatformError {
    fn from(e: MigrationError) -> PlatformError {
        PlatformError::Migration(e)
    }
}

impl From<WireError> for PlatformError {
    fn from(e: WireError) -> PlatformError {
        PlatformError::Migration(MigrationError::Decode(e))
    }
}

/// A counters snapshot for before/after measurement.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Simulated cycles.
    pub cycles: u64,
    /// Monitor counters.
    pub monitor: MonitorStats,
    /// Kernel counters.
    pub kernel: KernelStats,
    /// TDX counters.
    pub tdx: TdxStats,
    /// Hardware-model counters (TLB translation path).
    pub hw: HwStats,
    /// Per-bucket cycle attribution (sums to `cycles`).
    pub attribution: Attribution,
}

impl Snapshot {
    /// Elementwise *saturating* difference `self - earlier`. Saturating
    /// matters: benches snapshot around intervals on machines whose
    /// counters may reset (chaos replays) — an underflow must pin at 0,
    /// not wrap to a huge bogus delta.
    #[must_use]
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            monitor: self.monitor.delta(&earlier.monitor),
            kernel: self.kernel.delta(&earlier.kernel),
            tdx: self.tdx.delta(&earlier.tdx),
            hw: self.hw.delta(&earlier.hw),
            attribution: self.attribution.delta(&earlier.attribution),
        }
    }

    /// Simulated seconds represented by the cycles field.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / CLOCK_HZ as f64
    }
}

/// A deployed sandboxed service: the provider's program plus its LibOS.
pub struct ServiceInstance {
    /// The service program.
    pub program: Box<dyn ServiceProgram>,
    /// The LibOS instance inside the sandbox.
    pub os: LibOs,
    /// Host task.
    pub pid: Pid,
    /// The monitor's sandbox id.
    pub sandbox: SandboxId,
}

impl core::fmt::Debug for ServiceInstance {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ServiceInstance")
            .field("name", &self.program.name())
            .field("pid", &self.pid)
            .field("sandbox", &self.sandbox)
            .finish_non_exhaustive()
    }
}

/// The assembled, booted platform.
pub struct Platform {
    /// The booted CVM (hardware + TDX + monitor).
    pub cvm: Cvm,
    /// The guest kernel.
    pub kernel: Kernel,
    /// Service-wide common-region registry.
    pub registry: CommonRegistry,
    /// The execution driver's own state (`section::PLATFORM`).
    pub driver: DriverState,
    /// The hardware root seed this platform's attestation identity grows
    /// from; migration hands it over sealed (`section::ROOT_SEED`).
    root_seed: [u8; 32],
}

impl core::fmt::Debug for Platform {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Platform")
            .field("cvm", &self.cvm)
            .finish_non_exhaustive()
    }
}

impl Platform {
    /// Boot with default parameters in the given mode.
    ///
    /// ```
    /// use erebor::{Mode, Platform};
    /// use erebor_workloads::hello::HelloWorld;
    ///
    /// let mut platform = Platform::boot(Mode::Full)?;
    /// let mut svc = platform.deploy(Box::new(HelloWorld { len: 4 }), 4096)?;
    /// let mut client = platform.connect_client(&svc, [7u8; 32])?;
    /// let reply = platform.serve_request(&mut svc, &mut client, b"hi")?;
    /// assert_eq!(reply, b"AAAA");
    /// # Ok::<(), erebor::PlatformError>(())
    /// ```
    ///
    /// # Errors
    /// [`PlatformError::Boot`].
    pub fn boot(mode: Mode) -> Result<Platform, PlatformError> {
        let cfg = BootConfig {
            config: erebor_core::config::ExecConfig::new(mode),
            ..BootConfig::default()
        };
        Platform::boot_with(cfg)
    }

    /// Boot with explicit parameters.
    ///
    /// # Errors
    /// [`PlatformError::Boot`] / [`PlatformError::Errno`].
    pub fn boot_with(cfg: BootConfig) -> Result<Platform, PlatformError> {
        let kernel_img = benign_kernel(cfg.seed);
        let cvm = Cvm::boot_all(cfg, &kernel_img).map_err(PlatformError::Boot)?;
        let mut platform = Platform {
            cvm,
            kernel: Kernel::new(),
            registry: CommonRegistry::new(),
            driver: DriverState {
                paravisor: cfg.paravisor,
                cpu: 0,
                last_timer: vec![0; cfg.cores],
                ticks_since_device: vec![0; cfg.cores],
                reclaim_period_ticks: 2,
                ticks_since_reclaim: 0,
            },
            root_seed: erebor_core::boot::hw_root_seed(cfg.seed),
        };
        let (mut hw, kernel) = platform.parts();
        kernel.init(&mut hw).map_err(PlatformError::Errno)?;
        let now = platform.cvm.machine.cycles.total();
        platform.driver.last_timer.fill(now);
        // Post-boot state audit: a freshly booted platform must satisfy
        // every security claim (C1–C9) before any workload touches it.
        let report = platform.audit();
        if !report.is_clean() {
            return Err(PlatformError::Audit(report));
        }
        Ok(platform)
    }

    /// Run the state auditor over the live machine: every page-table
    /// tree the monitor tracks (kernel, registered user address spaces,
    /// sandboxes), the sEPT, the IDT, the gate descriptors, and the
    /// pinned MSRs, checked against the paper's claims C1–C9
    /// (DESIGN.md §9). Read-only and side-effect free; callable at any
    /// point, not just post-boot.
    #[must_use]
    pub fn audit(&self) -> erebor_analyze::AuditReport {
        // Monitor-dependent claims (pkey tagging, gate/IDT landing pads,
        // MSR pinning, sEPT typing) only hold where the monitor actually
        // deprivileged the kernel; native and LibOS-only modes run
        // without those protections by design.
        let deprivileged = self.cvm.monitor.cfg.monitor_present();
        let view = erebor_analyze::MachineView {
            machine: &self.cvm.machine,
            roots: &[],
            gate: deprivileged.then_some(&self.cvm.monitor.gate),
            monitor: deprivileged.then_some(&self.cvm.monitor),
            sept: deprivileged.then_some(&self.cvm.tdx.sept),
        };
        erebor_analyze::audit::audit(&view)
    }

    /// Install a chaos injector on the booted machine: every instrumented
    /// hardware operation (MSR/CR writes, branches, allocations, tdcalls,
    /// shootdown IPIs) from here on consults it. Pair with
    /// [`Platform::clear_injector`] to return to clean execution.
    pub fn install_injector(&mut self, injector: InjectorHandle) {
        self.cvm.machine.set_injector(injector);
    }

    /// Remove any installed chaos injector.
    pub fn clear_injector(&mut self) {
        self.cvm.machine.clear_injector();
    }

    /// Frame-allocator scan counters (host-side work, outside
    /// [`Snapshot`]: they describe the simulator's search effort, not
    /// simulated cycles, and start at zero on a migration destination).
    #[must_use]
    pub fn alloc_stats(&self) -> erebor_hw::phys::AllocStats {
        self.cvm.machine.mem.alloc_stats
    }

    /// Enter kernel execution context on the driving core (ring 0, kernel
    /// code domain) — the state in which kernel code like `spawn`/`schedule`
    /// legitimately runs. Public for tests and benches that drive kernel
    /// paths directly.
    pub fn enter_kernel_mode(&mut self) {
        let c = &mut self.cvm.machine.cpus[self.driver.cpu];
        c.mode = CpuMode::Supervisor;
        c.domain = Domain::Kernel;
        self.cvm.machine.cycles.set_bucket(Bucket::Kernel);
    }

    /// Run a kernel handler under the kernel bucket, handing the caller's
    /// bucket back when it returns. The trap that reached the handler
    /// already set mode and domain.
    fn in_kernel<R>(&mut self, f: impl FnOnce(&mut Kernel, &mut Hw<'_>) -> R) -> R {
        let (mut hw, kernel) = self.parts();
        let caller = hw.machine.cycles.set_bucket(Bucket::Kernel);
        let r = f(kernel, &mut hw);
        hw.machine.cycles.set_bucket(caller);
        r
    }

    /// Run kernel code outside a trap (scheduling, reclaim): enter kernel
    /// mode on the driving core, run `f` under the kernel bucket, then
    /// restore the caller's mode, domain and bucket on every return path.
    fn as_kernel<R>(&mut self, f: impl FnOnce(&mut Kernel, &mut Hw<'_>) -> R) -> R {
        let c = &mut self.cvm.machine.cpus[self.driver.cpu];
        let caller = (c.mode, c.domain);
        (c.mode, c.domain) = (CpuMode::Supervisor, Domain::Kernel);
        let r = self.in_kernel(f);
        let c = &mut self.cvm.machine.cpus[self.driver.cpu];
        (c.mode, c.domain) = caller;
        r
    }

    fn parts(&mut self) -> (Hw<'_>, &mut Kernel) {
        (
            Hw {
                machine: &mut self.cvm.machine,
                tdx: &mut self.cvm.tdx,
                monitor: &mut self.cvm.monitor,
                cpu: self.driver.cpu,
            },
            &mut self.kernel,
        )
    }

    /// A counters snapshot.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            cycles: self.cvm.machine.cycles.total(),
            monitor: self.cvm.monitor.stats,
            kernel: self.kernel.stats,
            tdx: self.cvm.tdx.stats,
            hw: self.cvm.machine.stats,
            attribution: self.cvm.machine.cycles.attribution(),
        }
    }

    /// Deterministic JSON document with the full event trace and the
    /// cycle-attribution profile: same seed and op sequence → byte-identical
    /// output.
    #[must_use]
    pub fn trace_json(&self) -> String {
        let cycles = self.cvm.machine.cycles.total();
        let attribution = self.cvm.machine.cycles.attribution().json();
        let trace = self.cvm.machine.trace.json();
        format!("{{\"cycles\":{cycles},\"attribution\":{attribution},\"trace\":{trace}}}")
    }

    /// Spawn a native (non-sandboxed) process.
    ///
    /// # Errors
    /// Kernel errors.
    pub fn spawn_native(&mut self) -> Result<Pid, PlatformError> {
        self.enter_kernel_mode();
        let (mut hw, kernel) = self.parts();
        let pid = kernel.spawn_native(&mut hw).map_err(PlatformError::Errno)?;
        kernel
            .schedule(&mut hw, pid)
            .map_err(PlatformError::Errno)?;
        Ok(pid)
    }

    /// A [`Sys`] handle for driving a process's user-mode execution.
    pub fn proc(&mut self, pid: Pid) -> ProcHandle<'_> {
        ProcHandle {
            platform: self,
            pid,
        }
    }

    // ================================================================
    // Service deployment and the client data path (§6.3)
    // ================================================================

    /// Deploy a service program into a fresh sandbox: spawn the host task,
    /// run the LibOS loader (confined declaration, commons, preloads,
    /// thread pool) and the program's own pre-data initialization.
    ///
    /// # Errors
    /// Any setup failure.
    pub fn deploy(
        &mut self,
        mut program: Box<dyn ServiceProgram>,
        budget_pages: u64,
    ) -> Result<ServiceInstance, PlatformError> {
        self.enter_kernel_mode();
        let use_driver = self.cvm.monitor.cfg.monitor_present();
        let (mut hw, kernel) = self.parts();
        let (pid, sandbox) = if use_driver {
            kernel.spawn_sandbox(&mut hw, budget_pages)
        } else {
            // LibOS-only / Native baselines: a plain process.
            kernel.spawn_native(&mut hw).map(|pid| (pid, SandboxId(0)))
        }
        .map_err(PlatformError::Errno)?;
        kernel
            .schedule(&mut hw, pid)
            .map_err(PlatformError::Errno)?;
        let manifest = program.manifest();
        let mut registry = std::mem::take(&mut self.registry);
        let result = LibOs::load(manifest, &mut registry, &mut self.proc(pid), use_driver);
        self.registry = registry;
        let mut os = result?;
        program
            .init(&mut os, &mut self.proc(pid))
            .map_err(PlatformError::Sys)?;
        Ok(ServiceInstance {
            program,
            os,
            pid,
            sandbox,
        })
    }

    /// Drive one request through a service *without* the monitor channel —
    /// the LibOS-only/Native baselines' (unprotected) DebugFS data path,
    /// mirroring the artifact's emulated I/O channel (§A.4).
    ///
    /// # Errors
    /// Any step's failure.
    pub fn serve_plain(
        &mut self,
        svc: &mut ServiceInstance,
        request: &[u8],
    ) -> Result<Vec<u8>, PlatformError> {
        if self.cvm.monitor.cfg.monitor_present() {
            return Err(PlatformError::Channel(
                "serve_plain is for monitor-less baselines; use serve_request",
            ));
        }
        self.kernel.vfs.debug_in.extend_from_slice(request);
        self.serve_once(svc)?;
        Ok(std::mem::take(&mut self.kernel.vfs.debug_out))
    }

    /// One request through a deployed service: the LibOS reads the
    /// input, the program serves it, the LibOS writes the output.
    fn serve_once(&mut self, svc: &mut ServiceInstance) -> Result<(), PlatformError> {
        let pid = svc.pid;
        let req = svc.os.input(&mut self.proc(pid))?;
        let res = svc
            .program
            .serve(&mut svc.os, &mut self.proc(pid), &req)
            .map_err(PlatformError::Sys)?;
        svc.os.output(&mut self.proc(pid), &res)?;
        Ok(())
    }

    /// The measurement chain this platform's boot should attest to —
    /// what clients (and a migration source vetting this platform as a
    /// destination) compare quotes against.
    fn expected_chain(&self) -> Expected {
        let erebor_chain = expected_mrtd(&[
            &self.cvm.firmware_image.measurement_bytes(),
            &self.cvm.monitor_image.measurement_bytes(),
        ]);
        if self.driver.paravisor {
            Expected::ParavisorRtmr {
                mrtd: expected_mrtd(&[erebor_core::boot::PARAVISOR_MEASUREMENT_INPUT]),
                rtmr0: erebor_chain,
            }
        } else {
            Expected::Mrtd(erebor_chain)
        }
    }

    /// Run the remote-attestation handshake for a client of `svc`,
    /// relaying both flights through the untrusted proxy.
    ///
    /// # Errors
    /// Attestation / channel failures.
    pub fn connect_client(
        &mut self,
        svc: &ServiceInstance,
        key_seed: [u8; 32],
    ) -> Result<Client, PlatformError> {
        let root = self.cvm.tdx.attest.root_public();
        let expected = self.expected_chain();
        let (mut client, hello) = Client::with_expected(key_seed, root, expected);
        // First flight crosses the untrusted network/proxy.
        let _ = Proxy::relay(&mut self.cvm.tdx, &hello.client_pub);
        let server_hello = self
            .cvm
            .monitor
            .channel_accept(
                &mut self.cvm.machine,
                &mut self.cvm.tdx,
                self.driver.cpu,
                svc.sandbox,
                &hello,
            )
            .map_err(PlatformError::Channel)?;
        let _ = Proxy::relay(&mut self.cvm.tdx, &server_hello.monitor_pub);
        client
            .finish(&server_hello)
            .map_err(PlatformError::Client)?;
        Ok(client)
    }

    /// Send sealed client data into the sandbox (through the proxy; the
    /// first record flips the sandbox to `DataLoaded`).
    ///
    /// # Errors
    /// Channel / record failures.
    pub fn client_send(
        &mut self,
        svc: &ServiceInstance,
        client: &mut Client,
        data: &[u8],
    ) -> Result<(), PlatformError> {
        let record = client.seal(data).map_err(PlatformError::Client)?;
        let record = Proxy::relay(&mut self.cvm.tdx, &record);
        self.cvm
            .monitor
            .install_client_data(&mut self.cvm.machine, self.driver.cpu, svc.sandbox, &record)
            .map_err(PlatformError::Channel)
    }

    /// Fetch the next sealed result for the client (through the proxy).
    ///
    /// # Errors
    /// Channel / record failures.
    pub fn client_recv(
        &mut self,
        svc: &ServiceInstance,
        client: &mut Client,
    ) -> Result<Vec<u8>, PlatformError> {
        let record = self
            .cvm
            .monitor
            .fetch_output_quantized(&mut self.cvm.machine, svc.sandbox)
            .ok_or(PlatformError::Channel("no output pending"))?;
        let record = Proxy::relay(&mut self.cvm.tdx, &record);
        client.open_result(&record).map_err(PlatformError::Client)
    }

    /// Full request/response round trip: seal → install → program `serve`
    /// → padded sealed reply.
    ///
    /// # Errors
    /// Any step's failure (including a sandbox kill).
    pub fn serve_request(
        &mut self,
        svc: &mut ServiceInstance,
        client: &mut Client,
        request: &[u8],
    ) -> Result<Vec<u8>, PlatformError> {
        self.client_send(svc, client, request)?;
        self.serve_once(svc)?;
        self.client_recv(svc, client)
    }

    // ================================================================
    // Execution-model internals
    // ================================================================

    fn sandbox_of(&self, pid: Pid) -> Option<SandboxId> {
        self.kernel.task(pid).and_then(erebor_kernel::Task::sandbox)
    }

    /// Select the vCPU that subsequent [`Platform::proc`] handles drive.
    ///
    /// # Panics
    /// Panics on an out-of-range core id.
    pub fn set_active_cpu(&mut self, cpu: usize) {
        assert!(cpu < self.cvm.machine.cpus.len(), "no such core");
        self.driver.cpu = cpu;
    }

    /// The currently active vCPU.
    #[must_use]
    pub fn active_cpu(&self) -> usize {
        self.driver.cpu
    }

    fn ensure_current(&mut self, pid: Pid) -> Result<(), SysError> {
        if self.kernel.current_on(self.driver.cpu) != Some(pid) {
            self.as_kernel(|kernel, hw| kernel.schedule(hw, pid))
                .map_err(|_| SysError::Fault)?;
        }
        Ok(())
    }

    /// Bring `pid` back to user mode on the driving core: deliver the
    /// timer ticks that are due, schedule it, and enter ring 3 under the
    /// sandbox bucket.
    fn resume_user(&mut self, pid: Pid) -> Result<(), SysError> {
        self.tick(pid)?;
        self.ensure_current(pid)?;
        let c = &mut self.cvm.machine.cpus[self.driver.cpu];
        c.mode = CpuMode::User;
        c.domain = Domain::User;
        c.ctx.rip = USER_RIP;
        self.cvm.machine.cycles.set_bucket(Bucket::Sandbox);
        Ok(())
    }

    /// Deliver the APIC timer for every quantum that has elapsed, running
    /// the full interposition path (monitor scrub + kernel scheduler +
    /// resume). Large `compute` charges may span several quanta; each gets
    /// its tick, so event *rates* stay faithful to simulated time.
    fn tick(&mut self, pid: Pid) -> Result<(), SysError> {
        // Bound catch-up to keep pathological charges finite.
        for _ in 0..4096 {
            let quantum = self.cvm.monitor.cfg.timer_quantum_cycles;
            let now = self.cvm.machine.cycles.total();
            if now.saturating_sub(self.driver.last_timer[self.driver.cpu]) < quantum {
                return Ok(());
            }
            self.tick_once(pid)?;
        }
        Ok(())
    }

    fn tick_once(&mut self, pid: Pid) -> Result<(), SysError> {
        let quantum = self.cvm.monitor.cfg.timer_quantum_cycles;
        let now = self.cvm.machine.cycles.total();
        let d = &mut self.driver;
        let cpu = d.cpu;
        d.last_timer[cpu] += quantum;
        if now.saturating_sub(d.last_timer[cpu]) >= quantum * 64 {
            // Far behind (huge single charge): resynchronize.
            d.last_timer[cpu] = now;
        }
        d.ticks_since_device[cpu] += 1;
        let vec = if d.ticks_since_device[cpu] >= DEVICE_PERIOD_TICKS {
            d.ticks_since_device[cpu] = 0;
            vector::DEVICE
        } else {
            vector::TIMER
        };
        // Periodic memory pressure: common (unpinned) pages and cold
        // anonymous pages get evicted, sustaining runtime fault rates.
        d.ticks_since_reclaim += 1;
        if d.reclaim_period_ticks > 0 && d.ticks_since_reclaim >= d.reclaim_period_ticks {
            d.ticks_since_reclaim = 0;
            if self.cvm.monitor.cfg.monitor_present() {
                self.cvm
                    .monitor
                    .reclaim_common(&mut self.cvm.machine, cpu, RECLAIM_PAGES_PER_PASS);
            }
            self.as_kernel(|kernel, hw| kernel.reclaim_pages(hw, RECLAIM_PAGES_PER_PASS));
        }
        self.take_exit(pid, ExitCause::Interrupt(vec), |kernel, hw| {
            kernel.on_timer(hw);
            Ok(0)
        })
        .map(drop)
    }

    /// Take one exit from user mode, end to end (§6.2, Fig. 7): the
    /// hardware traps (`syscall` through `IA32_LSTAR`, everything else
    /// through the IDT), the monitor's exit entry decides, `handler` (the
    /// kernel's entry for `cause`) runs when the exit is forwarded, the
    /// monitor's return half runs, and the core returns to user mode.
    /// Returns the value for `rax`.
    fn take_exit(
        &mut self,
        pid: Pid,
        cause: ExitCause,
        handler: impl FnOnce(&mut Kernel, &mut Hw<'_>) -> Result<u64, SysError>,
    ) -> Result<u64, SysError> {
        let (cpu, sandbox) = (self.driver.cpu, self.sandbox_of(pid));
        let machine = &mut self.cvm.machine;
        let interrupted = match cause {
            ExitCause::Syscall => machine.syscall(cpu).map(|_| machine.cpus[cpu].ctx),
            ExitCause::Interrupt(vec) => {
                // Async exit: the TDX module protects the guest context
                // from the injecting host.
                self.cvm.tdx.async_exit_context_protect(machine, cpu);
                machine.deliver_interrupt(cpu, vec).map(|(_, saved)| saved)
            }
            ExitCause::PageFault { .. } => machine
                .deliver_interrupt(cpu, vector::PF)
                .map(|(_, saved)| saved),
            ExitCause::Ve { reason, .. } => self
                .cvm
                .tdx
                .inject_ve(machine, cpu, reason)
                .map(|(_, saved)| saved),
        }
        .map_err(|_| SysError::Fault)?;
        let decision = self.cvm.monitor.on_exit(
            &mut self.cvm.machine,
            &mut self.cvm.tdx,
            cpu,
            sandbox,
            cause,
            interrupted,
        );
        let rax = match decision {
            ExitDecision::Handled { rax } => rax,
            ExitDecision::Killed { reason } => return Err(SysError::Killed(reason)),
            ExitDecision::ForwardToKernel => self.in_kernel(handler)?,
        };
        self.cvm
            .monitor
            .on_exit_return(&mut self.cvm.machine, cpu, sandbox, cause)
            .map_err(|_| SysError::Fault)?;
        // Back to user mode: `sysret` after a syscall, otherwise `iret`
        // into the interrupted (possibly restored) context.
        if cause == ExitCause::Syscall {
            self.cvm.machine.sysret(cpu)
        } else {
            self.ensure_current(pid)?;
            self.cvm.machine.iret(cpu, interrupted)
        }
        .map_err(|_| SysError::Fault)?;
        Ok(rax)
    }

    /// Run `access` in user mode for `pid` up to `attempts` times,
    /// faulting in each page it finds missing (a reclaim pass may take a
    /// page between two attempts).
    fn faulting_in(
        &mut self,
        pid: Pid,
        kind: AccessKind,
        attempts: usize,
        mut access: impl FnMut(&mut Machine, usize) -> Result<(), Fault>,
    ) -> Result<(), SysError> {
        for _attempt in 0..attempts {
            match access(&mut self.cvm.machine, self.driver.cpu) {
                Ok(()) => return Ok(()),
                Err(Fault::PageFault {
                    reason: PfReason::NotPresent,
                    va,
                    ..
                }) => {
                    let write = kind == AccessKind::Write;
                    let cause = ExitCause::PageFault { va, access: kind };
                    // The exit's `iret` resumes the access in user mode.
                    self.take_exit(pid, cause, |kernel, hw| {
                        kernel
                            .handle_page_fault(hw, pid, va, write)
                            .map(|()| 0)
                            .map_err(|_| SysError::Fault)
                    })?;
                }
                Err(_) => return Err(SysError::Fault),
            }
        }
        Err(SysError::Fault)
    }

    fn user_access(&mut self, pid: Pid, va: u64, kind: AccessKind) -> Result<(), SysError> {
        self.resume_user(pid)?;
        self.faulting_in(pid, kind, 64, |machine, cpu| {
            machine.probe(cpu, VirtAddr(va), kind)
        })
    }

    /// A user-mode copy of `len` bytes at `va`: every page is touched
    /// (and faulted in) first, then `copy` runs, still in user mode.
    fn copy_user(
        &mut self,
        pid: Pid,
        va: u64,
        len: usize,
        kind: AccessKind,
        copy: impl FnMut(&mut Machine, usize) -> Result<(), Fault>,
    ) -> Result<(), SysError> {
        if len == 0 {
            return Ok(());
        }
        let mut page = VirtAddr(va).page_base().0;
        let end = va + len as u64 - 1;
        while page <= end {
            self.user_access(pid, page, kind)?;
            page += erebor_hw::PAGE_SIZE as u64;
        }
        self.faulting_in(pid, kind, 4, copy)
    }
}

// ====================================================================
// TD live migration (§2.1's migration TD, platform-level scenario)
// ====================================================================

/// The destination's half of the migration handshake: its ephemeral
/// public key plus a CPU-signed quote whose report data binds *both*
/// ephemeral keys ([`migration_binding`]).
#[derive(Debug, Clone)]
pub struct MigrationOffer {
    /// The destination's ephemeral X25519 public key.
    pub dest_pub: [u8; 32],
    /// Quote over the key-exchange binding, signed by the hardware root.
    pub quote: Quote,
}

/// Accounting for one completed (or in-flight) outbound migration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Page records sealed during pre-copy (full sweep + dirty rounds).
    pub precopy_pages: u64,
    /// Dirty-page rounds run between the full sweep and stop-and-copy.
    pub precopy_rounds: u64,
    /// Page records sealed inside the stop-and-copy window.
    pub stopcopy_pages: u64,
    /// State sections sealed (machine, monitor, kernel, ...).
    pub sections: u64,
    /// Total records sealed, `Begin` and `Finish` included.
    pub records_sealed: u64,
    /// Pending per-page shootdowns drained by the quiesce.
    pub drained_page_shootdowns: u64,
    /// Pending per-ASID shootdowns drained by the quiesce.
    pub drained_asid_shootdowns: u64,
}

/// An open outbound migration stream: the attested sealing channel plus
/// running accounting. Produced by [`Platform::migrate_begin`]; the
/// guest keeps running between [`Platform::migrate_precopy_round`]
/// calls, and [`Platform::migrate_finish`] closes the stream.
#[derive(Debug)]
pub struct OutboundMigration {
    source: MigrationSource,
    /// Accounting so far.
    pub report: MigrationReport,
}

impl Platform {
    /// Destination side, step 1: produce the attested half of the
    /// migration handshake. The quote binds the destination's ephemeral
    /// key and the source's (`source_pub`) into the TDREPORT's report
    /// data, so the source knows the attested TD terminates *this*
    /// channel and no other.
    #[must_use]
    pub fn migration_offer(&self, key: &MigrationKey, source_pub: &[u8; 32]) -> MigrationOffer {
        let binding = migration_binding(source_pub, &key.public());
        let report = self.cvm.tdx.attest.tdreport(binding);
        MigrationOffer {
            dest_pub: key.public(),
            quote: self.cvm.tdx.attest.quote(report),
        }
    }

    /// Source side, step 2: verify the destination's attestation, open
    /// the sealed stream, switch on dirty-page tracking and seal the
    /// `Begin` record plus the full resident-page sweep (pre-copy round
    /// zero). The guest keeps running afterwards; writes land in the
    /// dirty ledger for later rounds.
    ///
    /// # Errors
    /// [`PlatformError::Migration`] — quote rejection, binding mismatch,
    /// or a sealing failure. No platform state is disturbed on error
    /// (dirty tracking only engages after the handshake verifies).
    pub fn migrate_begin(
        &mut self,
        key: &MigrationKey,
        offer: &MigrationOffer,
    ) -> Result<(OutboundMigration, Vec<Vec<u8>>), PlatformError> {
        let root = self.cvm.tdx.attest.root_public();
        let expected = self.expected_chain();
        let mut source =
            MigrationSource::open(key, offer.dest_pub, &offer.quote, &root, &expected)?;
        self.cvm.machine.mem.set_dirty_tracking(true);
        let mut records = vec![source.begin()?];
        let resident: Vec<(u64, [u8; erebor_hw::PAGE_SIZE])> = self
            .cvm
            .machine
            .mem
            .resident_pages()
            .map(|(f, p)| (f, *p))
            .collect();
        let mut report = MigrationReport::default();
        for (frame, page) in &resident {
            records.push(source.page(*frame, page)?);
            report.precopy_pages += 1;
        }
        report.records_sealed = source.records_sealed();
        Ok((OutboundMigration { source, report }, records))
    }

    /// Source side, step 3 (repeatable): drain the dirty ledger and
    /// reseal exactly those pages. Frames dirtied but no longer resident
    /// travel as zero pages — on both ends a non-resident frame reads as
    /// zeroes, so the destination converges to the same contents.
    ///
    /// # Errors
    /// [`PlatformError::Migration`] on a sealing failure.
    pub fn migrate_precopy_round(
        &mut self,
        mig: &mut OutboundMigration,
    ) -> Result<Vec<Vec<u8>>, PlatformError> {
        let dirty = self.cvm.machine.mem.take_dirty();
        let mut records = Vec::with_capacity(dirty.len());
        let zero = [0u8; erebor_hw::PAGE_SIZE];
        for frame in dirty {
            let page = self
                .cvm
                .machine
                .mem
                .page_if_resident(frame)
                .copied()
                .unwrap_or(zero);
            records.push(mig.source.page(frame, &page)?);
            mig.report.precopy_pages += 1;
        }
        mig.report.precopy_rounds += 1;
        mig.report.records_sealed = mig.source.records_sealed();
        Ok(records)
    }

    /// Source side, final step: the bounded stop-and-copy window. The
    /// guest is quiesced — pending per-page and per-ASID shootdowns are
    /// drained so the staleness ledgers are empty — then the remaining
    /// dirty pages, every state section and the `Finish` record are
    /// sealed. The source stays fully live (and auditable) afterwards;
    /// only the dirty ledger is retired.
    ///
    /// # Errors
    /// [`PlatformError::Migration`] on any sealing failure.
    pub fn migrate_finish(
        &mut self,
        mut mig: OutboundMigration,
    ) -> Result<(Vec<Vec<u8>>, MigrationReport), PlatformError> {
        let (dp, da) = self.cvm.machine.quiesce_for_migration();
        mig.report.drained_page_shootdowns = dp as u64;
        mig.report.drained_asid_shootdowns = da as u64;
        mig.source.enter_stop_copy()?;

        let mut records = Vec::new();
        let zero = [0u8; erebor_hw::PAGE_SIZE];
        for frame in self.cvm.machine.mem.take_dirty() {
            let page = self
                .cvm
                .machine
                .mem
                .page_if_resident(frame)
                .copied()
                .unwrap_or(zero);
            records.push(mig.source.page(frame, &page)?);
            mig.report.stopcopy_pages += 1;
        }
        self.cvm.machine.mem.set_dirty_tracking(false);

        let sections: [(u8, Vec<u8>); 7] = [
            (section::MACHINE, self.cvm.machine.export_state()),
            (section::TDX, self.cvm.tdx.export_state()),
            (section::MONITOR, self.cvm.monitor.to_wire()),
            (section::KERNEL, self.kernel.to_wire()),
            (section::LIBOS, self.registry.to_wire()),
            (section::ROOT_SEED, self.root_seed.to_wire()),
            (section::PLATFORM, self.driver.to_wire()),
        ];
        for (id, payload) in &sections {
            records.push(mig.source.section(*id, payload)?);
            mig.report.sections += 1;
        }
        records.push(mig.source.finish()?);
        mig.report.records_sealed = mig.source.records_sealed();
        Ok((records, mig.report))
    }

    /// One-shot outbound migration: [`Platform::migrate_begin`] straight
    /// into [`Platform::migrate_finish`] with no intervening pre-copy
    /// rounds (nothing runs in between, so the dirty ledger is empty).
    ///
    /// # Errors
    /// [`PlatformError::Migration`].
    pub fn migrate_to(
        &mut self,
        key: &MigrationKey,
        offer: &MigrationOffer,
    ) -> Result<(Vec<Vec<u8>>, MigrationReport), PlatformError> {
        let (mig, mut records) = self.migrate_begin(key, offer)?;
        let (tail, report) = self.migrate_finish(mig)?;
        records.extend(tail);
        Ok((records, report))
    }

    /// Destination side, final step: verify and stage the whole record
    /// stream, then import it **atomically**. Every section is parsed
    /// and cross-validated *before* any platform state is touched, so a
    /// damaged stream — dropped, duplicated, replayed, corrupted or
    /// truncated records — yields a typed error and leaves this platform
    /// exactly as it booted: there is no half-imported destination.
    ///
    /// Host-side state (the frame-allocator scan stats) starts fresh on
    /// the imported platform; architectural state — registers, MSRs,
    /// TLBs, sEPT, the EMC ledger, sandbox table, sessions, tasks — is
    /// byte-identical to the source.
    ///
    /// # Errors
    /// [`PlatformError::Migration`] naming the first fault.
    pub fn migrate_from(
        &mut self,
        key: &MigrationKey,
        source_pub: [u8; 32],
        records: &[Vec<u8>],
    ) -> Result<(), PlatformError> {
        let mut dest = MigrationDest::open(key, source_pub);
        for record in records {
            dest.feed(record)?;
        }
        let snap = dest.into_snapshot()?;

        // Stage 1: parse and cross-validate everything. No `self` writes.
        let root_seed =
            <[u8; 32]>::from_wire(snap.section(section::ROOT_SEED, "missing root seed")?)?;
        let machine = Machine::import_state(
            snap.section(section::MACHINE, "missing machine section")?,
            &snap.pages,
        )?;
        let tdx = erebor_tdx::TdxModule::import_state(
            root_seed,
            snap.section(section::TDX, "missing tdx section")?,
        )?;
        check_pages_private(&tdx.sept, &snap.pages)?;
        let monitor = erebor_core::monitor::Monitor::from_wire(
            snap.section(section::MONITOR, "missing monitor section")?,
        )?;
        let kernel = Kernel::from_wire(snap.section(section::KERNEL, "missing kernel section")?)?;
        let registry =
            CommonRegistry::from_wire(snap.section(section::LIBOS, "missing libos section")?)?;
        let driver = DriverState::import(
            snap.section(section::PLATFORM, "missing platform section")?,
            machine.cpus.len(),
        )?;

        // Stage 2: commit. Infallible from here on.
        self.cvm.machine = machine;
        self.cvm.tdx = tdx;
        self.cvm.monitor = monitor;
        self.kernel = kernel;
        self.registry = registry;
        self.root_seed = root_seed;
        self.driver = driver;
        Ok(())
    }
}

/// Timer ticks per device interrupt on a core: every third tick
/// delivers the device vector instead of the timer's.
const DEVICE_PERIOD_TICKS: u64 = 3;

/// Pages one memory-pressure reclaim pass evicts.
const RECLAIM_PAGES_PER_PASS: u64 = 4;

/// The platform driver's state, migrated as `section::PLATFORM`: the
/// paravisor flag, the active core, each core's timer phase and device
/// cadence, and the reclaim cadence. None of it is architectural, but
/// same-seed trace equivalence requires the execution driver to resume
/// mid-quantum exactly where the source stopped.
#[derive(Debug)]
pub struct DriverState {
    /// Whether this platform booted under a paravisor (§10).
    paravisor: bool,
    cpu: usize,
    last_timer: Vec<u64>,
    ticks_since_device: Vec<u64>,
    /// Ticks between memory-pressure reclaim passes (0 = disabled).
    pub reclaim_period_ticks: u64,
    ticks_since_reclaim: u64,
}

erebor_wire::wire_struct!(DriverState {
    paravisor,
    cpu,
    last_timer,
    ticks_since_device,
    reclaim_period_ticks,
    ticks_since_reclaim
});

impl DriverState {
    /// Decode a `section::PLATFORM` payload and validate it against the
    /// imported machine's core count before anything is committed.
    fn import(bytes: &[u8], cores: usize) -> Result<DriverState, WireError> {
        let driver = DriverState::from_wire(bytes)?;
        if driver.cpu >= cores {
            return Err(WireError::BadValue { what: "active cpu" });
        }
        if driver.last_timer.len() != cores {
            return Err(WireError::BadValue {
                what: "timer vector length",
            });
        }
        if driver.ticks_since_device.len() != cores {
            return Err(WireError::BadValue {
                what: "device tick vector length",
            });
        }
        Ok(driver)
    }
}

/// A [`Sys`] implementation driving one process on the platform.
pub struct ProcHandle<'a> {
    platform: &'a mut Platform,
    /// The process this handle drives.
    pub pid: Pid,
}

impl Sys for ProcHandle<'_> {
    fn syscall(&mut self, syscall_nr: u64, args: [u64; 6]) -> Result<u64, SysError> {
        let p = &mut *self.platform;
        let pid = self.pid;
        p.resume_user(pid)?;
        // Linux register convention: rax=nr, rdi/rsi/rdx/r10/r8/r9.
        {
            let ctx = &mut p.cvm.machine.cpus[p.driver.cpu].ctx;
            ctx.gpr[0] = syscall_nr;
            ctx.gpr[7] = args[0];
            ctx.gpr[6] = args[1];
            ctx.gpr[2] = args[2];
            ctx.gpr[10] = args[3];
            ctx.gpr[8] = args[4];
            ctx.gpr[9] = args[5];
        }
        let rax = p.take_exit(pid, ExitCause::Syscall, |kernel, hw| {
            Ok(kernel.handle_syscall(hw, pid, syscall_nr, args))
        })?;
        let signed = rax as i64;
        if (-4095..0).contains(&signed) {
            return Err(SysError::Errno(signed));
        }
        Ok(rax)
    }

    fn touch(&mut self, va: u64, write: bool) -> Result<(), SysError> {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        self.platform.user_access(self.pid, va, kind)
    }

    fn read_mem(&mut self, va: u64, buf: &mut [u8]) -> Result<(), SysError> {
        let len = buf.len();
        self.platform
            .copy_user(self.pid, va, len, AccessKind::Read, |machine, cpu| {
                machine.read(cpu, VirtAddr(va), buf)
            })
    }

    fn write_mem(&mut self, va: u64, data: &[u8]) -> Result<(), SysError> {
        self.platform.copy_user(
            self.pid,
            va,
            data.len(),
            AccessKind::Write,
            |machine, cpu| machine.write(cpu, VirtAddr(va), data),
        )
    }

    fn compute(&mut self, units: u64) -> Result<(), SysError> {
        // Saturating: a pathological `units` must pin the charge, not
        // wrap it into a tiny (or debug-panicking) cost.
        let cost = units.saturating_mul(self.platform.cvm.machine.costs.compute_unit);
        self.platform
            .cvm
            .machine
            .cycles
            .charge_to(Bucket::Sandbox, cost);
        self.platform.tick(self.pid)
    }

    fn cpuid(&mut self, leaf: u32) -> Result<u32, SysError> {
        let p = &mut *self.platform;
        let pid = self.pid;
        p.resume_user(pid)?;
        let cause = ExitCause::Ve {
            reason: VeReason::Cpuid,
            leaf,
        };
        let eax = p.take_exit(pid, cause, |kernel, hw| {
            Ok(u64::from(kernel.handle_ve(hw, leaf)))
        })?;
        Ok(eax as u32)
    }

    fn cycles(&self) -> u64 {
        self.platform.cvm.machine.cycles.total()
    }
}

impl core::fmt::Debug for ProcHandle<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ProcHandle")
            .field("pid", &self.pid)
            .finish_non_exhaustive()
    }
}
