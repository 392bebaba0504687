//! The `tdcall` instruction and the TDX-module leaf dispatch.
//!
//! `tdcall` is a sensitive instruction (Table 2): the ring/domain guard from
//! `erebor-hw` runs first, so after Erebor's boot only the monitor can reach
//! any leaf — which is exactly how the monitor monopolises memory
//! conversion, synchronous exits and attestation (§5.2, §6.3).

use crate::attest::{Attestation, Quote, TdReport};
use crate::host::HostVmm;
use crate::sept::{GpaState, Sept, SeptError};
use erebor_hw::cpu::Machine;
use erebor_hw::fault::{Fault, VeReason};
use erebor_hw::idt::vector;
use erebor_hw::regs::GprContext;
use erebor_hw::{Frame, VirtAddr};
use erebor_trace::{Bucket, TraceEvent};
use erebor_wire::{WireError, WireReader, WireWriter};

/// Operations the guest may request from the host through GHCI `vmcall`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmcallOp {
    /// Emulate `cpuid`.
    Cpuid {
        /// Requested leaf.
        leaf: u32,
    },
    /// Expose arbitrary data to the host (models MMIO/PIO/MSR exit
    /// payloads — and the covert channel AV2/AV3 abuse this).
    Data(Vec<u8>),
    /// `hlt` until the next interrupt.
    Halt,
}

/// `tdcall` leaves the simulator implements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TdcallLeaf {
    /// Convert a guest frame between private and shared (`MapGPA`).
    MapGpa {
        /// Frame to convert.
        frame: Frame,
        /// `true` → shared, `false` → private.
        shared: bool,
    },
    /// Synchronous exit to the host (GHCI `tdg.vp.vmcall`).
    VmCall(VmcallOp),
    /// Generate a TDREPORT over 64 bytes of caller data.
    TdReport {
        /// Data bound into the report (e.g. a key-exchange hash).
        report_data: Box<[u8; 64]>,
    },
    /// Turn a report into a CPU-signed quote.
    GetQuote(Box<TdReport>),
    /// Extend a runtime measurement register.
    RtmrExtend {
        /// RTMR index (0..4).
        index: usize,
        /// Data to extend with.
        data: Vec<u8>,
    },
}

impl TdcallLeaf {
    /// Stable snake_case leaf identifier (recorded in the trace buffer).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TdcallLeaf::MapGpa { .. } => "map_gpa",
            TdcallLeaf::VmCall(_) => "vmcall",
            TdcallLeaf::TdReport { .. } => "tdreport",
            TdcallLeaf::GetQuote(_) => "get_quote",
            TdcallLeaf::RtmrExtend { .. } => "rtmr_extend",
        }
    }
}

/// Leaf-level completion failure, mirroring the RAX status-code classes
/// of the real TDX-module ABI. These are *completions*, not faults: the
/// instruction retired, the module just declined the request — callers
/// must check and handle them rather than assume success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TdcallError {
    /// `TDX_OPERAND_INVALID`-class: a leaf argument was rejected.
    InvalidOperand,
    /// The module does not implement the requested leaf.
    LeafNotSupported,
    /// `TDX_OPERAND_BUSY`-class: host/module contention, retryable.
    Busy,
}

/// Raw status-code classes (high word of RAX in the real ABI).
pub mod status {
    /// `TDX_OPERAND_INVALID` class code.
    pub const OPERAND_INVALID: u64 = 0xC000_0100_0000_0000;
    /// `TDX_OPERAND_BUSY` class code.
    pub const OPERAND_BUSY: u64 = 0x8000_0200_0000_0000;
    /// Unsupported-leaf class code.
    pub const LEAF_NOT_SUPPORTED: u64 = 0xC000_0000_0000_0000;
}

impl TdcallError {
    /// Decode a raw completion status into an error class.
    #[must_use]
    pub fn from_status(raw: u64) -> TdcallError {
        match raw {
            status::OPERAND_INVALID => TdcallError::InvalidOperand,
            status::OPERAND_BUSY => TdcallError::Busy,
            _ => TdcallError::LeafNotSupported,
        }
    }

    /// Whether retrying the same leaf can succeed.
    #[must_use]
    pub fn retryable(self) -> bool {
        self == TdcallError::Busy
    }
}

/// Result of a retired `tdcall`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TdcallResult {
    /// Leaf completed with no payload.
    Ok,
    /// `cpuid` emulation result.
    Cpuid([u32; 4]),
    /// A generated report.
    Report(Box<TdReport>),
    /// A signed quote.
    Quote(Box<Quote>),
    /// The instruction retired but the module declined the leaf.
    Failed(TdcallError),
}

impl TdcallResult {
    /// The completion error, if the leaf failed.
    #[must_use]
    pub fn error(&self) -> Option<TdcallError> {
        match self {
            TdcallResult::Failed(e) => Some(*e),
            _ => None,
        }
    }

    /// The report payload, if any.
    #[must_use]
    pub fn into_report(self) -> Option<Box<TdReport>> {
        match self {
            TdcallResult::Report(r) => Some(r),
            _ => None,
        }
    }

    /// The quote payload, if any.
    #[must_use]
    pub fn into_quote(self) -> Option<Box<Quote>> {
        match self {
            TdcallResult::Quote(q) => Some(q),
            _ => None,
        }
    }

    /// The `cpuid` payload, if any.
    #[must_use]
    pub fn cpuid(&self) -> Option<[u32; 4]> {
        match self {
            TdcallResult::Cpuid(v) => Some(*v),
            _ => None,
        }
    }
}

erebor_wire::counters! {
    /// Per-CVM counters the evaluation harness reads (Table 6 columns).
    /// They are *architectural* for a TD: the real module's TD-scope
    /// metadata fields travel with the TD, and the audit trail must not
    /// reset across a move.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct TdxStats {
        /// `tdcall` round trips.
        pub tdcalls: u64,
        /// `MapGPA` conversions.
        pub mapgpa: u64,
        /// Synchronous exits (`vmcall`).
        pub vmcalls: u64,
        /// Injected `#VE` exceptions.
        pub ve_injected: u64,
        /// Generated reports.
        pub tdreports: u64,
    }
}

/// The TDX module: sEPT, attestation state, the untrusted host, and
/// counters.
pub struct TdxModule {
    /// The secure EPT.
    pub sept: Sept,
    /// Measurement and quoting state.
    pub attest: Attestation,
    /// The untrusted hypervisor.
    pub host: HostVmm,
    /// Event counters.
    pub stats: TdxStats,
}

impl TdxModule {
    /// Create a module with a deterministic hardware root seed.
    #[must_use]
    pub fn new(root_seed: [u8; 32]) -> TdxModule {
        TdxModule {
            sept: Sept::new(),
            attest: Attestation::new(root_seed),
            host: HostVmm::new(),
            stats: TdxStats::default(),
        }
    }

    /// Serialise the whole module — sEPT, measurements, host log,
    /// counters — for migration.
    #[must_use]
    pub fn export_state(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.nested(&self.sept);
        w.bytes(&self.attest.export_state());
        w.nested(&self.host);
        w.nested(&self.stats);
        w.finish()
    }

    /// Rebuild a module from [`TdxModule::export_state`] bytes and the
    /// destination machine's hardware root seed.
    ///
    /// # Errors
    /// [`WireError`] if any nested section is malformed.
    pub fn import_state(root_seed: [u8; 32], bytes: &[u8]) -> Result<TdxModule, WireError> {
        let mut r = WireReader::new(bytes);
        let module = TdxModule {
            sept: r.nested()?,
            attest: Attestation::import_state(root_seed, r.bytes()?)?,
            host: r.nested()?,
            stats: r.nested()?,
        };
        r.finish()?;
        Ok(module)
    }

    /// Inject a `#VE` into the guest for a synchronous exit cause: the TDX
    /// module traps the event and re-enters the guest at its `#VE` handler
    /// (Fig. 1 steps ①–②). Returns `(handler, saved context)`.
    ///
    /// # Errors
    /// Propagates IDT delivery failures.
    pub fn inject_ve(
        &mut self,
        machine: &mut Machine,
        cpu: usize,
        _reason: VeReason,
    ) -> Result<(VirtAddr, GprContext), Fault> {
        self.stats.ve_injected = self.stats.ve_injected.saturating_add(1);
        machine.deliver_interrupt(cpu, vector::VE)
    }

    /// TDX-module handling of an *asynchronous* exit: the guest context is
    /// saved and scrubbed before the host runs, so the host observes only
    /// zeros (§2.1). Returns the host-visible context.
    pub fn async_exit_context_protect(&mut self, machine: &mut Machine, cpu: usize) -> GprContext {
        machine.cycles.charge(machine.costs.tdx_context_protect);
        let mut host_view = machine.cpus[cpu].ctx;
        host_view.scrub();
        host_view.rip = 0;
        host_view
    }
}

impl core::fmt::Debug for TdxModule {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TdxModule")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Execute a `tdcall` on core `cpu`.
///
/// # Errors
/// * `#GP` from user mode (the paper relies on this: a userspace `tdcall`
///   traps, §2.1);
/// * `#UD` from a domain whose verified image lacks the instruction (the
///   deprivileged kernel after Erebor's boot scan);
/// * `#VE` wrapping leaf-level errors (e.g. bad `MapGPA`).
pub fn tdcall(
    module: &mut TdxModule,
    machine: &mut Machine,
    cpu: usize,
    leaf: TdcallLeaf,
) -> Result<TdcallResult, Fault> {
    machine.tdcall_guard(cpu)?;
    machine.charged_to(Bucket::Tdcall, |machine| {
        machine.trace_event(cpu, TraceEvent::TdcallLeave { leaf: leaf.name() });
        let r = tdcall_body(module, machine, cpu, leaf);
        let ok = matches!(&r, Ok(result) if result.error().is_none());
        machine.trace_event(cpu, TraceEvent::TdcallDone { ok });
        r
    })
}

fn tdcall_body(
    module: &mut TdxModule,
    machine: &mut Machine,
    cpu: usize,
    leaf: TdcallLeaf,
) -> Result<TdcallResult, Fault> {
    module.stats.tdcalls = module.stats.tdcalls.saturating_add(1);
    let c = &machine.costs;
    machine
        .cycles
        .charge(2 * (c.vm_transition + c.tdx_context_protect + c.tdx_dispatch));
    if let Some(raw) = machine.chaos_tdcall_status(cpu) {
        // Injected module-level refusal: the instruction retires with an
        // error completion status instead of dispatching the leaf.
        return Ok(TdcallResult::Failed(TdcallError::from_status(raw)));
    }

    match leaf {
        TdcallLeaf::MapGpa { frame, shared } => {
            module.stats.mapgpa = module.stats.mapgpa.saturating_add(1);
            let to = if shared {
                GpaState::Shared
            } else {
                GpaState::Private
            };
            match module.sept.convert(frame, to) {
                Ok(()) => {
                    if machine.chaos_host_sept_flip() {
                        // The untrusted host contends with the conversion
                        // mid-flight (a concurrent sEPT operation): the
                        // module reverts it and completes with BUSY, as
                        // the real module does under `TDX_OPERAND_BUSY`.
                        let back = if shared {
                            GpaState::Private
                        } else {
                            GpaState::Shared
                        };
                        let _ = module.sept.convert(frame, back);
                        return Ok(TdcallResult::Failed(TdcallError::Busy));
                    }
                    // Conversion scrubs contents in both directions: private
                    // data never leaks through a conversion, and host data
                    // never pre-seeds private memory.
                    machine
                        .mem
                        .zero_frame(frame)
                        .map_err(|_| Fault::Unrecoverable("MapGPA left DRAM"))?;
                    Ok(TdcallResult::Ok)
                }
                Err(SeptError::AlreadyInState(..)) => Ok(TdcallResult::Ok),
                Err(SeptError::NotAccepted(_)) => {
                    Err(Fault::VirtualizationException(VeReason::EptViolation))
                }
            }
        }
        TdcallLeaf::VmCall(op) => {
            module.stats.vmcalls = module.stats.vmcalls.saturating_add(1);
            machine.cycles.charge(machine.costs.vmm_dispatch / 2);
            match op {
                VmcallOp::Cpuid { leaf } => {
                    Ok(TdcallResult::Cpuid(module.host.emulate_cpuid(leaf)))
                }
                VmcallOp::Data(payload) => {
                    module.host.record_vmcall(&payload);
                    Ok(TdcallResult::Ok)
                }
                VmcallOp::Halt => {
                    module.host.record_vmcall(b"hlt");
                    Ok(TdcallResult::Ok)
                }
            }
        }
        TdcallLeaf::TdReport { report_data } => {
            module.stats.tdreports = module.stats.tdreports.saturating_add(1);
            machine.cycles.charge(machine.costs.tdreport_generate);
            Ok(TdcallResult::Report(Box::new(
                module.attest.tdreport(*report_data),
            )))
        }
        TdcallLeaf::GetQuote(report) => {
            if !module.attest.report_mac_valid(&report) {
                return Err(Fault::GeneralProtection("GetQuote: report MAC invalid"));
            }
            // Quote generation flows through the host quoting service.
            machine.cycles.charge(machine.costs.vmm_dispatch);
            Ok(TdcallResult::Quote(Box::new(module.attest.quote(*report))))
        }
        TdcallLeaf::RtmrExtend { index, data } => {
            module
                .attest
                .extend_rtmr(index, &data)
                .map_err(|_| Fault::GeneralProtection("RTMR index out of range"))?;
            Ok(TdcallResult::Ok)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erebor_hw::cpu::{CpuMode, Domain};

    fn setup() -> (TdxModule, Machine) {
        let mut machine = Machine::new(1, 16 * 1024 * 1024);
        machine.allow_sensitive(Domain::Monitor);
        machine.cpus[0].domain = Domain::Monitor;
        let mut module = TdxModule::new([9u8; 32]);
        for f in 0..machine.mem.total_frames() {
            module.sept.accept_private(Frame(f));
        }
        (module, machine)
    }

    #[test]
    fn tdcall_denied_from_user_mode() {
        let (mut module, mut machine) = setup();
        machine.cpus[0].mode = CpuMode::User;
        let err = tdcall(
            &mut module,
            &mut machine,
            0,
            TdcallLeaf::VmCall(VmcallOp::Halt),
        )
        .unwrap_err();
        assert!(matches!(err, Fault::GeneralProtection(_)));
    }

    #[test]
    fn tdcall_denied_from_deprivileged_kernel() {
        let (mut module, mut machine) = setup();
        machine.cpus[0].domain = Domain::Kernel; // not sensitive-capable
        let err = tdcall(
            &mut module,
            &mut machine,
            0,
            TdcallLeaf::VmCall(VmcallOp::Data(b"leak".to_vec())),
        )
        .unwrap_err();
        assert!(matches!(err, Fault::UndefinedInstruction(_)));
        assert!(!module.host.observed_contains(b"leak"));
    }

    #[test]
    fn mapgpa_scrubs_contents() {
        let (mut module, mut machine) = setup();
        let f = machine.mem.alloc_frame().unwrap();
        machine.mem.write(f.base(), b"private secret").unwrap();
        tdcall(
            &mut module,
            &mut machine,
            0,
            TdcallLeaf::MapGpa {
                frame: f,
                shared: true,
            },
        )
        .unwrap();
        let seen = module
            .host
            .read_guest(&machine.mem, &module.sept, f)
            .unwrap();
        assert!(seen.iter().all(|&b| b == 0), "conversion must scrub");
    }

    #[test]
    fn vmcall_exposes_data_to_host() {
        let (mut module, mut machine) = setup();
        tdcall(
            &mut module,
            &mut machine,
            0,
            TdcallLeaf::VmCall(VmcallOp::Data(b"intentional".to_vec())),
        )
        .unwrap();
        assert!(module.host.observed_contains(b"intentional"));
        assert_eq!(module.stats.vmcalls, 1);
    }

    #[test]
    fn tdreport_and_quote_flow() {
        let (mut module, mut machine) = setup();
        module.attest.extend_mrtd(b"fw");
        module.attest.seal_mrtd();
        let rd = Box::new([7u8; 64]);
        let report = tdcall(
            &mut module,
            &mut machine,
            0,
            TdcallLeaf::TdReport { report_data: rd },
        )
        .unwrap()
        .into_report();
        assert!(report.is_some(), "TdReport leaf must yield a report");
        let report = report.unwrap();
        let quote = tdcall(&mut module, &mut machine, 0, TdcallLeaf::GetQuote(report))
            .unwrap()
            .into_quote();
        assert!(quote.is_some(), "GetQuote leaf must yield a quote");
        let quote = quote.unwrap();
        crate::attest::verify_quote(
            &module.attest.root_public(),
            &quote,
            &crate::attest::expected_mrtd(&[b"fw"]),
        )
        .unwrap();
    }

    #[test]
    fn forged_report_cannot_be_quoted() {
        let (mut module, mut machine) = setup();
        let mut report = module.attest.tdreport([0; 64]);
        report.mrtd[0] ^= 1; // attacker edits the measurement
        let err = tdcall(
            &mut module,
            &mut machine,
            0,
            TdcallLeaf::GetQuote(Box::new(report)),
        )
        .unwrap_err();
        assert!(matches!(err, Fault::GeneralProtection(_)));
    }

    #[test]
    fn tdcall_charges_paper_scale_cycles() {
        let (mut module, mut machine) = setup();
        let before = machine.cycles.total();
        tdcall(
            &mut module,
            &mut machine,
            0,
            TdcallLeaf::VmCall(VmcallOp::Halt),
        )
        .unwrap();
        let cost = machine.cycles.total() - before;
        // Paper Table 3: tdcall ≈ 5276 cycles.
        assert!((4000..=7000).contains(&cost), "tdcall cost {cost}");
    }

    /// Injector failing every tdcall with a fixed raw status.
    struct StatusInjector(u64);
    impl erebor_hw::inject::Injector for StatusInjector {
        fn tdcall_status(&mut self, _cpu: usize) -> Option<u64> {
            Some(self.0)
        }
    }

    #[test]
    fn injected_status_fails_leaf_without_fault_or_panic() {
        let (mut module, mut machine) = setup();
        machine.set_injector(erebor_hw::inject::handle(StatusInjector(
            status::OPERAND_BUSY,
        )));
        let res = tdcall(
            &mut module,
            &mut machine,
            0,
            TdcallLeaf::VmCall(VmcallOp::Halt),
        )
        .unwrap();
        assert_eq!(res.error(), Some(TdcallError::Busy));
        assert!(res.error().unwrap().retryable());
        // The leaf never dispatched: no vmcall reached the host.
        assert_eq!(module.stats.vmcalls, 0);
        // Accessors degrade gracefully instead of panicking.
        assert!(res.cpuid().is_none());
        assert!(res.into_report().is_none());
        machine.clear_injector();
        let res = tdcall(
            &mut module,
            &mut machine,
            0,
            TdcallLeaf::VmCall(VmcallOp::Halt),
        )
        .unwrap();
        assert!(res.error().is_none());
    }

    #[test]
    fn status_codes_decode_to_error_classes() {
        assert_eq!(
            TdcallError::from_status(status::OPERAND_INVALID),
            TdcallError::InvalidOperand
        );
        assert_eq!(
            TdcallError::from_status(status::OPERAND_BUSY),
            TdcallError::Busy
        );
        assert_eq!(
            TdcallError::from_status(status::LEAF_NOT_SUPPORTED),
            TdcallError::LeafNotSupported
        );
        assert_eq!(
            TdcallError::from_status(0xdead_beef),
            TdcallError::LeafNotSupported,
            "unknown codes decode conservatively"
        );
        assert!(!TdcallError::InvalidOperand.retryable());
    }

    /// Injector contending with exactly one MapGPA conversion.
    struct SeptFlipper {
        armed: bool,
    }
    impl erebor_hw::inject::Injector for SeptFlipper {
        fn host_sept_flip(&mut self) -> bool {
            std::mem::take(&mut self.armed)
        }
    }

    #[test]
    fn host_contention_reverts_mapgpa_and_reports_busy() {
        let (mut module, mut machine) = setup();
        let f = machine.mem.alloc_frame().unwrap();
        machine.mem.write(f.base(), b"private secret").unwrap();
        machine.set_injector(erebor_hw::inject::handle(SeptFlipper { armed: true }));
        let res = tdcall(
            &mut module,
            &mut machine,
            0,
            TdcallLeaf::MapGpa {
                frame: f,
                shared: true,
            },
        )
        .unwrap();
        assert_eq!(res.error(), Some(TdcallError::Busy));
        // The conversion did not stick and nothing was scrubbed or leaked:
        // the frame is still private, contents intact, host cannot read it.
        assert!(!module.sept.is_shared(f));
        let mut buf = vec![0u8; 14];
        machine.mem.read(f.base(), &mut buf).unwrap();
        assert_eq!(&buf, b"private secret");
        assert!(module.host.read_guest(&machine.mem, &module.sept, f).is_err());
        // Retry (injector disarmed) completes and scrubs as usual.
        let res = tdcall(
            &mut module,
            &mut machine,
            0,
            TdcallLeaf::MapGpa {
                frame: f,
                shared: true,
            },
        )
        .unwrap();
        assert!(res.error().is_none());
        assert!(module.sept.is_shared(f));
    }

    #[test]
    fn ve_injection_counts() {
        let (mut module, mut machine) = setup();
        // No IDT loaded → delivery fails, but the counter still reflects
        // the injection attempt.
        let _ = module.inject_ve(&mut machine, 0, VeReason::Cpuid);
        assert_eq!(module.stats.ve_injected, 1);
    }

    #[test]
    fn async_exit_scrubs_host_visible_context() {
        let (mut module, mut machine) = setup();
        machine.cpus[0].ctx.gpr = [0x4242; 16];
        let host_view = module.async_exit_context_protect(&mut machine, 0);
        assert!(host_view.is_scrubbed());
        // The guest's real context is untouched.
        assert_eq!(machine.cpus[0].ctx.gpr[0], 0x4242);
    }
}
