//! Execution configurations for the paper's ablation study (§9,
//! "Evaluation settings").

use crate::emc::EmcRequest;
use erebor_hw::isolation::BackendKind;

/// Which protection layers are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Plain CVM: no monitor, the kernel keeps its privileges. The paper's
    /// "Native" baseline.
    Native,
    /// Normal CVM (no monitor) with applications running under the LibOS
    /// ("Erebor-LibOS-only", §9: "running applications in a normal CVM
    /// with LibOS").
    LibOsOnly,
    /// LibOS + sandbox memory-view isolation (§6.1) only
    /// ("Erebor-LibOS-MMU").
    LibOsMmu,
    /// LibOS + sandbox exit protection (§6.2) only ("Erebor-LibOS-Exit").
    LibOsExit,
    /// The full system.
    Full,
}

erebor_wire::wire_enum!(Mode {
    Native = 0,
    LibOsOnly = 1,
    LibOsMmu = 2,
    LibOsExit = 3,
    Full = 4
});

impl Mode {
    /// All modes in evaluation order.
    pub const ALL: [Mode; 5] = [
        Mode::Native,
        Mode::LibOsOnly,
        Mode::LibOsMmu,
        Mode::LibOsExit,
        Mode::Full,
    ];

    /// Short label used in tables and figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mode::Native => "Native",
            Mode::LibOsOnly => "LibOS-only",
            Mode::LibOsMmu => "LibOS-MMU",
            Mode::LibOsExit => "LibOS-Exit",
            Mode::Full => "Erebor",
        }
    }
}

/// Platform-wide execution configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Protection mode.
    pub mode: Mode,
    /// Whether CET shadow stacks are enabled (the paper's prototype omits
    /// them — kernel support was in flux, §7 "Limitations" — so the
    /// default matches the paper: IBT only).
    pub shadow_stacks: bool,
    /// Timer interrupt period in simulated cycles (APIC timer quantum).
    pub timer_quantum_cycles: u64,
    /// Output records are padded to multiples of this many bytes (§6.3).
    pub output_pad_quantum: usize,
    /// Optional leakage-free quantized output intervals (§11): result
    /// records leave only at multiples of this many cycles.
    pub output_interval_cycles: Option<u64>,
    /// Batched MMU updates (§9.1's suggested optimization): range requests
    /// amortize one EMC over many PTE installs.
    pub batched_mmu: bool,
    /// Which isolation backend tags confined memory: PKS protection keys
    /// (the paper's mechanism, ≤16 domains) or TME-MK keyed memory
    /// (per-frame key-IDs, ≤4096 domains).
    pub backend: BackendKind,
}

// A TD migrates *with* its ablation switches: the destination must run
// the same protection layers or the trace would diverge immediately.
erebor_wire::wire_struct!(ExecConfig {
    mode,
    shadow_stacks,
    timer_quantum_cycles,
    output_pad_quantum,
    output_interval_cycles,
    batched_mmu,
    backend
});

impl ExecConfig {
    /// Configuration for a given mode with paper-matched defaults.
    #[must_use]
    pub fn new(mode: Mode) -> ExecConfig {
        ExecConfig {
            mode,
            shadow_stacks: false,
            // ~1 kHz APIC timer at the simulated 2.1 GHz clock.
            timer_quantum_cycles: 2_100_000,
            output_pad_quantum: 4096,
            output_interval_cycles: None,
            batched_mmu: false,
            backend: BackendKind::Pks,
        }
    }

    /// Whether a monitor exists at all (the LibOS-only baseline runs in a
    /// normal CVM without one).
    #[must_use]
    pub fn monitor_present(self) -> bool {
        matches!(self.mode, Mode::LibOsMmu | Mode::LibOsExit | Mode::Full)
    }

    /// Whether sandbox memory-view isolation (§6.1) is enforced.
    #[must_use]
    pub fn mmu_protection(self) -> bool {
        matches!(self.mode, Mode::LibOsMmu | Mode::Full)
    }

    /// Whether sandbox exit protection (§6.2) is enforced.
    #[must_use]
    pub fn exit_protection(self) -> bool {
        matches!(self.mode, Mode::LibOsExit | Mode::Full)
    }

    /// Whether the kernel performs `req` through EMC (§5.3, Table 2)
    /// rather than natively. Address spaces, PTE updates, CR3 switches and
    /// user copies are delegated where the monitor isolates sandbox memory
    /// (§6.1), the batched `MapUserRange` only when batching is on too, and
    /// every other class whenever a monitor is present (system-wide, §9.3).
    #[must_use]
    pub fn delegates(self, req: &EmcRequest) -> bool {
        match req {
            EmcRequest::MapUserRange { .. } => self.mmu_protection() && self.batched_mmu,
            EmcRequest::CreateAddressSpace { .. }
            | EmcRequest::SwitchAddressSpace { .. }
            | EmcRequest::MapUserPage { .. }
            | EmcRequest::UnmapUserPage { .. }
            | EmcRequest::ProtectUserPage { .. }
            | EmcRequest::UserCopy { .. } => self.mmu_protection(),
            _ => self.monitor_present(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_matrix() {
        assert!(!ExecConfig::new(Mode::Native).monitor_present());
        assert!(!ExecConfig::new(Mode::LibOsOnly).monitor_present());
        assert!(ExecConfig::new(Mode::LibOsMmu).monitor_present());
        assert!(!ExecConfig::new(Mode::LibOsOnly).mmu_protection());
        assert!(ExecConfig::new(Mode::LibOsMmu).mmu_protection());
        assert!(!ExecConfig::new(Mode::LibOsMmu).exit_protection());
        assert!(ExecConfig::new(Mode::LibOsExit).exit_protection());
        assert!(ExecConfig::new(Mode::Full).mmu_protection());
        assert!(ExecConfig::new(Mode::Full).exit_protection());
        let cr3 = EmcRequest::SwitchAddressSpace {
            root: erebor_hw::Frame(1),
        };
        let range = EmcRequest::MapUserRange {
            root: erebor_hw::Frame(1),
            va: erebor_hw::VirtAddr(0x1000),
            pages: 2,
            writable: true,
        };
        let msr = EmcRequest::WrMsr {
            msr: erebor_hw::regs::Msr::Fmask,
            value: 0,
        };
        let batched = |mode| ExecConfig {
            batched_mmu: true,
            ..ExecConfig::new(mode)
        };
        for mode in Mode::ALL {
            let cfg = ExecConfig::new(mode);
            assert_eq!(cfg.delegates(&cr3), cfg.mmu_protection(), "{mode:?}");
            assert_eq!(cfg.delegates(&msr), cfg.monitor_present(), "{mode:?}");
            assert!(!cfg.delegates(&range), "{mode:?}");
            assert_eq!(
                batched(mode).delegates(&range),
                cfg.mmu_protection(),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> = Mode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), Mode::ALL.len());
    }
}
