//! Monitor-side event counters — the raw material for Table 6 and the
//! microbenchmark tables.

erebor_wire::counters! {
    /// Counters the monitor maintains across its lifetime. They are part
    /// of the TD's audit trail and travel with it on migration.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct MonitorStats {
        /// EMC round trips (Table 6 "EMC/s" numerator).
        pub emc_calls: u64,
        /// PTE installs/updates performed on behalf of the kernel.
        pub pte_updates: u64,
        /// CR writes delegated.
        pub cr_writes: u64,
        /// MSR writes delegated.
        pub msr_writes: u64,
        /// IDT entry updates delegated.
        pub idt_writes: u64,
        /// Monitor-emulated user-copy operations.
        pub user_copies: u64,
        /// GHCI (tdcall) operations performed for the kernel or channel.
        pub ghci_ops: u64,
        /// Sandbox exits interposed, by cause.
        pub sandbox_pf_exits: u64,
        /// Timer-interrupt exits interposed.
        pub sandbox_timer_exits: u64,
        /// `#VE` exits interposed.
        pub sandbox_ve_exits: u64,
        /// Syscall exits interposed.
        pub sandbox_syscall_exits: u64,
        /// Sandboxes killed for policy violations.
        pub sandboxes_killed: u64,
        /// Denied EMC requests (policy violations by the kernel).
        pub emc_denied: u64,
        /// cpuid requests served from the monitor's cache (§6.2).
        pub cpuid_cached: u64,
    }
}

impl MonitorStats {
    /// Total interposed sandbox exits. Saturating: a long-running machine
    /// with counters near `u64::MAX` must report a pinned total, not a
    /// wrapped (tiny) one.
    #[must_use]
    pub fn sandbox_total_exits(&self) -> u64 {
        self.sandbox_pf_exits
            .saturating_add(self.sandbox_timer_exits)
            .saturating_add(self.sandbox_ve_exits)
            .saturating_add(self.sandbox_syscall_exits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let s = MonitorStats {
            sandbox_pf_exits: 2,
            sandbox_timer_exits: 3,
            sandbox_ve_exits: 4,
            sandbox_syscall_exits: 1,
            ..MonitorStats::default()
        };
        assert_eq!(s.sandbox_total_exits(), 10);
    }

    #[test]
    fn total_exits_saturates_at_max() {
        // Regression: the old unchecked `+` chain wrapped (and panicked in
        // debug builds) once any addend pushed the sum past u64::MAX.
        let s = MonitorStats {
            sandbox_pf_exits: u64::MAX,
            sandbox_timer_exits: 1,
            sandbox_ve_exits: u64::MAX,
            sandbox_syscall_exits: 7,
            ..MonitorStats::default()
        };
        assert_eq!(s.sandbox_total_exits(), u64::MAX);
    }

    #[test]
    fn delta_saturates_instead_of_underflowing() {
        let earlier = MonitorStats {
            emc_calls: 10,
            ..MonitorStats::default()
        };
        let later = MonitorStats {
            emc_calls: 7, // e.g. counters reset between snapshots
            sandbox_pf_exits: 3,
            ..MonitorStats::default()
        };
        let d = later.delta(&earlier);
        assert_eq!(d.emc_calls, 0, "would have wrapped to huge value");
        assert_eq!(d.sandbox_pf_exits, 3);
    }
}
