//! Monitor-side event counters — the raw material for Table 6 and the
//! microbenchmark tables.

/// Counters the monitor maintains across its lifetime.
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

impl MonitorStats {
    /// Serialise the counters for migration: these are part of the TD's
    /// audit trail and travel with it.
    #[must_use]
    pub fn export_state(&self) -> Vec<u8> {
        let mut w = erebor_wire::WireWriter::new();
        for v in [
            self.emc_calls,
            self.pte_updates,
            self.cr_writes,
            self.msr_writes,
            self.idt_writes,
            self.user_copies,
            self.ghci_ops,
            self.sandbox_pf_exits,
            self.sandbox_timer_exits,
            self.sandbox_ve_exits,
            self.sandbox_syscall_exits,
            self.sandboxes_killed,
            self.emc_denied,
            self.cpuid_cached,
        ] {
            w.u64(v);
        }
        w.finish()
    }

    /// Rebuild counters from [`MonitorStats::export_state`] bytes.
    ///
    /// # Errors
    /// [`erebor_wire::WireError`] on truncation or trailing bytes.
    pub fn import_state(bytes: &[u8]) -> Result<MonitorStats, erebor_wire::WireError> {
        let mut r = erebor_wire::WireReader::new(bytes);
        let s = MonitorStats {
            emc_calls: r.u64()?,
            pte_updates: r.u64()?,
            cr_writes: r.u64()?,
            msr_writes: r.u64()?,
            idt_writes: r.u64()?,
            user_copies: r.u64()?,
            ghci_ops: r.u64()?,
            sandbox_pf_exits: r.u64()?,
            sandbox_timer_exits: r.u64()?,
            sandbox_ve_exits: r.u64()?,
            sandbox_syscall_exits: r.u64()?,
            sandboxes_killed: r.u64()?,
            emc_denied: r.u64()?,
            cpuid_cached: r.u64()?,
        };
        r.finish()?;
        Ok(s)
    }

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

    /// Fieldwise saturating difference `self - earlier`, for interval
    /// measurements between two snapshots.
    #[must_use]
    pub fn delta(&self, earlier: &MonitorStats) -> MonitorStats {
        MonitorStats {
            emc_calls: self.emc_calls.saturating_sub(earlier.emc_calls),
            pte_updates: self.pte_updates.saturating_sub(earlier.pte_updates),
            cr_writes: self.cr_writes.saturating_sub(earlier.cr_writes),
            msr_writes: self.msr_writes.saturating_sub(earlier.msr_writes),
            idt_writes: self.idt_writes.saturating_sub(earlier.idt_writes),
            user_copies: self.user_copies.saturating_sub(earlier.user_copies),
            ghci_ops: self.ghci_ops.saturating_sub(earlier.ghci_ops),
            sandbox_pf_exits: self.sandbox_pf_exits.saturating_sub(earlier.sandbox_pf_exits),
            sandbox_timer_exits: self
                .sandbox_timer_exits
                .saturating_sub(earlier.sandbox_timer_exits),
            sandbox_ve_exits: self.sandbox_ve_exits.saturating_sub(earlier.sandbox_ve_exits),
            sandbox_syscall_exits: self
                .sandbox_syscall_exits
                .saturating_sub(earlier.sandbox_syscall_exits),
            sandboxes_killed: self.sandboxes_killed.saturating_sub(earlier.sandboxes_killed),
            emc_denied: self.emc_denied.saturating_sub(earlier.emc_denied),
            cpuid_cached: self.cpuid_cached.saturating_sub(earlier.cpuid_cached),
        }
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
