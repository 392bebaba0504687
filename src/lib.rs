//! # erebor — the user-facing facade
//!
//! Reproduction of *"Erebor: A Drop-In Sandbox Solution for Private Data
//! Processing in Untrusted Confidential Virtual Machines"* (EuroSys 2025)
//! as a deterministic full-platform simulation.
//!
//! This crate assembles the layered reproduction into a runnable
//! [`Platform`]:
//!
//! * [`erebor_hw`] — the simulated CPU/MMU/PKS/CET hardware
//! * [`erebor_tdx`] — the TDX module, sEPT, attestation, untrusted host
//! * [`erebor_crypto`] — from-scratch RFC-checked crypto
//! * [`erebor_core`] — EREBOR-MONITOR and EREBOR-SANDBOX (the paper's
//!   contribution)
//! * [`erebor_kernel`] — the deprivileged guest kernel
//! * [`erebor_libos`] — the Gramine-like LibOS
//! * [`erebor_workloads`] — the evaluation workloads

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod platform;
pub mod runner;

pub use erebor_core::config::{ExecConfig, Mode};
pub use erebor_core::{BootConfig, Cvm};
pub use erebor_trace::{Attribution, Bucket, TraceBuffer, TraceEvent, TraceRecord};
pub use erebor_tdx::migrate::{MigrationError, MigrationKey};
pub use platform::{
    DriverState, MigrationOffer, MigrationReport, OutboundMigration, Platform, PlatformError,
    ProcHandle, ServiceInstance, Snapshot,
};
pub use runner::{run_workload, run_workload_on, RunReport};

pub use erebor_analyze as eanalyze;
pub use erebor_core as ecore;
pub use erebor_crypto as crypto;
pub use erebor_hw as ehw;
pub use erebor_kernel as ekernel;
pub use erebor_libos as elibos;
pub use erebor_tdx as etdx;
pub use erebor_workloads as eworkloads;
