//! # erebor-workloads — the evaluation workloads
//!
//! Faithful workload *kernels* for the paper's evaluation (§9, Table 5):
//! each reproduces the system-event pattern (page faults, timers, #VE,
//! syscalls, synchronization) and the computation style of the original
//! application, scaled to simulator-friendly sizes. Logical memory sizes
//! are declared at paper scale for Table 6 reporting.
//!
//! * [`llm`] — llama.cpp-style LLM inference (common model, confined KV)
//! * [`imgproc`] — YOLO-style image segmentation (real convolutions)
//! * [`retrieval`] — DrugBank-style in-memory information retrieval
//! * [`graph`] — GraphChi-style PageRank (real iteration)
//! * [`ids`] — Unicorn-style provenance-sketch intrusion detection
//! * [`hello`] — the artifact's Helloworld demo sandbox (E2)
//! * [`lmbench`] — the LMBench-style microbenchmarks of Fig. 8
//! * [`servers`] — OpenSSH/Nginx-style background programs of Fig. 10
//!
//! Workloads run against the [`env::Env`] abstraction, which has a
//! sandboxed implementation (LibOS-backed) and a native one (plain
//! syscalls + mmap) so the same workload measures every Fig. 9
//! configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod env;
pub mod fleet;
pub mod graph;
pub mod hello;
pub mod ids;
pub mod imgproc;
pub mod llm;
pub mod lmbench;
pub mod retrieval;
pub mod servers;

pub use env::{
    Env, NativeEnv, NativeState, SandboxEnv, SandboxedWorkload, Workload, WorkloadParams,
};
