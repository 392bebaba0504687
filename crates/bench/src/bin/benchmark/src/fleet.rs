//! `serve` and `churn`: the fleet campaign shape of `FleetConfig::full`
//! (768 sandboxes on a 10 GiB, 32-core TME-MK platform with 512-byte
//! reply padding), driven by the seeded `FleetDriver` schedule.

use std::collections::VecDeque;

use erebor::ecore::channel::Client;
use erebor::ehw::isolation::BackendKind;
use erebor::eworkloads::fleet::{splitmix64, FleetClass, FleetConfig, FleetDriver, FleetOp};
use erebor::eworkloads::SandboxedWorkload;
use erebor::{BootConfig, ExecConfig, Mode, Platform, PlatformError, ServiceInstance};

use crate::run::{
    platform_digest, platform_gauges, Extras, HostCounters, RunCfg, Sim, Tally, Workload,
};
use crate::spans::Tracer;

/// Requests per generated schedule chunk; the op stream draws chunk
/// after chunk, each seeded from the run seed and its index.
const CHUNK_REQUESTS: usize = 16_384;
/// Requests that follow each kill+redeploy on `churn`.
const REQUESTS_PER_CHURN: usize = 4;

/// A fleet-shaped platform configuration: TME-MK keyed isolation (the
/// fleet is far past the PKS key pool) and a small reply pad quantum.
pub fn boot_config(cores: usize, dram_bytes: u64) -> BootConfig {
    let mut config = ExecConfig::new(Mode::Full);
    config.output_pad_quantum = 512;
    config.backend = BackendKind::TmeMk;
    BootConfig {
        cores,
        dram_bytes,
        config,
        ..BootConfig::default()
    }
}

/// Deploy a fleet-class program into a fresh sandbox.
pub fn deploy(
    p: &mut Platform,
    class: FleetClass,
    private_pages: u64,
    budget_pages: u64,
    tr: &mut Tracer,
) -> Result<ServiceInstance, PlatformError> {
    let program = SandboxedWorkload::new(class.workload(private_pages));
    tr.span("platform", "deploy", |_| {
        p.deploy(Box::new(program), budget_pages)
    })
}

/// One request round trip. Traced, it makes the calls
/// `Platform::serve_request` is made of, one span each, so the host time
/// splits by layer; the simulated work is identical either way.
pub fn request(
    p: &mut Platform,
    svc: &mut ServiceInstance,
    client: &mut Client,
    payload: &[u8],
    tr: &mut Tracer,
) -> Result<Vec<u8>, PlatformError> {
    if !tr.on() {
        return p.serve_request(svc, client, payload);
    }
    tr.span("platform", "request", |tr| {
        tr.span("platform", "client_send", |_| {
            p.client_send(svc, client, payload)
        })?;
        let pid = svc.pid;
        let req = tr.span("libos", "input", |_| svc.os.input(&mut p.proc(pid)))?;
        let res = tr
            .span("workloads", "serve", |_| {
                svc.program.serve(&mut svc.os, &mut p.proc(pid), &req)
            })
            .map_err(PlatformError::Sys)?;
        tr.span("libos", "output", |_| svc.os.output(&mut p.proc(pid), &res))?;
        tr.span("platform", "client_recv", |_| p.client_recv(svc, client))
    })
}

/// Run one request and check its reply: a file server answers
/// `served=<bytes>` for `f=<bytes>`, the data services answer non-empty.
pub fn checked_request(
    p: &mut Platform,
    svc: &mut ServiceInstance,
    client: &mut Client,
    class: FleetClass,
    payload: &[u8],
    tr: &mut Tracer,
) -> Result<(), String> {
    let reply = request(p, svc, client, payload, tr).map_err(|e| format!("request: {e}"))?;
    let ok = match class {
        FleetClass::Nginx | FleetClass::Openssh => payload
            .strip_prefix(b"f=")
            .is_some_and(|n| reply.strip_prefix(b"served=") == Some(n)),
        FleetClass::Retrieval | FleetClass::Llm => !reply.is_empty(),
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{class:?} answered {:?} to {:?}",
            String::from_utf8_lossy(&reply),
            String::from_utf8_lossy(payload)
        ))
    }
}

/// The deployed fleet plus its pending op stream.
pub struct Fleet {
    p: Platform,
    shape: FleetConfig,
    churn: bool,
    seed: u64,
    chunk: u64,
    svcs: Vec<Option<ServiceInstance>>,
    classes: Vec<FleetClass>,
    clients: Vec<Option<Client>>,
    queue: VecDeque<FleetOp>,
}

impl Fleet {
    /// Boot, deploy every slot and connect every client slot.
    pub fn setup(cfg: &RunCfg, churn: bool, tr: &mut Tracer, tally: &mut Tally) -> Option<Fleet> {
        let (shape, boot) = if cfg.smoke {
            (FleetConfig::smoke(), boot_config(8, 512 << 20))
        } else {
            (FleetConfig::full(), boot_config(32, 10 << 30))
        };
        let p = tr.span("platform", "boot", |_| Platform::boot_with(boot));
        let mut f = Fleet {
            p: tally.record(p, "boot")?,
            shape,
            churn,
            seed: cfg.seed,
            chunk: 0,
            svcs: (0..shape.sandboxes).map(|_| None).collect(),
            classes: (0..shape.sandboxes).map(|s| shape.class_of(s)).collect(),
            clients: (0..shape.clients).map(|_| None).collect(),
            queue: VecDeque::new(),
        };
        // The generator's set-up prefix: every deploy, then every connect.
        let setup = FleetConfig {
            requests: 0,
            churn: 0,
            ..shape
        };
        for op in FleetDriver::new(setup).schedule() {
            match op {
                FleetOp::Deploy { slot, class } => {
                    let svc = deploy(&mut f.p, class, shape.private_pages, shape.budget_pages, tr);
                    f.svcs[slot] = tally.record(svc, "deploy");
                }
                FleetOp::Connect { slot } => {
                    let seed = [u8::try_from(slot & 0xff).expect("masked to a byte"); 32];
                    let client = match &f.svcs[slot] {
                        Some(svc) => {
                            tr.span("platform", "connect", |_| f.p.connect_client(svc, seed))
                        }
                        None => Err(PlatformError::Channel("slot never deployed")),
                    };
                    f.clients[slot] = tally.record(client, "connect");
                }
                FleetOp::Request { .. } | FleetOp::Churn { .. } => {}
            }
        }
        Some(f)
    }

    fn next_op(&mut self) -> FleetOp {
        if self.queue.is_empty() {
            let mut state = self.seed ^ self.chunk.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            self.chunk += 1;
            let churn = if self.churn {
                CHUNK_REQUESTS / REQUESTS_PER_CHURN
            } else {
                0
            };
            let cfg = FleetConfig {
                seed: splitmix64(&mut state),
                requests: CHUNK_REQUESTS,
                churn,
                ..self.shape
            };
            let ops = FleetDriver::new(cfg).schedule();
            self.queue.extend(
                ops.into_iter()
                    .filter(|o| matches!(o, FleetOp::Request { .. } | FleetOp::Churn { .. })),
            );
        }
        self.queue
            .pop_front()
            .expect("a generated chunk is never empty")
    }

    /// Execute one scheduled op; returns whether it was a churn.
    fn step(&mut self, tr: &mut Tracer, tally: &mut Tally) -> bool {
        match self.next_op() {
            FleetOp::Request { slot, payload } => {
                let class = self.classes[slot];
                let r = match (self.svcs[slot].as_mut(), self.clients[slot].as_mut()) {
                    (Some(svc), Some(client)) => {
                        checked_request(&mut self.p, svc, client, class, &payload, tr)
                    }
                    _ => Err(format!("slot {slot} has no live service")),
                };
                tally.record(r, "serve");
                false
            }
            FleetOp::Churn { slot, class } => {
                let killed = self.svcs[slot].take().map(|old| {
                    let (monitor, machine) = (&mut self.p.cvm.monitor, &mut self.p.cvm.machine);
                    tr.span("core", "kill", |_| {
                        monitor.kill_sandbox(machine, old.sandbox, "benchmark churn");
                        drop(old);
                    });
                });
                tally.check(killed.is_some(), || {
                    format!("churn victim {slot} was not live")
                });
                let svc = deploy(
                    &mut self.p,
                    class,
                    self.shape.private_pages,
                    self.shape.budget_pages,
                    tr,
                );
                self.svcs[slot] = tally.record(svc, "redeploy");
                self.classes[slot] = class;
                true
            }
            FleetOp::Deploy { .. } | FleetOp::Connect { .. } => false,
        }
    }
}

impl Workload for Fleet {
    /// `serve`: one request. `churn`: the requests up to and including
    /// the next kill+redeploy (four requests, then the churn).
    fn op(&mut self, _i: u64, tr: &mut Tracer, tally: &mut Tally) -> Sim {
        let before = self.p.snapshot();
        if self.churn {
            while !self.step(tr, tally) {}
        } else {
            self.step(tr, tally);
        }
        Sim::of(&self.p.snapshot().delta(&before))
    }

    fn host_counters(&self) -> HostCounters {
        HostCounters {
            words_scanned: self.p.alloc_stats().words_scanned,
            trace_records: self.p.cvm.machine.trace.recorded(),
        }
    }

    fn sim_digest(&self) -> u64 {
        platform_digest(&self.p)
    }

    fn finish(&mut self, _tally: &mut Tally, extras: &mut Extras) {
        platform_gauges(&self.p, extras);
    }
}
