//! `audit` and `migrate`: a 64-sandbox TD (512 MiB, 8 cores, TME-MK) of
//! alternating Nginx/OpenSSH servers, each with 96 private pages, every
//! one connected and warmed with four requests during set-up.

use std::time::Instant;

use erebor::ecore::channel::Client;
use erebor::eworkloads::fleet::{splitmix64, FleetClass};
use erebor::{BootConfig, MigrationKey, Platform, PlatformError, ServiceInstance};

use crate::fleet::{boot_config, checked_request, deploy};
use crate::run::{
    platform_digest, platform_gauges, Extras, HostCounters, RunCfg, Sim, Tally, Workload,
};
use crate::spans::Tracer;

/// Requests served before each audit or migration.
const REQUESTS_PER_OP: usize = 4;
/// File sizes of the warm-up requests, picked per request from the seed.
const FILE_SIZES: [u64; 3] = [4 << 10, 16 << 10, 64 << 10];
/// File size of the requests between audits or migrations.
const OP_REQUEST_BYTES: u64 = 16 << 10;
/// Confined budget per sandbox.
const BUDGET_PAGES: u64 = 4096;

/// The TD and the workload-specific accounting.
pub struct Td {
    p: Platform,
    boot: BootConfig,
    svcs: Vec<ServiceInstance>,
    clients: Vec<Client>,
    classes: Vec<FleetClass>,
    rng: u64,
    next_slot: usize,
    migrate: bool,
    src_key: MigrationKey,
    dest_key: MigrationKey,
    /// Completed audits or migration trips.
    done: u64,
    /// Audit: roots walked, PTE reads, leaf mappings, host seconds.
    audit_sums: (u64, u64, u64, f64),
    /// Migration: pages, records and stream bytes.
    trip_sums: (u64, u64, u64),
    /// The latest imported destination, checked at the end of the run.
    last_dest: Option<Platform>,
}

impl Td {
    /// Boot the TD, deploy and connect every sandbox, serve the warm-up.
    pub fn setup(cfg: &RunCfg, migrate: bool, tr: &mut Tracer, tally: &mut Tally) -> Option<Td> {
        let (sandboxes, private_pages, boot) = if cfg.smoke {
            (8, 16, boot_config(4, 256 << 20))
        } else {
            (64, 96, boot_config(8, 512 << 20))
        };
        let p = tr.span("platform", "boot", |_| Platform::boot_with(boot));
        let key = |tag: u64| {
            let mut s = cfg.seed ^ tag;
            let mut k = [0u8; 32];
            for chunk in k.chunks_mut(8) {
                chunk.copy_from_slice(&splitmix64(&mut s).to_le_bytes());
            }
            MigrationKey::from_seed(k)
        };
        let mut td = Td {
            p: tally.record(p, "boot")?,
            boot,
            svcs: Vec::new(),
            clients: Vec::new(),
            classes: Vec::new(),
            rng: cfg.seed,
            next_slot: 0,
            migrate,
            src_key: key(0x5C),
            dest_key: key(0xDE),
            done: 0,
            audit_sums: (0, 0, 0, 0.0),
            trip_sums: (0, 0, 0),
            last_dest: None,
        };
        for slot in 0..sandboxes {
            let class = if slot % 2 == 0 {
                FleetClass::Nginx
            } else {
                FleetClass::Openssh
            };
            let svc = deploy(&mut td.p, class, private_pages, BUDGET_PAGES, tr);
            let svc = tally.record(svc, "deploy")?;
            let seed = [u8::try_from(slot + 1).expect("at most 64 slots"); 32];
            let client = tr.span("platform", "connect", |_| td.p.connect_client(&svc, seed));
            td.clients.push(tally.record(client, "connect")?);
            td.svcs.push(svc);
            td.classes.push(class);
        }
        for slot in 0..sandboxes {
            for _ in 0..REQUESTS_PER_OP {
                let size = FILE_SIZES[(splitmix64(&mut td.rng) % 3) as usize];
                td.request(slot, size, tr, tally);
            }
        }
        td.next_slot = (splitmix64(&mut td.rng) % sandboxes as u64) as usize;
        Some(td)
    }

    fn request(&mut self, slot: usize, size: u64, tr: &mut Tracer, tally: &mut Tally) {
        let payload = format!("f={size}");
        let r = checked_request(
            &mut self.p,
            &mut self.svcs[slot],
            &mut self.clients[slot],
            self.classes[slot],
            payload.as_bytes(),
            tr,
        );
        tally.record(r, "serve");
    }

    fn audit(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        let t = Instant::now();
        let report = tr.span("analyze", "audit", |_| self.p.audit());
        let secs = t.elapsed().as_secs_f64();
        let s = &mut self.audit_sums;
        s.0 += report.roots_walked;
        s.1 += report.pte_reads;
        s.2 += report.leaf_mappings;
        s.3 += secs;
        tally.check(report.is_clean(), || {
            format!("audit {}: {} finding(s)", self.done, report.findings.len())
        });
    }

    /// One round trip to a freshly booted destination: offer, export,
    /// import. The first destination's trace must equal the source's.
    fn migrate(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        self.last_dest = None;
        let dest = tr.span("platform", "boot", |_| Platform::boot_with(self.boot));
        let Some(mut dest) = tally.record(dest, "destination boot") else {
            return;
        };
        let src_pub = self.src_key.public();
        let offer = tr.span("tdx", "offer", |_| {
            dest.migration_offer(&self.dest_key, &src_pub)
        });
        let out = tr.span("tdx", "migrate_to", |_| {
            self.p.migrate_to(&self.src_key, &offer)
        });
        let Some((records, report)) = tally.record(out, "migrate_to") else {
            return;
        };
        let imported: Result<(), PlatformError> = tr.span("tdx", "migrate_from", |_| {
            dest.migrate_from(&self.dest_key, src_pub, &records)
        });
        if tally.record(imported, "migrate_from").is_none() {
            return;
        }
        let s = &mut self.trip_sums;
        s.0 += report.precopy_pages + report.stopcopy_pages;
        s.1 += report.records_sealed;
        s.2 += records.iter().map(|r| r.len() as u64).sum::<u64>();
        if self.done == 0 {
            tally.check(dest.trace_json() == self.p.trace_json(), || {
                "first migrated destination's trace differs from the source".into()
            });
        }
        self.last_dest = Some(dest);
    }
}

impl Workload for Td {
    /// Four 16 KiB requests on the next slots round-robin (from a seeded
    /// starting slot), then one audit or migration. Consecutive slots
    /// alternate Nginx and OpenSSH, so every op serves the same mix and
    /// its simulated cost barely depends on where the rotation starts.
    fn op(&mut self, _i: u64, tr: &mut Tracer, tally: &mut Tally) -> Sim {
        let before = self.p.snapshot();
        for _ in 0..REQUESTS_PER_OP {
            self.next_slot = (self.next_slot + 1) % self.svcs.len();
            self.request(self.next_slot, OP_REQUEST_BYTES, tr, tally);
        }
        if self.migrate {
            self.migrate(tr, tally);
        } else {
            self.audit(tr, tally);
        }
        self.done += 1;
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

    /// The last destination imported the source as it still is (nothing
    /// ran since), so its trace must match and its state must audit clean.
    fn finish(&mut self, tally: &mut Tally, extras: &mut Extras) {
        platform_gauges(&self.p, extras);
        let n = self.done.max(1) as f64;
        if self.migrate {
            if let Some(dest) = self.last_dest.take() {
                tally.check(dest.trace_json() == self.p.trace_json(), || {
                    "last migrated destination's trace differs from the source".into()
                });
                let report = dest.audit();
                tally.check(report.is_clean(), || {
                    format!(
                        "migrated destination: {} audit finding(s)",
                        report.findings.len()
                    )
                });
            }
            let (pages, records, bytes) = self.trip_sums;
            extras.insert("migrate.pages_per_trip".into(), pages as f64 / n);
            extras.insert("migrate.records_per_trip".into(), records as f64 / n);
            extras.insert(
                "migrate.stream_kib_per_trip".into(),
                bytes as f64 / 1024.0 / n,
            );
        } else {
            let (roots, ptes, leaves, secs) = self.audit_sums;
            extras.insert("analyze.roots_walked".into(), roots as f64 / n);
            extras.insert("analyze.pte_reads".into(), ptes as f64 / n);
            extras.insert("analyze.leaf_mappings".into(), leaves as f64 / n);
            extras.insert(
                "analyze.pte_reads_per_s".into(),
                ptes as f64 / secs.max(1e-9),
            );
        }
    }
}
