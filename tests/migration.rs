//! TD live migration end to end (ISSUE 9 acceptance).
//!
//! The scenario: a running platform exports its full TD state — sEPT,
//! pinned MSRs, monitor state, the EMC ledger, per-frame tags, the
//! domain-pool live set — over the attested, AEAD-sealed record stream,
//! with dirty-page pre-copy and a bounded stop-and-copy; the destination
//! imports it atomically. Asserted here:
//!
//! * **Equivalence** — a same-seed run that migrates mid-stream produces
//!   byte-identical trace JSON to one that never migrates.
//! * **Fresh counters** — non-architectural stats (allocator scans)
//!   start at zero on the destination while architectural state is
//!   byte-identical.
//! * **Domain pool** — the live set and LIFO recycle list round-trip
//!   exactly under both isolation backends: a domain freed on the source
//!   is the next one handed out on the destination.
//! * **Chaos** — a ≥200-case campaign of dropped, duplicated, reordered,
//!   corrupted and truncated records: every fault is a typed abort, the
//!   destination is never half-imported, the source stays auditable.
//! * **Fleet** — a migrated 64-sandbox fleet audits clean (C1–C8).

use erebor::ecore::channel::Client;
use erebor::ehw::isolation::BackendKind;
use erebor::elibos::api::{Sys, SysError};
use erebor::{
    BootConfig, ExecConfig, MigrationError, MigrationKey, Mode, Platform, PlatformError,
    ServiceInstance,
};
use erebor_crypto::frame::FrameError;
use erebor_testkit::rng::TestRng;
use erebor_workloads::hello::HelloWorld;

fn boot(seed: u64, backend: BackendKind) -> Platform {
    let mut config = ExecConfig::new(Mode::Full);
    config.backend = backend;
    Platform::boot_with(BootConfig {
        seed,
        config,
        ..BootConfig::default()
    })
    .expect("boot")
}

/// Deploy one HelloWorld service and attest a client for it.
fn deploy(p: &mut Platform, key_seed: u8) -> (ServiceInstance, Client) {
    let svc = p
        .deploy(Box::new(HelloWorld { len: 4 }), 4096)
        .expect("deploy");
    let client = p.connect_client(&svc, [key_seed; 32]).expect("attest");
    (svc, client)
}

fn serve(p: &mut Platform, svc: &mut ServiceInstance, client: &mut Client, req: &[u8]) -> Vec<u8> {
    p.serve_request(svc, client, req).expect("serve")
}

/// Run one full outbound migration into a freshly booted destination of
/// the same configuration; returns the destination.
fn migrate(src: &mut Platform, seed: u64, backend: BackendKind) -> Platform {
    let mut dest = boot(seed, backend);
    let src_key = MigrationKey::from_seed([0x51; 32]);
    let dest_key = MigrationKey::from_seed([0xD5; 32]);
    let offer = dest.migration_offer(&dest_key, &src_key.public());
    let (records, report) = src.migrate_to(&src_key, &offer).expect("migrate out");
    assert_eq!(report.records_sealed, records.len() as u64);
    assert_eq!(report.sections, 7, "all state sections must travel");
    assert!(report.precopy_pages > 0, "resident sweep must send pages");
    dest.migrate_from(&dest_key, src_key.public(), &records)
        .expect("migrate in");
    dest
}

// ====================================================================
// Equivalence: migration is invisible to a same-seed run
// ====================================================================

#[test]
fn migrated_run_matches_unmigrated_run_byte_for_byte() {
    let seed = 0xE9E9;
    let phase1 = |p: &mut Platform| {
        let (mut svc, mut client) = deploy(p, 7);
        serve(p, &mut svc, &mut client, b"alpha");
        serve(p, &mut svc, &mut client, b"beta");
        (svc, client)
    };
    let phase2 = |p: &mut Platform, svc: &mut ServiceInstance, client: &mut Client| {
        serve(p, svc, client, b"gamma");
        serve(p, svc, client, b"delta");
    };

    // Control: never migrates.
    let mut control = boot(seed, BackendKind::Pks);
    let (mut csvc, mut cclient) = phase1(&mut control);
    phase2(&mut control, &mut csvc, &mut cclient);

    // Subject: migrates between the phases; phase 2 runs on the
    // imported destination with the *same* client and service handles.
    let mut src = boot(seed, BackendKind::Pks);
    let (mut svc, mut client) = phase1(&mut src);
    let mut dest = migrate(&mut src, seed, BackendKind::Pks);
    phase2(&mut dest, &mut svc, &mut client);

    assert_eq!(
        dest.trace_json(),
        control.trace_json(),
        "migration must be invisible to the trace"
    );
    assert!(src.audit().is_clean(), "source stays auditable after export");
    assert!(dest.audit().is_clean(), "imported platform audits clean");
}

/// Pre-copy proper: the guest keeps serving between `migrate_begin` and
/// `migrate_finish`; the dirtied pages travel in a later round and the
/// destination still lands byte-identical to the (still running) source.
#[test]
fn precopy_rounds_capture_pages_dirtied_in_flight() {
    let seed = 0xFACE;
    let mut src = boot(seed, BackendKind::Pks);
    let (mut svc, mut client) = deploy(&mut src, 9);
    serve(&mut src, &mut svc, &mut client, b"warm");

    let mut dest = boot(seed, BackendKind::Pks);
    let src_key = MigrationKey::from_seed([0x11; 32]);
    let dest_key = MigrationKey::from_seed([0x22; 32]);
    let offer = dest.migration_offer(&dest_key, &src_key.public());

    let (mut mig, mut records) = src.migrate_begin(&src_key, &offer).expect("begin");
    // The guest runs on while pre-copy is in flight and dirties pages.
    serve(&mut src, &mut svc, &mut client, b"mid-flight");
    let round = src.migrate_precopy_round(&mut mig).expect("round");
    assert!(
        !round.is_empty(),
        "serving a request must have dirtied pages"
    );
    records.extend(round);
    let (tail, report) = src.migrate_finish(mig).expect("finish");
    records.extend(tail);
    assert_eq!(report.precopy_rounds, 1);

    dest.migrate_from(&dest_key, src_key.public(), &records)
        .expect("import");
    assert_eq!(
        dest.trace_json(),
        src.trace_json(),
        "destination must equal the quiesced source exactly"
    );
    assert!(dest.audit().is_clean());
}

// ====================================================================
// Satellite 2: non-architectural counters start fresh
// ====================================================================

#[test]
fn migrated_counters_start_fresh_while_architecture_is_identical() {
    let seed = 0xC0DE;
    let mut src = boot(seed, BackendKind::Pks);
    let (mut svc, mut client) = deploy(&mut src, 3);
    serve(&mut src, &mut svc, &mut client, b"count me");
    assert!(
        src.alloc_stats().allocs > 0,
        "workload must exercise the allocator"
    );

    let mut dest = boot(seed, BackendKind::Pks);
    let src_key = MigrationKey::from_seed([0x33; 32]);
    let dest_key = MigrationKey::from_seed([0x44; 32]);
    let offer = dest.migration_offer(&dest_key, &src_key.public());
    let (records, _) = src.migrate_to(&src_key, &offer).expect("out");
    dest.migrate_from(&dest_key, src_key.public(), &records)
        .expect("in");

    // Non-architectural: zeroed on the destination.
    assert_eq!(dest.alloc_stats(), Default::default());

    // Architectural: identical (all counters, cycles and attribution).
    let s = src.snapshot();
    let d = dest.snapshot();
    assert_eq!(d.cycles, s.cycles);
    assert_eq!(format!("{d:?}"), format!("{s:?}"));
    assert_eq!(dest.trace_json(), src.trace_json());
}

// ====================================================================
// Satellite 3: domain pool (live set + LIFO recycle) round-trips
// ====================================================================

#[test]
fn domain_pool_recycle_list_survives_migration_on_both_backends() {
    for backend in [BackendKind::Pks, BackendKind::TmeMk] {
        let seed = 0xD0A1;
        let mut src = boot(seed, backend);
        let (svc_a, _ca) = deploy(&mut src, 1);
        let (svc_b, _cb) = deploy(&mut src, 2);
        let (svc_c, _cc) = deploy(&mut src, 3);
        let freed_domain = src
            .cvm
            .monitor
            .sandboxes
            .get(&svc_b.sandbox.0)
            .expect("sandbox b")
            .domain;
        src.cvm
            .monitor
            .kill_sandbox(&mut src.cvm.machine, svc_b.sandbox, "recycle test");

        let mut dest = migrate(&mut src, seed, backend);

        // The freed domain is at the head of the migrated LIFO recycle
        // list: the next sandbox on the destination must reuse exactly
        // it — and so must the (unmigrated) source, identically.
        let (svc_d_dest, _cd) = deploy(&mut dest, 4);
        let reused_dest = dest
            .cvm
            .monitor
            .sandboxes
            .get(&svc_d_dest.sandbox.0)
            .expect("sandbox d (dest)")
            .domain;
        let (svc_d_src, _cs) = deploy(&mut src, 4);
        let reused_src = src
            .cvm
            .monitor
            .sandboxes
            .get(&svc_d_src.sandbox.0)
            .expect("sandbox d (src)")
            .domain;
        assert_eq!(
            reused_dest, freed_domain,
            "{backend:?}: destination must recycle the freed domain"
        );
        assert_eq!(
            reused_src, reused_dest,
            "{backend:?}: source and destination recycle identically"
        );
        assert!(dest.audit().is_clean());
        assert!(src.audit().is_clean());
        // The live sandboxes are intact on the destination.
        for svc in [&svc_a, &svc_c] {
            assert!(
                dest.cvm.monitor.sandboxes.get(&svc.sandbox.0).is_some(),
                "{backend:?}: live sandbox missing after import"
            );
        }
    }
}

// ====================================================================
// Kill on the destination: a migrated sandbox still dies cleanly
// ====================================================================

#[test]
fn migrated_sandbox_can_be_killed_and_stays_dead() {
    let seed = 0xDEAD;
    let mut src = boot(seed, BackendKind::Pks);
    let (mut svc, mut client) = deploy(&mut src, 5);
    serve(&mut src, &mut svc, &mut client, b"pre");
    let mut dest = migrate(&mut src, seed, BackendKind::Pks);
    dest.cvm
        .monitor
        .kill_sandbox(&mut dest.cvm.machine, svc.sandbox, "post-migration kill");
    let r = dest.serve_request(&mut svc, &mut client, b"post");
    assert!(
        matches!(r, Err(PlatformError::Sys(SysError::Killed(_))) | Err(_)),
        "a killed migrated sandbox must not serve"
    );
    assert!(dest.audit().is_clean());
}

// ====================================================================
// Chaos: every damaged stream is a typed abort, never a half-import
// ====================================================================

#[derive(Debug, Clone, Copy)]
enum Damage {
    Drop(usize),
    Duplicate(usize),
    Swap(usize),
    FlipBit(usize, usize),
    Truncate(usize, usize),
}

fn apply(records: &[Vec<u8>], damage: Damage) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = records.to_vec();
    match damage {
        Damage::Drop(i) => {
            out.remove(i);
        }
        Damage::Duplicate(i) => {
            out.insert(i + 1, out[i].clone());
        }
        Damage::Swap(i) => out.swap(i, i + 1),
        Damage::FlipBit(i, bit) => {
            let rec = &mut out[i];
            let b = bit % (rec.len() * 8);
            rec[b / 8] ^= 1 << (b % 8);
        }
        Damage::Truncate(i, keep) => {
            let rec = &mut out[i];
            let keep = keep % rec.len();
            rec.truncate(keep);
        }
    }
    out
}

/// ≥200 damaged streams (override with `EREBOR_CHAOS_CASES`): every one
/// must abort with a typed [`MigrationError`], the destination must be
/// byte-identical to its pre-import self afterwards, and a clean import
/// must still succeed at the end. The source is never touched by any of
/// it and audits clean throughout.
#[test]
fn chaos_campaign_every_fault_is_typed_and_atomic() {
    let cases: u64 = std::env::var("EREBOR_CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(240);
    let seed = 0xCAF3;
    let mut src = boot(seed, BackendKind::Pks);
    let (mut svc, mut client) = deploy(&mut src, 8);
    serve(&mut src, &mut svc, &mut client, b"busy");

    let mut dest = boot(seed, BackendKind::Pks);
    let src_key = MigrationKey::from_seed([0x77; 32]);
    let dest_key = MigrationKey::from_seed([0x88; 32]);
    let offer = dest.migration_offer(&dest_key, &src_key.public());
    let (records, _) = src.migrate_to(&src_key, &offer).expect("clean stream");
    assert!(records.len() > 12, "need a stream worth damaging");

    let pristine_dest = dest.trace_json();
    let source_audit_before = src.audit();
    assert!(source_audit_before.is_clean());

    let mut rng = TestRng::seed_from_u64(0x4D49_4752);
    let n = records.len();
    for case in 0..cases {
        let damage = match rng.below(5) {
            0 => Damage::Drop(rng.below(n as u64 - 1) as usize),
            1 => Damage::Duplicate(rng.below(n as u64 - 1) as usize),
            2 => Damage::Swap(rng.below(n as u64 - 1) as usize),
            3 => Damage::FlipBit(
                rng.below(n as u64) as usize,
                rng.below(1 << 16) as usize,
            ),
            _ => Damage::Truncate(rng.below(n as u64) as usize, rng.below(1 << 12) as usize),
        };
        let damaged = apply(&records, damage);
        let err = dest
            .migrate_from(&dest_key, src_key.public(), &damaged)
            .expect_err("damaged stream must abort");
        let PlatformError::Migration(mig_err) = err else {
            panic!("case {case} ({damage:?}): non-migration error {err}");
        };
        // The abort is *typed*: the damage class maps to the expected
        // channel/protocol verdict.
        match damage {
            Damage::Duplicate(_) => assert!(
                matches!(mig_err, MigrationError::Channel(FrameError::Replay { .. })),
                "case {case} ({damage:?}): got {mig_err:?}"
            ),
            Damage::Swap(_) => assert!(
                matches!(
                    mig_err,
                    MigrationError::Channel(FrameError::OutOfOrder { .. })
                ),
                "case {case} ({damage:?}): got {mig_err:?}"
            ),
            Damage::Drop(_) => assert!(
                matches!(
                    mig_err,
                    MigrationError::Channel(FrameError::OutOfOrder { .. })
                        | MigrationError::Protocol(_)
                ),
                "case {case} ({damage:?}): got {mig_err:?}"
            ),
            Damage::FlipBit(..) | Damage::Truncate(..) => assert!(
                matches!(
                    mig_err,
                    MigrationError::Channel(_)
                        | MigrationError::Decode(_)
                        | MigrationError::Protocol(_)
                        | MigrationError::Incomplete { .. }
                ),
                "case {case} ({damage:?}): got {mig_err:?}"
            ),
        }
        // Atomicity: the destination is exactly its booted self.
        assert_eq!(
            dest.trace_json(),
            pristine_dest,
            "case {case} ({damage:?}): destination mutated by a failed import"
        );
    }

    // The source was never involved in the damage: still clean, still live.
    assert!(src.audit().is_clean());
    serve(&mut src, &mut svc, &mut client, b"still alive");

    // And the pristine stream still imports into the battered destination.
    dest.migrate_from(&dest_key, src_key.public(), &records)
        .expect("clean import after campaign");
    assert!(dest.audit().is_clean());
}

// ====================================================================
// Fleet: a migrated 64-sandbox snapshot audits clean
// ====================================================================

#[test]
fn migrated_64_sandbox_fleet_audits_clean() {
    let seed = 0xF1EE;
    let fleet_boot = || {
        // 64 concurrent sandboxes is past the usable PKS key pool, so the
        // fleet scenario runs on the keyed TME-MK backend like the fleet
        // bench and equivalence suites do.
        let mut config = ExecConfig::new(Mode::Full);
        config.backend = BackendKind::TmeMk;
        Platform::boot_with(BootConfig {
            seed,
            dram_bytes: 512 * 1024 * 1024,
            config,
            ..BootConfig::default()
        })
        .expect("boot")
    };
    let mut src = fleet_boot();
    let mut fleet = Vec::new();
    for i in 0..64u8 {
        let svc = src
            .deploy(Box::new(HelloWorld { len: 2 }), 4096)
            .unwrap_or_else(|e| panic!("deploy fleet member {i}: {e}"));
        fleet.push((i, svc));
    }
    // A few members get attested clients and live traffic.
    for (i, svc) in fleet.iter_mut().take(4) {
        let mut client = src.connect_client(svc, [*i + 1; 32]).expect("attest");
        let reply = src
            .serve_request(svc, &mut client, b"fleet")
            .expect("serve");
        assert_eq!(reply, b"AA");
    }
    assert!(src.audit().is_clean());

    let mut dest = fleet_boot();
    let src_key = MigrationKey::from_seed([0x99; 32]);
    let dest_key = MigrationKey::from_seed([0xAA; 32]);
    let offer = dest.migration_offer(&dest_key, &src_key.public());
    let (records, report) = src.migrate_to(&src_key, &offer).expect("out");
    dest.migrate_from(&dest_key, src_key.public(), &records)
        .expect("in");

    let audit = dest.audit();
    assert!(
        audit.is_clean(),
        "imported fleet must audit zero findings, got: {:?}",
        audit.findings
    );
    for (_, svc) in &fleet {
        assert!(
            dest.cvm.monitor.sandboxes.get(&svc.sandbox.0).is_some(),
            "fleet member missing after import"
        );
    }
    assert_eq!(dest.trace_json(), src.trace_json());
    assert!(report.precopy_pages >= 64, "a fleet carries real pages");
}

// ====================================================================
// Handshake: a destination that attests wrong is refused outright
// ====================================================================

#[test]
fn source_refuses_unattested_destination() {
    let mut src = boot(0xBAD, BackendKind::Pks);
    // A destination booted from a *different* seed measures differently,
    // so its quote fails the expected-chain comparison.
    let dest = boot(0xBAD ^ 1, BackendKind::Pks);
    let src_key = MigrationKey::from_seed([0x01; 32]);
    let dest_key = MigrationKey::from_seed([0x02; 32]);
    let offer = dest.migration_offer(&dest_key, &src_key.public());
    let err = src.migrate_to(&src_key, &offer).expect_err("must refuse");
    assert!(
        matches!(
            err,
            PlatformError::Migration(MigrationError::QuoteRejected(_))
        ),
        "got {err}"
    );
    // The refusal happened before any state was disturbed.
    assert!(!src.cvm.machine.mem.dirty_tracking());
    assert!(src.audit().is_clean());
}

// ====================================================================
// Format pin: the bytes of every section are fixed for this version
// ====================================================================

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// A platform with some of everything the stream carries: three served
/// sandboxes (the second then killed) and a native process with a
/// touched mmap page.
fn busy(seed: u64, backend: BackendKind) -> Platform {
    let mut p = boot(seed, backend);
    let mut killed = None;
    for i in 0..3u8 {
        let (mut svc, mut client) = deploy(&mut p, 0x30 + i);
        serve(&mut p, &mut svc, &mut client, b"pin");
        if i == 1 {
            killed = Some(svc.sandbox);
        }
    }
    let victim = killed.expect("three sandboxes deployed");
    p.cvm
        .monitor
        .kill_sandbox(&mut p.cvm.machine, victim, "pinned kill");
    let pid = p.spawn_native().expect("spawn native");
    let base = p
        .proc(pid)
        .syscall(
            erebor::ekernel::syscall::nr::MMAP,
            [0, 2 * 4096, 3, 0, 0, 0],
        )
        .expect("native mmap");
    p.proc(pid).touch(base, true).expect("native touch");
    p
}

/// Run `migrate_to` from `src` and open the stream on a destination
/// key, returning the sealed records and the verified snapshot.
fn open_stream(
    src: &mut Platform,
    seed: u64,
    backend: BackendKind,
) -> (Vec<Vec<u8>>, erebor::etdx::migrate::MigrationSnapshot) {
    let dest = boot(seed, backend);
    let src_key = MigrationKey::from_seed([0x3C; 32]);
    let dest_key = MigrationKey::from_seed([0xC3; 32]);
    let offer = dest.migration_offer(&dest_key, &src_key.public());
    let (records, _) = src.migrate_to(&src_key, &offer).expect("migrate out");
    let mut rx = erebor::etdx::MigrationDest::open(&dest_key, src_key.public());
    for rec in &records {
        rx.feed(rec).expect("clean record");
    }
    (records, rx.into_snapshot().expect("finished stream"))
}

/// Pins the plaintext of all seven sections — `(section id, length,
/// FNV-1a digest)` — of a seeded busy platform on both backends.
///
/// A pinned value moves for one of two reasons, and the change that
/// moves it says which:
/// - **Format change**: a section's layout changed (a field added,
///   removed or re-encoded). Bump `MIGRATION_VERSION`, and
///   `MACHINE_STATE_VERSION` when the MACHINE layout moved, so an old
///   peer refuses the stream instead of misreading it.
/// - **Content change**: the layout is the same but the fixture's
///   simulated state differs, because the simulation changed (a cost,
///   a counter, a different order of shootdowns). No version bump; the
///   change re-records the pin and names the cause in CHANGES.md.
#[test]
fn section_bytes_are_pinned_for_this_format_version() {
    type Pin = [(u8, usize, u64); 7];
    let cases: [(BackendKind, Pin); 2] = [
        (
            BackendKind::Pks,
            [
                (1, 23591, 12134057846831652736),
                (3, 307850, 5416116987153895050),
                (5, 298657, 8725284108965726668),
                (6, 1310, 13456845851439787651),
                (7, 8, 12161962213042174405),
                (8, 32, 13151605024471147127),
                (9, 169, 11780278064686854525),
            ],
        ),
        (
            BackendKind::TmeMk,
            [
                (1, 25031, 13923369410957646973),
                (3, 307850, 5416116987153895050),
                (5, 298656, 12259255290233523018),
                (6, 1310, 13456845851439787651),
                (7, 8, 12161962213042174405),
                (8, 32, 13151605024471147127),
                (9, 169, 11780278064686854525),
            ],
        ),
    ];
    assert_eq!(erebor::etdx::migrate::MIGRATION_VERSION, 6);
    assert_eq!(erebor::ehw::migrate::MACHINE_STATE_VERSION, 4);
    for (backend, pinned) in cases {
        let mut src = busy(0x9124, backend);
        let (_, snap) = open_stream(&mut src, 0x9124, backend);
        let got: Vec<(u8, usize, u64)> = snap
            .sections
            .iter()
            .map(|(&id, bytes)| (id, bytes.len(), fnv1a(bytes)))
            .collect();
        assert_eq!(got, pinned, "{backend:?}: section bytes moved");
    }
}

// ====================================================================
// Section sweep: a damaged section decodes or fails typed, never panics
// ====================================================================

/// A clean stream of a busy platform plus an attested destination that
/// resealed, damaged variants of it are imported into.
struct SweepFixture {
    snap: erebor::etdx::migrate::MigrationSnapshot,
    dest: Platform,
    src_key: MigrationKey,
    dest_key: MigrationKey,
    offer: erebor::MigrationOffer,
    root: erebor_crypto::VerifyingKey,
}

impl SweepFixture {
    fn new(seed: u64, backend: BackendKind) -> SweepFixture {
        let mut src = busy(seed, backend);
        let (_, snap) = open_stream(&mut src, seed, backend);
        let dest = boot(seed, backend);
        let src_key = MigrationKey::from_seed([0x5E; 32]);
        let dest_key = MigrationKey::from_seed([0xE5; 32]);
        let offer = dest.migration_offer(&dest_key, &src_key.public());
        let root = src.cvm.tdx.attest.root_public();
        SweepFixture {
            snap,
            dest,
            src_key,
            dest_key,
            offer,
            root,
        }
    }

    /// Reseal the stream with `id`'s plaintext replaced by `bytes`.
    fn reseal(&self, id: u8, bytes: &[u8]) -> Vec<Vec<u8>> {
        use erebor::etdx::attest::Expected;
        let mut src = erebor::etdx::MigrationSource::open(
            &self.src_key,
            self.offer.dest_pub,
            &self.offer.quote,
            &self.root,
            &Expected::Mrtd(self.offer.quote.report.mrtd),
        )
        .expect("attested destination");
        let mut records = vec![src.begin().expect("begin")];
        for (frame, page) in &self.snap.pages {
            let page = page.as_slice().try_into().expect("4 KiB page");
            records.push(src.page(*frame, page).expect("page"));
        }
        src.enter_stop_copy().expect("stop-copy");
        for (&sid, payload) in &self.snap.sections {
            let payload = if sid == id { bytes } else { payload };
            records.push(src.section(sid, payload).expect("section"));
        }
        records.push(src.finish().expect("finish"));
        records
    }

    /// Decode `bytes` as section `id` with that section's own importer.
    /// PLATFORM has none outside `migrate_from`.
    fn import_alone(&self, id: u8, bytes: &[u8]) -> Option<Result<(), erebor_wire::WireError>> {
        use erebor::etdx::migrate::section;
        use erebor_wire::Wire;
        let seed = <[u8; 32]>::from_wire(&self.snap.sections[&section::ROOT_SEED]).ok()?;
        Some(match id {
            section::MACHINE => {
                erebor::ehw::cpu::Machine::import_state(bytes, &self.snap.pages).map(drop)
            }
            section::TDX => erebor::etdx::TdxModule::import_state(seed, bytes).map(drop),
            section::MONITOR => erebor::ecore::Monitor::from_wire(bytes).map(drop),
            section::KERNEL => erebor::ekernel::kernel::Kernel::from_wire(bytes).map(drop),
            section::LIBOS => erebor::elibos::os::CommonRegistry::from_wire(bytes).map(drop),
            section::ROOT_SEED => <[u8; 32]>::from_wire(bytes).map(drop),
            _ => return None,
        })
    }

    /// One case: damage section `id` by XOR-ing one byte (`mask`) or by
    /// truncating — anywhere, or in its first 32 bytes where the headers
    /// and counts live — then decode it alone or through `migrate_from`.
    fn case(&mut self, damage: (u8, bool, bool, u64, u8), whole_stream: bool) {
        let (id, truncate, head, at, mask) = damage;
        let mut bytes = self.snap.sections[&id].clone();
        let span = if head {
            bytes.len().min(32)
        } else {
            bytes.len()
        };
        let at = (at % span as u64) as usize;
        if truncate {
            bytes.truncate(at);
        } else {
            bytes[at] ^= mask;
        }
        let alone = if whole_stream {
            None
        } else {
            self.import_alone(id, &bytes)
        };
        if alone.is_none() {
            let records = self.reseal(id, &bytes);
            let got = self
                .dest
                .migrate_from(&self.dest_key, self.src_key.public(), &records);
            assert!(
                matches!(got, Ok(()) | Err(PlatformError::Migration(_))),
                "untyped import failure: {got:?}"
            );
        }
    }
}

/// 1024 seeded cases (`EREBOR_PT_SEED` / `EREBOR_PT_CASES` override):
/// one XOR-ed byte or one truncation in one of the seven section
/// plaintexts, decoded by that section's importer or resealed and fed
/// through `Platform::migrate_from`. Every case ends in `Ok` or a typed
/// error — never a panic or an abort (a hostile physical-memory header
/// once sized a 128 GiB allocation from its frame count alone).
#[test]
fn damaged_sections_decode_or_fail_typed() {
    use erebor::etdx::migrate::section;
    use erebor_testkit::prelude::*;
    let mut fx = SweepFixture::new(0x5EE9, BackendKind::TmeMk);
    let damage = (
        (0..section::ALL.len()).prop_map(|i| section::ALL[i]),
        any::<bool>(),
        any::<bool>(),
        any::<u64>(),
        1u8..=255,
    );
    let case = (damage, any::<bool>());
    erebor_testkit::prop::run(
        &ProptestConfig::with_cases(1024),
        "damaged_sections_decode_or_fail_typed",
        |src| {
            let (damage, whole_stream) = case.generate(src);
            fx.case(damage, whole_stream);
            Ok(())
        },
        |src| {
            format!(
                "  ((section, truncate, head, at, mask), whole_stream) = {:?}\n",
                case.generate(src)
            )
        },
    );
}

/// The sweep's allocation-before-validation case, pinned: a frame count
/// near 2^40 in the physical-memory metadata blob (decoded alone) or in
/// the copy MACHINE embeds (through `migrate_from`) is refused against
/// the bitmap that actually arrived, instead of sizing DRAM bookkeeping
/// from the header.
#[test]
fn hostile_dram_frame_count_is_refused_before_allocation() {
    use erebor::ehw::cpu::Machine;
    use erebor::ehw::phys::PhysMemory;
    use erebor::etdx::migrate::section;
    use erebor_wire::WireError;
    let fx = SweepFixture::new(0x5EE9, BackendKind::TmeMk);
    let refused = WireError::BadValue { what: "free words" };

    // The blob starts with `total_frames`; bit 32 makes it ~2^32 frames.
    let machine = Machine::import_state(&fx.snap.sections[&section::MACHINE], &fx.snap.pages)
        .expect("clean machine section");
    let mut meta = machine.mem.export_meta();
    meta[4] ^= 0x01;
    assert_eq!(
        PhysMemory::from_export(&meta, &fx.snap.pages).err(),
        Some(refused)
    );

    // MACHINE embeds the same blob after its version, core count and
    // the blob's length prefix: `total_frames` sits at offset 20.
    let mut machine = fx.snap.sections[&section::MACHINE].clone();
    machine[24] ^= 0xff;
    let records = fx.reseal(section::MACHINE, &machine);
    let mut dest = boot(0x5EE9, BackendKind::TmeMk);
    let got = dest.migrate_from(&fx.dest_key, fx.src_key.public(), &records);
    assert!(
        matches!(
            got,
            Err(PlatformError::Migration(MigrationError::Decode(e))) if e == refused
        ),
        "got {got:?}"
    );
}
