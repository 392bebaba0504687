//! Adversarial EMC fuzzing: the kernel interface is attacker-reachable, so
//! arbitrary request sequences must never panic the monitor, never grant
//! access to monitor memory, and never break the Nested-Kernel or
//! single-mapping invariants. The state auditor is the final oracle: the
//! snapshot each sequence leaves behind must audit clean.
//!
//! Historical counterexamples found by the fuzzer live in the
//! `regressions` module as explicit named tests (ported from the old
//! `emc_fuzz.proptest-regressions` seed file when the suite moved to the
//! in-tree testkit), so they run on every `cargo test` forever.

use erebor::{Mode, Platform};
use erebor_core::emc::{CopyDir, EmcRequest};
use erebor_hw::fault::PfReason;
use erebor_hw::layout::{direct_map, KERNEL_BASE, MONITOR_BASE};
use erebor_hw::regs::Msr;
use erebor_hw::{Frame, VirtAddr};
use erebor_testkit::collection;
use erebor_testkit::prelude::*;
use erebor_workloads::hello::HelloWorld;

fn arb_msr() -> impl Strategy<Value = Msr> {
    (0usize..Msr::ALL.len()).prop_map(|i| Msr::ALL[i])
}

fn arb_request() -> impl Strategy<Value = EmcRequest> {
    prop_oneof![
        Just(EmcRequest::Nop),
        (any::<u32>()).prop_map(|asid| EmcRequest::CreateAddressSpace { asid }),
        (any::<u64>()).prop_map(|f| EmcRequest::SwitchAddressSpace {
            root: Frame(f % 40000)
        }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(|(root, va, some_frame, writable, executable)| {
                EmcRequest::MapUserPage {
                    root: Frame(root % 40000),
                    va: VirtAddr(va & 0x0000_7fff_ffff_f000),
                    frame: some_frame.then_some(Frame(va % 40000)),
                    writable,
                    executable,
                }
            }),
        (any::<u64>(), any::<u64>()).prop_map(|(root, va)| EmcRequest::UnmapUserPage {
            root: Frame(root % 40000),
            va: VirtAddr(va & 0x0000_7fff_ffff_f000),
        }),
        (any::<u8>(), any::<u64>()).prop_map(|(which, value)| EmcRequest::WriteCr {
            which: which % 6,
            value,
        }),
        (arb_msr(), any::<u64>()).prop_map(|(msr, value)| EmcRequest::WrMsr { msr, value }),
        (any::<u8>(), any::<u64>()).prop_map(|(vec, h)| EmcRequest::SetVectorHandler {
            vec,
            handler: VirtAddr(KERNEL_BASE.0 + h % 0x0300_0000),
        }),
        (any::<u64>(), any::<bool>()).prop_map(|(f, shared)| EmcRequest::ConvertShared {
            frame: Frame(f % 40000),
            shared,
        }),
        (any::<u64>(), collection::vec(any::<u8>(), 0..64)).prop_map(|(offset, bytes)| {
            EmcRequest::TextPoke {
                offset: offset % 0x2_0000,
                bytes,
            }
        }),
        (any::<u32>(), any::<u64>(), 0u64..64, any::<bool>()).prop_map(
            |(sandbox, va, pages, executable)| EmcRequest::DeclareConfined {
                sandbox: sandbox % 4,
                va: VirtAddr(va & 0x0000_7fff_ffff_f000),
                pages,
                executable,
            }
        ),
        (any::<u64>(), any::<u64>(), 0usize..256, any::<bool>()).prop_map(
            |(root, va, len, to_user)| EmcRequest::UserCopy {
                dir: if to_user {
                    CopyDir::ToUser
                } else {
                    CopyDir::FromUser
                },
                root: Frame(root % 40000),
                user_va: VirtAddr(va & 0x0000_7fff_ffff_f000),
                bytes: vec![0xaa; len],
            }
        ),
        (collection::vec(any::<u8>(), 0..256), any::<u64>()).prop_map(|(code, va)| {
            EmcRequest::LoadKernelModule {
                code,
                va: VirtAddr(KERNEL_BASE.0 + 0x0500_0000 + (va % 64) * 0x1000),
            }
        }),
    ]
}

/// Boot the full platform with a sandbox holding secret data, replay
/// `reqs` as a hostile kernel, and assert every security invariant after
/// each request. Panics (failing the enclosing test) on any violation —
/// shared by the property below and the named regression tests.
fn assert_invariants_under(reqs: &[EmcRequest]) {
    let mut p = Platform::boot(Mode::Full).expect("boot");
    // One sandbox holding data, as the high-value target.
    let mut svc = p
        .deploy(Box::new(HelloWorld::default()), 4096)
        .expect("deploy");
    let mut client = p.connect_client(&svc, [0x77; 32]).expect("attest");
    p.client_send(&svc, &mut client, b"the crown jewels")
        .expect("send");
    {
        let pid = svc.pid;
        svc.os.input(&mut p.proc(pid)).expect("input");
    }
    let confined: Vec<Frame> = p.cvm.monitor.sandboxes[&svc.sandbox.0]
        .confined
        .iter()
        .map(|(_, f)| *f)
        .collect();
    p.enter_kernel_mode();

    for req in reqs {
        // Whatever happens: no panic, and errors are typed.
        let _ = p
            .cvm
            .monitor
            .emc(&mut p.cvm.machine, &mut p.cvm.tdx, 0, req.clone());
        // Repair the driving context (a hostile kernel could also do
        // this; it is not a protection boundary).
        p.enter_kernel_mode();

        // Invariant 1: monitor memory stays inaccessible.
        let err = p
            .cvm
            .machine
            .read_u64(0, MONITOR_BASE)
            .expect_err("monitor hidden");
        assert!(err.is_pf(PfReason::PksAccessDisabled), "{err}");

        // Invariant 2: PTEs stay kernel-unwritable.
        let slot = erebor_hw::paging::pte_slot(p.cvm.monitor.kernel_root, VirtAddr(0x40_0000), 4);
        let err = p
            .cvm
            .machine
            .write_u64(0, direct_map(slot), 0xdead)
            .expect_err("PTEs protected");
        assert!(err.is_pf(PfReason::PksWriteDisabled), "{err}");

        // Invariant 3: the client data stays unreadable and unshared.
        for f in &confined {
            if p.cvm.monitor.sandboxes[&svc.sandbox.0].state
                == erebor_core::sandbox::SandboxState::Dead
            {
                break; // a fuzzer-killed sandbox has scrubbed frames
            }
            assert!(
                p.cvm.machine.read_u64(0, direct_map(f.base())).is_err(),
                "confined {f:?} became kernel-readable"
            );
            assert!(
                !p.cvm.tdx.sept.is_shared(*f),
                "confined {f:?} became shared"
            );
        }

        // Invariant 4: protections stay pinned.
        let c = &p.cvm.machine.cpus[0];
        assert!(c.cr0.wp() && c.cr4.smep() && c.cr4.smap() && c.cr4.pks());
    }
    // And the host never saw the secret through any of it.
    assert!(!p.cvm.tdx.host.observed_contains(b"the crown jewels"));
    // The state auditor re-derives every claim from the final snapshot.
    let report = p.audit();
    assert!(report.is_clean(), "audit after {reqs:?}: {}", report.json());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_emc_sequences_preserve_all_invariants(
        reqs in collection::vec(arb_request(), 1..40),
    ) {
        assert_invariants_under(&reqs);
    }
}

mod regressions {
    use super::*;

    /// Ported from `emc_fuzz.proptest-regressions` (seed
    /// `f0995a8b…`): a lone hostile CR0 write once slipped past the
    /// pinned-protection check. Shrunk counterexample:
    /// `[WriteCr { which: 0, value: 228911628678546271 }]`.
    #[test]
    fn hostile_cr0_write_keeps_protections_pinned() {
        assert_invariants_under(&[EmcRequest::WriteCr {
            which: 0,
            value: 228_911_628_678_546_271,
        }]);
    }

    /// The same class of attack across every control register index the
    /// EMC accepts, with both all-zero and all-one payloads (a broadened
    /// net around the historical counterexample).
    #[test]
    fn hostile_cr_writes_any_index_keep_protections_pinned() {
        let reqs: Vec<EmcRequest> = (0..6)
            .flat_map(|which| {
                [0u64, u64::MAX, 228_911_628_678_546_271]
                    .into_iter()
                    .map(move |value| EmcRequest::WriteCr { which, value })
            })
            .collect();
        assert_invariants_under(&reqs);
    }
}
