//! EMC dispatcher edge cases: malformed and boundary requests the
//! (untrusted) kernel can submit.

use erebor::{Mode, Platform};
use erebor_core::emc::{EmcError, EmcRequest, EmcResponse};
use erebor_core::sandbox::ExitDecision;
use erebor_hw::fault::Fault;
use erebor_hw::inject::{handle, InjectionPoint, Injector};
use erebor_hw::layout::{KERNEL_BASE, MONITOR_BASE};
use erebor_hw::paging::lookup_raw;
use erebor_hw::{Frame, VirtAddr};
use erebor_workloads::hello::HelloWorld;

fn full() -> Platform {
    Platform::boot(Mode::Full).expect("boot")
}

fn emc(p: &mut Platform, req: EmcRequest) -> Result<EmcResponse, EmcError> {
    p.enter_kernel_mode();
    p.cvm
        .monitor
        .emc(&mut p.cvm.machine, &mut p.cvm.tdx, 0, req)
}

#[test]
fn map_rejects_unaligned_and_non_user_vas() {
    let mut p = full();
    let root = p.cvm.monitor.kernel_root;
    for (va, why) in [
        (VirtAddr(0x40_0123), "unaligned"),
        (KERNEL_BASE, "kernel half"),
        (MONITOR_BASE, "monitor window"),
    ] {
        let err = emc(
            &mut p,
            EmcRequest::MapUserPage {
                root,
                va,
                frame: None,
                writable: true,
                executable: false,
            },
        )
        .expect_err(why);
        assert!(
            matches!(err, EmcError::BadRequest(_) | EmcError::Denied(_)),
            "{why}: {err}"
        );
    }
}

#[test]
fn map_rejects_writable_executable() {
    let mut p = full();
    let root = p.cvm.monitor.kernel_root;
    let err = emc(
        &mut p,
        EmcRequest::MapUserPage {
            root,
            va: VirtAddr(0x50_0000),
            frame: None,
            writable: true,
            executable: true,
        },
    )
    .expect_err("W^X");
    assert!(matches!(
        err,
        EmcError::Denied("W^X: writable+executable refused")
    ));
}

#[test]
fn switch_to_unregistered_root_denied() {
    let mut p = full();
    let before = p.cvm.machine.cpus[0].cr3;
    let err = emc(&mut p, EmcRequest::SwitchAddressSpace { root: Frame(4) }).expect_err("bogus");
    assert!(matches!(err, EmcError::Denied(_)));
    assert_eq!(p.cvm.machine.cpus[0].cr3, before, "cr3 unchanged on denial");
}

#[test]
fn sandbox_requests_on_unknown_ids_fail_cleanly() {
    let mut p = full();
    let err = emc(
        &mut p,
        EmcRequest::DeclareConfined {
            sandbox: 999,
            va: VirtAddr(0x50_0000),
            pages: 1,
            executable: false,
        },
    )
    .expect_err("unknown sandbox");
    assert!(matches!(err, EmcError::BadRequest(_)));
    let err = emc(
        &mut p,
        EmcRequest::AttachCommon {
            sandbox: 999,
            region: 999,
            va: VirtAddr(0x5_0000_0000),
        },
    )
    .expect_err("unknown region");
    assert!(matches!(err, EmcError::BadRequest(_)));
}

#[test]
fn declare_after_data_install_denied() {
    let mut p = full();
    let mut svc = p
        .deploy(Box::new(HelloWorld::default()), 4096)
        .expect("deploy");
    let mut client = p.connect_client(&svc, [8; 32]).expect("attest");
    p.serve_request(&mut svc, &mut client, b"x").expect("serve");
    let err = emc(
        &mut p,
        EmcRequest::DeclareConfined {
            sandbox: svc.sandbox.0,
            va: VirtAddr(0x7000_0000),
            pages: 1,
            executable: false,
        },
    )
    .expect_err("post-install declare");
    assert!(matches!(
        err,
        EmcError::Denied("confined declaration after data install")
    ));
}

#[test]
fn only_cr0_and_cr4_are_delegated() {
    let mut p = full();
    for which in [1u8, 2, 3, 5] {
        let err = emc(
            &mut p,
            EmcRequest::WriteCr {
                which,
                value: 0xffff_ffff,
            },
        )
        .expect_err("cr");
        assert!(matches!(err, EmcError::BadRequest(_)), "CR{which}: {err}");
    }
}

#[test]
fn unmap_of_kernel_code_frame_denied() {
    let mut p = full();
    // Map a user page first, then try to unmap a *kernel text* VA... which
    // is not in the user half; probe instead with a user VA whose leaf the
    // kernel cannot unmap: an unmapped one.
    let root = p.cvm.monitor.kernel_root;
    let err = emc(
        &mut p,
        EmcRequest::UnmapUserPage {
            root,
            va: VirtAddr(0x7f77_0000_0000),
        },
    )
    .expect_err("not mapped");
    assert!(matches!(err, EmcError::BadRequest(_)));
}

#[test]
fn text_poke_bounds_checked() {
    let mut p = full();
    // Beyond kernel text.
    let err = emc(
        &mut p,
        EmcRequest::TextPoke {
            offset: 1 << 40,
            bytes: vec![0x90],
        },
    )
    .expect_err("out of range");
    assert!(matches!(err, EmcError::BadRequest(_)));
    // Crossing a page boundary.
    let err = emc(
        &mut p,
        EmcRequest::TextPoke {
            offset: 0x1ffe,
            bytes: vec![0x90; 8],
        },
    )
    .expect_err("page crossing");
    assert!(matches!(err, EmcError::BadRequest(_)));
    // Integer-overflow probing.
    let err = emc(
        &mut p,
        EmcRequest::TextPoke {
            offset: u64::MAX - 2,
            bytes: vec![0x90; 8],
        },
    )
    .expect_err("overflow");
    assert!(matches!(err, EmcError::BadRequest(_)));
}

#[test]
fn common_region_can_attach_at_two_sandboxes() {
    let mut p = full();
    let id = match emc(
        &mut p,
        EmcRequest::CreateCommon {
            pages: 4,
            logical_bytes: 1 << 20,
        },
    )
    .expect("create")
    {
        EmcResponse::Region(id) => id,
        other => panic!("{other:?}"),
    };
    let s1 = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, 1024)
        .expect("s1");
    let s2 = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, 1024)
        .expect("s2");
    for s in [s1, s2] {
        emc(
            &mut p,
            EmcRequest::AttachCommon {
                sandbox: s.0,
                region: id,
                va: VirtAddr(0x6_0000_0000),
            },
        )
        .expect("attach");
    }
    assert_eq!(p.cvm.monitor.common_regions[&id].attached.len(), 2);
}

/// Faults the next `wrmsr` on core 0, once.
struct FaultNextWrmsr {
    armed: bool,
}

impl Injector for FaultNextWrmsr {
    fn inject_fault(&mut self, p: InjectionPoint) -> Option<Fault> {
        if self.armed && matches!(p, InjectionPoint::Wrmsr { cpu: 0, .. }) {
            self.armed = false;
            return Some(Fault::GeneralProtection("injected fault"));
        }
        None
    }
}

/// A reclaim whose privilege raise faults clears nothing, so it must
/// forget nothing either: the page stays listed, and the later seal
/// downgrades it to read-only.
#[test]
fn faulted_reclaim_keeps_the_mapping_listed_for_the_seal() {
    let mut p = full();
    let region = match emc(
        &mut p,
        EmcRequest::CreateCommon {
            pages: 4,
            logical_bytes: 1 << 20,
        },
    )
    .expect("create")
    {
        EmcResponse::Region(id) => id,
        other => panic!("{other:?}"),
    };
    let sid = p
        .cvm
        .monitor
        .create_sandbox(&mut p.cvm.machine, 0, 1024)
        .expect("sandbox");
    let va = VirtAddr(0x6_0000_0000);
    emc(
        &mut p,
        EmcRequest::AttachCommon {
            sandbox: sid.0,
            region,
            va,
        },
    )
    .expect("attach");
    let decision = p
        .cvm
        .monitor
        .on_page_fault(&mut p.cvm.machine, 0, sid, va, true);
    assert!(
        matches!(decision, ExitDecision::Handled { .. }),
        "{decision:?}"
    );
    let root = p.cvm.monitor.sandboxes[&sid.0].root;
    let leaf = |p: &Platform| {
        lookup_raw(&p.cvm.machine.mem, root, va)
            .expect("walk")
            .expect("mapped")
    };
    assert!(leaf(&p).writable());

    p.install_injector(handle(FaultNextWrmsr { armed: true }));
    let reclaimed = p.cvm.monitor.reclaim_common(&mut p.cvm.machine, 0, 4);
    p.clear_injector();
    assert_eq!(reclaimed, 0);
    assert_eq!(
        p.cvm.monitor.sandboxes[&sid.0].common_mapped,
        [(region, va)]
    );

    p.cvm
        .monitor
        .seal_common(&mut p.cvm.machine, 0, region)
        .expect("seal");
    assert!(
        !leaf(&p).writable(),
        "a sealed common page must be read-only"
    );
    assert_eq!(
        p.cvm.monitor.sandboxes[&sid.0].common_mapped,
        [(region, va)]
    );
}

#[test]
fn emc_denied_entirely_without_monitor() {
    let mut p = Platform::boot(Mode::Native).expect("boot");
    let err = emc(&mut p, EmcRequest::Nop).expect_err("no monitor");
    assert!(matches!(err, EmcError::Denied(_)));
}
