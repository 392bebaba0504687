//! Privilege-separation auditor runner:
//! `cargo run -p erebor-analyze --bin privilege`.
//!
//! Scans the workspace source from the manifest root (or a path given as
//! the first argument), checks every privileged-symbol reference against
//! the declared privilege manifest (DESIGN.md §14), prints each finding,
//! emits the machine-readable report on the `EREBOR_JSON:` marker line,
//! and exits non-zero when any rule fired **or any waiver comment exists
//! in the tree** — the CI baseline is zero findings, zero waivers.

use erebor_analyze::privilege;
use std::path::PathBuf;

fn main() {
    let root = std::env::args().nth(1).map_or_else(
        || {
            // The bin runs from anywhere inside the workspace; the crate
            // manifest dir is crates/analyze, two levels below the root.
            let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            manifest
                .parent()
                .and_then(|p| p.parent())
                .map_or(manifest.clone(), PathBuf::from)
        },
        PathBuf::from,
    );
    let report = privilege::scan_workspace(&root);
    if report.files_scanned == 0 {
        // A mistyped root (or an option this bin does not take) would
        // otherwise scan nothing and pass.
        eprintln!("privilege: no Rust sources under {}", root.display());
        std::process::exit(2);
    }
    for f in &report.findings {
        println!("privilege: {f}");
    }
    println!("EREBOR_JSON:{}", report.json());
    if !report.is_clean() {
        std::process::exit(1);
    }
}
