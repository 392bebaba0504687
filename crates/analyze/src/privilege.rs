//! The privilege-separation auditor: enforce the hw/monitor trust
//! boundary statically, over the whole workspace source.
//!
//! Erebor's security argument (DESIGN.md §14) rests on a tiny privileged
//! layer — the raw CPU/frame/MSR/PTE state in `erebor-hw`, the monitor's
//! entry/gate stubs, the isolation backends — mediating everything else.
//! ERIM proves its boundary by scanning binaries for privilege-mutating
//! instructions outside call gates; the Asterinas framekernel proves its
//! memory safety by confining `unsafe` to one auditable core crate. This
//! pass applies the same discipline at the Rust-module level:
//!
//! 1. **Reference graph** — every `use`/path mention of a privileged
//!    symbol ([`PRIVILEGED_SYMBOLS`]: raw `PhysMemory` frame mutation,
//!    PKRS/raw-MSR state, PTE/sEPT construction, domain pools, TLB/IPI
//!    primitives) is attributed to the crate/module it appears in.
//! 2. **Manifest check** — the graph is checked against the declared
//!    [`PRIVILEGE_MANIFEST`]; a mention in a module outside the manifest
//!    is a [`PrivilegeFinding`] (`priv-reach`).
//! 3. **`unsafe` confinement** — the `unsafe` keyword is banned
//!    workspace-wide (`stray-unsafe`); every crate carries
//!    `#![forbid(unsafe_code)]` and this pass keeps it that way even if
//!    an `allow` attribute sneaks in.
//! 4. **Export hygiene** — crate-root `pub use` re-exports must not
//!    re-expose a raw mutator under a shorter path (`pub-leak`): raw
//!    state is named by full module path only, so reaches stay greppable
//!    and attributable.
//!
//! Rule applicability: `priv-reach` binds *shipped library* code.
//! Integration tests, benches, examples, and the harness crates play the
//! untrusted host, the attacker, and the chaos injector by contract —
//! they must reach raw state to corrupt it. Bin entry points are
//! evaluation drivers. `stray-unsafe` binds everything.
//!
//! Waivers are **refused by default**: a `// priv:allow(<rule>)` comment
//! is honored only under [`WaiverPolicy::Honor`] (exploratory local
//! runs); under [`WaiverPolicy::Refuse`] — what CI runs — a waived line
//! still produces a finding, typed `waiver-refused`, so the baseline can
//! only be moved by editing the manifest in code review.

use crate::findings::escape_json;
use crate::lint::{classify, FileClass};
use crate::source::{CodeStripper, TestRegionTracker};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// One privileged symbol the scanner tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrivSymbol {
    /// Source token. Matching requires a non-identifier character (or
    /// line start) before the token; when [`PrivSymbol::prefix`] is set
    /// the token may continue as a longer identifier (`tlb_shootdown`
    /// also matches `tlb_shootdown_mm`).
    pub token: &'static str,
    /// Whether identifier characters may follow the token.
    pub prefix: bool,
    /// Symbol category (stable, used in findings and the graph).
    pub category: &'static str,
    /// What reaching this symbol lets a module do.
    pub what: &'static str,
}

const fn sym(
    token: &'static str,
    prefix: bool,
    category: &'static str,
    what: &'static str,
) -> PrivSymbol {
    PrivSymbol {
        token,
        prefix,
        category,
        what,
    }
}

/// The privileged symbols: mentioning any of these outside the
/// [`PRIVILEGE_MANIFEST`] is a trust-boundary violation. The categories
/// mirror the paper's sensitive-state inventory (Table 2 plus the
/// monitor's own bookkeeping).
pub const PRIVILEGED_SYMBOLS: &[PrivSymbol] = &[
    // Raw physical-frame state: allocate, free, retag, or write DRAM
    // without a CPU access check.
    sym("PhysMemory", true, "raw-frame", "raw DRAM read/write and frame allocation"),
    sym(".mem", false, "raw-frame", "direct reach into the machine's DRAM field"),
    sym("alloc_frame", true, "raw-frame", "allocate physical frames"),
    sym("free_frame", true, "raw-frame", "free physical frames"),
    sym("claim_frame", true, "raw-frame", "claim specific physical frames"),
    sym("claim_region", true, "raw-frame", "claim physical regions"),
    sym("reserve_region", true, "raw-frame", "reserve physical regions"),
    sym("zero_frame", true, "raw-frame", "scrub physical frames"),
    sym("set_frame_key", true, "raw-frame", "program per-frame memory-encryption keys"),
    // PTE / sEPT construction: build or edit translations directly.
    sym("map_raw", true, "pte-construct", "install raw page-table entries"),
    sym("lookup_raw", true, "pte-construct", "walk page tables without access checks"),
    sym("pte_slot", true, "pte-construct", "address raw PTE slots"),
    sym("leaf_slot", true, "pte-construct", "address raw leaf PTE slots"),
    sym("intermediate_for", true, "pte-construct", "derive intermediate PTE flags"),
    sym("Pte::encode", true, "pte-construct", "construct raw PTEs"),
    sym("with_keyid", true, "pte-construct", "stamp key-IDs into PTEs"),
    sym("Sept", true, "pte-construct", "secure-EPT construction and edits"),
    // Raw MSR/CR/PKRS state: mutate privilege registers bypassing the
    // architectural (checked) instruction paths.
    sym("Pkrs", true, "msr-cr-raw", "protection-key rights state"),
    sym("restore_msr", true, "msr-cr-raw", "restore MSRs bypassing pinning checks"),
    sym(".cpus[", false, "msr-cr-raw", "direct reach into per-CPU register state"),
    // Isolation-domain bookkeeping.
    sym("DomainPool", true, "domain", "isolation-domain allocation state"),
    sym("alloc_domain", true, "domain", "allocate isolation domains"),
    sym("free_domain", true, "domain", "free isolation domains"),
    // TLB / IPI primitives: invalidation obligations and their ledgers.
    sym("tlb_shootdown", true, "tlb-ipi", "cross-core invalidation IPIs"),
    sym("flush_tlb", true, "tlb-ipi", "full TLB flushes"),
    sym("invalidate_page", true, "tlb-ipi", "targeted TLB invalidation"),
    sym("pending_shootdowns", true, "tlb-ipi", "the dropped-IPI staleness ledger"),
    sym("pending_asid_shootdowns", true, "tlb-ipi", "the coalesced staleness ledger"),
];

/// Raw mutators that must never be re-exported from a crate root
/// (`pub use` in a `lib.rs`): naming them requires the full module path,
/// so every reach stays attributable to the module that took it.
pub const RAW_EXPORT_BANNED: &[&str] = &[
    "PhysMemory",
    "DomainPool",
    "map_raw",
    "lookup_raw",
    "pte_slot",
    "leaf_slot",
];

/// One entry of the privilege manifest: a workspace-relative path prefix
/// plus the reason it is allowed to reach privileged state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Path prefix (workspace-relative, `/`-separated). A trailing `/`
    /// scopes a directory; otherwise the entry names a single file.
    pub path: &'static str,
    /// Documented role of the privileged module.
    pub role: &'static str,
}

/// The declared privileged core. Everything else is unprivileged and may
/// touch hardware only through the safe APIs (the EMC gate, the
/// isolation [`erebor_hw::isolation::Backend`], `Platform`,
/// `erebor_hw::native`).
pub const PRIVILEGE_MANIFEST: &[ManifestEntry] = &[
    ManifestEntry {
        path: "crates/hw/src/",
        role: "hardware substrate: the raw CPU/frame/MSR/PTE/TLB state itself, \
               the isolation backends, and the native-baseline MMU service",
    },
    ManifestEntry {
        path: "crates/tdx/src/",
        role: "TDX substrate: the TDX module, sEPT construction, attestation, \
               migration stream, and the untrusted host VMM model",
    },
    ManifestEntry {
        path: "crates/core/src/",
        role: "the monitor: EMC entry/exit gates, mmu_guard page-table \
               interposition, sandbox lifecycle, verified boot",
    },
    ManifestEntry {
        path: "crates/analyze/src/audit.rs",
        role: "state auditor: read-only raw-state reach to re-derive claims \
               C1-C8 from snapshots",
    },
    ManifestEntry {
        path: "src/platform.rs",
        role: "platform embedder: boots the machine and plays the untrusted \
               host and the in-guest driver",
    },
];

/// Whether `rel` (workspace-relative, `/`-separated) is inside the
/// privileged manifest, returning the matching entry.
#[must_use]
pub fn manifest_entry(rel: &str) -> Option<&'static ManifestEntry> {
    PRIVILEGE_MANIFEST.iter().find(|e| {
        if e.path.ends_with('/') {
            rel.starts_with(e.path)
        } else {
            rel == e.path
        }
    })
}

/// How `priv:allow(...)` waiver comments are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaiverPolicy {
    /// Drop waived findings (exploratory local runs only).
    Honor,
    /// Report waived findings as `waiver-refused` — what CI runs, so the
    /// zero baseline cannot be eroded line by line.
    Refuse,
}

/// One privilege-boundary violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrivilegeFinding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line (0 for whole-file findings).
    pub line: usize,
    /// Rule: `priv-reach`, `stray-unsafe`, `pub-leak`, `waiver-refused`.
    pub rule: &'static str,
    /// The privileged symbol reached (or `unsafe`).
    pub symbol: String,
    /// Symbol category (`raw-frame`, `pte-construct`, `msr-cr-raw`,
    /// `domain`, `tlb-ipi`, `unsafe`).
    pub category: &'static str,
    /// The reaching module (`erebor-kernel::vm` style), i.e. the node in
    /// the reference graph the reach is attributed to.
    pub module: String,
    /// Offending line, trimmed.
    pub excerpt: String,
}

impl PrivilegeFinding {
    /// Deterministic JSON object; every free-form field is escaped.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = String::from("{\"file\":\"");
        escape_json(&self.file, &mut s);
        let _ = write!(s, "\",\"line\":{},\"rule\":\"{}\",\"symbol\":\"", self.line, self.rule);
        escape_json(&self.symbol, &mut s);
        let _ = write!(s, "\",\"category\":\"{}\",\"module\":\"", self.category);
        escape_json(&self.module, &mut s);
        s.push_str("\",\"excerpt\":\"");
        escape_json(&self.excerpt, &mut s);
        s.push_str("\"}");
        s
    }
}

impl core::fmt::Display for PrivilegeFinding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} reaches {} ({}) — {}",
            self.file, self.line, self.rule, self.module, self.symbol, self.category, self.excerpt
        )
    }
}

/// One edge of the reference graph: a module mentioning a privileged
/// symbol (privileged modules and harness files included — the graph is
/// the audit trail; findings are the subset that violates the manifest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrivRef {
    /// The mentioning module (`erebor-hw::cpu` style).
    pub module: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The privileged symbol token.
    pub symbol: &'static str,
    /// Symbol category.
    pub category: &'static str,
    /// Whether the mentioning module is inside the manifest.
    pub privileged: bool,
}

/// The result of a workspace scan.
#[derive(Debug, Clone, Default)]
pub struct PrivilegeReport {
    /// Manifest violations (empty on a clean tree).
    pub findings: Vec<PrivilegeFinding>,
    /// `priv:allow` waivers that suppressed (Honor) or refused (Refuse)
    /// a finding. CI gates on zero.
    pub waivers_seen: u64,
    /// Files scanned.
    pub files_scanned: u64,
    /// Lines scanned (the work/budget metric).
    pub lines_scanned: u64,
    /// Scanned files inside the manifest.
    pub privileged_files: u64,
    /// Manifest entries matched by at least one scanned file.
    pub privileged_modules: u64,
    /// The full reference graph.
    pub references: Vec<PrivRef>,
}

impl PrivilegeReport {
    /// Whether the tree satisfies the boundary with no waivers in play.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.waivers_seen == 0
    }

    /// Scan work performed (budget metric for the bench guard).
    #[must_use]
    pub fn work(&self) -> u64 {
        self.lines_scanned
    }

    /// Reference counts aggregated per module, sorted by module name.
    #[must_use]
    pub fn graph_counts(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for r in &self.references {
            let e = out.entry(r.module.clone()).or_insert(0);
            *e = e.saturating_add(1);
        }
        out
    }

    /// Deterministic JSON document: summary counters, findings, and the
    /// per-module reference graph.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = String::from("{\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&f.json());
        }
        let _ = write!(
            s,
            "],\"count\":{},\"waivers\":{},\"files_scanned\":{},\"lines_scanned\":{},\
             \"privileged_files\":{},\"privileged_modules\":{},\"graph\":{{",
            self.findings.len(),
            self.waivers_seen,
            self.files_scanned,
            self.lines_scanned,
            self.privileged_files,
            self.privileged_modules
        );
        for (i, (module, n)) in self.graph_counts().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            escape_json(module, &mut s);
            let _ = write!(s, "\":{n}");
        }
        s.push_str("}}");
        s
    }
}

/// Map a workspace-relative path to its module name in the graph:
/// `crates/hw/src/cpu.rs` → `erebor-hw::cpu`, `src/platform.rs` →
/// `erebor::platform`, `tests/analyze.rs` → `tests::analyze`.
#[must_use]
pub fn module_of(rel: &str) -> String {
    let unixy = rel.replace('\\', "/");
    let stemmed = |s: &str| s.trim_end_matches(".rs").replace('/', "::");
    if let Some(rest) = unixy.strip_prefix("crates/") {
        let mut it = rest.splitn(2, '/');
        let krate = it.next().unwrap_or("");
        let tail = it.next().unwrap_or("");
        let tail = tail.strip_prefix("src/").unwrap_or(tail);
        let tail = stemmed(tail);
        if tail.is_empty() || tail == "lib" {
            return format!("erebor-{krate}");
        }
        return format!("erebor-{krate}::{tail}");
    }
    if let Some(rest) = unixy.strip_prefix("src/") {
        let tail = stemmed(rest);
        if tail.is_empty() || tail == "lib" {
            return "erebor".to_owned();
        }
        return format!("erebor::{tail}");
    }
    stemmed(&unixy)
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Every match position of `sym` in `code`, honoring word boundaries.
fn token_matches(code: &str, sym: &PrivSymbol) -> bool {
    let chars: Vec<char> = code.chars().collect();
    let tok: Vec<char> = sym.token.chars().collect();
    if chars.len() < tok.len() {
        return false;
    }
    let starts_ident = tok[0].is_alphanumeric() || tok[0] == '_';
    for i in 0..=(chars.len() - tok.len()) {
        if chars[i..i + tok.len()] != tok[..] {
            continue;
        }
        if starts_ident && i > 0 && is_ident(chars[i - 1]) {
            continue; // mid-identifier
        }
        if !sym.prefix {
            if let Some(&next) = chars.get(i + tok.len()) {
                if is_ident(next) && tok[tok.len() - 1] != '[' && tok[tok.len() - 1] != '.' {
                    continue; // exact-word token continued by an identifier
                }
            }
        }
        return true;
    }
    false
}

fn has_waiver(raw: &str, rule: &str) -> bool {
    raw.contains("priv:allow(") && raw.contains(rule)
}

/// Scan one file's content. Returns the reference-graph edges, the
/// findings (per `policy`), and the number of waivers that suppressed or
/// refused a finding (inert waiver text counts for nothing).
#[must_use]
pub fn scan_source(
    rel: &str,
    content: &str,
    policy: WaiverPolicy,
) -> (Vec<PrivRef>, Vec<PrivilegeFinding>, u64) {
    let unixy = rel.replace('\\', "/");
    let class = classify(&unixy);
    let privileged = manifest_entry(&unixy).is_some();
    let module = module_of(&unixy);
    let is_crate_root = unixy.ends_with("/lib.rs") || unixy == "src/lib.rs";
    let mut refs = Vec::new();
    let mut findings = Vec::new();
    let mut waivers = 0u64;
    let mut stripper = CodeStripper::new();
    let mut tracker = TestRegionTracker::new();
    for (idx, raw) in content.lines().enumerate() {
        let line = idx + 1;
        let stripped = stripper.strip(raw);
        let in_test = tracker.line_starts_in_test() || stripped.contains("#[cfg(test)]");
        tracker.observe(&stripped);
        let excerpt = || raw.trim().chars().take(120).collect::<String>();
        let waivers = &mut waivers;
        let mut push = |rule: &'static str, symbol: &str, category: &'static str| {
            // A waiver is counted only when it actually suppresses (or
            // refuses) a finding — dead waiver text in comments, strings,
            // or docs is inert, so the zero-waiver CI gate measures
            // exactly "findings hidden by waivers".
            let (rule, symbol) = if has_waiver(raw, rule) {
                *waivers = waivers.saturating_add(1);
                match policy {
                    WaiverPolicy::Honor => return,
                    WaiverPolicy::Refuse => ("waiver-refused", symbol),
                }
            } else {
                (rule, symbol)
            };
            findings.push(PrivilegeFinding {
                file: unixy.clone(),
                line,
                rule,
                symbol: symbol.to_owned(),
                category,
                module: module.clone(),
                excerpt: excerpt(),
            });
        };

        // stray-unsafe: workspace-wide, every class, test regions
        // included — `unsafe` is confined to nowhere at all.
        if token_matches(&stripped, &sym("unsafe", false, "unsafe", "")) {
            push("stray-unsafe", "unsafe", "unsafe");
        }

        // pub-leak: crate-root re-exports must not shorten the path to a
        // raw mutator.
        if is_crate_root && stripped.contains("pub use") {
            for banned in RAW_EXPORT_BANNED {
                let probe = sym(banned, false, "export", "");
                if token_matches(&stripped, &probe) {
                    push("pub-leak", banned, "raw-frame");
                }
            }
        }

        // Reference graph + priv-reach.
        for symbol in PRIVILEGED_SYMBOLS {
            if !token_matches(&stripped, symbol) {
                continue;
            }
            refs.push(PrivRef {
                module: module.clone(),
                file: unixy.clone(),
                line,
                symbol: symbol.token,
                category: symbol.category,
                privileged,
            });
            let reach_applies = class == FileClass::Library && !privileged && !in_test;
            if reach_applies {
                push("priv-reach", symbol.token, symbol.category);
            }
        }
    }
    (refs, findings, waivers)
}

/// Scan the whole workspace (same file set as the source lint) and build
/// the report. Results are path-sorted and deterministic.
#[must_use]
pub fn scan_workspace(root: &Path, policy: WaiverPolicy) -> PrivilegeReport {
    let mut report = PrivilegeReport::default();
    let mut matched: BTreeMap<&'static str, bool> = BTreeMap::new();
    for f in crate::lint::workspace_rs_files(root) {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(content) = fs::read_to_string(&f) else {
            continue;
        };
        report.files_scanned = report.files_scanned.saturating_add(1);
        report.lines_scanned = report
            .lines_scanned
            .saturating_add(content.lines().count() as u64);
        if let Some(entry) = manifest_entry(&rel) {
            report.privileged_files = report.privileged_files.saturating_add(1);
            matched.insert(entry.path, true);
        }
        let (refs, findings, waivers) = scan_source(&rel, &content, policy);
        report.references.extend(refs);
        report.findings.extend(findings);
        report.waivers_seen = report.waivers_seen.saturating_add(waivers);
    }
    report.privileged_modules = matched.len() as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reach(rel: &str, src: &str) -> Vec<PrivilegeFinding> {
        scan_source(rel, src, WaiverPolicy::Refuse).1
    }

    // ----- red fixtures: each rule fires, exactly once, typed ----------

    #[test]
    fn red_fixture_unprivileged_module_calls_raw_hw_mutator() {
        let src = "fn f(m: &mut Machine) { m.mem.write_u64(pa, v).ok(); }\n";
        let f = reach("crates/kernel/src/bad.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "priv-reach");
        assert_eq!(f[0].symbol, ".mem");
        assert_eq!(f[0].category, "raw-frame");
        assert_eq!(f[0].module, "erebor-kernel::bad");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn red_fixture_stray_unsafe_outside_manifest() {
        let src = "fn f() { let p = 0 as *const u8; unsafe { p.read() }; }\n";
        let f = reach("crates/libos/src/bad.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "stray-unsafe");
        assert_eq!(f[0].symbol, "unsafe");
    }

    #[test]
    fn red_fixture_pub_leak_reexposes_privileged_type() {
        let src = "pub use crate::phys::PhysMemory;\n";
        let f = reach("crates/hw/src/lib.rs", src);
        // The re-export is a pub-leak even though hw itself is privileged.
        let leaks: Vec<_> = f.iter().filter(|x| x.rule == "pub-leak").collect();
        assert_eq!(leaks.len(), 1, "{f:?}");
        assert_eq!(leaks[0].symbol, "PhysMemory");
    }

    // ----- rule applicability ------------------------------------------

    #[test]
    fn manifest_modules_may_reach() {
        let src = "fn f(m: &mut Machine) { paging::map_raw(&mut m.mem, r, va, pte, i).ok(); }\n";
        assert!(reach("crates/core/src/mmu_guard.rs", src).is_empty());
        assert!(reach("crates/hw/src/native.rs", src).is_empty());
        assert!(reach("crates/tdx/src/sept.rs", src).is_empty());
        assert!(reach("crates/analyze/src/audit.rs", src).is_empty());
        assert!(reach("src/platform.rs", src).is_empty());
        // ...but the same line in the kernel is two findings (map_raw + .mem).
        assert_eq!(reach("crates/kernel/src/vm.rs", src).len(), 2);
    }

    #[test]
    fn harness_and_test_regions_are_exempt_from_reach_but_not_unsafe() {
        let reach_src = "fn f(m: &mut M) { m.tlb_shootdown_mm(0, root, &vas).ok(); }\n";
        assert!(reach("tests/attacks.rs", reach_src).is_empty());
        assert!(reach("crates/chaos/src/world.rs", reach_src).is_empty());
        assert!(reach("examples/attack_demos.rs", reach_src).is_empty());
        let test_region = "#[cfg(test)]\nmod tests { fn t(m: &mut M) { m.flush_tlb(0); } }\n";
        assert!(reach("crates/kernel/src/vm.rs", test_region).is_empty());
        // unsafe is banned even in harness code and test regions.
        let unsafe_src = "fn f() { unsafe { x() } }\n";
        assert_eq!(reach("tests/attacks.rs", unsafe_src).len(), 1);
        let unsafe_test = "#[cfg(test)]\nmod tests { fn t() { unsafe { x() } } }\n";
        assert_eq!(reach("crates/kernel/src/vm.rs", unsafe_test).len(), 1);
    }

    #[test]
    fn reach_resumes_after_an_inline_test_module() {
        let src = "#[cfg(test)]\nmod tests { fn t(m: &mut M) { m.flush_tlb(0); } }\n\
                   fn after(m: &mut M) { m.flush_tlb(0); }\n";
        let f = reach("crates/kernel/src/vm.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn forbid_unsafe_code_attribute_is_not_a_stray_unsafe() {
        let src = "#![forbid(unsafe_code)]\nfn ok() {}\n";
        assert!(reach("crates/kernel/src/lib.rs", src).is_empty());
    }

    #[test]
    fn tokens_in_strings_and_comments_do_not_fire() {
        let src = "fn f() { log(\"map_raw unsafe .mem.\"); } // tlb_shootdown PhysMemory\n";
        assert!(reach("crates/kernel/src/a.rs", src).is_empty());
    }

    #[test]
    fn prefix_tokens_cover_the_symbol_family() {
        let src = "fn f(m: &mut M) { m.tlb_shootdown_batch(0, &vas).ok(); }\n";
        let f = reach("crates/kernel/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].symbol, "tlb_shootdown");
        // Exact-word tokens do not overmatch: `unsafe_code` is not `unsafe`.
        assert!(!token_matches("forbid(unsafe_code)", &sym("unsafe", false, "x", "")));
        // Word start is required: `remap_raw` is not `map_raw`.
        assert!(!token_matches("remap_rawish()", &sym("map_raw", true, "x", "")));
    }

    // ----- waivers ------------------------------------------------------

    #[test]
    fn waivers_are_refused_by_default_and_typed() {
        let src = "fn f(m: &mut M) { m.flush_tlb(0); } // priv:allow(priv-reach)\n";
        let f = reach("crates/kernel/src/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "waiver-refused");
        let (_, honored, waivers) =
            scan_source("crates/kernel/src/a.rs", src, WaiverPolicy::Honor);
        assert!(honored.is_empty());
        assert_eq!(waivers, 1);
        // Honored or not, the waiver itself is counted, so CI can fail on
        // any waiver appearing in the tree.
        let (_, _, refused_count) =
            scan_source("crates/kernel/src/a.rs", src, WaiverPolicy::Refuse);
        assert_eq!(refused_count, 1);
    }

    // ----- graph & report ----------------------------------------------

    #[test]
    fn graph_attributes_references_to_modules() {
        let src = "fn f(m: &mut M) { m.mem.alloc_frame().ok(); }\n";
        let (refs, _, _) = scan_source("crates/hw/src/native.rs", src, WaiverPolicy::Refuse);
        assert_eq!(refs.len(), 2); // .mem. and alloc_frame
        assert!(refs.iter().all(|r| r.module == "erebor-hw::native"));
        assert!(refs.iter().all(|r| r.privileged));
    }

    #[test]
    fn module_names() {
        assert_eq!(module_of("crates/hw/src/cpu.rs"), "erebor-hw::cpu");
        assert_eq!(module_of("crates/hw/src/lib.rs"), "erebor-hw");
        assert_eq!(module_of("crates/analyze/src/bin/lint.rs"), "erebor-analyze::bin::lint");
        assert_eq!(module_of("src/platform.rs"), "erebor::platform");
        assert_eq!(module_of("src/lib.rs"), "erebor");
        assert_eq!(module_of("tests/analyze.rs"), "tests::analyze");
    }

    #[test]
    fn report_json_is_escaped_and_structured() {
        let mut r = PrivilegeReport {
            files_scanned: 2,
            lines_scanned: 10,
            ..PrivilegeReport::default()
        };
        r.findings.push(PrivilegeFinding {
            file: "crates/k\"s.rs".to_owned(),
            line: 1,
            rule: "priv-reach",
            symbol: ".mem.".to_owned(),
            category: "raw-frame",
            module: "erebor-kernel::s".to_owned(),
            excerpt: "x\\\"y".to_owned(),
        });
        r.references.push(PrivRef {
            module: "erebor-hw::cpu".to_owned(),
            file: "crates/hw/src/cpu.rs".to_owned(),
            line: 2,
            symbol: "flush_tlb",
            category: "tlb-ipi",
            privileged: true,
        });
        let j = r.json();
        assert!(j.contains("\"count\":1"));
        assert!(j.contains("k\\\"s.rs"));
        assert!(j.contains("\"graph\":{\"erebor-hw::cpu\":1}"));
        assert_eq!(j.matches('"').count() % 2, 0, "balanced quotes: {j}");
        assert_eq!(r.work(), 10);
    }
}
