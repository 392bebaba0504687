//! The hermetic source lint: token-level rules over the workspace
//! source, with no parser dependency (`syn`-free by design — the rules
//! are line-shaped and a full AST would buy nothing but a dependency).
//!
//! Rules:
//!
//! * `no-panic` — no `.unwrap()`, `.expect(`, or `panic!(` in *library*
//!   code outside `#[cfg(test)]` regions. Bins, benches, examples,
//!   integration tests, and the harness crates (`testkit`, `bench`,
//!   `chaos` — whose contract is to abort loudly on harness misuse) are
//!   exempt. A documented waiver is spelled `// lint:allow(panic)` on
//!   the offending line. Files on the [`STRICT_NO_PANIC_FILES`] list are
//!   held to a stronger contract: the rule applies to their *entire*
//!   content (test regions included) and waivers are not honored —
//!   these files sit on the migration-peer input path, where a panic is
//!   a remote denial of service against the monitor.
//! * `saturating-counters` — stats counters never use bare `+=`/`-=`
//!   (the workspace convention is `saturating_add`/`saturating_sub` so
//!   long campaigns cannot overflow-panic in debug builds). Waiver:
//!   `lint:allow(counter)`.
//! * `no-relaxed` — `Ordering::Relaxed` is banned on synchronization
//!   atomics (the workspace is single-threaded-deterministic; any
//!   atomic that appears must order). Waiver: `lint:allow(relaxed)`.
//! * `json-marker` — every bin that serializes JSON (calls `.json()`)
//!   must emit the `EREBOR_JSON:` marker CI greps for.
//! * `bucket-scope` — cycle-attribution buckets are switched only by the
//!   scoped calls (`Machine::charged_to`, the platform's kernel entries)
//!   and the context entries that set the bucket for the code that
//!   follows them: a raw `set_bucket` call outside
//!   [`BUCKET_SWITCH_FILES`] and test regions is a finding, because a
//!   hand-written switch can skip its restore on an early return.
//!   Waiver: `lint:allow(bucket)`.
//!
//! `#[cfg(test)]` regions are tracked brace-accurately by
//! [`crate::source::TestRegionTracker`]: only the guarded item's span is
//! exempt, so library code following an *inline* test module is linted
//! like any other code. Comments, string literals, and char literals are
//! stripped by [`crate::source::CodeStripper`] before token matching.

use crate::findings::escape_json;
use crate::source::{CodeStripper, TestRegionTracker};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number (0 for whole-file rules).
    pub line: usize,
    /// Stable rule name.
    pub rule: &'static str,
    /// The offending line, trimmed.
    pub excerpt: String,
}

impl LintFinding {
    /// Deterministic JSON object. `file` and `excerpt` are escaped so a
    /// path or source line containing `"` or `\` cannot break the
    /// document CI extracts from the `EREBOR_JSON:` marker.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = String::from("{\"file\":\"");
        escape_json(&self.file, &mut s);
        let _ = write!(s, "\",\"line\":{},\"rule\":\"{}\",\"excerpt\":\"", self.line, self.rule);
        escape_json(&self.excerpt, &mut s);
        s.push_str("\"}");
        s
    }
}

impl core::fmt::Display for LintFinding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.excerpt)
    }
}

/// How a source file is classified for rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Shipped library code: every rule applies.
    Library,
    /// A `src/bin/` entry point: panic rule relaxed, JSON-marker rule on.
    Bin,
    /// Tests, benches, examples, and harness crates: only the atomic and
    /// counter rules apply.
    Harness,
}

/// Crates whose whole purpose is driving tests/benches/chaos; their
/// libraries abort on harness misuse by contract.
const HARNESS_CRATES: [&str; 3] = ["crates/testkit", "crates/bench", "crates/chaos"];

/// Files that parse or act on migration-peer-controlled input, where a
/// panic is a remote denial of service: the `no-panic` rule applies to
/// their entire content — `#[cfg(test)]` regions included — and
/// `lint:allow(panic)` waivers are not honored.
pub const STRICT_NO_PANIC_FILES: [&str; 3] = [
    "crates/crypto/src/kx.rs",
    "crates/kernel/src/kernel.rs",
    "crates/kernel/src/vfs.rs",
];

/// The only files that may switch the cycle-attribution bucket by hand:
/// the counter itself, `Machine::charged_to`, and the platform driver's
/// kernel and user entries.
pub const BUCKET_SWITCH_FILES: [&str; 3] = [
    "crates/hw/src/cycles.rs",
    "crates/hw/src/cpu.rs",
    "src/platform.rs",
];

/// Classify a workspace-relative path.
#[must_use]
pub fn classify(rel: &str) -> FileClass {
    let unixy = rel.replace('\\', "/");
    if unixy.contains("/bin/") {
        return FileClass::Bin; // bins stay bins even inside harness crates
    }
    if HARNESS_CRATES.iter().any(|c| unixy.starts_with(c)) {
        return FileClass::Harness;
    }
    if unixy.starts_with("tests/")
        || unixy.contains("/tests/")
        || unixy.contains("/benches/")
        || unixy.starts_with("examples/")
        || unixy.contains("/examples/")
    {
        return FileClass::Harness;
    }
    FileClass::Library
}

fn has_waiver(line: &str, what: &str) -> bool {
    line.contains("lint:allow(") && line.contains(what)
}

/// Lint one file's content. `rel` is the workspace-relative path used in
/// findings and for classification.
#[must_use]
pub fn lint_source(rel: &str, content: &str) -> Vec<LintFinding> {
    let class = classify(rel);
    let unixy = rel.replace('\\', "/");
    let strict = STRICT_NO_PANIC_FILES.iter().any(|f| unixy == *f);
    let bucket_switch_allowed = BUCKET_SWITCH_FILES.iter().any(|f| unixy == *f);
    let mut findings = Vec::new();
    let mut stripper = CodeStripper::new();
    let mut tracker = TestRegionTracker::new();
    for (idx, raw) in content.lines().enumerate() {
        let line = idx + 1;
        // Comments and literals carry waivers, prose, and fixtures; strip
        // them for token scans but keep the raw line for waiver detection.
        let stripped = stripper.strip(raw);
        let in_test_region = tracker.line_starts_in_test() || stripped.contains("#[cfg(test)]");
        tracker.observe(&stripped);
        let code: &str = &stripped;
        let mut flag = |rule| {
            findings.push(LintFinding {
                file: rel.to_owned(),
                line,
                rule,
                excerpt: raw.trim().chars().take(120).collect(),
            });
        };

        let panic_rule_applies =
            strict || (class == FileClass::Library && !in_test_region && !has_waiver(raw, "panic"));
        if panic_rule_applies
            && (code.contains(".unwrap()") || code.contains(".expect(") || code.contains("panic!("))
        {
            flag("no-panic");
        }
        if !in_test_region
            && !has_waiver(raw, "counter")
            && code.contains("stats.")
            && (code.contains("+=") || code.contains("-="))
        {
            flag("saturating-counters");
        }
        // Token split keeps the raw call out of searches for it.
        let bucket_tok = concat!("set_bucket", "(");
        if !in_test_region
            && !bucket_switch_allowed
            && code.contains(bucket_tok)
            && !has_waiver(raw, "bucket")
        {
            flag("bucket-scope");
        }
        // Token split so the lint does not flag its own rule definition.
        let relaxed_tok = concat!("Ordering::", "Relaxed");
        if code.contains(relaxed_tok) && !has_waiver(raw, "relaxed") {
            flag("no-relaxed");
        }
    }
    if class == FileClass::Bin && content.contains(".json()") && !content.contains("EREBOR_JSON") {
        findings.push(LintFinding {
            file: rel.to_owned(),
            line: 0,
            rule: "json-marker",
            excerpt: "bin serializes JSON without the EREBOR_JSON: marker".to_owned(),
        });
    }
    findings
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Every `.rs` file the workspace passes scan: the root `src/`,
/// `tests/`, and `examples/` trees plus each crate's `src/` and
/// `benches/`. Path-sorted for determinism. Shared by the source lint
/// and the privilege auditor so both passes see the same tree.
#[must_use]
pub fn workspace_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("src"), &mut files);
    collect_rs_files(&root.join("tests"), &mut files);
    collect_rs_files(&root.join("examples"), &mut files);
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        let mut dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        dirs.sort();
        for d in dirs {
            collect_rs_files(&d.join("src"), &mut files);
            collect_rs_files(&d.join("benches"), &mut files);
        }
    }
    files.sort();
    files
}

/// Lint every `.rs` file under the workspace root's `src/` and
/// `crates/*/src/` trees (the shipped source; integration tests and
/// examples are classified, not skipped, so the counter/atomic rules
/// still see them). Results are sorted by path for determinism.
#[must_use]
pub fn lint_workspace(root: &Path) -> Vec<LintFinding> {
    let files = workspace_rs_files(root);
    let mut findings = Vec::new();
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(content) = fs::read_to_string(&f) else {
            continue;
        };
        findings.extend(lint_source(&rel, &content));
    }
    findings
}

/// Deterministic JSON report over a finding set.
#[must_use]
pub fn report_json(findings: &[LintFinding]) -> String {
    let mut s = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&f.json());
    }
    let _ = write!(s, "],\"count\":{}}}", findings.len());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_paths() {
        assert_eq!(classify("crates/core/src/monitor.rs"), FileClass::Library);
        assert_eq!(classify("crates/analyze/src/bin/lint.rs"), FileClass::Bin);
        assert_eq!(classify("crates/testkit/src/prop.rs"), FileClass::Harness);
        assert_eq!(classify("tests/chaos.rs"), FileClass::Harness);
        assert_eq!(classify("crates/bench/benches/paging.rs"), FileClass::Harness);
    }

    #[test]
    fn flags_panics_in_library_code_only() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(lint_source("crates/core/src/a.rs", src).len(), 1);
        assert!(lint_source("tests/a.rs", src).is_empty());
        assert!(lint_source("crates/testkit/src/a.rs", src).is_empty());
    }

    #[test]
    fn test_region_and_waiver_are_exempt() {
        let src = "fn f() { a.expect(\"x\") } // lint:allow(panic)\n\
                   #[cfg(test)]\nmod tests { fn g() { b.unwrap(); } }\n";
        assert!(lint_source("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn code_after_an_inline_test_module_is_linted_again() {
        // The old heuristic skipped everything after the first
        // `#[cfg(test)]` line; the brace tracker must resume linting
        // once the test module closes.
        let src = "#[cfg(test)]\n\
                   mod tests {\n    fn g() { b.unwrap(); }\n}\n\
                   fn after() { c.unwrap(); }\n";
        let f = lint_source("crates/core/src/a.rs", src);
        assert_eq!(f.len(), 1, "exactly the post-module panic: {f:?}");
        assert_eq!(f[0].line, 5);
        assert_eq!(f[0].rule, "no-panic");
    }

    #[test]
    fn tokens_inside_string_literals_do_not_fire() {
        let src = "fn f() { log(\"call .unwrap() later\"); }\n";
        assert!(lint_source("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn finding_json_escapes_file_and_excerpt() {
        let f = LintFinding {
            file: "crates/we\"ird\\path.rs".to_owned(),
            line: 3,
            rule: "no-panic",
            excerpt: "let s = \"x\\y\";".to_owned(),
        };
        let j = f.json();
        assert!(j.contains("we\\\"ird\\\\path.rs"));
        assert!(j.contains("\\\"x\\\\y\\\";"));
        // The document as a whole must stay parseable: an even number of
        // *structural* (unescaped) quotes.
        let mut structural = 0usize;
        let mut esc = false;
        for c in j.chars() {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                structural += 1;
            }
        }
        assert_eq!(structural % 2, 0, "unbalanced structural quotes: {j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn strict_files_flag_panics_in_test_regions_and_ignore_waivers() {
        // Test regions are NOT exempt on the strict list…
        let in_tests = "#[cfg(test)]\nmod tests { fn g() { b.unwrap(); } }\n";
        for f in STRICT_NO_PANIC_FILES {
            let found = lint_source(f, in_tests);
            assert_eq!(found.len(), 1, "{f} must be strict");
            assert_eq!(found[0].rule, "no-panic");
        }
        // …and neither are waivers.
        let waived = "fn f() { a.expect(\"x\") } // lint:allow(panic)\n";
        assert_eq!(lint_source("crates/crypto/src/kx.rs", waived).len(), 1);
        // Ordinary library files keep the relaxed contract.
        assert!(lint_source("crates/crypto/src/ed25519.rs", waived).is_empty());
        assert!(lint_source("crates/crypto/src/ed25519.rs", in_tests).is_empty());
    }

    #[test]
    fn strict_file_list_holds_in_the_workspace() {
        // The three migration-peer input files really are panic-free
        // end to end; if this fails, a panic crept back in.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for f in STRICT_NO_PANIC_FILES {
            let Ok(content) = fs::read_to_string(root.join(f)) else {
                continue; // tolerated: analyze may be vendored standalone
            };
            let findings: Vec<_> = lint_source(f, &content)
                .into_iter()
                .filter(|x| x.rule == "no-panic")
                .collect();
            assert!(findings.is_empty(), "{f} regressed: {findings:?}");
        }
    }

    #[test]
    fn flags_bare_counter_arithmetic_everywhere() {
        let src = "self.stats.tlb_hits += 1;\n";
        let f = lint_source("crates/hw/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "saturating-counters");
        // Applies in harness code too: overflow aborts a campaign.
        assert_eq!(lint_source("crates/chaos/src/a.rs", src).len(), 1);
        let ok = "self.stats.tlb_hits = self.stats.tlb_hits.saturating_add(1);\n";
        assert!(lint_source("crates/hw/src/a.rs", ok).is_empty());
    }

    #[test]
    fn flags_relaxed_ordering() {
        let src = concat!("a.fetch_add(1, Ordering::", "Relaxed);\n");
        let f = lint_source("crates/hw/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-relaxed");
    }

    #[test]
    fn flags_unscoped_bucket_switches_outside_the_allowed_files() {
        let src = concat!("let prev = m.cycles.set_bucket", "(Bucket::Monitor);\n");
        let f = lint_source("crates/core/src/monitor.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "bucket-scope");
        for allowed in BUCKET_SWITCH_FILES {
            assert!(lint_source(allowed, src).is_empty(), "{allowed}");
        }
        let waived = concat!("m.cycles.set_bucket", "(b); // lint:allow(bucket)\n");
        assert!(lint_source("crates/tdx/src/tdcall.rs", waived).is_empty());
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint_source("crates/core/src/monitor.rs", &in_tests).is_empty());
        let scoped = "machine.charged_to(Bucket::Monitor, |m| work(m));\n";
        assert!(lint_source("crates/core/src/monitor.rs", scoped).is_empty());
    }

    #[test]
    fn flags_json_bins_without_marker() {
        let src = "fn main() { println!(\"{}\", report.json()); }\n";
        let f = lint_source("crates/bench/src/bin/out.rs", src);
        assert!(f.iter().any(|f| f.rule == "json-marker"));
        let ok = "fn main() { println!(\"EREBOR_JSON:{}\", report.json()); }\n";
        assert!(lint_source("crates/bench/src/bin/out.rs", ok).is_empty());
    }

    #[test]
    fn report_json_counts() {
        let f = lint_source("crates/core/src/a.rs", "x.unwrap();\n");
        let j = report_json(&f);
        assert!(j.contains("\"count\":1"));
        assert!(j.contains("\"rule\":\"no-panic\""));
    }
}
