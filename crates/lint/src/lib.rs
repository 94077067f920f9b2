//! eta-lint: workspace static analysis enforcing the determinism,
//! numeric-safety, and telemetry contracts.
//!
//! Four layers run over every `.rs` file under the workspace root (a
//! registry-less environment rules out `syn`; see [`lexer`]):
//!
//! 1. **Token rules** ([`rules`]) — D1/D2/A1/T1 pattern checks on
//!    the lexed stream.
//! 2. **Semantic rules** ([`semantic`]) — every file is parsed to an
//!    AST ([`parser`]), assembled into a workspace model with a
//!    cross-crate call graph ([`model`]), and checked for S1
//!    panic-reachability, S2 nondeterminism taint, and S3 telemetry
//!    key liveness.
//! 3. **CFG + dataflow rules** ([`semantic::cfg`],
//!    [`semantic::dataflow`]) — per-function control-flow graphs
//!    drive H1 (hot-path allocation discipline) and A2 (SIMD
//!    intrinsic hygiene), and worklist liveness drives DS1 (dead
//!    stores); S1's bounds prover is a linear-arithmetic engine
//!    ([`semantic::linear`]) that discharges both `xs[i]` and
//!    flattened `data[r * cols + c]` indexing from local guards and
//!    constructor invariants. R1 additionally rejects
//!    stray `.proptest-regressions` seed files anywhere in the tree
//!    (the in-tree proptest shim never replays them).
//! 4. **Concurrency rules** ([`semantic::conc`]) — scoped-thread
//!    regions (`rayon::scope`/`join`) get an escape/alias pass over
//!    each spawned closure's captures; C1 proves pairwise-disjoint
//!    mutable footprints with the symbolic slice-region engine
//!    ([`semantic::disjoint`]) on top of the linear prover, C2 pins
//!    cross-thread results to the post-join sequential merge
//!    (subsuming the retired token rule D3), and C3 bans
//!    locks/atomics in numeric crates outside `// SYNC:`-justified
//!    telemetry plumbing.
//!
//! Justified exceptions live in `lint.toml` ([`allowlist`]);
//! `tests/lint_clean.rs` at the workspace root gates `cargo test` on a
//! clean run, and CI runs the binary with `--format sarif` for an
//! uploadable code-scanning report.
//!
//! ```text
//! cargo run -p eta-lint                     # human-readable findings
//! cargo run -p eta-lint -- --format json    # machine-readable report
//! cargo run -p eta-lint -- --format sarif   # SARIF 2.1.0 log
//! ```

pub mod allowlist;
pub mod ast;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod semantic;

pub use allowlist::AllowEntry;
pub use rules::{classify, lint_source, registry_keys, Finding};

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Path of the telemetry key registry the T1 rule checks against.
pub const REGISTRY_PATH: &str = "crates/telemetry/src/keys.rs";
/// Default allowlist location, relative to the workspace root.
pub const ALLOWLIST_PATH: &str = "lint.toml";

/// Outcome of linting a whole workspace.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Report {
    /// Files scanned, root-relative, sorted.
    pub files: Vec<String>,
    /// Findings not covered by any allowlist entry — these fail the run.
    pub findings: Vec<Finding>,
    /// Findings covered by the allowlist, with the justification used.
    pub suppressed: Vec<Suppressed>,
    /// Allowlist entries that matched nothing (candidates for removal).
    pub unused_allowlist: Vec<AllowEntry>,
    /// Advisory diagnostics (S3 telemetry liveness) — rendered and
    /// exported, but never failing the run.
    pub warnings: Vec<Finding>,
}

#[derive(Debug, Clone, serde::Serialize)]
pub struct Suppressed {
    pub finding: Finding,
    pub reason: String,
}

impl Report {
    /// The run is clean when nothing unallowlisted was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering: `file:line: RULE message` per finding,
    /// then a summary (and any unused allowlist entries as warnings).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: {} {}\n",
                f.file, f.line, f.rule, f.message
            ));
        }
        for w in &self.warnings {
            out.push_str(&format!(
                "warning: {}:{}: {} {}\n",
                w.file, w.line, w.rule, w.message
            ));
        }
        for e in &self.unused_allowlist {
            out.push_str(&format!(
                "warning: unused allowlist entry (lint.toml:{}) rule={} file={}\n",
                e.defined_at, e.rule, e.file
            ));
        }
        out.push_str(&format!(
            "eta-lint: {} file(s), {} finding(s), {} suppressed, {} unused allowlist entr{}\n",
            self.files.len(),
            self.findings.len(),
            self.suppressed.len(),
            self.unused_allowlist.len(),
            if self.unused_allowlist.len() == 1 {
                "y"
            } else {
                "ies"
            },
        ));
        out
    }
}

/// Configuration or I/O failure — distinct from findings, which are
/// reported, not erred.
#[derive(Debug)]
pub struct LintError(pub String);

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for LintError {}

/// Lints the workspace rooted at `root` using `<root>/lint.toml`.
pub fn lint_workspace(root: &Path) -> Result<Report, LintError> {
    let allowlist_path = root.join(ALLOWLIST_PATH);
    let allow_text = if allowlist_path.is_file() {
        std::fs::read_to_string(&allowlist_path)
            .map_err(|e| LintError(format!("reading {}: {e}", allowlist_path.display())))?
    } else {
        String::new()
    };
    lint_workspace_with(root, &allow_text)
}

/// Lints the workspace with explicit allowlist text (tests use this to
/// exercise allowlist handling without touching the real lint.toml).
pub fn lint_workspace_with(root: &Path, allow_text: &str) -> Result<Report, LintError> {
    let entries = allowlist::parse(allow_text, root).map_err(LintError)?;

    let registry: BTreeSet<String> = match std::fs::read_to_string(root.join(REGISTRY_PATH)) {
        Ok(src) => registry_keys(&src),
        Err(_) => BTreeSet::new(), // T1 then fires on every literal key
    };

    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)
        .map_err(|e| LintError(format!("walking {}: {e}", root.display())))?;
    files.sort();

    let mut all = Vec::new();
    let mut scanned = Vec::new();
    let mut sources = Vec::new();
    for rel in files {
        if rules::classify(&rel).is_none() {
            continue;
        }
        let src = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| LintError(format!("reading {rel}: {e}")))?;
        scanned.push(rel.clone());
        all.extend(lint_source(&rel, &src, &registry));
        sources.push((rel, src));
    }

    // Semantic layer: parse everything once, run S1/S2/H1/A2/DS1 and
    // S3 over the workspace model. Error findings join the allowlist
    // matching below; S3 liveness results stay advisory.
    let sem = semantic::analyze_sources(&sources, Some(root));
    if !sem.config_errors.is_empty() {
        return Err(LintError(sem.config_errors.join("\n")));
    }
    all.extend(sem.findings);

    // R1: stray proptest seed files. The in-tree proptest shim never
    // replays `.proptest-regressions`, so a committed seed file is
    // dead weight that silently suggests replay coverage that does
    // not exist.
    let mut strays = Vec::new();
    collect_stray_regressions(root, root, &mut strays)
        .map_err(|e| LintError(format!("walking {}: {e}", root.display())))?;
    strays.sort();
    for rel in strays {
        all.push(Finding {
            rule: "R1".into(),
            file: rel,
            line: 1,
            message: "stray `.proptest-regressions` seed file: the in-tree proptest shim \
                      never replays these; delete it"
                .into(),
        });
    }
    all.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));

    let mut used = vec![false; entries.len()];
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for f in all {
        let hit = entries
            .iter()
            .zip(used.iter_mut())
            .find(|(e, _)| e.matches(&f));
        match hit {
            Some((entry, used_flag)) => {
                *used_flag = true;
                suppressed.push(Suppressed {
                    reason: entry.reason.clone(),
                    finding: f,
                });
            }
            None => findings.push(f),
        }
    }
    let unused_allowlist = entries
        .into_iter()
        .zip(used)
        .filter(|(_, u)| !u)
        .map(|(e, _)| e)
        .collect();

    Ok(Report {
        files: scanned,
        findings,
        suppressed,
        unused_allowlist,
        warnings: sem.warnings,
    })
}

/// Directories never worth descending into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "results"];

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(path_to_rel_string(rel));
            }
        }
    }
    Ok(())
}

fn collect_stray_regressions(
    root: &Path,
    dir: &Path,
    out: &mut Vec<String>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_stray_regressions(root, &path, out)?;
        } else if name.ends_with(".proptest-regressions") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(path_to_rel_string(rel));
            }
        }
    }
    Ok(())
}

fn path_to_rel_string(rel: &Path) -> String {
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}
