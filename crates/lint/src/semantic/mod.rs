//! Semantic analyses over the parsed workspace model.
//!
//! Unlike the token rules in [`crate::rules`], these passes see real
//! structure: an AST per file ([`crate::parser`]), a function table
//! and cross-crate call graph ([`crate::model`]). Three rules live
//! here:
//!
//! * **S1** ([`s1`]) — panic reachability: which public APIs of the
//!   numeric crates transitively reach a panic-capable site; the
//!   diagnostic prints the exact call chain.
//! * **S2** ([`s2`]) — nondeterminism taint: clock / entropy /
//!   hash-order values flowing into numeric arithmetic, tensor
//!   buffers, or telemetry values.
//! * **S3** ([`s3`]) — telemetry key liveness: registered keys that
//!   no non-test code ever emits (warnings, not errors).
//!
//! Layer 3 builds per-function control-flow graphs ([`mod@cfg`]) and runs
//! worklist dataflow ([`dataflow`]) on top of the same model:
//!
//! * **H1** ([`h1`]) — hot-path allocation discipline: allocating
//!   calls reachable from the per-timestep workspace entry points.
//! * **A2** ([`a2`]) — SIMD readiness: `std::arch` intrinsics need
//!   `#[target_feature]`, a runtime-detect guard with scalar
//!   fallback, and a `// SAFETY:` comment.
//! * **DS1** ([`ds1`]) — dead stores: computed values overwritten or
//!   dropped before any read (liveness over the CFG).
//!
//! S1 proves indexing in bounds with the linear-arithmetic engine
//! ([`linear`]), which discharges `xs[i]` and `data[r * cols + c]`
//! indexing from constructor invariants and local guards, helped by
//! the struct-field shape pass ([`shape`]) proving equal-length `Vec`
//! field pairs.
//!
//! Layer 4 is the concurrency analysis ([`conc`]) with its symbolic
//! slice-region disjointness engine ([`disjoint`]):
//!
//! * **C1** — data-race freedom: concurrently-live spawned closures
//!   must have provably disjoint mutable footprints.
//! * **C2** — deterministic merge order: cross-thread results reach
//!   float state only through the post-join sequential loop (subsumes
//!   the retired token rule D3).
//! * **C3** — synchronization discipline: locks and atomics are
//!   banned in numeric crates outside `// SYNC:`-justified telemetry
//!   plumbing.

pub mod a2;
pub mod cfg;
pub mod conc;
pub mod dataflow;
pub mod disjoint;
pub mod ds1;
pub mod h1;
pub mod linear;
pub mod s1;
pub mod s2;
pub mod s3;
pub mod shape;

use crate::model::Workspace;
use crate::rules::Finding;
use std::path::Path;

/// Error findings and warnings from all semantic passes, plus
/// configuration errors: rule parameters that name nothing in the
/// analysed sources (see [`h1::unresolved_names`]).
pub struct SemanticReport {
    pub findings: Vec<Finding>,
    pub warnings: Vec<Finding>,
    pub config_errors: Vec<String>,
}

/// Runs S1/S2/S3 over `(root-relative path, source)` pairs. `root`
/// supplies crate-dependency scopes from the manifests when linting a
/// real workspace; fixtures pass `None`.
pub fn analyze_sources(sources: &[(String, String)], root: Option<&Path>) -> SemanticReport {
    let ws = Workspace::build(sources, root);
    let mut findings = s1::run(&ws);
    findings.extend(s2::run(&ws));
    findings.extend(h1::run(&ws));
    findings.extend(a2::run(&ws));
    findings.extend(ds1::run(&ws));
    findings.extend(conc::run(&ws));
    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    SemanticReport {
        findings,
        warnings: s3::run(&ws),
        config_errors: h1::unresolved_names(&ws)
            .into_iter()
            .map(|name| {
                format!(
                    "H1 root list names `{name}`, which matches no non-test library \
                     function in a numeric crate; update crates/lint/src/semantic/h1.rs"
                )
            })
            .collect(),
    }
}
