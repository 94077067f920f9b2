//! H1 — hot-path allocation discipline.
//!
//! The paper's training loop is zero-alloc by design: every buffer is
//! owned by the workspace / packed-panel caches and reused across
//! timesteps. This rule enforces that statically. Starting from the
//! per-timestep entry points (`forward_into`, `backward_ws`, the packed
//! GEMM kernels, the MS1 compression and MS3 recompute paths), it
//! walks the call graph and flags every reachable allocating
//! expression — `Vec::new` / `Vec::with_capacity`, `vec![…]`,
//! `.to_vec()`, `.clone()`, `Box::new`, `String` construction and
//! `format!` — with the full call chain in the diagnostic.
//!
//! Boundaries that keep the rule honest rather than vacuous:
//!
//! * **per-step drivers** — `train_step_ws` / `train_step_sharded_ws`
//!   run once per optimizer update; their bodies and everything only
//!   they reach (shard partitioning, input slicing, loss/head setup)
//!   are once-per-update work, outside the per-timestep contract.
//!   They are therefore not BFS seeds at all: the per-timestep tier
//!   is anchored by the hot roots and the sequence drivers below.
//! * **sequence drivers** — `forward_sequence_ws` /
//!   `backward_sequence_ws` contain the timestep loop. Their own
//!   bodies are exempt (tape entries are per-step allocations owned
//!   by the autograd tape, by contract), but every callee is hot:
//!   anything they invoke runs once per timestep.
//! * **setup regions** — `ensure*` workspace sizing and packed-panel
//!   cache management have both body and callees exempt; allocating
//!   there is their entire, once-per-shape-change job.
//! * **constructor sinks** — associated functions without `self`
//!   (`Matrix::zeros`, `PackedB::from_nn`) return caller-owned
//!   values; the traversal stops there and the call sites themselves
//!   are not flagged. This is a deliberate ownership boundary: the
//!   autograd tape owns per-step activation matrices by contract, and
//!   moving that ownership into the workspace is tracked separately
//!   (ROADMAP). Raw `vec!`/`Vec::new`/`.clone()` in a hot body has no
//!   such owner and is always a finding.
//! * **instrumentation boundary** — calls into the `telemetry` crate
//!   stop the traversal. Hot-path scopes are trace-only: one relaxed
//!   atomic load when no span observer is attached, and the allocation
//!   cost when a tracer *is* attached is governed by eta-prof's own
//!   overhead budget and perf-regression gate, not by the numeric
//!   zero-alloc contract.
//! * **cold paths** — subtrees that only execute on failure are
//!   skipped: panic-family macro invocations, `Err(…)` construction,
//!   and the closure arguments of `map_err` / `ok_or_else`. Building
//!   an error message allocates exactly once, on the way out.
//! * **`Range` clones** — `.clone()` on a local bound to a range
//!   literal (`let span = a..b`) copies two words and is not an
//!   allocation; such receivers are suppressed.
//!
//! Every name in the three lists below must match a non-test library
//! function in a numeric crate ([`unresolved_names`]); the workspace
//! run treats a stale name as a configuration error, because a
//! renamed or deleted root would otherwise shrink the rule's coverage
//! without any finding.

use crate::ast::{expr_text, Block, Expr, ExprKind, Stmt};
use crate::model::{FnInfo, Workspace};
use crate::rules::{Finding, ScopeKind, NUMERIC_CRATES};
use std::collections::{BTreeSet, VecDeque};

/// Per-timestep entry points: the zero-alloc contract applies to
/// everything these reach (minus setup regions and constructor sinks).
const HOT_ROOTS: &[&str] = &[
    "forward_into",
    "backward_ws",
    "compute_p1_into",
    "gemm_nt_rows",
    "gemm_nt_rows_epilogue",
    "gemm_nn_rows",
    "gemm_tn_rows",
    "recompute_segment",
];

/// Sequence drivers: own body exempt (tape ownership), callees hot —
/// everything they call runs once per timestep.
const SEQ_DRIVERS: &[&str] = &["forward_sequence_ws", "backward_sequence_ws"];

/// Setup/cache-management functions: body exempt and traversal stops —
/// allocating is their documented, once-per-update job.
const SETUP_STOPS: &[&str] = &[
    "pack_with",
    "checkout_with",
    "invalidate",
    "slot",
    "slots_mut",
    "slice_targets",
];

pub fn run(ws: &Workspace) -> Vec<Finding> {
    // BFS from the hot roots plus the sequence drivers; parent edges
    // give the shortest, deterministic call chain for diagnostics.
    let n = ws.fns.len();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut reached = vec![false; n];
    let mut queue = VecDeque::new();
    for f in &ws.fns {
        if is_hot_root(f) || is_seq_driver(f) {
            reached[f.id] = true;
            queue.push_back(f.id);
        }
    }
    while let Some(u) = queue.pop_front() {
        if stops_traversal(&ws.fns[u]) {
            continue;
        }
        for &v in &ws.callees[u] {
            if !reached[v] {
                reached[v] = true;
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }

    let mut findings = Vec::new();
    for f in &ws.fns {
        if !reached[f.id] || !scanned(f) {
            continue;
        }
        let Some(body) = &f.body else { continue };
        let chain = chain_to(ws, &parent, f.id);
        let mut range_locals = BTreeSet::new();
        collect_range_locals(body, &mut range_locals);
        scan_block(body, &range_locals, &mut |e, desc| {
            findings.push(Finding {
                rule: "H1".into(),
                file: f.file.clone(),
                line: e.line,
                message: format!(
                    "{} allocates in the per-timestep hot path, reached via {}",
                    desc,
                    chain.join(" -> ")
                ),
            });
        });
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    findings
}

/// Names in the hot-root, sequence-driver and setup-stop lists that
/// match no non-test library function in a numeric crate.
pub fn unresolved_names(ws: &Workspace) -> Vec<&'static str> {
    HOT_ROOTS
        .iter()
        .chain(SEQ_DRIVERS)
        .chain(SETUP_STOPS)
        .copied()
        .filter(|&name| !ws.fns.iter().any(|f| f.name == name && is_numeric_lib(f)))
        .collect()
}

fn is_numeric_lib(f: &FnInfo) -> bool {
    !f.in_test && f.kind == ScopeKind::Lib && NUMERIC_CRATES.contains(&f.crate_key.as_str())
}

fn is_hot_root(f: &FnInfo) -> bool {
    HOT_ROOTS.contains(&f.name.as_str()) && is_numeric_lib(f)
}

fn is_seq_driver(f: &FnInfo) -> bool {
    SEQ_DRIVERS.contains(&f.name.as_str()) && is_numeric_lib(f)
}

/// Constructor sink: associated fn (no `self`) on an impl type —
/// returns a caller-owned value, so its internals are not hot.
fn is_ctor_sink(f: &FnInfo) -> bool {
    !f.has_self && f.self_ty.is_some()
}

fn stops_traversal(f: &FnInfo) -> bool {
    SETUP_STOPS.contains(&f.name.as_str())
        || f.name.starts_with("ensure")
        || f.crate_key == "telemetry"
        || is_ctor_sink(f) && !is_hot_root(f)
}

/// Should this function's own body be scanned for allocations?
fn scanned(f: &FnInfo) -> bool {
    !f.in_test
        && f.kind == ScopeKind::Lib
        && !is_seq_driver(f)
        && !stops_traversal(f)
        && f.body.is_some()
}

/// Walks a block reporting allocation sites, pruning cold subtrees.
fn scan_block<'a>(
    b: &'a Block,
    range_locals: &BTreeSet<String>,
    on_alloc: &mut impl FnMut(&'a Expr, String),
) {
    for s in &b.stmts {
        match s {
            Stmt::Let { init: Some(e), .. } => scan_expr(e, range_locals, on_alloc),
            Stmt::Expr { expr, .. } => scan_expr(expr, range_locals, on_alloc),
            _ => {}
        }
    }
}

fn scan_expr<'a>(
    e: &'a Expr,
    range_locals: &BTreeSet<String>,
    on_alloc: &mut impl FnMut(&'a Expr, String),
) {
    match &e.kind {
        // Cold: the panic formats only on the way down. (Allocation in
        // an assert *condition* is also skipped — an accepted
        // false-negative, documented in DESIGN.md §9.)
        ExprKind::MacroCall { path, .. }
            if matches!(
                path.last().map(String::as_str),
                Some(
                    "panic"
                        | "assert"
                        | "assert_eq"
                        | "assert_ne"
                        | "debug_assert"
                        | "debug_assert_eq"
                        | "debug_assert_ne"
                        | "unreachable"
                        | "todo"
                        | "unimplemented"
                )
            ) =>
        {
            return;
        }
        // Cold: error construction happens once, on failure.
        ExprKind::Call { callee, .. } if callee.path_last() == Some("Err") => {
            return;
        }
        // Cold: these closures run only on the error branch.
        ExprKind::MethodCall { recv, method, .. }
            if matches!(method.as_str(), "map_err" | "ok_or_else") =>
        {
            scan_expr(recv, range_locals, on_alloc);
            return;
        }
        _ => {}
    }
    if let Some(desc) = alloc_desc(e, range_locals) {
        on_alloc(e, desc);
    }
    match &e.kind {
        ExprKind::Block(b) | ExprKind::Unsafe(b) | ExprKind::Loop { body: b } => {
            scan_block(b, range_locals, on_alloc)
        }
        ExprKind::If { cond, then, else_ } => {
            scan_expr(cond, range_locals, on_alloc);
            scan_block(then, range_locals, on_alloc);
            if let Some(e) = else_ {
                scan_expr(e, range_locals, on_alloc);
            }
        }
        ExprKind::IfLet {
            scrutinee,
            then,
            else_,
            ..
        } => {
            scan_expr(scrutinee, range_locals, on_alloc);
            scan_block(then, range_locals, on_alloc);
            if let Some(e) = else_ {
                scan_expr(e, range_locals, on_alloc);
            }
        }
        ExprKind::While { cond, body } => {
            scan_expr(cond, range_locals, on_alloc);
            scan_block(body, range_locals, on_alloc);
        }
        ExprKind::WhileLet {
            scrutinee, body, ..
        } => {
            scan_expr(scrutinee, range_locals, on_alloc);
            scan_block(body, range_locals, on_alloc);
        }
        ExprKind::ForLoop { iter, body, .. } => {
            scan_expr(iter, range_locals, on_alloc);
            scan_block(body, range_locals, on_alloc);
        }
        ExprKind::Match { scrutinee, arms } => {
            scan_expr(scrutinee, range_locals, on_alloc);
            for arm in arms {
                scan_expr(&arm.body, range_locals, on_alloc);
            }
        }
        _ => {
            let mut subs = Vec::new();
            super::linear::collect_children(e, &mut subs);
            for s in subs {
                scan_expr(s, range_locals, on_alloc);
            }
        }
    }
}

/// `let`-bound names initialised from a range literal — cloning these
/// is a two-word copy, not an allocation.
fn collect_range_locals(b: &Block, out: &mut BTreeSet<String>) {
    for s in &b.stmts {
        match s {
            Stmt::Let {
                names,
                init: Some(init),
                ..
            } => {
                if names.len() == 1 && matches!(&init.kind, ExprKind::Range { .. }) {
                    out.insert(names[0].clone());
                }
                collect_range_locals_expr(init, out);
            }
            Stmt::Expr { expr, .. } => collect_range_locals_expr(expr, out),
            _ => {}
        }
    }
}

fn collect_range_locals_expr(e: &Expr, out: &mut BTreeSet<String>) {
    match &e.kind {
        ExprKind::Block(b) | ExprKind::Unsafe(b) | ExprKind::Loop { body: b } => {
            collect_range_locals(b, out)
        }
        ExprKind::If { cond, then, else_ } => {
            collect_range_locals_expr(cond, out);
            collect_range_locals(then, out);
            if let Some(e) = else_ {
                collect_range_locals_expr(e, out);
            }
        }
        ExprKind::While { cond, body } => {
            collect_range_locals_expr(cond, out);
            collect_range_locals(body, out);
        }
        ExprKind::ForLoop { iter, body, .. } => {
            collect_range_locals_expr(iter, out);
            collect_range_locals(body, out);
        }
        ExprKind::Match { scrutinee, arms } => {
            collect_range_locals_expr(scrutinee, out);
            for arm in arms {
                collect_range_locals_expr(&arm.body, out);
            }
        }
        _ => {
            let mut subs = Vec::new();
            super::linear::collect_children(e, &mut subs);
            for s in subs {
                collect_range_locals_expr(s, out);
            }
        }
    }
}

/// Describes an allocating expression, or `None`.
fn alloc_desc(e: &Expr, range_locals: &BTreeSet<String>) -> Option<String> {
    match &e.kind {
        ExprKind::MacroCall { path, .. } => match path.last().map(String::as_str) {
            Some("vec") => Some("`vec![…]`".into()),
            Some("format") => Some("`format!`".into()),
            _ => None,
        },
        ExprKind::Call { callee, .. } => {
            let ExprKind::Path(segs) = &callee.kind else {
                return None;
            };
            if segs.len() < 2 {
                return None;
            }
            let (ty, ctor) = (&segs[segs.len() - 2], &segs[segs.len() - 1]);
            let alloc_ty = matches!(
                ty.as_str(),
                "Vec"
                    | "Box"
                    | "String"
                    | "VecDeque"
                    | "BTreeMap"
                    | "BTreeSet"
                    | "HashMap"
                    | "HashSet"
            );
            let alloc_ctor = matches!(ctor.as_str(), "new" | "with_capacity" | "from");
            (alloc_ty && alloc_ctor).then(|| format!("`{ty}::{ctor}`"))
        }
        ExprKind::MethodCall { recv, method, args } if args.is_empty() => {
            if method == "clone" {
                if let ExprKind::Path(segs) = &crate::ast::peel(recv).kind {
                    if segs.len() == 1 && range_locals.contains(&segs[0]) {
                        return None;
                    }
                }
            }
            match method.as_str() {
                "to_vec" | "to_string" | "to_owned" | "clone" => {
                    Some(format!("`{}.{}()`", clip(&expr_text(recv)), method))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Walks BFS parents back to the root, entry-first.
fn chain_to(ws: &Workspace, parent: &[Option<usize>], mut v: usize) -> Vec<String> {
    let mut chain = vec![ws.fns[v].display()];
    while let Some(p) = parent[v] {
        chain.push(ws.fns[p].display());
        v = p;
    }
    chain.reverse();
    chain
}

fn clip(s: &str) -> String {
    if s.len() > 40 {
        format!(
            "{}…",
            &s[..s
                .char_indices()
                .take(37)
                .last()
                .map(|(i, c)| i + c.len_utf8())
                .unwrap_or(0)]
        )
    } else {
        s.to_string()
    }
}
