//! DS1 — dead stores to local numeric state.
//!
//! A computed value written to a local variable or buffer element and
//! then overwritten (or dropped at function exit) without ever being
//! read is wasted hot-loop work and usually a logic bug. This rule
//! runs block-level [`super::dataflow::Liveness`] over the
//! [`super::cfg::Cfg`], then scans each block backwards to flag
//! plain `=` stores whose target is dead at the store point.
//!
//! Conservatism (each of these suppresses findings, never invents
//! them):
//!
//! * only *local* targets are considered — parameters, `self`
//!   fields, and anything not `let`-bound in the function escape to
//!   the caller and are never flagged;
//! * compound assignments (`+=` …) read their target and are uses;
//! * any appearance of the target's base name outside a plain-`=`
//!   store counts as a read (method calls, call arguments, returns —
//!   escape and interior mutation are all "uses");
//! * element stores (`buf[i] = …`) are tracked under the whole base
//!   name, so a later `buf[j] = …` does *not* kill `buf[i]`'s store;
//!   only whole-variable overwrite kills;
//! * trivial right-hand sides (literals, plain copies) are skipped —
//!   zero-init before a loop is idiomatic, not a finding. Only
//!   *computed* stores (calls or arithmetic on the rhs) are flagged.

use super::cfg::Cfg;
use super::dataflow::{self, Liveness};
use crate::ast::{expr_text, peel, Expr, ExprKind, Stmt};
use crate::model::{FnInfo, Workspace};
use crate::rules::{Finding, ScopeKind, NUMERIC_CRATES};
use std::collections::BTreeSet;

pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &ws.fns {
        if f.in_test || f.kind != ScopeKind::Lib || !NUMERIC_CRATES.contains(&f.crate_key.as_str())
        {
            continue;
        }
        let Some(body) = &f.body else { continue };
        let locals = local_names(f);
        if locals.is_empty() {
            continue;
        }
        let cfg = Cfg::build(body);
        let sol = dataflow::solve(&cfg, &Liveness);
        for (b, block) in cfg.blocks.iter().enumerate() {
            let mut live = sol.output[b].clone();
            for e in block.events.iter().rev() {
                // Find plain-`=` stores in this event (usually the
                // event *is* the assignment).
                let mut stores: Vec<(&Expr, String)> = Vec::new();
                e.walk(&mut |x| {
                    if let ExprKind::Assign { op, lhs, .. } = &x.kind {
                        if op == "=" {
                            if let Some(base) = store_base(lhs) {
                                stores.push((x, base));
                            }
                        }
                    }
                });
                for (store, base) in &stores {
                    let ExprKind::Assign { lhs, rhs, .. } = &store.kind else {
                        continue;
                    };
                    let whole_var = matches!(&lhs.kind, ExprKind::Path(segs) if segs.len() == 1);
                    if whole_var
                        && locals.contains(base)
                        && !live.contains(base)
                        && computed_rhs(rhs)
                    {
                        findings.push(Finding {
                            rule: "DS1".into(),
                            file: f.file.clone(),
                            line: store.line,
                            message: format!(
                                "dead store to `{}`: the computed value is overwritten \
                                 or dropped before any read",
                                clip(&expr_text(peel(lhs)))
                            ),
                        });
                    }
                }
                // Update liveness through the event (kill then gen).
                let mut killed = BTreeSet::new();
                dataflow::writes(e, &mut killed);
                for k in &killed {
                    live.remove(k);
                }
                let mut used = BTreeSet::new();
                dataflow::reads(e, &mut used);
                live.extend(used);
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    findings
}

/// Names `let`-bound anywhere in the body, minus parameter names.
fn local_names(f: &FnInfo) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    if let Some(body) = &f.body {
        collect_lets(body, &mut out);
    }
    for p in &f.params {
        if let Some(n) = &p.name {
            out.remove(n);
        }
    }
    out.remove("self");
    out
}

fn collect_lets(b: &crate::ast::Block, out: &mut BTreeSet<String>) {
    for s in &b.stmts {
        match s {
            Stmt::Let { names, init, .. } => {
                out.extend(names.iter().cloned());
                if let Some(e) = init {
                    collect_lets_expr(e, out);
                }
            }
            Stmt::Expr { expr, .. } => collect_lets_expr(expr, out),
            _ => {}
        }
    }
}

fn collect_lets_expr(e: &Expr, out: &mut BTreeSet<String>) {
    match &e.kind {
        ExprKind::Block(b) | ExprKind::Unsafe(b) | ExprKind::Loop { body: b } => {
            collect_lets(b, out)
        }
        ExprKind::If { cond, then, else_ } => {
            collect_lets_expr(cond, out);
            collect_lets(then, out);
            if let Some(e) = else_ {
                collect_lets_expr(e, out);
            }
        }
        ExprKind::IfLet {
            scrutinee,
            then,
            else_,
            pat_names,
            ..
        } => {
            out.extend(pat_names.iter().cloned());
            collect_lets_expr(scrutinee, out);
            collect_lets(then, out);
            if let Some(e) = else_ {
                collect_lets_expr(e, out);
            }
        }
        ExprKind::While { cond, body } => {
            collect_lets_expr(cond, out);
            collect_lets(body, out);
        }
        ExprKind::WhileLet {
            scrutinee,
            body,
            pat_names,
            ..
        } => {
            out.extend(pat_names.iter().cloned());
            collect_lets_expr(scrutinee, out);
            collect_lets(body, out);
        }
        ExprKind::ForLoop {
            iter,
            body,
            pat_names,
            ..
        } => {
            out.extend(pat_names.iter().cloned());
            collect_lets_expr(iter, out);
            collect_lets(body, out);
        }
        ExprKind::Match { scrutinee, arms } => {
            collect_lets_expr(scrutinee, out);
            for arm in arms {
                out.extend(arm.pat_names.iter().cloned());
                collect_lets_expr(&arm.body, out);
            }
        }
        _ => {
            let mut subs = Vec::new();
            super::linear::collect_children(e, &mut subs);
            for s in subs {
                collect_lets_expr(s, out);
            }
        }
    }
}

/// Base variable of a store target: `x` for `x = …` and `buf` for
/// `buf[i] = …` (element stores never *kill*, but they share the base
/// for read tracking). The lhs is deliberately NOT peeled: `*dst = …`
/// stores through a reference into memory the caller sees, and
/// field targets (`self.x`) escape likewise — both return `None`.
fn store_base(lhs: &Expr) -> Option<String> {
    match &lhs.kind {
        ExprKind::Path(segs) if segs.len() == 1 => Some(segs[0].clone()),
        ExprKind::Index { recv, .. } => match &peel(recv).kind {
            ExprKind::Path(segs) if segs.len() == 1 => Some(segs[0].clone()),
            _ => None,
        },
        _ => None,
    }
}

/// Is the rhs computed work (worth flagging when dropped)?
fn computed_rhs(rhs: &Expr) -> bool {
    let mut computed = false;
    rhs.walk(&mut |e| {
        if matches!(
            &e.kind,
            ExprKind::Call { .. } | ExprKind::MethodCall { .. } | ExprKind::Binary { .. }
        ) {
            computed = true;
        }
    });
    computed
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
