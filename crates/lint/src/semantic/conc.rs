//! Layer-4 concurrency analysis: static race detection and the
//! deterministic-parallelism prover for the scoped-thread engine.
//!
//! The workspace's determinism contract (DESIGN.md §8) demands that
//! thread count is a latency knob, never a numerics knob. The engine
//! achieves that with exactly one parallelism shape: partition state
//! into disjoint regions *before* spawning, give each scoped task
//! exclusive ownership of its region, and merge results in a
//! *post-join sequential loop* over shard order. Three rules pin the
//! shape down:
//!
//! * **C1 — data-race freedom.** Every pair of concurrently-live
//!   closures (tasks of one `rayon::scope` / `rayon::join` region, or
//!   successive spawns of a loop) must have provably disjoint mutable
//!   footprints. Each spawned closure's captured-place set is computed
//!   by an escape/alias pass over the AST: move captures, `&mut`
//!   reborrows, writes through iteration-local bindings, and
//!   transitive captures of `let`-bound worker closures
//!   (`run_shard`-style) chased through the call graph. Footprints
//!   reduce to a base place plus a [`super::disjoint::Span`] and
//!   disjointness is discharged by the layer-3 linear prover:
//!   `chunks_mut` windows `[c·w, (c+1)·w)`, `split_at_mut` halves,
//!   `iter_mut`/`into_iter` element slots (the round-robin bucket
//!   pattern in `crates/core/src/parallel.rs`), and per-worker
//!   `WorkspacePool` slots all prove clean. Anything unprovable is reported with the
//!   full capture chain.
//!
//! * **C2 — deterministic merge order.** Cross-thread results must
//!   flow into floating-point state only through the post-join
//!   sequential loop. Flagged: completion-order channels
//!   (`mpsc`/`recv`) in numeric crates, atomics bit-cast or converted
//!   into floats (CAS float accumulation), unordered float reductions
//!   (`sum`/`fold`/`reduce`/`product` over parallel or hash-ordered
//!   sources — the semantic successor of the retired token rule D3),
//!   and any state one spawned closure writes while a concurrent
//!   closure reads it (the read is scheduling-ordered).
//!
//! * **C3 — synchronization discipline.** `Mutex`/`RwLock`/
//!   `Atomic*`/`Condvar`/`Barrier`/`mpsc` are banned in the numeric
//!   crates: a lock makes scheduling observable, and anything
//!   scheduling-observable eventually leaks into numerics. Telemetry
//!   plumbing is waived with a `// SYNC:` comment on the preceding
//!   lines stating why the primitive cannot reach numeric state
//!   (mirroring A1's `// SAFETY:` discipline).
//!
//! Known over-approximations (all toward reporting, never silence,
//! except as noted): bases are compared by canonical place text, so
//! two names aliasing the same memory are only caught when one is a
//! field-path prefix of the other; scope-body statements running
//! concurrently with spawned tasks are not modeled (the engine's
//! scope bodies only spawn); regions nested inside spawned closures
//! are not re-entered.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{self, Block, Expr, ExprKind, Stmt};
use crate::lexer::{Tok, TokKind};
use crate::model::{walk_block_exprs, FnInfo, Workspace};
use crate::rules::{Finding, ScopeKind, NUMERIC_CRATES};

use super::disjoint::{self, Span};
use super::linear::{self, Env, Facts, LinForm};

/// Entry point: C1/C2 over every non-test `Lib` function, C3 over the
/// numeric crates' raw sources.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let env = Env::build(ws);
    let mut out = Vec::new();
    for f in &ws.fns {
        if f.in_test || f.kind != ScopeKind::Lib {
            continue;
        }
        let Some(body) = &f.body else { continue };
        let facts = linear::gather(f, &env);
        let mut cx = FnCx {
            ws,
            f,
            facts,
            bindings: BTreeMap::new(),
            loops: Vec::new(),
            scopes: Vec::new(),
            regions: Vec::new(),
        };
        cx.walk_block(body);
        check_regions(&cx, &mut out);
        if NUMERIC_CRATES.contains(&f.crate_key.as_str()) {
            c2_sequential(ws, f, body, &mut out);
        }
    }
    c3_sync_discipline(ws, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    out.dedup();
    out
}

// ---------------------------------------------------------------------------
// Binding classification in the enclosing function
// ---------------------------------------------------------------------------

/// What a name in the enclosing function denotes, as far as the
/// escape analysis cares.
#[derive(Clone)]
enum BindKind {
    /// Param or ordinary local: the place is the name itself.
    Plain,
    /// Loop-family element binding (`chunks_mut`, `iter_mut`,
    /// `into_iter`, …): one region of `base` per iteration,
    /// parameterised by `counter`.
    Fam {
        base: String,
        span: Span,
        counter: String,
        /// Exclusive (mutably-borrowed or owned) element — counts as
        /// a write the moment it is captured.
        mutable: bool,
    },
    /// `split_at_mut` half or `&mut x[a..b]` window into `base`.
    Win {
        base: String,
        lo: LinForm,
        hi: LinForm,
        mutable: bool,
    },
    /// `let`-bound closure (`run_shard`-style worker body).
    LetClosure,
}

#[derive(Clone)]
struct Binding {
    kind: BindKind,
    /// Line of the innermost loop whose body declares the binding
    /// (`None` for loop-independent bindings).
    in_loop: Option<u32>,
}

struct LoopFrame {
    line: u32,
    /// Names that take a fresh value every iteration (range counters,
    /// `enumerate` counters, the synthetic `it#<line>` counter).
    atoms: Vec<String>,
}

struct ScopeFrame {
    handle: String,
    region: usize,
    loop_depth: usize,
}

/// One mutable or shared footprint a task captures.
#[derive(Clone)]
struct Cap {
    base: String,
    span: Span,
    counter: Option<String>,
    chain: String,
}

/// One spawned closure.
struct Task {
    line: u32,
    loop_lines: Vec<u32>,
    iter_atoms: BTreeSet<String>,
    writes: Vec<Cap>,
    reads: Vec<Cap>,
}

#[derive(Default)]
struct Region2 {
    tasks: Vec<Task>,
}

struct FnCx<'a> {
    ws: &'a Workspace,
    f: &'a FnInfo,
    facts: Facts<'a>,
    bindings: BTreeMap<String, Binding>,
    loops: Vec<LoopFrame>,
    scopes: Vec<ScopeFrame>,
    regions: Vec<Region2>,
}

/// Methods a call to which mutates its receiver in place.
const MUTATING_METHODS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "clear",
    "truncate",
    "extend",
    "extend_from_slice",
    "append",
    "resize",
    "resize_with",
    "drain",
    "retain",
    "fill",
    "fill_with",
    "copy_from_slice",
    "clone_from_slice",
    "clone_from",
    "swap",
    "swap_remove",
    "rotate_left",
    "rotate_right",
    "reverse",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "iter_mut",
    "chunks_mut",
    "chunks_exact_mut",
    "split_at_mut",
    "as_mut_slice",
    "as_mut_ptr",
    "get_mut",
    "first_mut",
    "last_mut",
    "scale",
];

impl<'a> FnCx<'a> {
    fn cur_loop(&self) -> Option<u32> {
        self.loops.last().map(|l| l.line)
    }

    fn walk_block(&mut self, b: &'a Block) {
        for st in &b.stmts {
            match st {
                Stmt::Let {
                    names, init, line, ..
                } => {
                    if let Some(init) = init {
                        self.walk_expr(init);
                        self.classify_let(names, init, *line);
                    } else {
                        for n in names {
                            self.bindings.insert(
                                n.clone(),
                                Binding {
                                    kind: BindKind::Plain,
                                    in_loop: self.cur_loop(),
                                },
                            );
                        }
                    }
                }
                Stmt::Expr { expr, .. } => self.walk_expr(expr),
                Stmt::Item(_) => {}
            }
        }
    }

    fn classify_let(&mut self, names: &[String], init: &'a Expr, _line: u32) {
        let in_loop = self.cur_loop();
        // Alias: `let x = y;` / `let x = &y;` copies y's classification.
        if names.len() == 1 {
            if let Some(src) = match &init.kind {
                ExprKind::Path(segs) if segs.len() == 1 => Some(&segs[0]),
                ExprKind::Ref { expr, .. } => match &expr.kind {
                    ExprKind::Path(segs) if segs.len() == 1 => Some(&segs[0]),
                    _ => None,
                },
                _ => None,
            } {
                if let Some(b) = self.bindings.get(src).cloned() {
                    self.bindings.insert(names[0].clone(), b);
                    return;
                }
            }
            if matches!(init.kind, ExprKind::Closure { .. }) {
                self.bindings.insert(
                    names[0].clone(),
                    Binding {
                        kind: BindKind::LetClosure,
                        in_loop,
                    },
                );
                return;
            }
            // `let w = &mut x[a..b];` — explicit window.
            if let ExprKind::Ref { expr, is_mut } = &init.kind {
                if let ExprKind::Index { recv, index } = &expr.kind {
                    if let ExprKind::Range {
                        lo: Some(lo),
                        hi: Some(hi),
                        inclusive: false,
                    } = &index.kind
                    {
                        if let (Some(lo), Some(hi)) = (
                            linear::norm_form(lo, &self.facts),
                            linear::norm_form(hi, &self.facts),
                        ) {
                            self.bindings.insert(
                                names[0].clone(),
                                Binding {
                                    kind: BindKind::Win {
                                        base: place_text(recv),
                                        lo,
                                        hi,
                                        mutable: *is_mut,
                                    },
                                    in_loop,
                                },
                            );
                            return;
                        }
                    }
                }
            }
        }
        // `let (lo, hi) = x.split_at_mut(mid);`
        if names.len() == 2 {
            if let ExprKind::MethodCall { recv, method, args } = &init.kind {
                if (method == "split_at_mut" || method == "split_at") && args.len() == 1 {
                    if let Some(mid) = linear::norm_form(&args[0], &self.facts) {
                        let base = place_text(recv);
                        let len = LinForm::atom(&format!("{base}.len()"));
                        let mutable = method == "split_at_mut";
                        self.bindings.insert(
                            names[0].clone(),
                            Binding {
                                kind: BindKind::Win {
                                    base: base.clone(),
                                    lo: LinForm::constant(0),
                                    hi: mid.clone(),
                                    mutable,
                                },
                                in_loop,
                            },
                        );
                        self.bindings.insert(
                            names[1].clone(),
                            Binding {
                                kind: BindKind::Win {
                                    base,
                                    lo: mid,
                                    hi: len,
                                    mutable,
                                },
                                in_loop,
                            },
                        );
                        return;
                    }
                }
            }
        }
        for n in names {
            self.bindings.insert(
                n.clone(),
                Binding {
                    kind: BindKind::Plain,
                    in_loop,
                },
            );
        }
    }

    fn walk_expr(&mut self, e: &'a Expr) {
        match &e.kind {
            // `rayon::scope(|s| { … })` / `std::thread::scope(…)`.
            ExprKind::Call { callee, args }
                if callee.path_last() == Some("scope") && args.len() == 1 =>
            {
                if let ExprKind::Closure { params, body, .. } = &args[0].kind {
                    let handle = params.first().cloned().unwrap_or_default();
                    let region = self.regions.len();
                    self.regions.push(Region2::default());
                    self.scopes.push(ScopeFrame {
                        handle,
                        region,
                        loop_depth: self.loops.len(),
                    });
                    self.walk_expr(body);
                    self.scopes.pop();
                } else {
                    self.walk_children(e);
                }
            }
            // `rayon::join(|| …, || …)` — a two-task region.
            ExprKind::Call { callee, args }
                if callee.path_last() == Some("join")
                    && args.len() == 2
                    && args
                        .iter()
                        .all(|a| matches!(a.kind, ExprKind::Closure { .. })) =>
            {
                let region = self.regions.len();
                self.regions.push(Region2::default());
                for a in args {
                    self.analyze_spawn(a, region, a.line);
                }
            }
            // `s.spawn(|_| { … })` on the innermost matching handle.
            ExprKind::MethodCall { recv, method, args } if method == "spawn" => {
                let recv_name = ast::peel(recv).path_last().map(str::to_string);
                let frame = recv_name.as_deref().and_then(|n| {
                    self.scopes
                        .iter()
                        .rev()
                        .find(|s| s.handle == n)
                        .map(|s| (s.region, s.loop_depth))
                });
                match (frame, args.first()) {
                    (Some((region, _)), Some(cl))
                        if matches!(cl.kind, ExprKind::Closure { .. }) =>
                    {
                        self.analyze_spawn(cl, region, e.line);
                    }
                    _ => self.walk_children(e),
                }
            }
            ExprKind::ForLoop {
                pat_names,
                iter,
                body,
                ..
            } => {
                self.walk_expr(iter);
                let frame = self.classify_loop(pat_names, iter, e.line);
                self.loops.push(frame);
                self.walk_block(body);
                self.loops.pop();
            }
            ExprKind::Block(b) | ExprKind::Unsafe(b) => self.walk_block(b),
            ExprKind::If { cond, then, else_ } => {
                self.walk_expr(cond);
                self.walk_block(then);
                if let Some(e2) = else_ {
                    self.walk_expr(e2);
                }
            }
            ExprKind::IfLet {
                pat_names,
                scrutinee,
                then,
                else_,
                ..
            } => {
                self.walk_expr(scrutinee);
                for n in pat_names {
                    self.bindings.insert(
                        n.clone(),
                        Binding {
                            kind: BindKind::Plain,
                            in_loop: self.cur_loop(),
                        },
                    );
                }
                self.walk_block(then);
                if let Some(e2) = else_ {
                    self.walk_expr(e2);
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                self.walk_expr(scrutinee);
                for arm in arms {
                    for n in &arm.pat_names {
                        self.bindings.insert(
                            n.clone(),
                            Binding {
                                kind: BindKind::Plain,
                                in_loop: self.cur_loop(),
                            },
                        );
                    }
                    if let Some(g) = &arm.guard {
                        self.walk_expr(g);
                    }
                    self.walk_expr(&arm.body);
                }
            }
            ExprKind::While { cond, body } => {
                self.walk_expr(cond);
                self.walk_block(body);
            }
            ExprKind::WhileLet {
                pat_names,
                scrutinee,
                body,
                ..
            } => {
                self.walk_expr(scrutinee);
                for n in pat_names {
                    self.bindings.insert(
                        n.clone(),
                        Binding {
                            kind: BindKind::Plain,
                            in_loop: self.cur_loop(),
                        },
                    );
                }
                self.walk_block(body);
            }
            ExprKind::Loop { body } => self.walk_block(body),
            ExprKind::Closure { body, .. } => self.walk_expr(body),
            _ => self.walk_children(e),
        }
    }

    fn walk_children(&mut self, e: &'a Expr) {
        let mut kids = Vec::new();
        linear::collect_children(e, &mut kids);
        for k in kids {
            self.walk_expr(k);
        }
    }

    /// Classifies one `for` loop's pattern bindings against its
    /// iterator expression, registering family bindings and returning
    /// the frame of iteration-fresh counter atoms.
    fn classify_loop(&mut self, pat_names: &[String], iter: &'a Expr, line: u32) -> LoopFrame {
        let mut atoms = Vec::new();
        let mut names: &[String] = pat_names;
        let mut iter = strip_rev(iter);
        // Top-level `.enumerate()` supplies the counter; otherwise a
        // synthetic per-loop atom stands in (distinct iterations get
        // distinct values either way, which is all freshening needs).
        let counter = if let ExprKind::MethodCall { recv, method, .. } = &iter.kind {
            if method == "enumerate" && !names.is_empty() {
                let c = names[0].clone();
                names = &names[1..];
                iter = strip_rev(recv);
                c
            } else {
                format!("it#{line}")
            }
        } else {
            format!("it#{line}")
        };
        atoms.push(counter.clone());

        let mut sources = Vec::new();
        flatten_zip(iter, &mut sources);
        for (k, name) in names.iter().enumerate() {
            if name == "_" {
                continue;
            }
            // Align by position when the pattern and zip arity agree;
            // otherwise every name binds (a part of) the single source.
            let src = if names.len() == sources.len() {
                sources.get(k).copied()
            } else {
                sources.first().copied()
            };
            let kind = match src {
                Some(s) => self.classify_source(s, &counter),
                None => BindKind::Plain,
            };
            if matches!(kind, BindKind::Plain) {
                atoms.push(name.clone());
            }
            self.bindings.insert(
                name.clone(),
                Binding {
                    kind,
                    in_loop: Some(line),
                },
            );
        }
        LoopFrame { line, atoms }
    }

    /// Family classification of one zip-flattened iterator source.
    fn classify_source(&self, src: &'a Expr, counter: &str) -> BindKind {
        let (src, by_ref, ref_mut) = match &src.kind {
            ExprKind::Ref { expr, is_mut } => (&**expr, true, *is_mut),
            _ => (src, false, false),
        };
        let src = strip_rev(src);
        if let ExprKind::MethodCall { recv, method, args } = &src.kind {
            let base = place_text(recv);
            match method.as_str() {
                "chunks_mut" | "chunks_exact_mut" | "chunks" | "chunks_exact"
                    if args.len() == 1 =>
                {
                    let w = linear::norm_form(&args[0], &self.facts)
                        .unwrap_or_else(|| LinForm::atom(&format!("w#{line}", line = src.line)));
                    let span = disjoint::chunk_window(counter, &w).unwrap_or(Span::Whole);
                    return BindKind::Fam {
                        base,
                        span,
                        counter: counter.to_string(),
                        mutable: method.ends_with("_mut"),
                    };
                }
                "iter_mut" | "into_iter" | "drain" => {
                    return BindKind::Fam {
                        base,
                        span: Span::Elem(LinForm::atom(counter)),
                        counter: counter.to_string(),
                        mutable: true,
                    };
                }
                "iter" | "values" | "keys" => {
                    return BindKind::Fam {
                        base,
                        span: Span::Elem(LinForm::atom(counter)),
                        counter: counter.to_string(),
                        mutable: false,
                    };
                }
                "windows" => {
                    // Overlapping read windows: span over the whole base.
                    return BindKind::Fam {
                        base,
                        span: Span::Whole,
                        counter: counter.to_string(),
                        mutable: false,
                    };
                }
                _ => {
                    // Adapter chain (`.map`, `.filter`, …) or unknown
                    // iterator method: fall through to the root place,
                    // mutably if anything in the chain is exclusive.
                    if let Some(root) = chain_root(src) {
                        let mutable = chain_has_mut(src);
                        return BindKind::Fam {
                            base: place_text(root),
                            span: Span::Elem(LinForm::atom(counter)),
                            counter: counter.to_string(),
                            mutable,
                        };
                    }
                    return BindKind::Plain;
                }
            }
        }
        match &src.kind {
            // `for x in collection` (move) / `for x in &mut collection`.
            ExprKind::Path(segs) if segs.len() == 1 => {
                let mutable = !by_ref || ref_mut;
                BindKind::Fam {
                    base: segs[0].clone(),
                    span: Span::Elem(LinForm::atom(counter)),
                    counter: counter.to_string(),
                    mutable,
                }
            }
            ExprKind::Field { .. } | ExprKind::Index { .. } => BindKind::Fam {
                base: place_text(src),
                span: Span::Elem(LinForm::atom(counter)),
                counter: counter.to_string(),
                mutable: !by_ref || ref_mut,
            },
            // `for i in 0..n` — the binding IS the counter.
            ExprKind::Range { .. } => BindKind::Plain,
            _ => BindKind::Plain,
        }
    }

    // -- spawn-closure escape analysis ------------------------------------

    fn analyze_spawn(&mut self, closure: &'a Expr, region: usize, line: u32) {
        let ExprKind::Closure { params, body, .. } = &closure.kind else {
            return;
        };
        let scope_depth = self
            .scopes
            .iter()
            .rev()
            .find(|s| s.region == region)
            .map_or(self.loops.len(), |s| s.loop_depth);
        let frames = &self.loops[scope_depth.min(self.loops.len())..];
        let mut task = Task {
            line,
            loop_lines: frames.iter().map(|l| l.line).collect(),
            iter_atoms: frames
                .iter()
                .flat_map(|l| l.atoms.iter().cloned())
                .collect(),
            writes: Vec::new(),
            reads: Vec::new(),
        };
        let mut locals: BTreeSet<String> = params.iter().cloned().collect();
        let mut origins: BTreeMap<String, String> = BTreeMap::new();
        let chain = format!("spawn@{line}");
        self.scan(body, &mut locals, &mut origins, &mut task, &chain, 0);
        self.regions[region].tasks.push(task);
    }

    /// Recursive capture scan of a spawned (or transitively captured)
    /// closure body.
    #[allow(clippy::too_many_arguments)]
    fn scan(
        &self,
        e: &'a Expr,
        locals: &mut BTreeSet<String>,
        origins: &mut BTreeMap<String, String>,
        task: &mut Task,
        chain: &str,
        depth: usize,
    ) {
        match &e.kind {
            ExprKind::Assign { lhs, rhs, .. } => {
                self.mark_place(lhs, locals, origins, task, chain, depth);
                self.scan(rhs, locals, origins, task, chain, depth);
                // Compound assigns (`+=`) read the place too; plain
                // assigns overwrite it — either way the write is what
                // matters for disjointness.
                if let ExprKind::Index { index, .. } = &ast::peel(lhs).kind {
                    self.scan(index, locals, origins, task, chain, depth);
                }
            }
            ExprKind::Ref { expr, is_mut: true } => {
                self.mark_place(expr, locals, origins, task, chain, depth);
            }
            ExprKind::MethodCall { recv, method, args } => {
                if MUTATING_METHODS.contains(&method.as_str()) {
                    self.mark_place(recv, locals, origins, task, chain, depth);
                } else {
                    let resolved = self.ws.resolve_call_expr(self.f, e);
                    if !resolved.is_empty() && resolved.iter().all(|&id| self.ws.fns[id].self_mut) {
                        self.mark_place(recv, locals, origins, task, chain, depth);
                    } else {
                        self.scan(recv, locals, origins, task, chain, depth);
                    }
                    self.mark_call_args(&resolved, args, locals, origins, task, chain, depth);
                    return;
                }
                for a in args {
                    self.scan(a, locals, origins, task, chain, depth);
                }
            }
            ExprKind::Call { callee, args } => {
                if let Some(name) = callee.path_last() {
                    if callee_is_bare(callee) && !locals.contains(name) {
                        if let Some(Binding {
                            kind: BindKind::LetClosure,
                            ..
                        }) = self.bindings.get(name)
                        {
                            self.call_let_closure(name, args, locals, origins, task, chain, depth);
                            return;
                        }
                    }
                }
                let resolved = self.ws.resolve_call_expr(self.f, e);
                self.mark_call_args(&resolved, args, locals, origins, task, chain, depth);
            }
            ExprKind::Path(segs) if segs.len() == 1 => {
                self.record_use(&segs[0], false, None, locals, origins, task, chain, depth);
            }
            ExprKind::Index { recv, index } => {
                self.scan(index, locals, origins, task, chain, depth);
                if let Some(root) = place_root(recv) {
                    self.record_use(
                        &root,
                        false,
                        Some(index),
                        locals,
                        origins,
                        task,
                        chain,
                        depth,
                    );
                } else {
                    self.scan(recv, locals, origins, task, chain, depth);
                }
            }
            ExprKind::ForLoop {
                pat_names,
                iter,
                body,
                ..
            } => {
                self.scan(iter, locals, origins, task, chain, depth);
                let root = chain_root(strip_rev(ast::peel(iter))).and_then(place_root);
                for n in pat_names {
                    locals.insert(n.clone());
                    if let Some(r) = &root {
                        if !locals.contains(r) {
                            origins.insert(n.clone(), r.clone());
                        }
                    }
                }
                self.scan_block(body, locals, origins, task, chain, depth);
            }
            ExprKind::Block(b) | ExprKind::Unsafe(b) => {
                self.scan_block(b, locals, origins, task, chain, depth)
            }
            ExprKind::If { cond, then, else_ } => {
                self.scan(cond, locals, origins, task, chain, depth);
                self.scan_block(then, locals, origins, task, chain, depth);
                if let Some(e2) = else_ {
                    self.scan(e2, locals, origins, task, chain, depth);
                }
            }
            ExprKind::IfLet {
                pat_names,
                scrutinee,
                then,
                else_,
                ..
            } => {
                self.scan(scrutinee, locals, origins, task, chain, depth);
                for n in pat_names {
                    locals.insert(n.clone());
                }
                self.scan_block(then, locals, origins, task, chain, depth);
                if let Some(e2) = else_ {
                    self.scan(e2, locals, origins, task, chain, depth);
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                self.scan(scrutinee, locals, origins, task, chain, depth);
                for arm in arms {
                    for n in &arm.pat_names {
                        locals.insert(n.clone());
                    }
                    if let Some(g) = &arm.guard {
                        self.scan(g, locals, origins, task, chain, depth);
                    }
                    self.scan(&arm.body, locals, origins, task, chain, depth);
                }
            }
            ExprKind::While { cond, body } => {
                self.scan(cond, locals, origins, task, chain, depth);
                self.scan_block(body, locals, origins, task, chain, depth);
            }
            ExprKind::WhileLet {
                pat_names,
                scrutinee,
                body,
                ..
            } => {
                self.scan(scrutinee, locals, origins, task, chain, depth);
                for n in pat_names {
                    locals.insert(n.clone());
                }
                self.scan_block(body, locals, origins, task, chain, depth);
            }
            ExprKind::Loop { body } => self.scan_block(body, locals, origins, task, chain, depth),
            ExprKind::Closure { params, body, .. } => {
                let mut inner = locals.clone();
                inner.extend(params.iter().cloned());
                self.scan(body, &mut inner, origins, task, chain, depth);
            }
            _ => {
                let mut kids = Vec::new();
                linear::collect_children(e, &mut kids);
                for k in kids {
                    self.scan(k, locals, origins, task, chain, depth);
                }
            }
        }
    }

    fn scan_block(
        &self,
        b: &'a Block,
        locals: &mut BTreeSet<String>,
        origins: &mut BTreeMap<String, String>,
        task: &mut Task,
        chain: &str,
        depth: usize,
    ) {
        for st in &b.stmts {
            match st {
                Stmt::Let { names, init, .. } => {
                    if let Some(init) = init {
                        self.scan(init, locals, origins, task, chain, depth);
                    }
                    for n in names {
                        locals.insert(n.clone());
                    }
                }
                Stmt::Expr { expr, .. } => self.scan(expr, locals, origins, task, chain, depth),
                Stmt::Item(_) => {}
            }
        }
    }

    /// Args of a (possibly resolved) call: positions whose parameter
    /// type starts with `&mut` are writes; everything else is read.
    #[allow(clippy::too_many_arguments)]
    fn mark_call_args(
        &self,
        resolved: &[usize],
        args: &'a [Expr],
        locals: &mut BTreeSet<String>,
        origins: &mut BTreeMap<String, String>,
        task: &mut Task,
        chain: &str,
        depth: usize,
    ) {
        for (j, a) in args.iter().enumerate() {
            let is_mut_param = !resolved.is_empty()
                && resolved.iter().all(|&id| {
                    self.ws.fns[id]
                        .params
                        .get(j)
                        .map(|p| p.ty_text.trim_start().starts_with("&mut"))
                        .unwrap_or(false)
                });
            if is_mut_param {
                self.mark_place(a, locals, origins, task, chain, depth);
            } else {
                self.scan(a, locals, origins, task, chain, depth);
            }
        }
    }

    /// Transitive analysis of a captured `let`-closure: its body's
    /// captures become this task's, and call-site args line up with
    /// its parameter types.
    #[allow(clippy::too_many_arguments)]
    fn call_let_closure(
        &self,
        name: &str,
        args: &'a [Expr],
        locals: &mut BTreeSet<String>,
        origins: &mut BTreeMap<String, String>,
        task: &mut Task,
        chain: &str,
        depth: usize,
    ) {
        let Some((params, param_tys, body)) = self.find_let_closure(name) else {
            for a in args {
                self.scan(a, locals, origins, task, chain, depth);
            }
            return;
        };
        for (j, a) in args.iter().enumerate() {
            if param_tys
                .get(j)
                .map(|t| t.trim_start().starts_with("&mut"))
                .unwrap_or(false)
            {
                self.mark_place(a, locals, origins, task, chain, depth);
            } else {
                self.scan(a, locals, origins, task, chain, depth);
            }
        }
        if depth < 3 {
            let mut inner_locals: BTreeSet<String> = params.iter().cloned().collect();
            let mut inner_origins = BTreeMap::new();
            let chain = format!("{chain} -> {name}");
            self.scan(
                body,
                &mut inner_locals,
                &mut inner_origins,
                task,
                &chain,
                depth + 1,
            );
        }
    }

    /// Finds the defining `|…| { … }` expression of a `let`-bound
    /// closure by name (the bindings map only records that one
    /// exists; the body lives in the AST).
    fn find_let_closure(&self, name: &str) -> Option<(&'a [String], &'a [String], &'a Expr)> {
        fn look<'a>(b: &'a Block, name: &str) -> Option<(&'a [String], &'a [String], &'a Expr)> {
            for st in &b.stmts {
                if let Stmt::Let {
                    names,
                    init: Some(init),
                    ..
                } = st
                {
                    if names.len() == 1 && names[0] == name {
                        if let ExprKind::Closure {
                            params,
                            param_tys,
                            body,
                        } = &init.kind
                        {
                            return Some((&params[..], &param_tys[..], &**body));
                        }
                    }
                }
            }
            None
        }
        let body = self.f.body.as_ref()?;
        if let Some(hit) = look(body, name) {
            return Some(hit);
        }
        // Nested blocks: walk every expression's blocks.
        let mut found = None;
        walk_block_exprs(body, &mut |e| {
            if found.is_some() {
                return;
            }
            match &e.kind {
                ExprKind::Block(b)
                | ExprKind::Unsafe(b)
                | ExprKind::If { then: b, .. }
                | ExprKind::While { body: b, .. }
                | ExprKind::Loop { body: b }
                | ExprKind::ForLoop { body: b, .. } => found = look(b, name),
                _ => {}
            }
        });
        found
    }

    /// A write through `place`: resolve to the underlying binding and
    /// record the footprint.
    fn mark_place(
        &self,
        place: &'a Expr,
        locals: &mut BTreeSet<String>,
        origins: &mut BTreeMap<String, String>,
        task: &mut Task,
        chain: &str,
        depth: usize,
    ) {
        let place = ast::peel(place);
        match &place.kind {
            ExprKind::Path(segs) if segs.len() == 1 => {
                self.record_use(&segs[0], true, None, locals, origins, task, chain, depth);
            }
            ExprKind::Index { recv, index } => {
                self.scan(index, locals, origins, task, chain, depth);
                match place_root(recv) {
                    Some(root) => self.record_use(
                        &root,
                        true,
                        Some(index),
                        locals,
                        origins,
                        task,
                        chain,
                        depth,
                    ),
                    None => self.scan(recv, locals, origins, task, chain, depth),
                }
            }
            ExprKind::Field { .. } => {
                if let Some(root) = place_root(place) {
                    self.record_use(&root, true, None, locals, origins, task, chain, depth);
                }
            }
            _ => self.scan(place, locals, origins, task, chain, depth),
        }
    }

    /// Records a read or write of `name` as seen from inside the
    /// spawned closure, translating through closure-local origins and
    /// the enclosing function's binding classification.
    #[allow(clippy::too_many_arguments)]
    fn record_use(
        &self,
        name: &str,
        write: bool,
        idx: Option<&'a Expr>,
        locals: &mut BTreeSet<String>,
        origins: &mut BTreeMap<String, String>,
        task: &mut Task,
        chain: &str,
        depth: usize,
    ) {
        if name == "_" || name.starts_with(char::is_uppercase) {
            return;
        }
        if locals.contains(name) {
            // A write through an iteration-local binding derived from
            // a captured iterable is a write to the capture.
            if let Some(orig) = origins.get(name).cloned() {
                let chain = format!("{chain} -> {name}");
                self.record_use(&orig, write, None, locals, origins, task, &chain, depth);
            }
            return;
        }
        let binding = self.bindings.get(name).cloned().unwrap_or(Binding {
            kind: BindKind::Plain,
            in_loop: None,
        });
        // Values declared inside the spawn's own loop are fresh per
        // task — no shared place to race on.
        if matches!(binding.kind, BindKind::Plain)
            && binding
                .in_loop
                .is_some_and(|l| task.loop_lines.contains(&l))
        {
            return;
        }
        let chain = format!("{chain} -> {name}");
        match binding.kind {
            BindKind::Plain => {
                let span = idx
                    .and_then(|i| linear::norm_form(i, &self.facts))
                    .map(Span::Elem)
                    .unwrap_or(Span::Whole);
                let cap = Cap {
                    base: name.to_string(),
                    span,
                    counter: None,
                    chain,
                };
                if write {
                    task.writes.push(cap);
                } else {
                    task.reads.push(cap);
                }
            }
            BindKind::Fam {
                base,
                span,
                counter,
                mutable,
            } => {
                let cap = Cap {
                    base,
                    span,
                    counter: Some(counter),
                    chain,
                };
                // Exclusive family elements count as writes the moment
                // they are captured: the &mut borrow alone must be
                // race-free.
                if write || mutable {
                    task.writes.push(cap);
                } else {
                    task.reads.push(cap);
                }
            }
            BindKind::Win {
                base,
                lo,
                hi,
                mutable,
            } => {
                let cap = Cap {
                    base,
                    span: Span::Window { lo, hi },
                    counter: None,
                    chain,
                };
                if write || mutable {
                    task.writes.push(cap);
                } else {
                    task.reads.push(cap);
                }
            }
            BindKind::LetClosure => {
                if depth < 3 {
                    if let Some((params, _, body)) = self.find_let_closure(name) {
                        let mut inner_locals: BTreeSet<String> = params.iter().cloned().collect();
                        let mut inner_origins = BTreeMap::new();
                        self.scan(
                            body,
                            &mut inner_locals,
                            &mut inner_origins,
                            task,
                            &chain,
                            depth + 1,
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// C1 / C2-overlap checking
// ---------------------------------------------------------------------------

fn check_regions(cx: &FnCx, out: &mut Vec<Finding>) {
    let facts = &cx.facts;
    let mut seen: BTreeSet<(u32, String, String)> = BTreeSet::new();
    for region in &cx.regions {
        // Self-disjointness: a spawn site inside a loop produces one
        // closure per iteration, all concurrently live.
        for t in &region.tasks {
            if t.loop_lines.is_empty() {
                continue;
            }
            for w in &t.writes {
                let counter = w
                    .counter
                    .clone()
                    .filter(|c| t.iter_atoms.contains(c))
                    .or_else(|| {
                        span_atoms(&w.span)
                            .into_iter()
                            .find(|a| t.iter_atoms.contains(a))
                    });
                let ok = counter
                    .as_deref()
                    .is_some_and(|c| disjoint::span_self_disjoint(&w.span, c, facts));
                if !ok && seen.insert((t.line, w.base.clone(), "self".into())) {
                    out.push(Finding {
                        rule: "C1".into(),
                        file: cx.f.file.clone(),
                        line: t.line,
                        message: format!(
                            "closure spawned in a loop writes `{}` via {} without provable \
                             per-iteration disjointness; successive spawns may race on the \
                             same region",
                            w.base, w.chain
                        ),
                    });
                }
            }
        }
        // Pairwise across distinct spawn sites of the region.
        for (i, t1) in region.tasks.iter().enumerate() {
            for t2 in region.tasks.iter().skip(i + 1) {
                for w1 in &t1.writes {
                    for w2 in &t2.writes {
                        if caps_overlap(w1, w2, facts)
                            && seen.insert((t1.line, w1.base.clone(), "ww".into()))
                        {
                            out.push(Finding {
                                rule: "C1".into(),
                                file: cx.f.file.clone(),
                                line: t1.line,
                                message: format!(
                                    "concurrently spawned closures may write overlapping \
                                     state: `{}` via {} (line {}) and `{}` via {} (line {}); \
                                     disjointness is not provable — partition with \
                                     chunks_mut/split_at_mut or per-worker slots",
                                    w1.base, w1.chain, t1.line, w2.base, w2.chain, t2.line
                                ),
                            });
                        }
                    }
                }
                for (wt, rt) in [(t1, t2), (t2, t1)] {
                    for w in &wt.writes {
                        for r in &rt.reads {
                            if caps_overlap(w, r, facts)
                                && seen.insert((wt.line, w.base.clone(), "wr".into()))
                            {
                                out.push(Finding {
                                    rule: "C2".into(),
                                    file: cx.f.file.clone(),
                                    line: wt.line,
                                    message: format!(
                                        "spawned closure writes `{}` via {} while a \
                                         concurrent closure reads it via {}: the value read \
                                         depends on thread scheduling; merge results in the \
                                         post-join sequential loop instead",
                                        w.base, w.chain, r.chain
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
    }
}

fn caps_overlap(a: &Cap, b: &Cap, facts: &Facts) -> bool {
    if a.base != b.base {
        // Distinct canonical places are disjoint unless one is a
        // field-path extension of the other (`x` vs `x.data`).
        let pref = |p: &str, q: &str| q.starts_with(p) && q.as_bytes().get(p.len()) == Some(&b'.');
        return pref(&a.base, &b.base) || pref(&b.base, &a.base);
    }
    !disjoint::spans_disjoint(&a.span, &b.span, facts)
}

fn span_atoms(span: &Span) -> BTreeSet<String> {
    match span {
        Span::Whole => BTreeSet::new(),
        Span::Elem(i) => i.atoms(),
        Span::Window { lo, hi } => {
            let mut s = lo.atoms();
            s.extend(hi.atoms());
            s
        }
    }
}

// ---------------------------------------------------------------------------
// Helper predicates over the AST
// ---------------------------------------------------------------------------

fn strip_rev(e: &Expr) -> &Expr {
    match &e.kind {
        ExprKind::MethodCall { recv, method, .. } if method == "rev" => strip_rev(recv),
        _ => e,
    }
}

/// Flattens `a.zip(b).zip(c)`-style chains into their leaf sources.
fn flatten_zip<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let ExprKind::MethodCall { recv, method, args } = &e.kind {
        if method == "zip" && args.len() == 1 {
            flatten_zip(strip_rev(recv), out);
            flatten_zip(strip_rev(&args[0]), out);
            return;
        }
    }
    out.push(e);
}

/// Descends a method chain to the root place expression.
fn chain_root(e: &Expr) -> Option<&Expr> {
    match &e.kind {
        ExprKind::MethodCall { recv, .. } => chain_root(recv),
        ExprKind::Ref { expr, .. } | ExprKind::Deref { expr } => chain_root(expr),
        ExprKind::Path(_) | ExprKind::Field { .. } | ExprKind::Index { .. } => Some(e),
        _ => None,
    }
}

fn chain_has_mut(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::MethodCall { recv, method, .. } => {
            method.ends_with("_mut")
                || method == "into_iter"
                || method == "drain"
                || chain_has_mut(recv)
        }
        ExprKind::Ref { expr, is_mut } => *is_mut || chain_has_mut(expr),
        _ => false,
    }
}

/// Canonical text of a place expression (`out`, `self.data`).
fn place_text(e: &Expr) -> String {
    ast::expr_text(ast::peel(e))
}

/// Root binding name of a place (`x` for `x.field[i]`).
fn place_root(e: &Expr) -> Option<String> {
    match &ast::peel(e).kind {
        ExprKind::Path(segs) if segs.len() == 1 => Some(segs[0].clone()),
        ExprKind::Field { recv, .. } | ExprKind::Index { recv, .. } => place_root(recv),
        _ => None,
    }
}

fn callee_is_bare(callee: &Expr) -> bool {
    matches!(&callee.kind, ExprKind::Path(segs) if segs.len() == 1)
}

// ---------------------------------------------------------------------------
// C2 — sequential-merge discipline (per numeric Lib function)
// ---------------------------------------------------------------------------

/// Iterator adapters that preserve "came from the same source".
const C2_ADAPTERS: &[&str] = &[
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "cloned",
    "copied",
    "zip",
    "enumerate",
    "rev",
    "inspect",
    "take",
    "skip",
    "step_by",
    "chain",
    "by_ref",
];
/// Parallel-iterator constructors: reduction order follows scheduling.
const C2_PAR_SOURCES: &[&str] = &[
    "par_iter",
    "into_par_iter",
    "par_iter_mut",
    "par_chunks",
    "par_chunks_mut",
    "par_bridge",
];
const C2_REDUCERS: &[&str] = &["sum", "fold", "reduce", "product"];

fn c2_sequential(ws: &Workspace, f: &FnInfo, body: &Block, out: &mut Vec<Finding>) {
    let _ = ws;
    let mut has_cas = None;
    let mut has_bits = false;
    walk_block_exprs(body, &mut |e| match &e.kind {
        // (a) unordered reductions — the semantic successor of token
        // rule D3, with real receiver-chain peeling.
        ExprKind::MethodCall { recv, method, .. } if C2_REDUCERS.contains(&method.as_str()) => {
            if let Some(src) = unordered_source(recv, f) {
                out.push(Finding {
                    rule: "C2".into(),
                    file: f.file.clone(),
                    line: e.line,
                    message: format!(
                        ".{method}() over a {src} source: float reduction order would vary \
                         across runs/thread counts; route through the fixed-order \
                         parallel::tree_reduce helpers instead"
                    ),
                });
            }
        }
        // (b) completion-order channels; (c') floats decoded from
        // atomic bits.
        ExprKind::Call { callee, args } => {
            if let ExprKind::Path(segs) = &callee.kind {
                let leaf = segs.last().map(String::as_str);
                if (leaf == Some("channel") || leaf == Some("sync_channel"))
                    || segs.iter().any(|s| s == "mpsc")
                {
                    out.push(Finding {
                        rule: "C2".into(),
                        file: f.file.clone(),
                        line: e.line,
                        message: "cross-thread channel in a numeric crate: message arrival \
                                  follows thread completion order; collect per-shard results \
                                  into indexed slots and merge them in a post-join sequential \
                                  loop instead"
                            .into(),
                    });
                } else if segs.len() == 2
                    && (segs[0] == "f32" || segs[0] == "f64")
                    && segs[1] == "from_bits"
                    && args.iter().any(contains_atomic_read)
                {
                    out.push(Finding {
                        rule: "C2".into(),
                        file: f.file.clone(),
                        line: e.line,
                        message: "float decoded from an atomic's bits: CAS float \
                                  accumulation commits in scheduling order; accumulate \
                                  per-shard and merge sequentially after the join"
                            .into(),
                    });
                }
            }
        }
        ExprKind::MethodCall { method, .. }
            if matches!(method.as_str(), "recv" | "try_recv" | "recv_timeout") =>
        {
            out.push(Finding {
                rule: "C2".into(),
                file: f.file.clone(),
                line: e.line,
                message: format!(
                    ".{method}() in a numeric crate receives in thread completion order; \
                     merge shard results by slot index in the post-join sequential loop \
                     instead"
                ),
            });
        }
        // (c) atomics feeding floats.
        ExprKind::Cast { expr, ty_text } => {
            let floaty = ty_text.contains("f32") || ty_text.contains("f64");
            if floaty && is_atomic_read(expr) {
                out.push(Finding {
                    rule: "C2".into(),
                    file: f.file.clone(),
                    line: e.line,
                    message: "atomic value cast to a float: atomically-accumulated floats \
                              commit in scheduling order; accumulate per-shard and merge \
                              sequentially after the join"
                        .into(),
                });
            }
        }
        _ => {
            if let ExprKind::MethodCall { method, .. } = &e.kind {
                if method.starts_with("compare_exchange") || method == "fetch_update" {
                    has_cas = has_cas.or(Some(e.line));
                }
                if method == "to_bits" || method == "from_bits" {
                    has_bits = true;
                }
            }
        }
    });
    if let (Some(line), true) = (has_cas, has_bits) {
        out.push(Finding {
            rule: "C2".into(),
            file: f.file.clone(),
            line,
            message: "compare-exchange over bit-cast floats is an atomic float accumulator: \
                      commit order follows thread scheduling; accumulate per-shard and merge \
                      sequentially after the join"
                .into(),
        });
    }
}

/// If the reduction receiver chain bottoms out in a parallel iterator
/// or a hash-ordered container, names the offending source.
fn unordered_source(recv: &Expr, f: &FnInfo) -> Option<String> {
    let mut e = recv;
    loop {
        match &e.kind {
            ExprKind::MethodCall { recv, method, .. } => {
                if C2_PAR_SOURCES.contains(&method.as_str()) {
                    return Some(method.clone());
                }
                if matches!(
                    method.as_str(),
                    "values" | "keys" | "iter" | "into_iter" | "drain"
                ) {
                    if let Some(root) = chain_root(recv).and_then(place_root) {
                        if is_hash_typed(&root, f) {
                            return Some(format!("HashMap/HashSet (`{root}`)"));
                        }
                    }
                }
                if C2_ADAPTERS.contains(&method.as_str())
                    || matches!(method.as_str(), "values" | "keys" | "iter" | "into_iter")
                {
                    e = recv;
                    continue;
                }
                return None;
            }
            ExprKind::Ref { expr, .. } | ExprKind::Deref { expr } => {
                e = expr;
                continue;
            }
            _ => return None,
        }
    }
}

/// Does `name` have a visibly hash-ordered type in this function
/// (param annotation or local `let`)?
fn is_hash_typed(name: &str, f: &FnInfo) -> bool {
    if f.params.iter().any(|p| {
        p.name.as_deref() == Some(name)
            && (p.ty_text.contains("HashMap") || p.ty_text.contains("HashSet"))
    }) {
        return true;
    }
    let Some(body) = &f.body else { return false };
    let mut hit = false;
    let mut check = |b: &Block| {
        for st in &b.stmts {
            if let Stmt::Let {
                names,
                ty_text,
                init,
                ..
            } = st
            {
                if names.iter().any(|n| n == name) {
                    let init_text = init.as_ref().map(ast::expr_text).unwrap_or_default();
                    if ty_text.contains("Hash") || init_text.contains("Hash") {
                        hit = true;
                    }
                }
            }
        }
    };
    check(body);
    walk_block_exprs(body, &mut |e| match &e.kind {
        ExprKind::Block(b)
        | ExprKind::Unsafe(b)
        | ExprKind::If { then: b, .. }
        | ExprKind::While { body: b, .. }
        | ExprKind::ForLoop { body: b, .. }
        | ExprKind::Loop { body: b } => check(b),
        _ => {}
    });
    hit
}

fn is_atomic_read(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::MethodCall { method, .. } => {
            method == "load" || method.starts_with("fetch_") || method == "swap"
        }
        ExprKind::Ref { expr, .. } | ExprKind::Deref { expr } => is_atomic_read(expr),
        _ => false,
    }
}

fn contains_atomic_read(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        if is_atomic_read(x) {
            found = true;
        }
    });
    found
}

// ---------------------------------------------------------------------------
// C3 — synchronization discipline in numeric crates
// ---------------------------------------------------------------------------

/// Primitive type names whose presence in a numeric crate needs a
/// `// SYNC:` justification.
const C3_PRIMITIVES: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier", "mpsc"];

fn c3_sync_discipline(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if file.kind != ScopeKind::Lib || !NUMERIC_CRATES.contains(&file.crate_key.as_str()) {
            continue;
        }
        let toks = crate::lexer::lex(&file.src);
        let sync_lines: Vec<u32> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Comment && t.text.contains("SYNC:"))
            .map(|t| t.line)
            .collect();
        let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let mask = crate::rules::cfg_test_mask(&code);
        let mut flagged: BTreeSet<u32> = BTreeSet::new();
        for (i, t) in code.iter().enumerate() {
            if mask.get(i).copied().unwrap_or(false) || t.kind != TokKind::Ident {
                continue;
            }
            let hit = C3_PRIMITIVES.contains(&t.text.as_str())
                || (t.text.starts_with("Atomic") && t.text.len() > "Atomic".len());
            if !hit || in_use_stmt(&code, i) {
                continue;
            }
            let covered = sync_lines
                .iter()
                .any(|&l| l >= t.line.saturating_sub(3) && l <= t.line);
            if covered || !flagged.insert(t.line) {
                continue;
            }
            out.push(Finding {
                rule: "C3".into(),
                file: file.rel.clone(),
                line: t.line,
                message: format!(
                    "`{}` in a numeric crate: locks and atomics make thread scheduling \
                     observable, which the determinism contract forbids on numeric paths; \
                     justify telemetry plumbing with a `// SYNC:` comment on the preceding \
                     lines or move the state behind the telemetry crate",
                    t.text
                ),
            });
        }
    }
}

/// Is the code token at `i` part of a `use …;` declaration? The ban
/// binds usage sites; the justification comment belongs where the
/// primitive is actually employed, not at the import.
fn in_use_stmt(code: &[&Tok], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        let t = code[j - 1];
        if t.is_punct(';') || t.is_punct('}') {
            break;
        }
        if t.is_punct('{') {
            // `use a::{B, C};` groups idents behind a use-tree brace;
            // only a block-opening `{` (not preceded by `::`) ends the
            // statement scan.
            let tree = j >= 3 && code[j - 2].is_punct(':') && code[j - 3].is_punct(':');
            if !tree {
                break;
            }
        }
        j -= 1;
    }
    let mut k = j;
    while matches!(code.get(k), Some(t) if t.is_ident("pub") || t.is_punct('(') || t.is_punct(')') || t.is_ident("crate") || t.is_ident("super"))
    {
        k += 1;
    }
    matches!(code.get(k), Some(t) if t.is_ident("use"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conc_findings(src: &str) -> Vec<Finding> {
        let sources = vec![("crates/core/src/fix.rs".to_string(), src.to_string())];
        let ws = Workspace::build(&sources, None);
        run(&ws)
    }

    #[test]
    fn shared_mut_capture_is_flagged_with_chain() {
        let findings = conc_findings(
            r#"
pub fn bad(out: &mut Vec<f32>) {
    rayon::scope(|s| {
        s.spawn(move |_| {
            out[0] = 1.0;
        });
        s.spawn(move |_| {
            out[0] = 2.0;
        });
    });
}
"#,
        );
        let c1: Vec<_> = findings.iter().filter(|f| f.rule == "C1").collect();
        assert_eq!(c1.len(), 1, "{findings:?}");
        assert_eq!(c1[0].line, 4);
        assert!(
            c1[0].message.contains("spawn@4 -> out"),
            "{}",
            c1[0].message
        );
        assert!(
            c1[0].message.contains("spawn@7 -> out"),
            "{}",
            c1[0].message
        );
    }

    #[test]
    fn disjoint_chunks_mut_proves_clean() {
        let findings = conc_findings(
            r#"
pub fn good(out: &mut [f32], n: usize, w: usize) {
    rayon::scope(|s| {
        for (c, chunk) in out.chunks_mut(w).enumerate() {
            s.spawn(move |_| {
                for v in chunk.iter_mut() {
                    *v = c as f32;
                }
            });
        }
    });
}
"#,
        );
        assert!(
            findings.iter().all(|f| f.rule != "C1"),
            "chunks_mut partition must prove clean: {findings:?}"
        );
    }

    #[test]
    fn looped_spawn_on_whole_capture_races() {
        let findings = conc_findings(
            r#"
pub fn bad(acc: &mut Vec<f32>, n: usize) {
    rayon::scope(|s| {
        for i in 0..n {
            s.spawn(move |_| {
                acc.push(i as f32);
            });
        }
    });
}
"#,
        );
        let c1: Vec<_> = findings.iter().filter(|f| f.rule == "C1").collect();
        assert_eq!(c1.len(), 1, "{findings:?}");
        assert!(c1[0].message.contains("per-iteration disjointness"));
        assert!(
            c1[0].message.contains("spawn@5 -> acc"),
            "{}",
            c1[0].message
        );
    }

    #[test]
    fn per_index_writes_prove_clean() {
        let findings = conc_findings(
            r#"
pub fn good(out: &mut [f32], n: usize) {
    rayon::scope(|s| {
        for i in 0..n {
            s.spawn(move |_| {
                out[i] = i as f32;
            });
        }
    });
}
"#,
        );
        assert!(
            findings.iter().all(|f| f.rule != "C1"),
            "per-index writes must prove clean: {findings:?}"
        );
    }

    #[test]
    fn bucket_pattern_proves_clean() {
        // Miniature of crates/core/src/parallel.rs: round-robin
        // buckets of &mut slots, one worker per bucket, a let-closure
        // worker body and per-worker workspace slots.
        let findings = conc_findings(
            r#"
pub fn engine(slots: &mut Vec<Option<f32>>, ws_slots: &mut [f32], workers: usize) {
    let run_shard = |i: usize, ws: &mut f32| {
        *ws += i as f32;
        Some(*ws)
    };
    let mut buckets: Vec<Vec<(usize, &mut Option<f32>)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, slot) in slots.iter_mut().enumerate() {
        buckets[i % workers].push((i, slot));
    }
    let run_shard = &run_shard;
    rayon::scope(|scope| {
        for (bucket, ws) in buckets.into_iter().zip(ws_slots.iter_mut()) {
            scope.spawn(move |_| {
                for (i, slot) in bucket {
                    *slot = run_shard(i, ws);
                }
            });
        }
    });
}
"#,
        );
        assert!(
            findings.iter().all(|f| f.rule != "C1" && f.rule != "C2"),
            "bucket pattern must prove clean: {findings:?}"
        );
    }

    #[test]
    fn write_read_overlap_is_c2() {
        let findings = conc_findings(
            r#"
pub fn bad(state: &mut Vec<f32>, out: &mut [f32]) {
    rayon::scope(|s| {
        s.spawn(move |_| {
            state[0] = 1.0;
        });
        s.spawn(move |_| {
            out[0] = state[0];
        });
    });
}
"#,
        );
        let c2: Vec<_> = findings.iter().filter(|f| f.rule == "C2").collect();
        assert_eq!(c2.len(), 1, "{findings:?}");
        assert!(
            c2[0].message.contains("thread scheduling"),
            "{}",
            c2[0].message
        );
    }

    #[test]
    fn channel_recv_is_c2() {
        let findings = conc_findings(
            r#"
pub fn bad() -> f32 {
    let (tx, rx) = std::sync::mpsc::channel();
    drop(tx);
    let mut total = 0.0f32;
    while let Ok(v) = rx.recv() {
        total += v;
    }
    total
}
"#,
        );
        assert!(
            findings.iter().any(|f| f.rule == "C2" && f.line == 3),
            "{findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "C2" && f.message.contains("completion order")),
            "{findings:?}"
        );
    }

    #[test]
    fn parallel_reduction_is_c2() {
        let findings = conc_findings(
            r#"
pub fn bad(xs: &[f32]) -> f32 {
    xs.par_iter().map(|x| x * 2.0).sum()
}
"#,
        );
        let c2: Vec<_> = findings.iter().filter(|f| f.rule == "C2").collect();
        assert_eq!(c2.len(), 1, "{findings:?}");
        assert!(c2[0].message.contains("par_iter"), "{}", c2[0].message);
    }

    #[test]
    fn hash_map_reduction_is_c2_and_tree_reduce_is_not() {
        let findings = conc_findings(
            r#"
pub fn bad(weights: &std::collections::HashMap<u32, f32>) -> f32 {
    weights.values().sum()
}

pub fn good(xs: &[f32]) -> f32 {
    xs.iter().sum::<f32>()
}
"#,
        );
        let c2: Vec<_> = findings.iter().filter(|f| f.rule == "C2").collect();
        assert_eq!(c2.len(), 1, "{findings:?}");
        assert_eq!(c2[0].line, 3);
    }

    #[test]
    fn atomic_to_float_is_c2() {
        let findings = conc_findings(
            r#"
pub fn bad(total_bits: &std::sync::atomic::AtomicU32) -> f32 {
    f32::from_bits(total_bits.load(std::sync::atomic::Ordering::Relaxed))
}
"#,
        );
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "C2" && f.message.contains("atomic")),
            "{findings:?}"
        );
    }

    #[test]
    fn mutex_in_numeric_crate_is_c3_unless_justified() {
        let findings = conc_findings(
            r#"
use std::sync::Mutex;

pub struct Bad {
    state: Mutex<Vec<f32>>,
}

pub struct Ok2 {
    // SYNC: telemetry counter mirror; never read by numeric paths.
    counts: Mutex<Vec<u64>>,
}
"#,
        );
        let c3: Vec<_> = findings.iter().filter(|f| f.rule == "C3").collect();
        assert_eq!(c3.len(), 1, "{findings:?}");
        assert_eq!(c3[0].line, 5);
        assert!(c3[0].message.contains("Mutex"));
    }

    #[test]
    fn split_at_mut_halves_prove_clean_and_same_half_does_not() {
        let findings = conc_findings(
            r#"
pub fn good(buf: &mut [f32], mid: usize) {
    let (lo, hi) = buf.split_at_mut(mid);
    rayon::scope(|s| {
        s.spawn(move |_| {
            lo[0] = 1.0;
        });
        s.spawn(move |_| {
            hi[0] = 2.0;
        });
    });
}

pub fn bad(buf: &mut [f32], mid: usize) {
    let (lo, _hi) = buf.split_at_mut(mid);
    rayon::scope(|s| {
        s.spawn(move |_| {
            lo[0] = 1.0;
        });
        s.spawn(move |_| {
            lo[1] = 2.0;
        });
    });
}
"#,
        );
        let c1: Vec<_> = findings.iter().filter(|f| f.rule == "C1").collect();
        assert_eq!(c1.len(), 1, "{findings:?}");
        assert_eq!(c1[0].file, "crates/core/src/fix.rs");
        assert_eq!(c1[0].line, 17);
    }

    #[test]
    fn join_closures_with_shared_write_are_flagged() {
        let findings = conc_findings(
            r#"
pub fn bad(acc: &mut Vec<f32>) {
    rayon::join(
        || {
            acc.push(1.0);
        },
        || {
            acc.push(2.0);
        },
    );
}
"#,
        );
        assert!(findings.iter().any(|f| f.rule == "C1"), "{findings:?}");
    }
}
