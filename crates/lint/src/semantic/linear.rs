//! Layer-3 bounds engine: a linear-arithmetic prover over products of
//! symbolic atoms, and S1's only index-bounds prover.
//!
//! It discharges 1-D shapes (`for i in 0..xs.len()`, `j % xs.len()`,
//! `assert!(j < xs.len())`) and flattened 2-D indexing such as
//! `data[r * cols + c]` from constructor invariants
//! (`data.len() == rows * cols`), loop bounds (`r < rows`), and
//! `assert!`/`debug_assert!` guards.
//!
//! # Representation
//!
//! Every usize expression is normalised into a [`LinForm`]: an integer
//! linear combination of *monomials*, each monomial a sorted multiset
//! of opaque atom strings (`["cols", "r"]` ⇒ `r·cols`; the empty
//! monomial is the constant term). All atoms denote `usize` values and
//! are therefore non-negative, which the prover exploits.
//!
//! # Decision procedure
//!
//! `le(A, B)` computes `D = B − A` and searches for a proof that every
//! coefficient of some guard-adjusted variant of `D` is non-negative:
//!
//! 1. **direct** — all coefficients of `D` already ≥ 0;
//! 2. **guard chaining** — for a known fact `L ≤ R`, recurse on
//!    `D + L − R` (sound: `L − R ≤ 0`);
//! 3. **bound substitution** — for an atom `a` with a known upper
//!    bound `a ≤ U` appearing in a *negative* monomial `−c·a·m`,
//!    recurse on `D` with that monomial replaced by `−c·U·m`
//!    (sound: the replacement only decreases `D`).
//!
//! The search is depth- and node-budgeted, so it is total.
//!
//! # Fact sources (per function, flow-insensitive)
//!
//! `assert!`/`debug_assert!` (with `&&` splitting), `assert_eq!`,
//! `while` conditions, early-`return` negations, `for` ranges and
//! `.enumerate()` counters, `chunks_exact(_mut)` element lengths,
//! `split_at(_mut)` tuple bindings, slice-window `let`s, `vec![x; n]`
//! and `[x; N]` lengths, `.min()` bounds, `let` aliases, workspace
//! `pub const` values, and constructor-derived type invariants
//! (`Matrix::zeros(r, c)` ⇒ `out.data.len() = r·c`).
//!
//! Facts are gathered flow-insensitively (the same over-approximation
//! S2 already makes): a `while` condition or assert
//! is assumed to hold anywhere in the body. This can in principle
//! discharge an index that a flow-sensitive analysis would keep, which
//! is an accepted trade-off for a lint (documented in DESIGN.md §9).

use crate::ast::{expr_text, peel, Block, Expr, ExprKind, ItemKind, Stmt};
use crate::model::{FnInfo, Workspace};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

/// Sorted multiset of atom strings; empty = constant term.
type Monomial = Vec<String>;

/// Integer linear combination of monomials.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinForm {
    terms: BTreeMap<Monomial, i64>,
}

const MAX_DEGREE: usize = 4;
const MAX_TERMS: usize = 24;
const MAX_ATOM_LEN: usize = 80;
const SOLVE_DEPTH: usize = 5;
const SOLVE_BUDGET: usize = 4000;
const EXPAND_STEPS: usize = 24;

impl LinForm {
    pub fn constant(c: i64) -> LinForm {
        let mut f = LinForm::default();
        if c != 0 {
            f.terms.insert(Vec::new(), c);
        }
        f
    }

    pub fn atom(a: &str) -> LinForm {
        let mut f = LinForm::default();
        f.terms.insert(vec![a.to_string()], 1);
        f
    }

    fn add_term(&mut self, m: Monomial, c: i64) {
        if c == 0 {
            return;
        }
        let e = self.terms.entry(m).or_insert(0);
        *e += c;
        if *e == 0 {
            let m = self
                .terms
                .iter()
                .find(|(_, v)| **v == 0)
                .map(|(k, _)| k.clone());
            if let Some(m) = m {
                self.terms.remove(&m);
            }
        }
    }

    pub fn add(&self, other: &LinForm) -> LinForm {
        let mut out = self.clone();
        for (m, c) in &other.terms {
            out.add_term(m.clone(), *c);
        }
        out
    }

    pub fn sub(&self, other: &LinForm) -> LinForm {
        let mut out = self.clone();
        for (m, c) in &other.terms {
            out.add_term(m.clone(), -*c);
        }
        out
    }

    /// Every atom mentioned anywhere in the form.
    pub fn atoms(&self) -> BTreeSet<String> {
        self.terms.keys().flatten().cloned().collect()
    }

    /// Substitutes one atom for another in every monomial — the
    /// disjointness prover uses this to freshen a loop counter into a
    /// second, distinct instance of itself.
    pub fn rename_atom(&self, from: &str, to: &str) -> LinForm {
        let mut out = LinForm::default();
        for (m, c) in &self.terms {
            let mut m2: Monomial = m
                .iter()
                .map(|a| if a == from { to.to_string() } else { a.clone() })
                .collect();
            m2.sort();
            out.add_term(m2, *c);
        }
        out
    }

    /// Degree- and size-bounded product (`None` when the result would
    /// blow past the prover's term limits).
    pub fn mul_checked(&self, other: &LinForm) -> Option<LinForm> {
        self.mul(other)
    }

    fn mul(&self, other: &LinForm) -> Option<LinForm> {
        let mut out = LinForm::default();
        for (ma, ca) in &self.terms {
            for (mb, cb) in &other.terms {
                let mut m = ma.clone();
                m.extend(mb.iter().cloned());
                m.sort();
                if m.len() > MAX_DEGREE {
                    return None;
                }
                out.add_term(m, ca.checked_mul(*cb)?);
            }
        }
        if out.terms.len() > MAX_TERMS {
            return None;
        }
        Some(out)
    }

    /// True when every coefficient is ≥ 0 — under "all atoms are
    /// usize", this means the form's value is provably ≥ 0.
    fn is_nonneg(&self) -> bool {
        self.terms.values().all(|&c| c >= 0)
    }

    fn is_single_atom(&self) -> Option<(&str, i64)> {
        // `a + k` with coefficient 1 on the atom: returns (a, k).
        let mut atom = None;
        let mut konst = 0i64;
        for (m, c) in &self.terms {
            match m.len() {
                0 => konst = *c,
                1 if *c == 1 && atom.is_none() => atom = Some(m[0].as_str()),
                _ => return None,
            }
        }
        atom.map(|a| (a, konst))
    }
}

/// A normalised form plus side conditions: each `(small, large)` pair
/// must satisfy `small ≤ large` for the form to be meaningful (usize
/// subtraction must not wrap).
#[derive(Clone, Debug, Default)]
struct Nf {
    form: LinForm,
    conds: Vec<(LinForm, LinForm)>,
}

// ---------------------------------------------------------------------------
// Workspace environment: consts + constructor-derived type invariants.
// ---------------------------------------------------------------------------

/// Per-type shape knowledge inferred from `impl` blocks.
#[derive(Debug, Default)]
pub struct TypeInfo {
    /// `(len_field, dim0_field, dim1_field)`: the type maintains
    /// `self.len_field.len() == self.dim0 * self.dim1`, established by
    /// at least one constructor whose buffer length is verifiable.
    /// Once established it is assumed for every constructor of the
    /// type (documented over-approximation).
    pub invariant: Option<(String, String, String)>,
    /// Trivial accessor methods: method name → field name
    /// (`fn rows(&self) -> usize { self.rows }`).
    pub accessors: BTreeMap<String, String>,
    /// Associated constructors: fn name → (field → argument index)
    /// for fields initialised directly from a parameter.
    pub ctors: BTreeMap<String, BTreeMap<String, usize>>,
}

/// Workspace-level facts shared by every per-function gather.
#[derive(Debug, Default)]
pub struct Env {
    /// `pub const NAME: usize = <literal>` across the workspace.
    /// Names bound to conflicting values are dropped.
    pub consts: BTreeMap<String, i64>,
    pub types: BTreeMap<String, TypeInfo>,
    /// Struct-field shape classes from the inter-procedural shape pass
    /// ([`super::shape`]): type name → pairs of `Vec` fields whose
    /// lengths a builder method provably keeps equal.
    pub shapes: BTreeMap<String, Vec<(String, String)>>,
}

impl Env {
    pub fn build(ws: &Workspace) -> Env {
        let mut env = Env::default();
        let mut poisoned: BTreeSet<String> = BTreeSet::new();
        for file in &ws.files {
            crate::ast::walk_items(&file.ast.items, &mut |item| {
                if let ItemKind::Const { init: Some(e) } = &item.kind {
                    if let Some(v) = parse_int(e) {
                        match env.consts.get(&item.name) {
                            Some(old) if *old != v => {
                                poisoned.insert(item.name.clone());
                            }
                            _ => {
                                env.consts.insert(item.name.clone(), v);
                            }
                        }
                    }
                }
            });
        }
        for name in poisoned {
            env.consts.remove(&name);
        }
        for f in &ws.fns {
            let Some(ty) = &f.self_ty else { continue };
            if f.has_self {
                learn_accessor(&mut env, ty, f);
            } else {
                learn_ctor(&mut env, ty, f);
            }
        }
        super::shape::learn(ws, &mut env);
        env
    }
}

fn parse_int(e: &Expr) -> Option<i64> {
    if let ExprKind::Num(n) = &e.kind {
        let digits: String = n
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '_')
            .collect();
        let digits: String = digits.chars().filter(|c| *c != '_').collect();
        if digits.is_empty() || n.contains('.') || n.starts_with("0x") || n.starts_with("0b") {
            return None;
        }
        let rest = &n[n
            .find(|c: char| !(c.is_ascii_digit() || c == '_'))
            .unwrap_or(n.len())..];
        if !rest.is_empty() && !rest.chars().all(|c| c.is_ascii_alphanumeric()) {
            return None;
        }
        return digits.parse().ok();
    }
    None
}

/// `fn rows(&self) -> usize { self.rows }`-style single-field bodies.
fn learn_accessor(env: &mut Env, ty: &str, f: &FnInfo) {
    if !f.params.is_empty() {
        return;
    }
    let Some(body) = &f.body else { return };
    if body.stmts.len() != 1 {
        return;
    }
    let Stmt::Expr { expr, semi: false } = &body.stmts[0] else {
        return;
    };
    let e = peel(expr);
    if let ExprKind::Field { recv, name } = &e.kind {
        if peel(recv).path_last() == Some("self") {
            env.types
                .entry(ty.to_string())
                .or_default()
                .accessors
                .insert(f.name.clone(), name.clone());
        }
    }
}

/// Learns constructor field→arg mappings and, when the buffer field's
/// length is verifiable against a product of two dimension params,
/// the type invariant itself.
fn learn_ctor(env: &mut Env, ty: &str, f: &FnInfo) {
    let Some(body) = &f.body else { return };
    // Find the struct literal for `ty` (possibly inside `Ok(..)`).
    let mut lit: Option<&Expr> = None;
    walk_block(body, &mut |e| {
        if lit.is_none() {
            if let ExprKind::StructLit { path, .. } = &e.kind {
                let last = path.last().map(String::as_str);
                if last == Some(ty) || last == Some("Self") {
                    lit = Some(e);
                }
            }
        }
    });
    let Some(lit) = lit else { return };
    let ExprKind::StructLit { fields, .. } = &lit.kind else {
        return;
    };

    let param_idx = |name: &str| -> Option<usize> {
        f.params
            .iter()
            .position(|p| p.name.as_deref() == Some(name))
    };

    // Field → param-index mapping (shorthand fields parse as
    // `(name, Path(name))`, so they are covered too).
    let mut mapping = BTreeMap::new();
    for (fname, fexpr) in fields {
        if let Some(p) = peel(fexpr).path_last().and_then(param_idx) {
            mapping.insert(fname.clone(), p);
        }
    }

    // Buffer-length verification: a field initialised by `vec![x; E]` /
    // `[x; E]`, by a local with such an init, or by a param checked by
    // an early `if buf.len() != E { return … }`.
    let mut len_fact: Option<(String, Expr)> = None;
    for (fname, fexpr) in fields {
        if let Some(len) = init_len_expr(fexpr, body) {
            len_fact = Some((fname.clone(), len));
            break;
        }
    }
    let info = env.types.entry(ty.to_string()).or_default();
    if !mapping.is_empty() {
        info.ctors.insert(f.name.clone(), mapping.clone());
    }
    if info.invariant.is_some() {
        return;
    }
    let Some((len_field, len_expr)) = len_fact else {
        return;
    };
    // The length must normalise to exactly `p · q` for two params that
    // are mapped dimension fields.
    if let ExprKind::Binary { op, lhs, rhs } = &peel(&len_expr).kind {
        if op == "*" {
            let (a, b) = (peel(lhs).path_last(), peel(rhs).path_last());
            if let (Some(a), Some(b)) = (a, b) {
                let dim_field = |pname: &str| {
                    mapping
                        .iter()
                        .find(|(fld, idx)| param_idx(pname) == Some(**idx) && **fld != len_field)
                        .map(|(fld, _)| fld.clone())
                };
                if let (Some(d0), Some(d1)) = (dim_field(a), dim_field(b)) {
                    info.invariant = Some((len_field, d0, d1));
                }
            }
        }
    }
}

/// Length expression of a constructor field init, if verifiable.
fn init_len_expr(fexpr: &Expr, body: &Block) -> Option<Expr> {
    match &peel(fexpr).kind {
        ExprKind::Repeat { len, .. } => return Some((**len).clone()),
        ExprKind::MacroCall { path, args, .. }
            if path.last().is_some_and(|p| p == "vec") && args.len() == 2 =>
        {
            return Some(args[1].clone());
        }
        ExprKind::Path(segs) if segs.len() == 1 => {
            let name = &segs[0];
            // `let name = vec![x; E]` at any depth, or an early-return
            // length check `if name.len() != E { return … }`.
            let mut found = None;
            for stmt in &body.stmts {
                if let Stmt::Let {
                    names,
                    init: Some(init),
                    ..
                } = stmt
                {
                    if names.len() == 1 && &names[0] == name {
                        if let Some(l) = init_len_expr(init, body) {
                            found = Some(l);
                        }
                    }
                }
            }
            if found.is_some() {
                return found;
            }
            walk_block(body, &mut |e| {
                if found.is_none() {
                    if let Some(l) = neq_len_check(e, name) {
                        found = Some(l);
                    }
                }
            });
            return found;
        }
        _ => {}
    }
    None
}

/// `if name.len() != E { return … }` ⇒ `E` (post-check truth).
fn neq_len_check(e: &Expr, name: &str) -> Option<Expr> {
    let ExprKind::If {
        cond,
        then,
        else_: None,
    } = &e.kind
    else {
        return None;
    };
    if !block_diverges(then) {
        return None;
    }
    let ExprKind::Binary { op, lhs, rhs } = &cond.kind else {
        return None;
    };
    if op != "!=" {
        return None;
    }
    for (a, b) in [(lhs, rhs), (rhs, lhs)] {
        if let ExprKind::MethodCall { recv, method, args } = &peel(a).kind {
            if method == "len" && args.is_empty() && peel(recv).path_last() == Some(name) {
                return Some((**b).clone());
            }
        }
    }
    None
}

/// Does this block unconditionally leave the enclosing function/loop?
pub(crate) fn block_diverges(b: &Block) -> bool {
    b.stmts.iter().any(|s| {
        if let Stmt::Expr { expr, .. } = s {
            matches!(
                &expr.kind,
                ExprKind::Return(_) | ExprKind::Break(_) | ExprKind::Continue
            ) || matches!(
                &expr.kind,
                ExprKind::MacroCall { path, .. }
                    if matches!(
                        path.last().map(String::as_str),
                        Some("panic" | "unreachable" | "todo" | "unimplemented")
                    )
            )
        } else {
            false
        }
    })
}

/// Visits every expr in a block, including nested blocks (like
/// `Expr::walk` but rooted at a block).
fn walk_block<'a>(b: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    for s in &b.stmts {
        match s {
            Stmt::Let { init: Some(e), .. } => e.walk(f),
            Stmt::Expr { expr, .. } => expr.walk(f),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Per-function fact gathering.
// ---------------------------------------------------------------------------

/// Everything the prover knows inside one function body.
pub struct Facts<'e> {
    env: &'e Env,
    /// Variables whose canonical text maps to a known workspace type.
    typed: BTreeMap<String, String>,
    /// atom → defining form (`let`s, length facts, ctor facts).
    defs: BTreeMap<String, LinForm>,
    /// Known `L ≤ R` facts, already expanded/canonicalised.
    guards: Vec<(LinForm, LinForm)>,
    /// Raw guards as gathered (expanded lazily in `finish`).
    raw_guards: Vec<(LinForm, LinForm)>,
    /// Atom equivalence classes (let-aliases, equalities).
    parent: BTreeMap<String, String>,
    /// Arrays of arrays: base var → inner element length.
    elem_len: BTreeMap<String, LinForm>,
    /// Names reassigned or length-mutated in place — never given defs.
    assigned: BTreeSet<String>,
    budget: Cell<usize>,
}

impl<'e> Facts<'e> {
    fn find(&self, key: &str) -> String {
        let mut cur = key.to_string();
        let mut hops = 0;
        while let Some(p) = self.parent.get(&cur) {
            if *p == cur || hops > 32 {
                break;
            }
            cur = p.clone();
            hops += 1;
        }
        cur
    }

    fn union(&mut self, a: &str, b: &str) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }

    fn def(&mut self, atom: &str, form: LinForm) {
        if let Some(base) = atom.split('.').next() {
            if self.assigned.contains(base) {
                return;
            }
        }
        self.defs.entry(atom.to_string()).or_insert(form);
    }

    /// Facts with no function context: only explicitly-injected
    /// guards. Entry point for callers proving over directly
    /// constructed forms (the disjointness property tests).
    pub fn empty(env: &'e Env) -> Facts<'e> {
        Facts {
            env,
            typed: BTreeMap::new(),
            defs: BTreeMap::new(),
            guards: Vec::new(),
            raw_guards: Vec::new(),
            parent: BTreeMap::new(),
            elem_len: BTreeMap::new(),
            assigned: BTreeSet::new(),
            budget: Cell::new(SOLVE_BUDGET),
        }
    }

    /// A copy of these facts extended with branch-context conditions:
    /// `(cond, true)` assumes the condition holds (then-branch),
    /// `(cond, false)` its negation (else-branch). S1 retries
    /// undischarged indexes under the conditions guarding them, which
    /// is what proves `xs[t - 1]` inside the `else` of `if t == 0`.
    pub fn assuming(&self, conds: &[(&Expr, bool)]) -> Facts<'e> {
        let mut out = Facts {
            env: self.env,
            typed: self.typed.clone(),
            defs: self.defs.clone(),
            guards: self.guards.clone(),
            raw_guards: Vec::new(),
            parent: self.parent.clone(),
            elem_len: self.elem_len.clone(),
            assigned: self.assigned.clone(),
            budget: Cell::new(SOLVE_BUDGET),
        };
        for (cond, positive) in conds {
            learn_cond(cond, *positive, &mut out);
        }
        let raw = std::mem::take(&mut out.raw_guards);
        let resolved: Vec<(LinForm, LinForm)> = raw
            .into_iter()
            .map(|(l, r)| (resolve(&l, &out), resolve(&r, &out)))
            .collect();
        out.guards.extend(resolved);
        out
    }

    /// Injects an already-built `l ≤ r` guard (disjointness prover).
    pub(crate) fn add_guard(&mut self, l: LinForm, r: LinForm) {
        let l = resolve(&l, self);
        let r = resolve(&r, self);
        self.guards.push((l, r));
    }
}

/// Normalises a usize-valued expression to a linear form under the
/// facts, dropping wrap side-conditions (the disjointness prover
/// treats regions symbolically; wrap soundness is S1's concern).
pub(crate) fn norm_form(e: &Expr, facts: &Facts) -> Option<LinForm> {
    norm(e, facts).map(|n| resolve(&n.form, facts))
}

/// Proves `a ≤ b` under the facts (public face of the solver).
pub(crate) fn le(a: &LinForm, b: &LinForm, facts: &Facts) -> bool {
    prove_le(a, b, facts)
}

/// Proves `a < b` under the facts.
pub(crate) fn lt(a: &LinForm, b: &LinForm, facts: &Facts) -> bool {
    prove_lt(a, b, facts)
}

/// Canonical text for atom naming: like [`expr_text`] but rewrites
/// trivial accessor calls on typed receivers into field form
/// (`b.rows()` → `b.rows` when `b: Matrix`), so method and field
/// spellings of the same quantity share one atom.
fn canon_text(e: &Expr, facts: &Facts) -> String {
    let e = peel(e);
    match &e.kind {
        ExprKind::Field { recv, name } => format!("{}.{}", canon_text(recv, facts), name),
        ExprKind::MethodCall { recv, method, args } if args.is_empty() => {
            let r = canon_text(recv, facts);
            if let Some(ty) = facts.typed.get(&r) {
                if let Some(info) = facts.env.types.get(ty) {
                    if let Some(field) = info.accessors.get(method) {
                        return format!("{r}.{field}");
                    }
                }
            }
            format!("{r}.{method}()")
        }
        ExprKind::Index { recv, index } => {
            format!("{}[{}]", canon_text(recv, facts), expr_text(index))
        }
        _ => expr_text(e),
    }
}

/// True for variable-/place-like expressions worth aliasing.
fn is_place(e: &Expr) -> bool {
    matches!(
        &peel(e).kind,
        ExprKind::Path(_) | ExprKind::Field { .. } | ExprKind::Index { .. }
    ) || matches!(
        &peel(e).kind,
        ExprKind::MethodCall { method, args, .. }
            if args.is_empty() && matches!(method.as_str(), "as_slice" | "as_mut_slice")
    )
}

/// Normalises a usize expression into a linear form. Returns `None`
/// when the expression is too large or non-arithmetic in a way that
/// cannot even be treated as an opaque atom.
fn norm(e: &Expr, facts: &Facts) -> Option<Nf> {
    let e = peel(e);
    match &e.kind {
        ExprKind::Num(_) => parse_int(e).map(|v| Nf {
            form: LinForm::constant(v),
            conds: Vec::new(),
        }),
        ExprKind::Path(segs) => {
            if let Some(last) = segs.last() {
                if let Some(v) = facts.env.consts.get(last) {
                    return Some(Nf {
                        form: LinForm::constant(*v),
                        conds: Vec::new(),
                    });
                }
            }
            opaque(e, facts)
        }
        ExprKind::Binary { op, lhs, rhs } => match op.as_str() {
            "+" => {
                let (a, b) = (norm(lhs, facts)?, norm(rhs, facts)?);
                Some(Nf {
                    form: a.form.add(&b.form),
                    conds: merge_conds(a.conds, b.conds),
                })
            }
            "-" => {
                let (a, b) = (norm(lhs, facts)?, norm(rhs, facts)?);
                let mut conds = merge_conds(a.conds, b.conds);
                conds.push((b.form.clone(), a.form.clone()));
                Some(Nf {
                    form: a.form.sub(&b.form),
                    conds,
                })
            }
            "*" => {
                let (a, b) = (norm(lhs, facts)?, norm(rhs, facts)?);
                Some(Nf {
                    form: a.form.mul(&b.form)?,
                    conds: merge_conds(a.conds, b.conds),
                })
            }
            _ => opaque(e, facts),
        },
        _ => opaque(e, facts),
    }
}

fn opaque(e: &Expr, facts: &Facts) -> Option<Nf> {
    let t = canon_text(e, facts);
    if t.is_empty() || t.len() > MAX_ATOM_LEN || t == "<expr>" {
        return None;
    }
    Some(Nf {
        form: LinForm::atom(&t),
        conds: Vec::new(),
    })
}

fn merge_conds(
    mut a: Vec<(LinForm, LinForm)>,
    b: Vec<(LinForm, LinForm)>,
) -> Vec<(LinForm, LinForm)> {
    a.extend(b);
    a
}

/// Gathers all facts for one function.
pub fn gather<'e>(f: &FnInfo, env: &'e Env) -> Facts<'e> {
    let mut facts = Facts {
        env,
        typed: BTreeMap::new(),
        defs: BTreeMap::new(),
        guards: Vec::new(),
        raw_guards: Vec::new(),
        parent: BTreeMap::new(),
        elem_len: BTreeMap::new(),
        assigned: BTreeSet::new(),
        budget: Cell::new(SOLVE_BUDGET),
    };
    let Some(body) = &f.body else {
        return facts;
    };

    // Pass 0: names written again after binding (reassignment or an
    // in-place length mutation like `push`) never get defs. A plain
    // `let mut` that is only ever written through (`m.data[i] = …`,
    // `for v in &mut buf`) keeps its defs — element writes cannot
    // change a length.
    collect_assigned(body, &mut facts.assigned);

    // Typed variables: `self`, params whose type names a known type,
    // and array-typed params (`[T; N]` gives a length fact directly).
    if let Some(ty) = &f.self_ty {
        if f.has_self {
            facts.typed.insert("self".into(), ty.clone());
        }
    }
    for p in &f.params {
        let Some(name) = &p.name else { continue };
        let ty = p.ty_text.trim();
        for known in env.types.keys() {
            if ty_mentions(ty, known) {
                facts.typed.insert(name.clone(), known.clone());
            }
        }
        if let Some(n) = array_len_of(ty) {
            facts
                .defs
                .insert(format!("{name}.len()"), LinForm::constant(n));
        }
    }

    gather_block(body, &mut facts);

    // Seed invariant lengths for every typed variable:
    // `v.data.len() = v.rows · v.cols`.
    let seeds: Vec<(String, String)> = facts
        .typed
        .iter()
        .map(|(v, t)| (v.clone(), t.clone()))
        .collect();
    for (v, t) in seeds {
        if let Some(info) = env.types.get(&t) {
            if let Some((len_field, d0, d1)) = &info.invariant {
                let prod = LinForm::atom(&format!("{v}.{d0}"))
                    .mul(&LinForm::atom(&format!("{v}.{d1}")))
                    .expect("degree-2 product");
                facts.def(&format!("{v}.{len_field}.len()"), prod);
            }
        }
        // Shape-pass field classes: `tape.entries.len()` and
        // `tape.hs.len()` become one atom when the builder proved the
        // fields grow in lockstep.
        if let Some(pairs) = env.shapes.get(&t) {
            for (f1, f2) in pairs.clone() {
                let (a, b) = (format!("{v}.{f1}.len()"), format!("{v}.{f2}.len()"));
                facts.union(&a, &b);
            }
        }
    }

    // Finalise: expand + canonicalise every guard once.
    let raw = std::mem::take(&mut facts.raw_guards);
    facts.guards = raw
        .into_iter()
        .map(|(l, r)| (resolve(&l, &facts), resolve(&r, &facts)))
        .collect();
    facts
}

/// `[T; N]` parameter types carry their length in the type.
fn array_len_of(ty: &str) -> Option<i64> {
    let ty = ty.trim().trim_start_matches('&').trim();
    let inner = ty.strip_prefix('[')?.strip_suffix(']')?;
    let (_, n) = inner.rsplit_once(';')?;
    n.trim().parse().ok()
}

fn ty_mentions(ty: &str, name: &str) -> bool {
    // Word-boundary containment: `&Matrix`, `&mut Matrix`, `Vec<Matrix>`.
    ty.split(|c: char| !c.is_alphanumeric() && c != '_')
        .any(|w| w == name)
}

/// Methods that can change a collection's length in place. A receiver
/// of any of these loses its defs, exactly like a reassigned name.
const LEN_MUTATORS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "swap_remove",
    "truncate",
    "clear",
    "resize",
    "resize_with",
    "extend",
    "extend_from_slice",
    "append",
    "drain",
    "split_off",
    "retain",
    "retain_mut",
    "dedup",
    "dedup_by",
    "dedup_by_key",
    "push_str",
    "insert_str",
    "set_len",
];

fn collect_assigned(b: &Block, out: &mut BTreeSet<String>) {
    for s in &b.stmts {
        match s {
            Stmt::Let { init: Some(e), .. } => collect_assigned_expr(e, out),
            Stmt::Expr { expr, .. } => collect_assigned_expr(expr, out),
            _ => {}
        }
    }
}

fn collect_assigned_expr(e: &Expr, out: &mut BTreeSet<String>) {
    e.walk(&mut |e| match &e.kind {
        // Whole-name (re)assignment, plain or compound. `let mut` on
        // its own does NOT poison a binding: defs stay valid until the
        // name is actually written again or length-mutated.
        ExprKind::Assign { lhs, .. } => {
            if let Some(name) = peel(lhs).path_last() {
                out.insert(name.to_string());
            }
        }
        // `v.push(x)`, `out.data.truncate(n)`, … — poison the root
        // binding of the receiver chain (conservative: kills every
        // `root.*` def, not just the mutated place). A chain through
        // an `Index` mutates an *element*, which cannot change the
        // container's own length — the root keeps its defs.
        ExprKind::MethodCall { recv, method, .. } if LEN_MUTATORS.contains(&method.as_str()) => {
            if let Some(root) = mutated_binding(recv) {
                out.insert(root.to_string());
            }
        }
        _ => {}
    });
}

/// Base binding of a place chain that shares the mutated place's
/// length facts: `out` for `out.data.push(…)`, but `None` for
/// `buckets[j].push(…)` (element mutation).
fn mutated_binding(e: &Expr) -> Option<&str> {
    match &peel(e).kind {
        ExprKind::Path(segs) => segs.last().map(String::as_str),
        ExprKind::Field { recv, .. } | ExprKind::MethodCall { recv, .. } => mutated_binding(recv),
        _ => None,
    }
}

fn gather_block(b: &Block, facts: &mut Facts) {
    for s in &b.stmts {
        match s {
            Stmt::Let {
                names,
                init: Some(init),
                ..
            } => {
                learn_let(names, init, facts);
                gather_expr(init, facts);
            }
            Stmt::Expr { expr, .. } => gather_expr(expr, facts),
            _ => {}
        }
    }
}

/// Recursive expression traversal that also descends into nested
/// blocks' statements (so `let`s inside loop bodies are seen).
fn gather_expr(e: &Expr, facts: &mut Facts) {
    match &e.kind {
        ExprKind::MacroCall { path, args, .. } => {
            match path.last().map(String::as_str) {
                Some("assert" | "debug_assert") if !args.is_empty() => {
                    learn_cond(&args[0], true, facts);
                }
                Some("assert_eq" | "debug_assert_eq") if args.len() >= 2 => {
                    learn_eq(&args[0], &args[1], facts);
                }
                _ => {}
            }
            for a in args {
                gather_expr(a, facts);
            }
        }
        ExprKind::If { cond, then, else_ } => {
            if else_.is_none() && block_diverges(then) {
                learn_cond(cond, false, facts);
            }
            gather_expr(cond, facts);
            gather_block(then, facts);
            if let Some(e) = else_ {
                gather_expr(e, facts);
            }
        }
        ExprKind::While { cond, body } => {
            learn_cond(cond, true, facts);
            gather_expr(cond, facts);
            gather_block(body, facts);
        }
        ExprKind::ForLoop {
            pat_names,
            iter,
            body,
            ..
        } => {
            learn_for(pat_names, iter, facts);
            gather_expr(iter, facts);
            gather_block(body, facts);
        }
        ExprKind::Closure { body, .. } => gather_expr(body, facts),
        ExprKind::Block(b) | ExprKind::Unsafe(b) | ExprKind::Loop { body: b } => {
            gather_block(b, facts)
        }
        ExprKind::IfLet {
            scrutinee,
            then,
            else_,
            ..
        } => {
            gather_expr(scrutinee, facts);
            gather_block(then, facts);
            if let Some(e) = else_ {
                gather_expr(e, facts);
            }
        }
        ExprKind::WhileLet {
            scrutinee, body, ..
        } => {
            gather_expr(scrutinee, facts);
            gather_block(body, facts);
        }
        ExprKind::Match { scrutinee, arms } => {
            gather_expr(scrutinee, facts);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    gather_expr(g, facts);
                }
                gather_expr(&arm.body, facts);
            }
        }
        _ => {
            // Generic recursion for everything else.
            let mut subs: Vec<&Expr> = Vec::new();
            collect_children(e, &mut subs);
            for s in subs {
                gather_expr(s, facts);
            }
        }
    }
}

pub(crate) fn collect_children<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match &e.kind {
        ExprKind::Call { callee, args } => {
            out.push(callee);
            out.extend(args.iter());
        }
        ExprKind::MethodCall { recv, args, .. } => {
            out.push(recv);
            out.extend(args.iter());
        }
        ExprKind::Field { recv, .. } => out.push(recv),
        ExprKind::Index { recv, index } => {
            out.push(recv);
            out.push(index);
        }
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            out.push(lhs);
            out.push(rhs);
        }
        ExprKind::Unary { expr, .. }
        | ExprKind::Cast { expr, .. }
        | ExprKind::Ref { expr, .. }
        | ExprKind::Deref { expr }
        | ExprKind::Try(expr) => out.push(expr),
        ExprKind::Range { lo, hi, .. } => {
            if let Some(e) = lo {
                out.push(e);
            }
            if let Some(e) = hi {
                out.push(e);
            }
        }
        ExprKind::Return(e) | ExprKind::Break(e) => {
            if let Some(e) = e {
                out.push(e);
            }
        }
        ExprKind::Tuple(es) | ExprKind::Array(es) => out.extend(es.iter()),
        ExprKind::Repeat { elem, len } => {
            out.push(elem);
            out.push(len);
        }
        ExprKind::StructLit { fields, rest, .. } => {
            out.extend(fields.iter().map(|(_, e)| e));
            if let Some(e) = rest {
                out.push(e);
            }
        }
        _ => {}
    }
}

/// Facts from one `let` statement.
fn learn_let(names: &[String], init: &Expr, facts: &mut Facts) {
    let init = peel(init);
    if names.len() == 1 {
        learn_single_let(&names[0], init, facts);
        return;
    }
    match &init.kind {
        // `let (a, b, …) = (x, y, …)` — element-wise.
        ExprKind::Tuple(es) if es.len() == names.len() => {
            for (n, e) in names.iter().zip(es) {
                learn_single_let(n, peel(e), facts);
            }
        }
        // `let (head, tail) = xs.split_at(h)` — both lengths known.
        ExprKind::MethodCall { recv, method, args }
            if names.len() == 2
                && args.len() == 1
                && matches!(method.as_str(), "split_at" | "split_at_mut") =>
        {
            if let Some(h) = norm(&args[0], facts) {
                let recv_len = LinForm::atom(&format!("{}.len()", canon_text(recv, facts)));
                facts.def(&format!("{}.len()", names[0]), h.form.clone());
                facts.def(&format!("{}.len()", names[1]), recv_len.sub(&h.form));
            }
        }
        _ => {}
    }
}

fn learn_single_let(name: &str, init: &Expr, facts: &mut Facts) {
    if facts.assigned.contains(name) {
        return;
    }
    match &init.kind {
        // `let v = vec![x; n]` / `let v = [x; n]`.
        ExprKind::Repeat { elem, len } => {
            if let Some(n) = norm(len, facts) {
                facts.def(&format!("{name}.len()"), n.form);
            }
            if let ExprKind::Repeat { len: inner, .. } = &peel(elem).kind {
                if let Some(n) = norm(inner, facts) {
                    facts.elem_len.insert(name.to_string(), n.form);
                }
            }
        }
        ExprKind::MacroCall { path, args, .. }
            if path.last().is_some_and(|p| p == "vec") && args.len() == 2 =>
        {
            if let Some(n) = norm(&args[1], facts) {
                facts.def(&format!("{name}.len()"), n.form);
            }
        }
        // `let w = a.min(b)` — two upper bounds.
        ExprKind::MethodCall { recv, method, args } if method == "min" && args.len() == 1 => {
            let me = LinForm::atom(name);
            if let Some(a) = norm(recv, facts) {
                facts.raw_guards.push((me.clone(), a.form));
            }
            if let Some(b) = norm(&args[0], facts) {
                facts.raw_guards.push((me, b.form));
            }
        }
        // `let s = &xs[lo..hi]` — window length.
        ExprKind::Index { recv, index } => {
            if let ExprKind::Range {
                lo,
                hi,
                inclusive: false,
            } = &index.kind
            {
                let base_len = LinForm::atom(&format!("{}.len()", canon_text(recv, facts)));
                let lo_f = match lo {
                    Some(l) => norm(l, facts).map(|n| n.form),
                    None => Some(LinForm::constant(0)),
                };
                let hi_f = match hi {
                    Some(h) => norm(h, facts).map(|n| n.form),
                    None => Some(base_len),
                };
                if let (Some(lo_f), Some(hi_f)) = (lo_f, hi_f) {
                    facts.def(&format!("{name}.len()"), hi_f.sub(&lo_f));
                }
            }
        }
        // `let n = (0..x).map(f).collect::<Vec<_>>()` — length x.
        ExprKind::MethodCall { recv, method, args } if method == "collect" && args.is_empty() => {
            if let Some(hi) = range_map_bound(recv) {
                if let Some(n) = norm(hi, facts) {
                    facts.def(&format!("{name}.len()"), n.form);
                }
            }
        }
        // Place alias: `let a = x` / `let a = self.data` /
        // `let a = x.as_slice()` — unify atoms and lengths.
        _ if is_place(init) => {
            let t = canon_text(init, facts);
            if t.len() <= MAX_ATOM_LEN {
                facts.union(name, &t);
                let (a, b) = (format!("{name}.len()"), format!("{t}.len()"));
                facts.union(&a, &b);
                if let Some(ty) = facts.typed.get(&t).cloned() {
                    facts.typed.insert(name.to_string(), ty);
                }
            }
        }
        // Constructor call: `let m = Matrix::zeros(r, c)` (possibly
        // behind `?` / `Ok` peeled by Try handling below).
        _ => {
            if learn_ctor_call(name, init, facts) {
                return;
            }
            if let ExprKind::Try(inner) = &init.kind {
                if learn_ctor_call(name, peel(inner), facts) {
                    return;
                }
            }
            // Generic arithmetic def: `let stride = self.k * NR`.
            if let Some(n) = norm(init, facts) {
                if n.conds.is_empty() && n.form != LinForm::atom(name) {
                    facts.def(name, n.form);
                }
            }
        }
    }
}

/// `(0..X).map(f)`-style chains: returns `X`.
fn range_map_bound(e: &Expr) -> Option<&Expr> {
    let e = peel(e);
    match &e.kind {
        ExprKind::Range {
            lo,
            hi: Some(hi),
            inclusive: false,
        } => {
            let zero = lo.as_deref().map(|l| expr_text(l) == "0").unwrap_or(true);
            zero.then_some(hi)
        }
        ExprKind::MethodCall { recv, method, .. }
            if matches!(method.as_str(), "map" | "cloned" | "copied") =>
        {
            range_map_bound(recv)
        }
        _ => None,
    }
}

/// `let m = Ty::ctor(args…)` — imports field defs and the invariant
/// length for the new binding. Returns true when it matched.
fn learn_ctor_call(name: &str, init: &Expr, facts: &mut Facts) -> bool {
    let ExprKind::Call { callee, args } = &init.kind else {
        return false;
    };
    let ExprKind::Path(segs) = &callee.kind else {
        return false;
    };
    if segs.len() < 2 {
        return false;
    }
    let (ty, ctor) = (&segs[segs.len() - 2], &segs[segs.len() - 1]);
    let Some(info) = facts.env.types.get(ty) else {
        return false;
    };
    let Some(mapping) = info.ctors.get(ctor) else {
        return false;
    };
    let arg_form = |idx: usize| -> Option<LinForm> {
        args.get(idx)
            .and_then(|a| norm(a, facts))
            .filter(|n| n.conds.is_empty())
            .map(|n| n.form)
    };
    let field_forms: Vec<(String, Option<LinForm>)> = mapping
        .iter()
        .map(|(field, idx)| (field.clone(), arg_form(*idx)))
        .collect();
    for (field, form) in &field_forms {
        if let Some(form) = form {
            facts.def(&format!("{name}.{field}"), form.clone());
        }
    }
    if let Some((len_field, d0, d1)) = info.invariant.clone() {
        let get = |f: &str| {
            field_forms
                .iter()
                .find(|(n, _)| n == f)
                .and_then(|(_, v)| v.clone())
        };
        if let (Some(a), Some(b)) = (get(&d0), get(&d1)) {
            if let Some(prod) = a.mul(&b) {
                facts.def(&format!("{name}.{len_field}.len()"), prod);
            }
        }
    }
    facts.typed.insert(name.to_string(), ty.clone());
    true
}

/// Boolean condition → guards. `positive=false` learns the negation.
fn learn_cond(cond: &Expr, positive: bool, facts: &mut Facts) {
    let cond = peel(cond);
    match &cond.kind {
        ExprKind::Unary { op: '!', expr } => learn_cond(expr, !positive, facts),
        ExprKind::Binary { op, lhs, rhs } => {
            let push = |facts: &mut Facts, l: &Expr, r: &Expr, strict: bool| {
                if let (Some(a), Some(b)) = (norm(l, facts), norm(r, facts)) {
                    let lhs = if strict {
                        a.form.add(&LinForm::constant(1))
                    } else {
                        a.form
                    };
                    facts.raw_guards.push((lhs, b.form));
                }
            };
            match (op.as_str(), positive) {
                ("&&", true) | ("||", false) => {
                    learn_cond(lhs, positive, facts);
                    learn_cond(rhs, positive, facts);
                }
                // ¬(l ≥ r) is the strict l < r; ¬(l > r) only the
                // non-strict l ≤ r (and symmetrically flipped).
                ("<", true) | (">=", false) => push(facts, lhs, rhs, true),
                ("<=", true) | (">", false) => push(facts, lhs, rhs, false),
                (">", true) | ("<=", false) => push(facts, rhs, lhs, true),
                (">=", true) | ("<", false) => push(facts, rhs, lhs, false),
                ("==", true) | ("!=", false) => learn_eq(lhs, rhs, facts),
                _ => {}
            }
        }
        ExprKind::MethodCall { recv, method, args }
            if method == "is_empty" && args.is_empty() && !positive =>
        {
            let len = LinForm::atom(&format!("{}.len()", canon_text(recv, facts)));
            facts.raw_guards.push((LinForm::constant(1), len));
        }
        _ => {}
    }
}

/// Equality fact: both `≤` directions plus, when one side is a bare
/// atom, a definition for expansion.
fn learn_eq(a: &Expr, b: &Expr, facts: &mut Facts) {
    let (Some(na), Some(nb)) = (norm(a, facts), norm(b, facts)) else {
        return;
    };
    facts.raw_guards.push((na.form.clone(), nb.form.clone()));
    facts.raw_guards.push((nb.form.clone(), na.form.clone()));
    if let Some((atom, 0)) = na.form.is_single_atom() {
        let atom = atom.to_string();
        facts.def(&atom, nb.form.clone());
    }
    if let Some((atom, 0)) = nb.form.is_single_atom() {
        let atom = atom.to_string();
        facts.def(&atom, na.form);
    }
}

/// Loop facts: range bounds, enumerate counters, `chunks_exact`
/// element lengths — with `zip` chains flattened so each bound name
/// maps to its source iterator.
fn learn_for(pat_names: &[String], iter: &Expr, facts: &mut Facts) {
    let mut iter = peel_rev(iter);
    let mut names: &[String] = pat_names;

    // `.enumerate()` at the top: first name is the counter.
    if let ExprKind::MethodCall { recv, method, args } = &iter.kind {
        if method == "enumerate" && args.is_empty() {
            if let Some(counter) = names.first() {
                let base = enum_base(recv, facts);
                facts
                    .raw_guards
                    .push((LinForm::atom(counter).add(&LinForm::constant(1)), base));
            }
            names = &names[1..];
            iter = peel_rev(recv);
        }
    }

    // Flatten `base.zip(a).zip(b)…` into [base, a, b, …].
    let mut sources: Vec<&Expr> = Vec::new();
    flatten_zip(iter, &mut sources);
    if sources.len() == names.len() {
        for (name, src) in names.iter().zip(&sources) {
            learn_iter_source(name, src, facts);
        }
    } else if sources.len() == 1 && names.len() == 1 {
        learn_iter_source(&names[0], sources[0], facts);
    }
}

/// Strips `.rev()` adapters: reversal visits the same elements, so
/// every bound the underlying iterator implies still holds
/// (`for t in (0..t_len).rev()` ⇒ `t < t_len`).
fn peel_rev(e: &Expr) -> &Expr {
    let mut e = peel(e);
    while let ExprKind::MethodCall { recv, method, args } = &e.kind {
        if method == "rev" && args.is_empty() {
            e = peel(recv);
        } else {
            break;
        }
    }
    e
}

fn flatten_zip<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    let e = peel(e);
    if let ExprKind::MethodCall { recv, method, args } = &e.kind {
        if method == "zip" && args.len() == 1 {
            flatten_zip(recv, out);
            out.push(&args[0]);
            return;
        }
    }
    out.push(e);
}

/// What one flattened iterator source tells us about its bound name.
fn learn_iter_source(name: &str, src: &Expr, facts: &mut Facts) {
    let src = peel_rev(src);
    match &src.kind {
        ExprKind::Range {
            lo,
            hi: Some(hi),
            inclusive,
        } => {
            if let Some(h) = norm(hi, facts) {
                let me = LinForm::atom(name);
                let lhs = if *inclusive {
                    me.clone()
                } else {
                    me.add(&LinForm::constant(1))
                };
                facts.raw_guards.push((lhs, h.form));
            }
            if let Some(lo) = lo {
                if let Some(l) = norm(lo, facts) {
                    facts.raw_guards.push((l.form, LinForm::atom(name)));
                }
            }
        }
        // Elements of `chunks_exact(c)` all have length exactly `c`
        // (unlike `chunks`, whose last element may be shorter).
        ExprKind::MethodCall {
            recv: _,
            method,
            args,
        } if args.len() == 1 && matches!(method.as_str(), "chunks_exact" | "chunks_exact_mut") => {
            if let Some(c) = norm(&args[0], facts) {
                facts.def(&format!("{name}.len()"), c.form);
            }
        }
        // A nested `.enumerate()` source: `(i, x)` patterns flattened
        // upstream won't reach here; nothing to learn for elements.
        _ => {}
    }
}

/// Length bound for an `.enumerate()` counter: the base collection's
/// `len()` (adapters that never lengthen are stripped; a `zip` bounds
/// by its left base, which is sound since zip yields min(a, b)).
fn enum_base(recv: &Expr, facts: &Facts) -> LinForm {
    let recv = peel(recv);
    if let ExprKind::MethodCall {
        recv: inner,
        method,
        args,
    } = &recv.kind
    {
        match method.as_str() {
            "iter" | "iter_mut" | "into_iter" | "zip" | "rev" => return enum_base(inner, facts),
            "chunks_exact" | "chunks_exact_mut" if args.len() == 1 => {
                // count = base.len() / c ≤ base.len(); too coarse to
                // help, so keep the counter opaque via its own atom.
                return LinForm::atom(&format!("{}.len()", canon_text(recv, facts)));
            }
            _ => {}
        }
    }
    LinForm::atom(&format!("{}.len()", canon_text(recv, facts)))
}

// ---------------------------------------------------------------------------
// The prover.
// ---------------------------------------------------------------------------

/// Expands atom definitions (fixpoint, budgeted) and canonicalises
/// atoms through the equivalence classes.
fn resolve(form: &LinForm, facts: &Facts) -> LinForm {
    let mut cur = canon(form, facts);
    for _ in 0..EXPAND_STEPS {
        let mut next = LinForm::default();
        let mut changed = false;
        'terms: for (m, c) in &cur.terms {
            for (i, atom) in m.iter().enumerate() {
                let def = facts
                    .defs
                    .get(atom)
                    .or_else(|| facts.defs.get(&facts.find(atom)));
                if let Some(def) = def {
                    // Substitute: c · m = c · atom · rest → c · def · rest.
                    let mut rest = m.clone();
                    rest.remove(i);
                    let mut restf = LinForm::default();
                    restf.terms.insert(rest, *c);
                    if let Some(sub) = canon(def, facts).mul(&restf) {
                        next = next.add(&sub);
                        changed = true;
                        continue 'terms;
                    }
                }
            }
            next.add_term(m.clone(), *c);
        }
        if !changed {
            break;
        }
        cur = canon(&next, facts);
    }
    cur
}

fn canon(form: &LinForm, facts: &Facts) -> LinForm {
    let mut out = LinForm::default();
    for (m, c) in &form.terms {
        let mut m2: Monomial = m.iter().map(|a| facts.find(a)).collect();
        m2.sort();
        out.add_term(m2, *c);
    }
    out
}

/// Proves `a ≤ b` from the gathered facts.
fn prove_le(a: &LinForm, b: &LinForm, facts: &Facts) -> bool {
    facts.budget.set(SOLVE_BUDGET);
    let d = resolve(b, facts).sub(&resolve(a, facts));
    solve(&d, SOLVE_DEPTH, facts)
}

/// Proves `a < b` (i.e. `a + 1 ≤ b`).
fn prove_lt(a: &LinForm, b: &LinForm, facts: &Facts) -> bool {
    prove_le(&a.add(&LinForm::constant(1)), b, facts)
}

fn solve(d: &LinForm, depth: usize, facts: &Facts) -> bool {
    if d.is_nonneg() {
        return true;
    }
    let budget = facts.budget.get();
    if depth == 0 || budget == 0 {
        return false;
    }
    facts.budget.set(budget - 1);

    // Guard chaining: D + L − R stays a lower bound of D's sign goal.
    for (l, r) in &facts.guards {
        let delta = l.sub(r);
        if delta.terms.is_empty() {
            continue;
        }
        // Only chain guards that touch D at all.
        if !delta.terms.keys().any(|m| d.terms.contains_key(m)) {
            continue;
        }
        let cand = d.add(&delta);
        if cand != *d && solve(&cand, depth - 1, facts) {
            return true;
        }
    }

    // Bound substitution on atoms of negative monomials.
    let negatives: Vec<(Monomial, i64)> = d
        .terms
        .iter()
        .filter(|(m, c)| **c < 0 && !m.is_empty())
        .map(|(m, c)| (m.clone(), *c))
        .collect();
    for (m, c) in &negatives {
        let mut seen = BTreeSet::new();
        for (i, atom) in m.iter().enumerate() {
            if !seen.insert(atom.clone()) {
                continue;
            }
            for u in upper_bounds(atom, facts) {
                // −|c|·atom·rest → −|c|·U·rest (only decreases D).
                let mut rest = m.clone();
                rest.remove(i);
                let mut restf = LinForm::default();
                restf.terms.insert(rest, -*c); // +|c|·rest
                let Some(scaled) = u.mul(&restf) else {
                    continue;
                };
                let mut cand = d.clone();
                cand.add_term(m.clone(), -*c); // remove the negative term
                cand = cand.sub(&scaled); // add −|c|·U·rest
                if solve(&cand, depth - 1, facts) {
                    return true;
                }
            }
        }
    }
    false
}

/// Upper bounds of a single atom from guards shaped `atom + k ≤ R`.
fn upper_bounds(atom: &str, facts: &Facts) -> Vec<LinForm> {
    let mut out = Vec::new();
    for (l, r) in &facts.guards {
        if let Some((a, k)) = l.is_single_atom() {
            if a == atom {
                out.push(r.sub(&LinForm::constant(k)));
            }
        }
        if out.len() >= 6 {
            break;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Entry point used by S1.
// ---------------------------------------------------------------------------

/// Is `recv[idx]` provably in-bounds under the linear facts?
pub fn discharged(recv: &Expr, idx: &Expr, facts: &Facts) -> bool {
    let recv_p = peel(recv);
    let recv_text = canon_text(recv_p, facts);
    if recv_text.len() > MAX_ATOM_LEN {
        return false;
    }
    let len = match elem_len_form(recv_p, facts) {
        Some(f) => f,
        None => LinForm::atom(&format!("{recv_text}.len()")),
    };

    match &idx.kind {
        // Slicing: needs lo ≤ hi and hi ≤ len (hi < len when `..=`).
        ExprKind::Range { lo, hi, inclusive } => {
            let lo_nf = match lo.as_deref().map(|l| norm(l, facts)) {
                Some(Some(n)) => n,
                Some(None) => return false,
                None => Nf::default(),
            };
            let hi_nf = match hi.as_deref().map(|h| norm(h, facts)) {
                Some(Some(n)) => n,
                Some(None) => return false,
                None => Nf {
                    form: len.clone(),
                    conds: Vec::new(),
                },
            };
            let hi_ok = if *inclusive && hi.is_some() {
                prove_lt(&hi_nf.form, &len, facts)
            } else {
                prove_le(&hi_nf.form, &len, facts)
            };
            hi_ok
                && prove_le(&lo_nf.form, &hi_nf.form, facts)
                && check_conds(&lo_nf, facts)
                && check_conds(&hi_nf, facts)
        }
        // Modulo by something length-equivalent.
        ExprKind::Binary { op, rhs, .. } if op == "%" => match norm(rhs, facts) {
            Some(r) if r.conds.is_empty() => {
                prove_le(&r.form, &len, facts) && prove_le(&len, &r.form, facts)
            }
            _ => false,
        },
        // Scalar index: idx < len.
        _ => match norm(idx, facts) {
            Some(n) => prove_lt(&n.form, &len, facts) && check_conds(&n, facts),
            None => false,
        },
    }
}

fn check_conds(nf: &Nf, facts: &Facts) -> bool {
    nf.conds.iter().all(|(a, b)| prove_le(a, b, facts))
}

/// `acc[i][j]`: inner length of an array-of-arrays binding.
fn elem_len_form(recv: &Expr, facts: &Facts) -> Option<LinForm> {
    if let ExprKind::Index { recv: base, .. } = &recv.kind {
        if let Some(name) = peel(base).path_last() {
            return facts.elem_len.get(name).cloned();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Workspace;

    /// Builds a one-file workspace and returns per-index discharge
    /// verdicts for the function named `f`.
    fn verdicts(src: &str) -> Vec<(bool, String)> {
        let sources = vec![("crates/core/src/fix.rs".to_string(), src.to_string())];
        let ws = Workspace::build(&sources, None);
        let env = Env::build(&ws);
        let f = ws
            .fns
            .iter()
            .find(|f| f.name == "f")
            .expect("fixture must define fn f");
        let facts = gather(f, &env);
        let mut out = Vec::new();
        crate::model::walk_block_exprs(f.body.as_ref().unwrap(), &mut |e| {
            if let ExprKind::Index { recv, index } = &e.kind {
                out.push((discharged(recv, index, &facts), expr_text(index)));
            }
        });
        out
    }

    fn all_ok(src: &str) {
        let vs = verdicts(src);
        assert!(!vs.is_empty(), "fixture must index something");
        for (ok, idx) in vs {
            assert!(ok, "index `{idx}` should be discharged");
        }
    }

    fn not_ok(src: &str) {
        let vs = verdicts(src);
        assert!(
            vs.iter().any(|(ok, _)| !ok),
            "some index should stay undischarged: {vs:?}"
        );
    }

    #[test]
    fn flattened_2d_loop_discharges() {
        all_ok(
            "pub fn f(data: &[f32], rows: usize, cols: usize) -> f32 {\n\
             \x20   assert_eq!(data.len(), rows * cols);\n\
             \x20   let mut acc = 0.0;\n\
             \x20   for r in 0..rows {\n\
             \x20       for c in 0..cols {\n\
             \x20           acc += data[r * cols + c];\n\
             \x20       }\n\
             \x20   }\n\
             \x20   acc\n\
             }",
        );
    }

    #[test]
    fn flattened_2d_without_len_fact_stays() {
        not_ok(
            "pub fn f(data: &[f32], rows: usize, cols: usize) -> f32 {\n\
             \x20   let mut acc = 0.0;\n\
             \x20   for r in 0..rows {\n\
             \x20       for c in 0..cols {\n\
             \x20           acc += data[r * cols + c];\n\
             \x20       }\n\
             \x20   }\n\
             \x20   acc\n\
             }",
        );
    }

    #[test]
    fn row_slice_range_discharges() {
        all_ok(
            "pub fn f(data: &[f32], rows: usize, cols: usize) -> f32 {\n\
             \x20   assert_eq!(data.len(), rows * cols);\n\
             \x20   assert!(cols >= 1);\n\
             \x20   let lo = (0).min(cols);\n\
             \x20   let mut acc = 0.0;\n\
             \x20   for r in 0..rows {\n\
             \x20       let row = &data[r * cols..(r + 1) * cols];\n\
             \x20       acc += row[lo];\n\
             \x20   }\n\
             \x20   acc\n\
             }",
        );
    }

    #[test]
    fn constructor_invariant_discharges_method_body() {
        all_ok(
            "pub struct M { rows: usize, cols: usize, data: Vec<f32> }\n\
             impl M {\n\
             \x20   pub fn zeros(rows: usize, cols: usize) -> M {\n\
             \x20       M { rows, cols, data: vec![0.0; rows * cols] }\n\
             \x20   }\n\
             \x20   pub fn f(&self) -> f32 {\n\
             \x20       let mut acc = 0.0;\n\
             \x20       for r in 0..self.rows {\n\
             \x20           for c in 0..self.cols {\n\
             \x20               acc += self.data[r * self.cols + c];\n\
             \x20           }\n\
             \x20       }\n\
             \x20       acc\n\
             \x20   }\n\
             }",
        );
    }

    #[test]
    fn ctor_call_propagates_invariant_to_local() {
        all_ok(
            "pub struct M { rows: usize, cols: usize, data: Vec<f32> }\n\
             impl M {\n\
             \x20   pub fn zeros(rows: usize, cols: usize) -> M {\n\
             \x20       M { rows, cols, data: vec![0.0; rows * cols] }\n\
             \x20   }\n\
             }\n\
             pub fn f(m: usize, n: usize) -> f32 {\n\
             \x20   let out = M::zeros(m, n);\n\
             \x20   let mut acc = 0.0;\n\
             \x20   for r in 0..m {\n\
             \x20       for c in 0..n {\n\
             \x20           acc += out.data[r * n + c];\n\
             \x20       }\n\
             \x20   }\n\
             \x20   acc\n\
             }",
        );
    }

    #[test]
    fn while_step_blocked_loop_discharges() {
        all_ok(
            "pub const MR: usize = 4;\n\
             pub fn f(a: &[f32], rows: usize, k: usize) -> f32 {\n\
             \x20   debug_assert_eq!(a.len(), rows * k);\n\
             \x20   debug_assert!(k >= 1);\n\
             \x20   let lo = (0).min(k);\n\
             \x20   let mut acc = 0.0;\n\
             \x20   let mut i0 = 0;\n\
             \x20   while i0 + MR <= rows {\n\
             \x20       let block = &a[i0 * k..(i0 + 4) * k];\n\
             \x20       acc += block[lo];\n\
             \x20       i0 += MR;\n\
             \x20   }\n\
             \x20   acc\n\
             }",
        );
    }

    #[test]
    fn split_at_lengths_discharge() {
        all_ok(
            "pub fn f(xs: &mut [f32], h: usize) {\n\
             \x20   assert_eq!(xs.len(), 4 * h);\n\
             \x20   let (a, rest) = xs.split_at_mut(h);\n\
             \x20   let (b, rest) = rest.split_at_mut(h);\n\
             \x20   let (c, d) = rest.split_at_mut(h);\n\
             \x20   for j in 0..h {\n\
             \x20       a[j] = b[j] + c[j] + d[j];\n\
             \x20   }\n\
             }",
        );
    }

    #[test]
    fn chunks_exact_element_len_discharges() {
        all_ok(
            "pub fn f(xs: &[f32], c: usize) -> f32 {\n\
             \x20   let mut acc = 0.0;\n\
             \x20   for chunk in xs.chunks_exact(c) {\n\
             \x20       for j in 0..c {\n\
             \x20           acc += chunk[j];\n\
             \x20       }\n\
             \x20   }\n\
             \x20   acc\n\
             }",
        );
    }

    #[test]
    fn zip_chain_chunks_exact_lengths_discharge() {
        all_ok(
            "pub fn f(a: &mut [f32], b: &[f32], h: usize) {\n\
             \x20   for (x, y) in a.chunks_exact_mut(h).zip(b.chunks_exact(h)) {\n\
             \x20       for j in 0..h {\n\
             \x20           x[j] = y[j];\n\
             \x20       }\n\
             \x20   }\n\
             }",
        );
    }

    #[test]
    fn plain_chunks_last_may_be_short_stays() {
        not_ok(
            "pub fn f(xs: &[f32], c: usize) -> f32 {\n\
             \x20   let mut acc = 0.0;\n\
             \x20   for chunk in xs.chunks(c) {\n\
             \x20       for j in 0..c {\n\
             \x20           acc += chunk[j];\n\
             \x20       }\n\
             \x20   }\n\
             \x20   acc\n\
             }",
        );
    }

    #[test]
    fn early_return_negation_discharges() {
        all_ok(
            "pub fn f(xs: &[f32], i: usize) -> f32 {\n\
             \x20   if i >= xs.len() {\n\
             \x20       return 0.0;\n\
             \x20   }\n\
             \x20   xs[i]\n\
             }",
        );
    }

    #[test]
    fn accessor_unifies_with_field() {
        all_ok(
            "pub struct M { rows: usize, cols: usize, data: Vec<f32> }\n\
             impl M {\n\
             \x20   pub fn zeros(rows: usize, cols: usize) -> M {\n\
             \x20       M { rows, cols, data: vec![0.0; rows * cols] }\n\
             \x20   }\n\
             \x20   pub fn rows(&self) -> usize { self.rows }\n\
             \x20   pub fn cols(&self) -> usize { self.cols }\n\
             }\n\
             pub fn f(m: &M) -> f32 {\n\
             \x20   let mut acc = 0.0;\n\
             \x20   for r in 0..m.rows() {\n\
             \x20       for c in 0..m.cols() {\n\
             \x20           acc += m.data[r * m.cols() + c];\n\
             \x20       }\n\
             \x20   }\n\
             \x20   acc\n\
             }",
        );
    }

    #[test]
    fn off_by_one_is_not_discharged() {
        not_ok(
            "pub fn f(data: &[f32], rows: usize, cols: usize) -> f32 {\n\
             \x20   assert_eq!(data.len(), rows * cols);\n\
             \x20   let mut acc = 0.0;\n\
             \x20   for r in 0..rows {\n\
             \x20       for c in 0..cols {\n\
             \x20           acc += data[r * cols + c + 1];\n\
             \x20       }\n\
             \x20   }\n\
             \x20   acc\n\
             }",
        );
    }

    #[test]
    fn subtraction_needs_lower_bound() {
        // `table[n - 1]` is only safe when n ≥ 1 is known.
        not_ok(
            "pub fn f(table: &[f32]) -> f32 {\n\
             \x20   let n = table.len();\n\
             \x20   table[n - 1]\n\
             }",
        );
        all_ok(
            "pub fn f(table: &[f32]) -> f32 {\n\
             \x20   assert!(table.len() >= 2);\n\
             \x20   let n = table.len();\n\
             \x20   table[n - 1]\n\
             }",
        );
    }

    #[test]
    fn array_param_length_discharges() {
        all_ok(
            "pub fn f(streams: [&f32; 6]) -> f32 {\n\
             \x20   *streams[0] + *streams[5]\n\
             }",
        );
        not_ok(
            "pub fn f(streams: [&f32; 6]) -> f32 {\n\
             \x20   *streams[6]\n\
             }",
        );
    }
}
