//! Per-function control-flow graphs over the coarse AST.
//!
//! Each function body lowers to basic blocks of *events* (references
//! to the AST expressions evaluated in order) connected by edges for
//! `if`/`else`, `match`, the three loop forms, `break`, `continue`,
//! and `return`. A dedicated entry block starts the graph and a
//! dedicated exit block terminates it; `return` edges go straight to
//! the exit. The graph is the substrate for the worklist liveness
//! analysis in [`super::dataflow`] (consumed by DS1).
//!
//! Lowering is total: expression-position control flow that the
//! builder does not split on (an `if` nested inside a call argument,
//! a closure body) stays inside a single event, which is sound for
//! the consumers here — they walk each event's subtree for reads and
//! writes rather than relying on event granularity.

use crate::ast::{Block, Expr, ExprKind, Stmt};

/// One basic block: straight-line events plus edge lists. `succs` and
/// `preds` are kept mutually consistent by construction.
#[derive(Debug, Default)]
pub struct BasicBlock<'a> {
    pub events: Vec<&'a Expr>,
    pub succs: Vec<usize>,
    pub preds: Vec<usize>,
}

#[derive(Debug)]
pub struct Cfg<'a> {
    pub blocks: Vec<BasicBlock<'a>>,
    pub entry: usize,
    pub exit: usize,
}

impl<'a> Cfg<'a> {
    /// Builds the CFG for one function body.
    pub fn build(body: &'a Block) -> Cfg<'a> {
        let mut b = Builder {
            blocks: vec![BasicBlock::default(), BasicBlock::default()],
            loops: Vec::new(),
        };
        let entry = 0;
        let exit = 1;
        if let Some(end) = b.lower_block(body, entry, exit) {
            b.edge(end, exit);
        }
        Cfg {
            blocks: b.blocks,
            entry,
            exit,
        }
    }

    /// Blocks reachable from the entry (the exit may be unreachable
    /// for bodies that loop forever).
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry];
        seen[self.entry] = true;
        while let Some(u) = stack.pop() {
            for &v in &self.blocks[u].succs {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        seen
    }
}

struct Builder<'a> {
    blocks: Vec<BasicBlock<'a>>,
    /// Innermost-last: (continue target, break target).
    loops: Vec<(usize, usize)>,
}

impl<'a> Builder<'a> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(BasicBlock::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
            self.blocks[to].preds.push(from);
        }
    }

    /// Lowers a block starting in `cur`; returns the live fallthrough
    /// block, or `None` when every path diverges.
    fn lower_block(&mut self, block: &'a Block, mut cur: usize, exit: usize) -> Option<usize> {
        for stmt in &block.stmts {
            let e = match stmt {
                Stmt::Let { init: Some(e), .. } => e,
                Stmt::Let { init: None, .. } | Stmt::Item(_) => continue,
                Stmt::Expr { expr, .. } => expr,
            };
            match self.lower_expr(e, cur, exit) {
                Some(next) => cur = next,
                None => return None,
            }
        }
        Some(cur)
    }

    /// Lowers one statement-position expression; returns the live
    /// fallthrough block, or `None` when control cannot fall through.
    fn lower_expr(&mut self, e: &'a Expr, cur: usize, exit: usize) -> Option<usize> {
        match &e.kind {
            ExprKind::If { cond, then, else_ } => {
                self.blocks[cur].events.push(cond);
                let then_start = self.new_block();
                self.edge(cur, then_start);
                let join = self.new_block();
                let then_end = self.lower_block(then, then_start, exit);
                if let Some(t) = then_end {
                    self.edge(t, join);
                }
                match else_ {
                    Some(else_e) => {
                        let else_start = self.new_block();
                        self.edge(cur, else_start);
                        if let Some(t) = self.lower_expr(else_e, else_start, exit) {
                            self.edge(t, join);
                        }
                    }
                    None => self.edge(cur, join),
                }
                if self.blocks[join].preds.is_empty() {
                    None
                } else {
                    Some(join)
                }
            }
            ExprKind::IfLet {
                scrutinee,
                then,
                else_,
                ..
            } => {
                self.blocks[cur].events.push(scrutinee);
                let then_start = self.new_block();
                self.edge(cur, then_start);
                let join = self.new_block();
                if let Some(t) = self.lower_block(then, then_start, exit) {
                    self.edge(t, join);
                }
                match else_ {
                    Some(else_e) => {
                        let else_start = self.new_block();
                        self.edge(cur, else_start);
                        if let Some(t) = self.lower_expr(else_e, else_start, exit) {
                            self.edge(t, join);
                        }
                    }
                    None => self.edge(cur, join),
                }
                if self.blocks[join].preds.is_empty() {
                    None
                } else {
                    Some(join)
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                self.blocks[cur].events.push(scrutinee);
                let join = self.new_block();
                for arm in arms {
                    let arm_start = self.new_block();
                    self.edge(cur, arm_start);
                    let mut a = arm_start;
                    if let Some(g) = &arm.guard {
                        self.blocks[a].events.push(g);
                        // A failed guard falls through to the next arm;
                        // over-approximate by also edging to the join.
                        let g_next = self.new_block();
                        self.edge(a, g_next);
                        a = g_next;
                    }
                    if let Some(t) = self.lower_expr(&arm.body, a, exit) {
                        self.edge(t, join);
                    }
                }
                if arms.is_empty() {
                    self.edge(cur, join);
                }
                if self.blocks[join].preds.is_empty() {
                    None
                } else {
                    Some(join)
                }
            }
            ExprKind::While { cond, body } => {
                let header = self.new_block();
                self.edge(cur, header);
                self.blocks[header].events.push(cond);
                let body_start = self.new_block();
                let after = self.new_block();
                self.edge(header, body_start);
                self.edge(header, after);
                self.loops.push((header, after));
                if let Some(t) = self.lower_block(body, body_start, exit) {
                    self.edge(t, header);
                }
                self.loops.pop();
                Some(after)
            }
            ExprKind::WhileLet {
                scrutinee, body, ..
            } => {
                let header = self.new_block();
                self.edge(cur, header);
                self.blocks[header].events.push(scrutinee);
                let body_start = self.new_block();
                let after = self.new_block();
                self.edge(header, body_start);
                self.edge(header, after);
                self.loops.push((header, after));
                if let Some(t) = self.lower_block(body, body_start, exit) {
                    self.edge(t, header);
                }
                self.loops.pop();
                Some(after)
            }
            ExprKind::ForLoop { iter, body, .. } => {
                self.blocks[cur].events.push(iter);
                let header = self.new_block();
                self.edge(cur, header);
                let body_start = self.new_block();
                let after = self.new_block();
                self.edge(header, body_start);
                self.edge(header, after);
                self.loops.push((header, after));
                if let Some(t) = self.lower_block(body, body_start, exit) {
                    self.edge(t, header);
                }
                self.loops.pop();
                Some(after)
            }
            ExprKind::Loop { body } => {
                let header = self.new_block();
                self.edge(cur, header);
                let after = self.new_block();
                self.loops.push((header, after));
                if let Some(t) = self.lower_block(body, header, exit) {
                    self.edge(t, header);
                }
                self.loops.pop();
                if self.blocks[after].preds.is_empty() {
                    // No break: the loop never falls through.
                    None
                } else {
                    Some(after)
                }
            }
            ExprKind::Block(b) | ExprKind::Unsafe(b) => {
                let start = self.new_block();
                self.edge(cur, start);
                self.lower_block(b, start, exit)
            }
            ExprKind::Return(val) => {
                if let Some(v) = val {
                    self.blocks[cur].events.push(v);
                }
                self.blocks[cur].events.push(e);
                self.edge(cur, exit);
                None
            }
            ExprKind::Break(val) => {
                if let Some(v) = val {
                    self.blocks[cur].events.push(v);
                }
                if let Some(&(_, after)) = self.loops.last() {
                    self.edge(cur, after);
                } else {
                    self.edge(cur, exit);
                }
                None
            }
            ExprKind::Continue => {
                if let Some(&(header, _)) = self.loops.last() {
                    self.edge(cur, header);
                } else {
                    self.edge(cur, exit);
                }
                None
            }
            // `foo()?` can leave the function early.
            ExprKind::Try(_) => {
                self.blocks[cur].events.push(e);
                self.edge(cur, exit);
                Some(cur)
            }
            _ => {
                self.blocks[cur].events.push(e);
                Some(cur)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ItemKind;
    use crate::parser::parse;

    fn cfg_of(src: &str) -> (Block, usize) {
        let file = parse(src);
        assert!(
            file.errors.is_empty(),
            "fixture must parse: {:?}",
            file.errors
        );
        for item in &file.items {
            if let ItemKind::Fn(def) = &item.kind {
                let body = def.body.clone().expect("fn body");
                let n = Cfg::build(&body).blocks.len();
                return (body, n);
            }
        }
        panic!("no fn in fixture");
    }

    /// Every succ edge must have a matching pred edge and vice versa.
    fn assert_balanced(cfg: &Cfg) {
        for (u, b) in cfg.blocks.iter().enumerate() {
            for &v in &b.succs {
                assert!(
                    cfg.blocks[v].preds.contains(&u),
                    "edge {u}->{v} missing pred"
                );
            }
            for &p in &b.preds {
                assert!(
                    cfg.blocks[p].succs.contains(&u),
                    "pred {p} of {u} missing succ"
                );
            }
        }
    }

    #[test]
    fn straight_line_is_two_plus_entry() {
        let (body, _) = cfg_of("fn f() { let a = 1; let b = a + 1; }");
        let cfg = Cfg::build(&body);
        assert_balanced(&cfg);
        assert!(cfg.reachable()[cfg.exit], "exit reachable");
        assert_eq!(cfg.blocks[cfg.entry].events.len(), 2);
    }

    #[test]
    fn if_else_joins() {
        let (body, _) =
            cfg_of("fn f(x: bool) -> u32 { let mut v = 0; if x { v = 1; } else { v = 2; } v }");
        let cfg = Cfg::build(&body);
        assert_balanced(&cfg);
        assert!(cfg.reachable()[cfg.exit]);
    }

    #[test]
    fn loop_without_break_never_reaches_exit() {
        let (body, _) = cfg_of("fn f() { loop { let x = 1; } }");
        let cfg = Cfg::build(&body);
        assert_balanced(&cfg);
        assert!(
            !cfg.reachable()[cfg.exit],
            "infinite loop: exit unreachable"
        );
    }

    #[test]
    fn break_reaches_exit() {
        let (body, _) = cfg_of("fn f() { loop { break; } }");
        let cfg = Cfg::build(&body);
        assert_balanced(&cfg);
        assert!(cfg.reachable()[cfg.exit]);
    }

    #[test]
    fn early_return_edges_to_exit() {
        let (body, _) = cfg_of("fn f(x: bool) -> u32 { if x { return 1; } 2 }");
        let cfg = Cfg::build(&body);
        assert_balanced(&cfg);
        assert!(cfg.reachable()[cfg.exit]);
        // Exit has ≥ 2 preds: the return edge and the fallthrough.
        assert!(cfg.blocks[cfg.exit].preds.len() >= 2);
    }

    #[test]
    fn while_and_for_shapes_build() {
        for src in [
            "fn f(n: usize) { let mut i = 0; while i < n { i += 1; } }",
            "fn f(xs: &[f32]) { for x in xs { let _ = x; } }",
            "fn f(n: usize) { for i in 0..n { if i == 3 { continue; } if i == 4 { break; } } }",
            "fn f(x: u32) -> u32 { match x { 0 => 1, 1 if x > 0 => 2, _ => 3 } }",
        ] {
            let (body, _) = cfg_of(src);
            let cfg = Cfg::build(&body);
            assert_balanced(&cfg);
            assert!(cfg.reachable()[cfg.exit], "exit reachable for {src}");
        }
    }
}
