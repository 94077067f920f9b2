//! Generic worklist dataflow over [`super::cfg::Cfg`].
//!
//! An [`Analysis`] supplies the lattice (a join and an initial value)
//! and a block transfer function; [`solve`] iterates to a fixpoint
//! with a hard iteration cap so the solver is total even on lattices
//! whose implementations fail to converge. One analysis is provided
//! and unit-tested here: [`Liveness`], a backward may-analysis over
//! variable-name sets and the substrate for the DS1 dead-store rule.

use super::cfg::Cfg;
use crate::ast::{Expr, ExprKind};
use std::collections::BTreeSet;

/// Direction + lattice + transfer for one dataflow problem.
pub trait Analysis {
    type Fact: Clone + PartialEq;

    /// `true` for backward analyses (facts flow from successors).
    fn backward(&self) -> bool;

    /// The fact at the boundary block (entry for forward, exit for
    /// backward) and the initial fact everywhere else.
    fn init(&self) -> Self::Fact;

    /// Least upper bound of two facts.
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;

    /// Applies one block's events to an incoming fact. Events arrive
    /// in execution order; backward analyses should scan them in
    /// reverse.
    fn transfer(&self, events: &[&Expr], fact: &Self::Fact) -> Self::Fact;
}

/// Per-block `(in, out)` facts at the fixpoint. For backward analyses
/// `in` is still the fact at block entry (i.e. the transfer output).
pub struct Solution<F> {
    pub input: Vec<F>,
    pub output: Vec<F>,
}

/// Worklist solver. Caps iterations at `64 · |blocks| + 64` to stay
/// total on non-converging transfer functions.
pub fn solve<A: Analysis>(cfg: &Cfg, a: &A) -> Solution<A::Fact> {
    let n = cfg.blocks.len();
    let mut input: Vec<A::Fact> = vec![a.init(); n];
    let mut output: Vec<A::Fact> = vec![a.init(); n];
    let mut work: Vec<usize> = (0..n).collect();
    let mut budget = 64 * n + 64;
    while let Some(b) = work.pop() {
        if budget == 0 {
            break;
        }
        budget -= 1;
        // Gather the incoming fact from the neighbours facts flow from.
        let sources: &[usize] = if a.backward() {
            &cfg.blocks[b].succs
        } else {
            &cfg.blocks[b].preds
        };
        let mut incoming = a.init();
        for &s in sources {
            let feed = if a.backward() { &input[s] } else { &output[s] };
            incoming = a.join(&incoming, feed);
        }
        let computed = a.transfer(&cfg.blocks[b].events, &incoming);
        let (store_in, store_out, changed_slot) = if a.backward() {
            // incoming = live-out, computed = live-in.
            (computed.clone(), incoming, &mut input[b])
        } else {
            (incoming, computed.clone(), &mut output[b])
        };
        let changed = *changed_slot != computed;
        if a.backward() {
            output[b] = store_out;
            input[b] = store_in;
        } else {
            input[b] = store_in;
            output[b] = store_out;
        }
        if changed {
            let dependents: Vec<usize> = if a.backward() {
                cfg.blocks[b].preds.clone()
            } else {
                cfg.blocks[b].succs.clone()
            };
            for d in dependents {
                if !work.contains(&d) {
                    work.push(d);
                }
            }
        }
    }
    Solution { input, output }
}

// ---------------------------------------------------------------------------
// Read/write classification (liveness and DS1).
// ---------------------------------------------------------------------------

/// Variable names read by an expression tree. Assignment left-hand
/// sides are excluded for plain `=`; compound ops (`+=`) read the lhs.
/// An assigned *element* (`xs[i] = v`) reads the base and index.
pub fn reads(e: &Expr, out: &mut BTreeSet<String>) {
    match &e.kind {
        ExprKind::Assign { op, lhs, rhs } => {
            // Only a plain `x = …` with a bare single-name target is a
            // pure overwrite. Everything else reads its base: `buf[i]`
            // reads `buf` and `i`, `*dst` reads the reference `dst`,
            // `self.x` reads `self`.
            let bare = matches!(&lhs.kind, ExprKind::Path(segs) if segs.len() == 1);
            if op != "=" || !bare {
                collect_names(lhs, out);
            }
            reads(rhs, out);
        }
        _ => {
            let mut subs = Vec::new();
            super::linear::collect_children(e, &mut subs);
            if subs.is_empty() {
                collect_names(e, out);
            } else {
                for s in subs {
                    reads(s, out);
                }
            }
        }
    }
}

fn collect_names(e: &Expr, out: &mut BTreeSet<String>) {
    e.walk(&mut |e| {
        if let ExprKind::Path(segs) = &e.kind {
            if segs.len() == 1 {
                out.insert(segs[0].clone());
            }
        }
    });
}

/// Whole-variable writes (`x = …`) in an expression tree.
pub fn writes(e: &Expr, out: &mut BTreeSet<String>) {
    e.walk(&mut |e| {
        if let ExprKind::Assign { op, lhs, .. } = &e.kind {
            // `*dst = …` and `self.x = …` write through a place the
            // binding still refers to — they never kill a name.
            if op == "=" {
                if let ExprKind::Path(segs) = &lhs.kind {
                    if segs.len() == 1 {
                        out.insert(segs[0].clone());
                    }
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Liveness (backward, may).
// ---------------------------------------------------------------------------

pub struct Liveness;

impl Analysis for Liveness {
    type Fact = BTreeSet<String>;

    fn backward(&self) -> bool {
        true
    }

    fn init(&self) -> Self::Fact {
        BTreeSet::new()
    }

    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
        a.union(b).cloned().collect()
    }

    fn transfer(&self, events: &[&Expr], live_out: &Self::Fact) -> Self::Fact {
        let mut live = live_out.clone();
        for e in events.iter().rev() {
            let mut killed = BTreeSet::new();
            writes(e, &mut killed);
            for k in &killed {
                live.remove(k);
            }
            let mut used = BTreeSet::new();
            reads(e, &mut used);
            live.extend(used);
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Block, ItemKind};
    use crate::parser::parse;

    fn body_of(src: &str) -> Block {
        let file = parse(src);
        assert!(
            file.errors.is_empty(),
            "fixture must parse: {:?}",
            file.errors
        );
        for item in &file.items {
            if let ItemKind::Fn(def) = &item.kind {
                return def.body.clone().expect("fn body");
            }
        }
        panic!("no fn in fixture");
    }

    #[test]
    fn liveness_sees_loop_carried_use() {
        let body = body_of(
            "fn f(n: usize) -> usize {\n\
             \x20   let mut acc = 0;\n\
             \x20   let mut i = 0;\n\
             \x20   while i < n {\n\
             \x20       acc += i;\n\
             \x20       i += 1;\n\
             \x20   }\n\
             \x20   acc\n\
             }",
        );
        let cfg = Cfg::build(&body);
        let sol = solve(&cfg, &Liveness);
        // `acc` and `i` are live into the loop header.
        let entry_live = &sol.input[cfg.entry];
        assert!(
            entry_live.contains("n"),
            "param read inside loop: {entry_live:?}"
        );
    }

    #[test]
    fn liveness_dead_after_last_use() {
        let body = body_of("fn f() -> u32 { let mut a = 1; a = 2; a }");
        let cfg = Cfg::build(&body);
        let sol = solve(&cfg, &Liveness);
        // Nothing is live out of the exit block.
        assert!(sol.output[cfg.exit].is_empty());
    }
}
