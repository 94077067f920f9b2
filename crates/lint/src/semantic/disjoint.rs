//! Symbolic slice-region disjointness, backed by the layer-3
//! [`super::linear`] prover.
//!
//! The concurrency analysis ([`super::conc`]) reduces every mutable
//! place a spawned closure captures to a region: a canonical base
//! atom plus a [`Span`] describing which part of the base the closure
//! may write. Rule C1 then asks, for each pair of concurrently-live
//! closures, whether their mutable footprints are *provably* disjoint:
//! it compares the bases itself and hands same-base pairs to
//! [`spans_disjoint`].
//!
//! Spans are linear forms over the same atoms the bounds prover uses,
//! so every fact source it knows (asserts, loop ranges, `split_at_mut`
//! bindings, workspace consts) feeds disjointness for free:
//!
//! * `Window { lo, hi }` — the half-open slice `[lo, hi)`, from
//!   `split_at_mut`, `&mut x[a..b]`, or a `chunks_mut` element
//!   (`[c·w, (c+1)·w)` parameterised by the loop counter `c`).
//! * `Elem(i)` — the single element `[i, i+1)`.
//! * `Whole` — the entire base; disjoint from nothing on that base.
//!
//! For spawn sites inside a loop (one closure per iteration) the
//! footprint must be disjoint from *itself at a different iteration*:
//! [`span_self_disjoint`] freshens the loop counter `c` into a second
//! instance `c~` constrained only by `c + 1 ≤ c~` (sound by symmetry:
//! the span is the same function of the counter, so ordering the two
//! iterations is WLOG) and asks for ordinary span disjointness. This
//! is exactly the round-robin bucket obligation in
//! `crates/core/src/parallel.rs` and the `chunks_mut` obligation in
//! `crates/tensor/src/matrix.rs`.

use super::linear::{self, Facts, LinForm};

/// Which part of a base a closure may write.
#[derive(Clone, Debug)]
pub enum Span {
    /// The whole base — overlaps every other span of the same base.
    Whole,
    /// Half-open window `[lo, hi)`.
    Window { lo: LinForm, hi: LinForm },
    /// Single element `[i, i+1)`.
    Elem(LinForm),
}

/// The `c`-th size-`w` chunk `[c·w, (c+1)·w)` — the span of one
/// `chunks_mut(w)` / `chunks_exact_mut(w)` element under an
/// `.enumerate()` counter. (The final `chunks_mut` element may be
/// shorter; a shorter window only shrinks the footprint, so using the
/// nominal bound is sound for disjointness.)
pub fn chunk_window(counter: &str, size: &LinForm) -> Option<Span> {
    let c = LinForm::atom(counter);
    let lo = c.mul_checked(size)?;
    let hi = c.add(&LinForm::constant(1)).mul_checked(size)?;
    Some(Span::Window { lo, hi })
}

/// Are two spans of the *same* base provably disjoint under the facts?
pub fn spans_disjoint(a: &Span, b: &Span, facts: &Facts) -> bool {
    match (a, b) {
        (Span::Whole, _) | (_, Span::Whole) => false,
        (Span::Elem(i), Span::Elem(j)) => linear::lt(i, j, facts) || linear::lt(j, i, facts),
        (Span::Elem(i), Span::Window { lo, hi }) | (Span::Window { lo, hi }, Span::Elem(i)) => {
            linear::lt(i, lo, facts) || linear::le(hi, i, facts)
        }
        (Span::Window { lo: l1, hi: h1 }, Span::Window { lo: l2, hi: h2 }) => {
            linear::le(h1, l2, facts) || linear::le(h2, l1, facts)
        }
    }
}

/// Is a counter-parameterised span disjoint from itself at any other
/// iteration? Freshens `counter` into `counter~` (a spelling no Rust
/// identifier can collide with), constrains `counter + 1 ≤ counter~`,
/// and proves span disjointness — WLOG by symmetry, since both
/// instances are the same function of the counter.
pub fn span_self_disjoint(span: &Span, counter: &str, facts: &Facts) -> bool {
    if !mentions(span, counter) {
        // The same span every iteration: overlaps itself unless empty,
        // which the caller cannot rely on.
        return false;
    }
    let fresh = format!("{counter}~");
    let renamed = rename(span, counter, &fresh);
    let mut fx = facts.assuming(&[]);
    fx.add_guard(
        LinForm::atom(counter).add(&LinForm::constant(1)),
        LinForm::atom(&fresh),
    );
    spans_disjoint(span, &renamed, &fx)
}

fn mentions(span: &Span, atom: &str) -> bool {
    let has = |f: &LinForm| f.atoms().contains(atom);
    match span {
        Span::Whole => false,
        Span::Window { lo, hi } => has(lo) || has(hi),
        Span::Elem(i) => has(i),
    }
}

fn rename(span: &Span, from: &str, to: &str) -> Span {
    match span {
        Span::Whole => Span::Whole,
        Span::Window { lo, hi } => Span::Window {
            lo: lo.rename_atom(from, to),
            hi: hi.rename_atom(from, to),
        },
        Span::Elem(i) => Span::Elem(i.rename_atom(from, to)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::linear::Env;

    fn empty_env() -> Env {
        Env::default()
    }

    #[test]
    fn concrete_windows() {
        let env = empty_env();
        let facts = Facts::empty(&env);
        let w = |lo: i64, hi: i64| Span::Window {
            lo: LinForm::constant(lo),
            hi: LinForm::constant(hi),
        };
        assert!(spans_disjoint(&w(0, 4), &w(4, 8), &facts));
        assert!(spans_disjoint(&w(6, 9), &w(2, 6), &facts));
        assert!(!spans_disjoint(&w(0, 5), &w(4, 8), &facts));
        assert!(!spans_disjoint(&w(2, 6), &Span::Whole, &facts));
        assert!(spans_disjoint(
            &Span::Elem(LinForm::constant(3)),
            &w(4, 8),
            &facts
        ));
        assert!(!spans_disjoint(
            &Span::Elem(LinForm::constant(5)),
            &w(4, 8),
            &facts
        ));
    }

    #[test]
    fn chunk_window_is_self_disjoint_symbolically() {
        let env = empty_env();
        let facts = Facts::empty(&env);
        let span = chunk_window("c", &LinForm::atom("w")).unwrap();
        assert!(span_self_disjoint(&span, "c", &facts));
    }

    #[test]
    fn widened_chunk_window_overlaps_itself() {
        let env = empty_env();
        let facts = Facts::empty(&env);
        // [c·w, (c+1)·w + 1): consecutive chunks share one element.
        let Span::Window { lo, hi } = chunk_window("c", &LinForm::atom("w")).unwrap() else {
            unreachable!("chunk_window yields a window")
        };
        let span = Span::Window {
            lo,
            hi: hi.add(&LinForm::constant(1)),
        };
        assert!(!span_self_disjoint(&span, "c", &facts));
    }

    #[test]
    fn counter_free_span_never_self_disjoint() {
        let env = empty_env();
        let facts = Facts::empty(&env);
        let span = Span::Window {
            lo: LinForm::constant(0),
            hi: LinForm::atom("n"),
        };
        assert!(!span_self_disjoint(&span, "c", &facts));
    }
}
