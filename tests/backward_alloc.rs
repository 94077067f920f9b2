//! Allocation contract of the backward sweep: once its workspace is
//! warm, `LstmLayer::backward_sequence_ws` allocates only what it
//! returns. No weight-sized buffer is allocated per timestep (the
//! fused accumulate-and-measure GEMM adds each cell's `δW`/`δU` straight
//! into the layer total), and the bytes allocated grow with the
//! sequence length by exactly the extra per-timestep outputs (`δX_t`
//! and the cell magnitude) — nothing else scales with `T`.
//!
//! The counting allocator keeps its counters thread-local, so
//! allocations made by other test threads (or by the test harness)
//! never leak into a measurement. The kernels run serially, so the
//! whole sweep runs on the measuring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eta_lstm::core::layer::{Instruments, LstmLayer, StorageMode};
use eta_lstm::core::ms1::Ms1Config;
use eta_lstm::core::{LayerPanels, Workspace};
use eta_lstm::tensor::{init, Matrix, ParallelConfig};

struct CountingAlloc;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LARGE: Cell<u64> = const { Cell::new(0) };
    static LARGE_MIN: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn note(size: usize) {
    // `try_with`: the allocator may run during thread teardown, after
    // the thread-locals are gone; those allocations are not measured.
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
    let large = LARGE_MIN.try_with(Cell::get).is_ok_and(|min| size >= min);
    if large {
        let _ = LARGE.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialized thread-locals without destructors, so updating them
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout contract to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    // SAFETY: forwards the caller's layout contract to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr`/`layout` come from this allocator, which is
    // `System` underneath, so `System.realloc` receives its own block.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: as for `realloc`, the block was allocated by `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated and allocations of at least `large_min` bytes made
/// by `f` on this thread.
fn measure<R>(large_min: usize, f: impl FnOnce() -> R) -> (u64, u64, R) {
    LARGE_MIN.with(|m| m.set(large_min));
    let (b0, l0) = (BYTES.with(Cell::get), LARGE.with(Cell::get));
    let r = f();
    let (b1, l1) = (BYTES.with(Cell::get), LARGE.with(Cell::get));
    LARGE_MIN.with(|m| m.set(usize::MAX));
    (b1 - b0, l1 - l0, r)
}

const BATCH: usize = 4;
const INPUT: usize = 24;
const HIDDEN: usize = 32;
const T: usize = 6;

fn inputs(seq: usize, width: usize, seed: u64) -> Vec<Matrix> {
    (0..seq)
        .map(|t| init::uniform(BATCH, width, -1.0, 1.0, seed + t as u64))
        .collect()
}

/// Checks the contract for one storage mode and MS2 keep pattern.
fn check(mode: StorageMode, keep: fn(usize) -> bool) {
    let layer = LstmLayer::new(INPUT, HIDDEN, 5);
    let panels = LayerPanels::pack(&layer.params);
    let kernel = ParallelConfig::serial();
    let inst = Instruments::new();
    let mut ws = Workspace::new();
    // Smaller of the two weight gradients, `δW` = `[4H, in]` f32.
    let weight_grad_bytes = 4 * HIDDEN * INPUT * 4;

    let mut backward = |seq: usize| {
        let xs = inputs(seq, INPUT, 100);
        let dys = inputs(seq, HIDDEN, 200);
        let mask: Vec<bool> = (0..seq).map(keep).collect();
        let tape = layer
            .forward_sequence_ws(
                &xs,
                mode,
                &mask,
                None,
                &kernel,
                &inst,
                Some(&panels),
                &mut ws,
            )
            .expect("forward");
        let (bytes, large, out) = measure(weight_grad_bytes, || {
            layer
                .backward_sequence_ws(
                    &xs,
                    &tape,
                    &dys,
                    1.0,
                    None,
                    &kernel,
                    &inst,
                    Some(&panels),
                    &mut ws,
                )
                .expect("backward")
        });
        assert!(out.magnitudes.iter().any(|&m| m > 0.0));
        (bytes, large)
    };

    backward(2 * T); // warm the workspace at the largest shape
    let (bytes_t, large_t) = backward(T);
    let (bytes_2t, large_2t) = backward(2 * T);

    // The returned `δW` and `δU` are the only weight-sized buffers.
    assert_eq!(large_t, 2, "{mode:?}: weight-sized allocations at T={T}");
    assert_eq!(
        large_2t,
        2,
        "{mode:?}: weight-sized allocations at T={}",
        2 * T
    );
    // T more timesteps add T more `δX_t` outputs and magnitudes.
    let per_step_outputs =
        BATCH * INPUT * 4 + std::mem::size_of::<Matrix>() + std::mem::size_of::<f64>();
    let allowed = (T * per_step_outputs) as u64;
    assert!(
        bytes_2t.saturating_sub(bytes_t) <= allowed,
        "{mode:?}: backward allocated {bytes_t} B at T={T} and {bytes_2t} B at T={}; \
         growth exceeds the {allowed} B of extra outputs",
        2 * T
    );
}

#[test]
fn dense_backward_allocates_only_its_outputs() {
    check(StorageMode::Dense, |_| true);
}

#[test]
fn ms2_skips_allocate_nothing_per_timestep() {
    // Every third cell skipped: the gradient chain is zero-filled at
    // each skip boundary instead of reallocated.
    check(StorageMode::Dense, |t| t % 3 != 1);
}

#[test]
fn ms1_compressed_backward_allocates_only_its_outputs() {
    check(StorageMode::Compressed(Ms1Config::default()), |_| true);
}
