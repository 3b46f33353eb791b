//! Proves the scratch-based forward path performs zero heap allocations
//! in steady state.
//!
//! A counting global allocator wraps the system allocator for this test
//! binary only; after one warm-up call sizes every scratch buffer, further
//! `forward_layer_with` calls must not touch the allocator at all — no
//! matter the architecture or the weight format (dense, 4-bit, int8).
//!
//! The count is **per thread**: libtest runs tests on parallel threads
//! and the harness itself allocates (result reporting), so a process-
//! global counter would flakily attribute foreign allocations to a
//! test's measuring window. Each test only ever reads its own thread's
//! counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use prism_model::layer::{forward_layer_with, ForwardScratch};
use prism_model::{LayerWeights, ModelArch, ModelConfig};
use prism_tensor::Tensor;

struct CountingAllocator;

std::thread_local! {
    // Const-initialized and destructor-free, so counting from inside the
    // allocator can neither allocate nor recurse.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

// SAFETY: delegates every operation to `System`, only counting calls.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The weight formats a layer can hold.
#[derive(Debug, Clone, Copy)]
enum Format {
    Dense,
    Q4,
    Int8,
}

fn steady_state_alloc_count(arch: ModelArch, format: Format) -> u64 {
    let config = ModelConfig::test_config(arch, 2);
    let dense = LayerWeights::generate(&config, 0, 11);
    let weights = match format {
        Format::Dense => dense,
        Format::Q4 => dense.quantize().unwrap(),
        Format::Int8 => dense.to_int8().unwrap(),
    };
    let hidden0 = Tensor::from_fn(12, config.hidden_dim, |r, c| {
        ((r * 7 + c * 3) as f32 * 0.13).sin() * 0.5
    });
    let ranges = [(0_usize, 5_usize), (5, 12)];
    let mut scratch = ForwardScratch::new(&config, hidden0.rows());
    let mut hidden = hidden0.clone();
    // Warm-up: dresses every scratch buffer to its steady-state shape.
    forward_layer_with(&config, &weights, 0, &mut hidden, &ranges, &mut scratch).unwrap();

    let before = thread_allocations();
    for layer_idx in 0..4 {
        hidden.data_mut().copy_from_slice(hidden0.data());
        forward_layer_with(
            &config,
            &weights,
            layer_idx,
            &mut hidden,
            &ranges,
            &mut scratch,
        )
        .unwrap();
    }
    thread_allocations() - before
}

#[test]
fn forward_layer_steady_state_is_allocation_free() {
    for arch in [ModelArch::DecoderOnly, ModelArch::EncoderOnly] {
        for format in [Format::Dense, Format::Q4, Format::Int8] {
            let allocs = steady_state_alloc_count(arch, format);
            assert_eq!(
                allocs, 0,
                "{arch:?} ({format:?} weights): forward_layer_with allocated \
                 {allocs} times in steady state"
            );
        }
    }
}

#[test]
fn scratch_grows_only_beyond_capacity() {
    let config = ModelConfig::test_config(ModelArch::DecoderOnly, 2);
    let weights = LayerWeights::generate(&config, 0, 11);
    let mut scratch = ForwardScratch::new(&config, 32);
    // A smaller batch than capacity must not allocate after warm-up.
    let base = Tensor::from_fn(8, config.hidden_dim, |r, c| ((r + c) as f32 * 0.1).cos());
    let mut hidden = base.clone();
    forward_layer_with(&config, &weights, 0, &mut hidden, &[(0, 8)], &mut scratch).unwrap();
    let before = thread_allocations();
    let mut hidden = base.clone();
    let after_clone = thread_allocations();
    forward_layer_with(&config, &weights, 0, &mut hidden, &[(0, 8)], &mut scratch).unwrap();
    assert_eq!(
        thread_allocations() - after_clone,
        0,
        "smaller-than-capacity forward must reuse the scratch"
    );
    assert!(after_clone > before, "the clone itself allocates (sanity)");
}
