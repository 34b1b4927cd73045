//! A tensor handle is free: cloning, reshaping, reading dimensions and
//! elements, writing an element of an unshared buffer, and building a
//! [`Shape`] allocate no heap block.
//!
//! A counting `#[global_allocator]` counts blocks per thread, so the
//! harness's other test threads cannot disturb a measurement.

use pac_tensor::{Shape, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct Counting;

thread_local! {
    /// Blocks this thread has allocated (const-initialised, no destructor:
    /// safe to touch from inside the allocator).
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap blocks `f` allocates on the calling thread, dropping its result
/// inside the measurement.
fn blocks<R>(f: impl FnOnce() -> R) -> u64 {
    let before = BLOCKS.with(Cell::get);
    drop(black_box(f()));
    BLOCKS.with(Cell::get) - before
}

#[test]
fn tensor_handle_operations_allocate_nothing() {
    let t = Tensor::zeros([4, 16, 32]);
    let mut u = Tensor::zeros([2, 3]);
    assert_eq!(blocks(|| t.clone()), 0, "clone");
    assert_eq!(
        blocks(|| t.clone().reshape([64, 32]).unwrap()),
        0,
        "reshape"
    );
    assert_eq!(blocks(|| t.dims().len()), 0, "dims");
    assert_eq!(blocks(|| t.as_2d()), 0, "as_2d");
    assert_eq!(blocks(|| t.get(&[3, 15, 31]).unwrap()), 0, "get");
    assert_eq!(blocks(|| u.set(&[1, 2], 5.0).unwrap()), 0, "set");
    assert_eq!(u.get(&[1, 2]).unwrap(), 5.0);
}

#[test]
fn shape_constructors_allocate_nothing() {
    let dims = vec![4usize, 16, 32];
    assert_eq!(blocks(|| Shape::new([4, 16, 32])), 0, "new from an array");
    assert_eq!(blocks(|| Shape::new(&dims)), 0, "new from a Vec");
    assert_eq!(blocks(|| Shape::from([4, 16])), 0, "from an array");
    assert_eq!(blocks(|| Shape::from(&dims[..])), 0, "from a slice");
}
