//! Recycled-buffer pool for training-loop temporaries.
//!
//! Every matmul in the hot path used to allocate a fresh `m*n` output
//! vector — multiplied by layers × micro-batches × epochs. The scratch
//! pool keeps dropped buffers and hands them back zeroed: [`take`] a
//! tensor of any shape, use it (typically as the `out` argument of an
//! `_into` kernel), and [`put`] it back when its contents are dead.
//!
//! `put` is always safe: a tensor whose storage is still shared with a
//! live clone (copy-on-write) is simply dropped, never recycled, so no
//! caller can observe a buffer being reused out from under it.
//!
//! Ownership: every thread keeps its own free list (`thread_local!`), so
//! `take`/`take_for`/`put` touch no lock and concurrent bursts on
//! different ranks never contend. A buffer is recycled on whichever
//! thread `put`s it — the persistent pool workers and the caller's thread
//! live as long as the process, so their lists stay warm across
//! micro-batches, mini-batches and serve ticks; a short-lived scoped
//! thread frees its list when it exits. Each list holds at most
//! `MAX_POOLED` buffers, which bounds resident scratch memory per thread.
//!
//! Observability: [`stats`] exposes `reuses` (a `take` served from a free
//! list) vs `allocs` (a `take` that had to allocate), summed over all
//! threads and surfaced by `repro --telemetry` as `scratch.reuses` /
//! `scratch.allocs`.

use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Buffers a thread keeps beyond this count are dropped on `put` (bounds
/// resident scratch memory and the best-fit scan of [`take`]). It covers a
/// pipeline stage's live set with two micro-batches in flight, now that
/// stage contexts hand every buffer back: a two-layer stage of the
/// `dist_world` shape (hidden 32, 4 × 16 rows, forward, forward, backward,
/// backward, each context recycled) allocates 46 blocks per round at 64
/// and at 80, 66 at 48. A larger cap only grows the scan (at 256 it was
/// 2.3 % of a `dist_world` run's CPU) and the memory parked per thread.
const MAX_POOLED: usize = 64;

// Statistics only: they publish no other data, hence `Relaxed`.
static REUSES: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's recycled buffers; every entry is unshared.
    static FREE: RefCell<Vec<Arc<Vec<f32>>>> = const { RefCell::new(Vec::new()) };
}

/// Counters describing scratch-pool effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// `take` calls served by recycling a pooled buffer.
    pub reuses: u64,
    /// `take` calls that allocated a fresh buffer.
    pub allocs: u64,
}

/// Returns the reuse/alloc counters, summed over every thread.
pub fn stats() -> ScratchStats {
    ScratchStats {
        reuses: REUSES.load(Ordering::Relaxed),
        allocs: ALLOCS.load(Ordering::Relaxed),
    }
}

/// Pops this thread's best-fitting recycled buffer for `n` elements,
/// emptied: the smallest capacity that holds `n`, to keep big buffers
/// available for big requests. `None` (the caller allocates) when nothing
/// fits or the thread is tearing its list down.
fn recycled(n: usize) -> Option<Arc<Vec<f32>>> {
    let mut storage = FREE
        .try_with(|free| {
            let mut free = free.borrow_mut();
            let best = free
                .iter()
                .enumerate()
                .filter(|(_, b)| b.capacity() >= n)
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i)?;
            Some(free.swap_remove(best))
        })
        .ok()
        .flatten()?;
    Arc::get_mut(&mut storage)
        .expect("pooled buffers are unshared")
        .clear();
    REUSES.fetch_add(1, Ordering::Relaxed);
    Some(storage)
}

/// Returns a zeroed tensor of `shape`, recycling a pooled buffer when one
/// with sufficient capacity exists.
pub fn take(shape: impl Into<Shape>) -> Tensor {
    let shape = shape.into();
    let n = shape.numel();
    match recycled(n) {
        Some(storage) => {
            let mut t = Tensor::from_storage(storage, Shape::new([0]));
            t.reset_to(shape);
            t
        }
        None => {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            Tensor::from_storage(Arc::new(vec![0.0; n]), shape)
        }
    }
}

/// Returns an empty (shape `[0]`) tensor whose buffer has capacity for at
/// least `n` elements — the ideal `out` argument for `_into` kernels,
/// which reshape and zero-fill it themselves (avoids the double zero-fill
/// [`take`] would incur).
pub fn take_for(n: usize) -> Tensor {
    let storage = recycled(n).unwrap_or_else(|| {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        Arc::new(Vec::with_capacity(n))
    });
    Tensor::from_storage(storage, Shape::new([0]))
}

/// Recycles `t`'s buffer on the calling thread if nothing else holds it;
/// otherwise just drops the tensor. Always safe to call on any tensor
/// whose *contents* are no longer needed.
pub fn put(t: Tensor) {
    let storage = t.take_storage();
    if Arc::strong_count(&storage) != 1 || storage.capacity() == 0 {
        return;
    }
    // A thread already past its list's destructor just drops the buffer.
    let _ = FREE.try_with(|free| {
        let mut free = free.borrow_mut();
        if free.len() < MAX_POOLED {
            free.push(storage);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Barrier, Mutex};
    use std::thread;

    /// Runs `f` on a thread of its own: a fresh thread starts with an
    /// empty free list, so what it recycles is what it `put`, whichever
    /// thread the harness runs the test on.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        thread::spawn(f).join().expect("scratch test thread");
    }

    fn resident() -> usize {
        FREE.with(|free| free.borrow().len())
    }

    #[test]
    fn take_put_take_reuses_the_buffer() {
        on_fresh_thread(|| {
            let a = take([8, 8]);
            let ptr = a.storage_ptr();
            put(a);
            let b = take([4, 4]); // smaller fits in the same buffer
            assert_eq!(b.storage_ptr(), ptr, "buffer recycled");
            assert_eq!(b.dims(), &[4, 4]);
            assert!(b.data().iter().all(|&v| v == 0.0), "recycled buffer zeroed");
            put(b);
            let c = take_for(64);
            assert_eq!(c.storage_ptr(), ptr, "take_for recycles too");
            assert_eq!(c.numel(), 0, "take_for hands the buffer back empty");
        });
    }

    #[test]
    fn best_fit_keeps_big_buffers_for_big_requests() {
        on_fresh_thread(|| {
            let (big, small) = (take([1024]), take([16]));
            let (big_ptr, small_ptr) = (big.storage_ptr(), small.storage_ptr());
            put(big);
            put(small);
            assert_eq!(take([8]).storage_ptr(), small_ptr);
            assert_eq!(take([512]).storage_ptr(), big_ptr);
        });
    }

    #[test]
    fn dirty_contents_are_zeroed_on_reuse() {
        on_fresh_thread(|| {
            let mut a = take([4]);
            a.data_mut().fill(7.5);
            put(a);
            let b = take([4]);
            assert_eq!(b.data(), &[0.0; 4]);
        });
    }

    #[test]
    fn shared_storage_is_never_recycled_on_any_thread() {
        let a = take([16]);
        let ptr = a.storage_ptr() as usize;
        let keep = a.clone();
        // The original crosses to another thread and is `put` there while
        // `keep` still shares its storage: it must be dropped, not
        // recycled. `keep` pins the allocation, so a recycled buffer is the
        // only way either thread could see `ptr` again.
        let (tx, rx) = mpsc::channel();
        let other = thread::spawn(move || {
            put(rx.recv().expect("tensor from the owning thread"));
            let b = take([16]);
            assert_ne!(
                b.storage_ptr() as usize,
                ptr,
                "recycled on the putting thread"
            );
        });
        tx.send(a).expect("peer thread is receiving");
        other.join().expect("peer thread");
        let c = take([16]);
        assert_ne!(
            c.storage_ptr() as usize,
            ptr,
            "recycled on the owning thread"
        );
        assert_eq!(keep.data(), &[0.0; 16]);
    }

    #[test]
    fn a_thread_keeps_at_most_max_pooled_buffers() {
        on_fresh_thread(|| {
            let held: Vec<Tensor> = (0..2 * MAX_POOLED).map(|_| take([32])).collect();
            held.into_iter().for_each(put);
            assert_eq!(resident(), MAX_POOLED);
        });
    }

    #[test]
    fn concurrent_threads_get_zeroed_unshared_buffers_and_shared_stats() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 40;
        let before = stats();
        let barrier = Barrier::new(THREADS);
        let live: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        thread::scope(|scope| {
            for id in 0..THREADS {
                let (barrier, live) = (&barrier, &live);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        let n = 16 + (round * 7 + id * 3) % 48;
                        let mut a = take([n]);
                        assert!(a.data().iter().all(|&v| v == 0.0), "take is zeroed");
                        let tag = (id * ROUNDS + round + 1) as f32;
                        a.data_mut().fill(tag);
                        let b = take_for(n);
                        assert_eq!(b.numel(), 0, "take_for is empty");
                        live.lock()
                            .expect("live list")
                            .extend([a.storage_ptr() as usize, b.storage_ptr() as usize]);
                        // Every thread now holds two live buffers at once.
                        barrier.wait();
                        {
                            let mut ptrs = live.lock().expect("live list").clone();
                            ptrs.sort_unstable();
                            ptrs.dedup();
                            assert_eq!(
                                ptrs.len(),
                                2 * THREADS,
                                "a live buffer was handed out twice"
                            );
                        }
                        barrier.wait();
                        assert!(
                            a.data().iter().all(|&v| v == tag),
                            "a live buffer was written"
                        );
                        live.lock().expect("live list").clear();
                        barrier.wait();
                        // Interleave recycling: odd rounds return both,
                        // even rounds only one, so lists drift apart.
                        put(a);
                        if round % 2 == 1 {
                            put(b);
                        }
                    }
                    assert!(resident() <= MAX_POOLED);
                });
            }
        });
        let after = stats();
        let takes = (after.reuses + after.allocs) - (before.reuses + before.allocs);
        assert!(
            takes >= (2 * THREADS * ROUNDS) as u64,
            "stats must count every thread's takes, saw {takes}"
        );
        assert!(after.reuses > before.reuses, "later rounds recycle");
    }
}
