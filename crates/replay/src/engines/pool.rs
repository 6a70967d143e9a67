//! Free-list arena for TPLR phase-1 cell buffers.
//!
//! Phase 1 materializes each chunk of a group's mini-transactions into a
//! `Vec<Cell>` that the group's committer drains in phase 2. Without
//! pooling every chunk pays one heap allocation (and the growth
//! reallocations behind it). A [`CellPool`] keeps the drained buffers on
//! a per-group free list owned by the engine, so steady-state replay
//! reuses the same handful of allocations across epochs and across
//! `replay` calls: the pool reaches its high-water capacity during the
//! first epochs and stops touching the allocator afterwards.
//!
//! One pool per group keeps the free list local to the crew members that
//! actually produce and consume the buffers, so the lock is only ever
//! contended between one split group's translators and its committer.

use crate::engines::Cell;
use aets_common::sync::lock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Upper bound on the free list. Buffers returned beyond this are dropped
/// rather than cached, so a burst epoch cannot pin its peak footprint
/// forever. In-flight buffers per group are bounded by the chunks of one
/// epoch, far below this in practice.
const MAX_POOLED: usize = 256;

/// A per-group free list of emptied `Vec<Cell>` buffers.
#[derive(Debug, Default)]
pub struct CellPool {
    free: Mutex<Vec<Vec<Cell>>>,
    recycled: AtomicU64,
    allocated: AtomicU64,
}

impl CellPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a cleared buffer with room for `cap` cells, reusing a
    /// pooled allocation when one is available.
    pub fn take(&self, cap: usize) -> Vec<Cell> {
        if let Some(mut v) = lock(&self.free).pop() {
            self.recycled.fetch_add(1, Ordering::Relaxed);
            if v.capacity() < cap {
                v.reserve(cap - v.len());
            }
            return v;
        }
        self.allocated.fetch_add(1, Ordering::Relaxed);
        Vec::with_capacity(cap)
    }

    /// Returns a drained buffer to the free list. Buffers with no backing
    /// allocation (heartbeat mini-txns) and overflow beyond `MAX_POOLED`
    /// are simply dropped.
    pub fn put(&self, mut v: Vec<Cell>) {
        v.clear();
        if v.capacity() == 0 {
            return;
        }
        let mut free = lock(&self.free);
        if free.len() < MAX_POOLED {
            free.push(v);
        }
    }

    /// Number of `take` calls served from the free list.
    pub fn recycled(&self) -> u64 {
        self.recycled.load(Ordering::Relaxed)
    }

    /// Number of `take` calls that had to allocate fresh.
    pub fn allocated(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_take_allocates_then_reuses() {
        let pool = CellPool::new();
        let v = pool.take(8);
        assert_eq!(pool.allocated(), 1);
        assert_eq!(pool.recycled(), 0);
        let cap = v.capacity();
        assert!(cap >= 8);
        pool.put(v);
        let v2 = pool.take(4);
        assert_eq!(pool.recycled(), 1);
        assert_eq!(pool.allocated(), 1);
        // The recycled buffer keeps its original capacity.
        assert_eq!(v2.capacity(), cap);
    }

    #[test]
    fn take_grows_undersized_recycled_buffers() {
        let pool = CellPool::new();
        pool.put(Vec::with_capacity(2));
        let v = pool.take(64);
        assert!(v.capacity() >= 64);
        assert_eq!(pool.recycled(), 1);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let pool = CellPool::new();
        pool.put(Vec::new());
        let _ = pool.take(1);
        assert_eq!(pool.recycled(), 0);
        assert_eq!(pool.allocated(), 1);
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = CellPool::new();
        for _ in 0..(MAX_POOLED + 10) {
            pool.put(Vec::with_capacity(1));
        }
        assert_eq!(lock(&pool.free).len(), MAX_POOLED);
    }
}
