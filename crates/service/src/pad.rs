//! [`CachePadded`]: one value per 64-byte cache line.

use std::ops::{Deref, DerefMut};

/// A value padded out to its own 64-byte cache line.
///
/// Two values that different cores write, packed into one line, make
/// every write invalidate the line for the other core — false sharing.
/// The striped store pads its shard mutexes with it, so that lock traffic
/// on one shard leaves the others' lines alone; the shared-nothing rings
/// pad their producer and consumer indices, so that a push and a drain
/// on the same ring, or on neighbouring rings, never write the same
/// line. The effect shows only when threads on different cores run; the
/// benchmark's `churn_2t` workload runs that case.
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub(crate) T);

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}
