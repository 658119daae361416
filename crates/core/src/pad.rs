//! Cache-line padding for per-thread runtime state that other threads touch.
//!
//! The hot dispatch/barrier/reduction paths keep one slot per thread; without
//! padding, neighbouring slots share a cache line and every owner-local
//! update still ping-pongs the line between cores (false sharing). Wrapping
//! each slot in [`CachePadded`] aligns it to its own 64-byte line, the common
//! line size on x86-64 and AArch64 (on machines with 128-byte prefetch pairs
//! this halves, not removes, the benefit — an acceptable trade for a type
//! that stays pointer-light).

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Pads and aligns `T` to a 64-byte cache line so arrays of per-thread slots
/// never share a line.
#[repr(align(64))]
#[derive(Default)]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CachePadded").field(&self.value).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_and_size_are_line_multiples() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 64);
        assert_eq!(std::mem::size_of::<CachePadded<u8>>(), 64);
        // A two-element array puts the elements on distinct lines.
        let arr = [CachePadded::new(0u64), CachePadded::new(1u64)];
        let a = &*arr[0] as *const u64 as usize;
        let b = &*arr[1] as *const u64 as usize;
        assert!(b - a >= 64);
    }

    #[test]
    fn deref_roundtrip() {
        let mut p = CachePadded::new(7i32);
        *p += 1;
        assert_eq!(*p, 8);
        assert_eq!(p.into_inner(), 8);
    }
}
