//! The textbook dynamic-dispatch protocol, kept as the baseline the
//! work-stealing deck ([`zomp::schedule::DynamicDispatch`]) is measured
//! against (the `dispatch_next` Criterion group of `runtime_primitives`).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Single shared atomic cursor; every chunk claim is one fetch-add on the
/// same cache line.
#[derive(Debug)]
pub struct SharedCursor {
    cursor: AtomicU64,
    trip: u64,
    chunk: u64,
}

impl SharedCursor {
    pub fn new(trip: u64, chunk: u64) -> Self {
        SharedCursor {
            cursor: AtomicU64::new(0),
            trip,
            chunk: chunk.max(1),
        }
    }

    /// Claim the next chunk, or `None` once the space is exhausted.
    #[inline]
    pub fn next(&self) -> Option<Range<u64>> {
        // Relaxed: the claimed start travels in the RMW result itself.
        let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.trip {
            return None;
        }
        Some(start..(start + self.chunk).min(self.trip))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_cursor_claims_sequential_chunks() {
        let d = SharedCursor::new(103, 10);
        let mut covered = 0;
        while let Some(r) = d.next() {
            assert_eq!(r.start, covered, "shared cursor chunks are sequential");
            covered = r.end;
        }
        assert_eq!(covered, 103);
    }
}
