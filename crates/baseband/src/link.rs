//! Connection-handle allocation for baseband ACL links.

use blap_types::ConnectionHandle;

/// Allocates connection handles the way small controllers do: sequentially,
/// skipping values still in use.
#[derive(Clone, Debug, Default)]
pub struct HandleAllocator {
    next: u16,
}

impl HandleAllocator {
    /// Creates an allocator starting at handle 1.
    pub fn new() -> Self {
        HandleAllocator { next: 0 }
    }

    /// Allocates the next free handle, avoiding the provided in-use set.
    pub fn allocate(&mut self, in_use: &[ConnectionHandle]) -> ConnectionHandle {
        loop {
            self.next = if self.next >= ConnectionHandle::MAX {
                1
            } else {
                self.next + 1
            };
            let candidate = ConnectionHandle::new(self.next);
            if !in_use.contains(&candidate) {
                return candidate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_allocation_skips_in_use() {
        let mut alloc = HandleAllocator::new();
        let h1 = alloc.allocate(&[]);
        assert_eq!(h1.raw(), 1);
        let h2 = alloc.allocate(&[h1]);
        assert_eq!(h2.raw(), 2);
        // Force a wrap with handle 3 occupied.
        let mut alloc = HandleAllocator {
            next: ConnectionHandle::MAX,
        };
        let h = alloc.allocate(&[ConnectionHandle::new(1)]);
        assert_eq!(h.raw(), 2);
    }
}
