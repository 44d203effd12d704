//! A fixed-capacity ring of the most recent values: the one bounded
//! history buffer behind the flight recorder, windowed histograms, the
//! span-export ring, the watchdog's burn-rate window and serve's SLO
//! outcome window.

/// The newest `capacity` values pushed, iterated oldest first. Storage
/// is reserved at construction, so [`Ring::push`] never allocates: it
/// appends until the ring is full and then overwrites the oldest slot.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    items: Vec<T>,
    capacity: usize,
    /// The slot the next push writes once the ring is full (the oldest).
    next: usize,
    pushed: u64,
}

impl<T> Ring<T> {
    /// An empty ring retaining the newest `capacity` values.
    pub fn with_capacity(capacity: usize) -> Ring<T> {
        assert!(capacity > 0, "ring capacity must be positive");
        Ring {
            items: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            pushed: 0,
        }
    }

    /// Appends `item`, evicting the oldest value once full.
    pub fn push(&mut self, item: T) {
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            self.items[self.next] = item;
        }
        self.next = (self.next + 1) % self.capacity;
        self.pushed += 1;
    }

    /// Values retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The most values the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Values ever pushed since construction or [`Ring::clear`];
    /// `pushed() - len()` were evicted.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Drops every value and resets [`Ring::pushed`]; the reserved
    /// storage stays.
    pub fn clear(&mut self) {
        self.items.clear();
        self.next = 0;
        self.pushed = 0;
    }

    /// Retained values, oldest first (`next_back` is the newest).
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        // Until the ring is full `next == len`, so `older` is empty.
        let (newer, older) = self.items.split_at(self.next);
        older.iter().chain(newer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contents(ring: &Ring<u32>) -> Vec<u32> {
        ring.iter().copied().collect()
    }

    #[test]
    fn an_empty_ring_iterates_nothing() {
        let ring: Ring<u32> = Ring::with_capacity(3);
        assert!(ring.is_empty());
        assert_eq!(contents(&ring), Vec::<u32>::new());
        assert_eq!(ring.iter().next_back(), None);
        assert_eq!(ring.pushed(), 0);
    }

    #[test]
    fn capacity_one_keeps_only_the_newest() {
        let mut ring = Ring::with_capacity(1);
        ring.push(7);
        assert_eq!(contents(&ring), vec![7]);
        ring.push(8);
        ring.push(9);
        assert_eq!(contents(&ring), vec![9]);
        assert_eq!(ring.pushed() - ring.len() as u64, 2, "two evicted");
    }

    #[test]
    fn iterates_oldest_first_before_and_after_a_wrap() {
        let mut ring = Ring::with_capacity(4);
        for i in 0..3 {
            ring.push(i);
        }
        assert_eq!(contents(&ring), vec![0, 1, 2], "partly filled");
        ring.push(3);
        assert_eq!(contents(&ring), vec![0, 1, 2, 3], "exactly full");
        for i in 4..10 {
            ring.push(i);
        }
        assert_eq!(contents(&ring), vec![6, 7, 8, 9], "wrapped");
        assert_eq!(ring.iter().next_back(), Some(&9));
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.pushed() - ring.len() as u64, 6, "six evicted");
    }

    #[test]
    fn clear_keeps_the_capacity_and_storage() {
        let mut ring = Ring::with_capacity(3);
        for i in 0..5 {
            ring.push(i);
        }
        let storage = ring.items.as_ptr();
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.pushed(), 0);
        assert_eq!(ring.capacity(), 3);
        for i in 10..14 {
            ring.push(i);
        }
        assert_eq!(contents(&ring), vec![11, 12, 13]);
        assert_eq!(ring.items.as_ptr(), storage, "no reallocation");
    }
}
