//! Logical↔physical qubit layouts.

use std::fmt;

/// A partial bijection between logical program qubits and physical device
/// qubits, updated as routing SWAPs are inserted.
///
/// # Example
///
/// ```
/// use qdevice::Layout;
///
/// let mut l = Layout::from_l2p(5, vec![2, 0, 3]);
/// assert_eq!(l.phys(1), 0);
/// assert_eq!(l.logical(3), Some(2));
/// l.swap_physical(0, 4); // a routing SWAP moves logical 1 to physical 4
/// assert_eq!(l.phys(1), 4);
/// assert_eq!(l.logical(0), None);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Layout {
    l2p: Vec<usize>,
    p2l: Vec<Option<usize>>,
}

impl Layout {
    /// Builds a layout from the logical→physical vector; physical qubits
    /// not listed hold no logical qubit.
    ///
    /// # Panics
    ///
    /// Panics if a physical index repeats or exceeds `num_physical`.
    pub fn from_l2p(num_physical: usize, l2p: Vec<usize>) -> Layout {
        let mut p2l = vec![None; num_physical];
        for (l, &p) in l2p.iter().enumerate() {
            assert!(p < num_physical, "physical qubit {p} out of range");
            assert!(p2l[p].is_none(), "physical qubit {p} assigned twice");
            p2l[p] = Some(l);
        }
        Layout { l2p, p2l }
    }

    /// The identity layout placing logical `i` on physical `i`.
    ///
    /// # Panics
    ///
    /// Panics if `num_logical > num_physical`.
    pub fn trivial(num_logical: usize, num_physical: usize) -> Layout {
        assert!(
            num_logical <= num_physical,
            "more logical than physical qubits"
        );
        Layout::from_l2p(num_physical, (0..num_logical).collect())
    }

    /// The number of logical qubits.
    pub fn num_logical(&self) -> usize {
        self.l2p.len()
    }

    /// The number of physical qubits.
    pub fn num_physical(&self) -> usize {
        self.p2l.len()
    }

    /// The physical location of logical qubit `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    #[inline]
    pub fn phys(&self, l: usize) -> usize {
        self.l2p[l]
    }

    /// The logical qubit at physical `p`, if any.
    #[inline]
    pub fn logical(&self, p: usize) -> Option<usize> {
        self.p2l[p]
    }

    /// Applies a SWAP between two *physical* qubits (either may be empty).
    pub fn swap_physical(&mut self, p1: usize, p2: usize) {
        let l1 = self.p2l[p1];
        let l2 = self.p2l[p2];
        self.p2l[p1] = l2;
        self.p2l[p2] = l1;
        if let Some(l) = l1 {
            self.l2p[l] = p2;
        }
        if let Some(l) = l2 {
            self.l2p[l] = p1;
        }
    }

    /// The logical→physical mapping as a slice.
    pub fn l2p(&self) -> &[usize] {
        &self.l2p
    }
}

impl fmt::Debug for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Layout{{l→p: {:?}}}", self.l2p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_layout_round_trips() {
        let l = Layout::trivial(3, 5);
        for q in 0..3 {
            assert_eq!(l.phys(q), q);
            assert_eq!(l.logical(q), Some(q));
        }
        assert_eq!(l.logical(4), None);
    }

    #[test]
    fn swaps_move_logical_qubits() {
        let mut l = Layout::trivial(2, 3);
        l.swap_physical(1, 2);
        assert_eq!(l.phys(1), 2);
        assert_eq!(l.logical(1), None);
        l.swap_physical(0, 2);
        assert_eq!(l.phys(0), 2);
        assert_eq!(l.phys(1), 0);
    }

    #[test]
    fn swap_of_two_empty_slots_is_a_noop() {
        let mut l = Layout::from_l2p(4, vec![0]);
        l.swap_physical(2, 3);
        assert_eq!(l.phys(0), 0);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn rejects_duplicate_assignment() {
        Layout::from_l2p(3, vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "more logical")]
    fn trivial_rejects_oversubscription() {
        Layout::trivial(4, 3);
    }
}
