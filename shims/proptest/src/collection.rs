//! Collection strategies (`proptest::collection::vec`).

use rand::Rng;

use crate::strategy::{BoxedTree, Strategy, TestRng, ValueTree};

/// A length specification: a fixed size or a half-open range of sizes.
#[derive(Clone, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end() + 1,
        }
    }
}

/// Generates `Vec`s whose length is drawn from `size` and whose elements
/// come from `element`. Shrinks by truncating toward the minimum length
/// (halving first, then popping) and by shrinking elements in place.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S>
where
    S::Value: 'static,
{
    type Value = Vec<S::Value>;

    fn new_tree(&self, rng: &mut TestRng) -> BoxedTree<Vec<S::Value>> {
        let len = rng.gen_range(self.size.lo..self.size.hi);
        let elems = (0..len).map(|_| self.element.new_tree(rng)).collect();
        Box::new(VecTree {
            elems,
            min_len: self.size.lo,
        })
    }
}

struct VecTree<T> {
    elems: Vec<BoxedTree<T>>,
    min_len: usize,
}

impl<T: 'static> VecTree<T> {
    fn truncated(&self, len: usize) -> BoxedTree<Vec<T>> {
        Box::new(VecTree {
            elems: self.elems[..len].iter().map(|e| e.clone_tree()).collect(),
            min_len: self.min_len,
        })
    }
}

impl<T: 'static> ValueTree for VecTree<T> {
    type Value = Vec<T>;

    fn current(&self) -> Vec<T> {
        self.elems.iter().map(|e| e.current()).collect()
    }

    fn shrink_candidates(&self) -> Vec<BoxedTree<Vec<T>>> {
        let mut out: Vec<BoxedTree<Vec<T>>> = Vec::new();
        let len = self.elems.len();
        let mut lengths: Vec<usize> = Vec::new();
        for shorter in [self.min_len.max(len / 2), len.saturating_sub(1)] {
            if shorter >= self.min_len && shorter < len && !lengths.contains(&shorter) {
                lengths.push(shorter);
                out.push(self.truncated(shorter));
            }
        }
        for i in 0..len {
            for cand in self.elems[i].shrink_candidates() {
                let mut elems: Vec<BoxedTree<T>> =
                    self.elems.iter().map(|e| e.clone_tree()).collect();
                elems[i] = cand;
                out.push(Box::new(VecTree {
                    elems,
                    min_len: self.min_len,
                }));
            }
        }
        out
    }

    fn clone_tree(&self) -> BoxedTree<Vec<T>> {
        self.truncated(self.elems.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn vec_shrinks_shorter_then_element_wise() {
        let strategy = vec(0u32..100, 2..9);
        let mut rng = TestRng::seed_from_u64(11);
        // Find a tree long enough to expose both truncation candidates.
        let tree = loop {
            let t = strategy.new_tree(&mut rng);
            if t.current().len() >= 6 {
                break t;
            }
        };
        let original = tree.current();
        let cands = tree.shrink_candidates();
        assert_eq!(cands[0].current().len(), original.len() / 2, "halves first");
        assert_eq!(cands[1].current().len(), original.len() - 1, "then pops");
        // Element-wise candidates keep the length and the other slots.
        let elem = cands[2].current();
        assert_eq!(elem.len(), original.len());
        assert!(elem[0] < original[0]);
        assert_eq!(elem[1..], original[1..]);
    }

    #[test]
    fn vec_never_shrinks_below_its_minimum_length() {
        let strategy = vec(0u32..4, 3);
        let mut rng = TestRng::seed_from_u64(5);
        let tree = strategy.new_tree(&mut rng);
        for cand in tree.shrink_candidates() {
            assert_eq!(cand.current().len(), 3, "fixed-size vec keeps its size");
        }
    }
}
