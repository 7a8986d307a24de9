//! Sorted sparse vectors over the document basis.

use serde::{Deserialize, Serialize};
use tep_corpus::DocId;

/// A sparse vector in the document space, stored **structure-of-arrays**:
/// a sorted `dims` array of document ids and a parallel `vals` array of
/// weights, zero weights omitted.
///
/// All arithmetic is merge-based over the sorted dimension lists, so costs
/// are `O(nnz)` — the property that makes thematic projection *faster* than
/// full-space matching (paper §5.3.2: "the more filtering ... the less time
/// is required"). The split layout keeps the merge loops reading two
/// contiguous `u32` streams and two contiguous `f32` streams — half the
/// bytes per compared dimension of the old `Vec<(DocId, f32)>` pairs, and a
/// shape `portable_simd` chunk kernels can consume directly. Every kernel
/// preserves the exact accumulation order of the pair-based implementation,
/// so scores are bit-identical. The one non-merge kernel,
/// [`Self::gram_distance_to_row`], gathers against a dense row and gives
/// the same bits as its merge form [`Self::gram_distance`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SparseVector {
    dims: Vec<DocId>,
    vals: Vec<f32>,
}

impl SparseVector {
    /// The zero vector.
    pub fn zero() -> SparseVector {
        SparseVector::default()
    }

    /// Builds a vector from entries that are already sorted by document id
    /// with no duplicates; zero weights are dropped.
    ///
    /// # Panics
    ///
    /// Debug-panics if entries are unsorted or contain duplicate ids.
    pub fn from_sorted(entries: Vec<(DocId, f32)>) -> SparseVector {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries must be strictly sorted by doc id"
        );
        let mut out = SparseVector::with_capacity(entries.len());
        for (d, w) in entries {
            if w != 0.0 {
                out.dims.push(d);
                out.vals.push(w);
            }
        }
        out
    }

    /// Builds a vector from unsorted entries, summing duplicate ids.
    pub fn from_unsorted(mut entries: Vec<(DocId, f32)>) -> SparseVector {
        entries.sort_by_key(|(d, _)| *d);
        let mut out = SparseVector::with_capacity(entries.len());
        for (d, w) in entries {
            match (out.dims.last(), out.vals.last_mut()) {
                (Some(last), Some(acc)) if *last == d => *acc += w,
                _ => {
                    out.dims.push(d);
                    out.vals.push(w);
                }
            }
        }
        // Drop components that cancelled to zero (mirrors the pair-based
        // `retain`).
        let mut keep = 0;
        for i in 0..out.vals.len() {
            if out.vals[i] != 0.0 {
                out.dims[keep] = out.dims[i];
                out.vals[keep] = out.vals[i];
                keep += 1;
            }
        }
        out.dims.truncate(keep);
        out.vals.truncate(keep);
        out
    }

    fn with_capacity(capacity: usize) -> SparseVector {
        SparseVector {
            dims: Vec::with_capacity(capacity),
            vals: Vec::with_capacity(capacity),
        }
    }

    /// The sorted document ids of the non-zero components.
    pub fn dims(&self) -> &[DocId] {
        &self.dims
    }

    /// The weights parallel to [`Self::dims`].
    pub fn vals(&self) -> &[f32] {
        &self.vals
    }

    /// The non-zero `(doc, weight)` components, ascending by document id.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, f32)> + '_ {
        self.dims.iter().copied().zip(self.vals.iter().copied())
    }

    /// Number of non-zero components.
    pub fn nnz(&self) -> usize {
        self.dims.len()
    }

    /// Whether the vector is zero.
    pub fn is_zero(&self) -> bool {
        self.dims.is_empty()
    }

    /// The weight at `doc` (0 if absent).
    pub fn get(&self, doc: DocId) -> f32 {
        self.dims
            .binary_search(&doc)
            .map(|i| self.vals[i])
            .unwrap_or(0.0)
    }

    /// Component-wise sum.
    pub fn add(&self, other: &SparseVector) -> SparseVector {
        let mut out = SparseVector::with_capacity(self.nnz() + other.nnz());
        let (mut i, mut j) = (0, 0);
        while i < self.dims.len() && j < other.dims.len() {
            let (da, wa) = (self.dims[i], self.vals[i]);
            let (db, wb) = (other.dims[j], other.vals[j]);
            match da.cmp(&db) {
                std::cmp::Ordering::Less => {
                    out.dims.push(da);
                    out.vals.push(wa);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.dims.push(db);
                    out.vals.push(wb);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let w = wa + wb;
                    if w != 0.0 {
                        out.dims.push(da);
                        out.vals.push(w);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.dims.extend_from_slice(&self.dims[i..]);
        out.vals.extend_from_slice(&self.vals[i..]);
        out.dims.extend_from_slice(&other.dims[j..]);
        out.vals.extend_from_slice(&other.vals[j..]);
        out
    }

    /// Scales every component by `factor`.
    pub fn scale(&self, factor: f32) -> SparseVector {
        if factor == 0.0 {
            return SparseVector::zero();
        }
        SparseVector {
            dims: self.dims.clone(),
            vals: self.vals.iter().map(|w| w * factor).collect(),
        }
    }

    /// Dot product.
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let mut acc = 0.0f64;
        let (mut i, mut j) = (0, 0);
        while i < self.dims.len() && j < other.dims.len() {
            let da = self.dims[i];
            let db = other.dims[j];
            match da.cmp(&db) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.vals[i] as f64 * other.vals[j] as f64;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Squared L2 norm.
    pub fn norm_squared(&self) -> f64 {
        self.vals.iter().map(|w| (*w as f64) * (*w as f64)).sum()
    }

    /// L2 norm.
    pub fn norm(&self) -> f64 {
        self.norm_squared().sqrt()
    }

    /// Euclidean distance (Eq. 5), computed with a single sorted merge
    /// over the two dimension arrays; the disjoint tails reduce to tight
    /// sum-of-squares loops over the value arrays alone.
    pub fn euclidean_distance(&self, other: &SparseVector) -> f64 {
        let mut acc = 0.0f64;
        let (mut i, mut j) = (0, 0);
        while i < self.dims.len() && j < other.dims.len() {
            let da = self.dims[i];
            let db = other.dims[j];
            match da.cmp(&db) {
                std::cmp::Ordering::Less => {
                    acc += (self.vals[i] as f64).powi(2);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    acc += (other.vals[j] as f64).powi(2);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let d = self.vals[i] as f64 - other.vals[j] as f64;
                    acc += d * d;
                    i += 1;
                    j += 1;
                }
            }
        }
        for w in &self.vals[i..] {
            acc += (*w as f64).powi(2);
        }
        for w in &other.vals[j..] {
            acc += (*w as f64).powi(2);
        }
        acc.sqrt()
    }

    /// The Eq. 6 distance from the Gram identity,
    /// `d² = max(0, (‖a‖² + ‖b‖²) − 2·a·b)`: the form every relatedness
    /// path uses. The dot product sums the intersection products in
    /// ascending doc order, so the result is exactly symmetric; on unit
    /// vectors it agrees with [`Self::euclidean_distance`] (Eq. 5) to
    /// rounding, and identical vectors give exactly 0.
    pub fn gram_distance(&self, other: &SparseVector) -> f64 {
        gram_distance(self.norm_squared(), other.norm_squared(), self.dot(other))
    }

    /// Writes the weights into a dense row indexed by document id, the
    /// row side of [`Self::gram_distance_to_row`].
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the largest document id + 1.
    pub fn scatter(&self, row: &mut [f32]) {
        for (d, w) in self.iter() {
            row[d.index()] = w;
        }
    }

    /// Zeroes this vector's entries in a dense row written by
    /// [`Self::scatter`]; entries beyond the row's end are skipped, so a
    /// scatter that panicked part way can still be undone.
    pub fn unscatter(&self, row: &mut [f32]) {
        for d in self.support() {
            if let Some(w) = row.get_mut(d.index()) {
                *w = 0.0;
            }
        }
    }

    /// [`Self::gram_distance`] against a vector held in a dense row
    /// ([`Self::scatter`]) with squared norm `row_norm_squared`: one pass
    /// over `self` gathers `self · row` and sums `‖self‖²`. Both sums run
    /// in ascending doc order, and the products against absent (zero) row
    /// entries are exact no-ops, so the result is bit-identical to the
    /// merge form.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the largest document id + 1.
    pub fn gram_distance_to_row(&self, row: &[f32], row_norm_squared: f64) -> f64 {
        let (mut dot, mut norm_squared) = (0.0f64, 0.0f64);
        for (d, w) in self.iter() {
            let w = w as f64;
            dot += row[d.index()] as f64 * w;
            norm_squared += w * w;
        }
        gram_distance(row_norm_squared, norm_squared, dot)
    }

    /// Cosine similarity; 0 when either vector is zero.
    pub fn cosine(&self, other: &SparseVector) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }

    /// Returns a unit-norm copy (zero stays zero).
    pub fn normalized(&self) -> SparseVector {
        let n = self.norm();
        if n == 0.0 {
            SparseVector::zero()
        } else {
            self.scale((1.0 / n) as f32)
        }
    }

    /// Keeps only the components whose document id appears in `docs`
    /// (sorted slice) — the support-filtering half of thematic projection.
    pub fn restrict_to(&self, docs: &[DocId]) -> SparseVector {
        let mut out = SparseVector::default();
        let (mut i, mut j) = (0, 0);
        while i < self.dims.len() && j < docs.len() {
            match self.dims[i].cmp(&docs[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.dims.push(self.dims[i]);
                    out.vals.push(self.vals[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// The documents of the vector's support, in ascending order.
    pub fn support(&self) -> impl Iterator<Item = DocId> + '_ {
        self.dims.iter().copied()
    }
}

/// `sqrt(max(0, (‖a‖² + ‖b‖²) − 2·a·b))` from the Gram entries; see
/// [`SparseVector::gram_distance`]. The clamp absorbs the rounding
/// that can leave near-identical vectors a tiny negative square, and
/// yields `+0.0` for a zero square of either sign.
fn gram_distance(norm_squared_a: f64, norm_squared_b: f64, dot: f64) -> f64 {
    let squared = (norm_squared_a + norm_squared_b) - 2.0 * dot;
    if squared > 0.0 {
        squared.sqrt()
    } else {
        0.0
    }
}

impl FromIterator<(DocId, f32)> for SparseVector {
    fn from_iter<T: IntoIterator<Item = (DocId, f32)>>(iter: T) -> SparseVector {
        SparseVector::from_unsorted(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(entries: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_unsorted(entries.iter().map(|(d, w)| (DocId(*d), *w)).collect())
    }

    fn pairs(x: &SparseVector) -> Vec<(DocId, f32)> {
        x.iter().collect()
    }

    #[test]
    fn from_unsorted_sorts_and_merges() {
        let x = v(&[(3, 1.0), (1, 2.0), (3, 0.5)]);
        assert_eq!(pairs(&x), vec![(DocId(1), 2.0), (DocId(3), 1.5)]);
    }

    #[test]
    fn zero_weights_dropped() {
        let x = v(&[(1, 0.0), (2, 1.0)]);
        assert_eq!(x.nnz(), 1);
        assert!(!x.is_zero());
        assert!(v(&[]).is_zero());
    }

    #[test]
    fn dims_and_vals_stay_parallel() {
        let x = v(&[(5, 2.0), (1, 1.0), (9, 3.0)]);
        assert_eq!(x.dims(), &[DocId(1), DocId(5), DocId(9)]);
        assert_eq!(x.vals(), &[1.0, 2.0, 3.0]);
        assert_eq!(x.dims().len(), x.vals().len());
    }

    #[test]
    fn get_returns_weight_or_zero() {
        let x = v(&[(1, 2.0), (5, 3.0)]);
        assert_eq!(x.get(DocId(5)), 3.0);
        assert_eq!(x.get(DocId(2)), 0.0);
    }

    #[test]
    fn add_merges_supports() {
        let x = v(&[(1, 1.0), (3, 2.0)]);
        let y = v(&[(2, 5.0), (3, -2.0)]);
        let s = x.add(&y);
        assert_eq!(pairs(&s), vec![(DocId(1), 1.0), (DocId(2), 5.0)]);
    }

    #[test]
    fn dot_and_norm() {
        let x = v(&[(1, 3.0), (2, 4.0)]);
        assert_eq!(x.norm(), 5.0);
        let y = v(&[(2, 2.0), (7, 10.0)]);
        assert_eq!(x.dot(&y), 8.0);
    }

    #[test]
    fn euclidean_distance_matches_dense_computation() {
        let x = v(&[(1, 1.0), (2, 2.0)]);
        let y = v(&[(2, 4.0), (3, 2.0)]);
        // dense: (1-0)^2 + (2-4)^2 + (0-2)^2 = 1 + 4 + 4 = 9
        assert!((x.euclidean_distance(&y) - 3.0).abs() < 1e-9);
        assert_eq!(x.euclidean_distance(&x), 0.0);
    }

    #[test]
    fn distance_to_zero_is_norm() {
        let x = v(&[(1, 3.0), (2, 4.0)]);
        assert!((x.euclidean_distance(&SparseVector::zero()) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_bounds_and_zero_behaviour() {
        let x = v(&[(1, 1.0)]);
        let y = v(&[(2, 1.0)]);
        assert_eq!(x.cosine(&y), 0.0);
        assert!((x.cosine(&x) - 1.0).abs() < 1e-9);
        assert_eq!(SparseVector::zero().cosine(&x), 0.0);
    }

    #[test]
    fn restrict_to_intersects_support() {
        let x = v(&[(1, 1.0), (3, 2.0), (5, 3.0)]);
        let r = x.restrict_to(&[DocId(3), DocId(4), DocId(5)]);
        assert_eq!(pairs(&r), vec![(DocId(3), 2.0), (DocId(5), 3.0)]);
    }

    #[test]
    fn normalized_has_unit_norm() {
        let x = v(&[(1, 3.0), (2, 4.0)]);
        assert!((x.normalized().norm() - 1.0).abs() < 1e-6);
        assert!(SparseVector::zero().normalized().is_zero());
    }

    #[test]
    fn scale_by_zero_is_zero() {
        let x = v(&[(1, 3.0)]);
        assert!(x.scale(0.0).is_zero());
        assert_eq!(x.scale(2.0).get(DocId(1)), 6.0);
    }

    #[test]
    fn collect_from_iterator() {
        let x: SparseVector = vec![(DocId(2), 1.0), (DocId(1), 1.0)].into_iter().collect();
        assert_eq!(x.support().collect::<Vec<_>>(), vec![DocId(1), DocId(2)]);
    }

    /// The pair-based (array-of-structs) reference implementation the SoA
    /// kernels replaced, preserved verbatim so the property tests below
    /// can assert **bit-identical** results on arbitrary inputs.
    mod reference {
        use super::DocId;

        pub struct RefVector {
            pub entries: Vec<(DocId, f32)>,
        }

        impl RefVector {
            pub fn from_unsorted(mut entries: Vec<(DocId, f32)>) -> RefVector {
                entries.sort_by_key(|(d, _)| *d);
                let mut out: Vec<(DocId, f32)> = Vec::with_capacity(entries.len());
                for (d, w) in entries {
                    match out.last_mut() {
                        Some((last, acc)) if *last == d => *acc += w,
                        _ => out.push((d, w)),
                    }
                }
                out.retain(|(_, w)| *w != 0.0);
                RefVector { entries: out }
            }

            pub fn add(&self, other: &RefVector) -> RefVector {
                let mut out = Vec::with_capacity(self.entries.len() + other.entries.len());
                let (mut i, mut j) = (0, 0);
                while i < self.entries.len() && j < other.entries.len() {
                    let (da, wa) = self.entries[i];
                    let (db, wb) = other.entries[j];
                    match da.cmp(&db) {
                        std::cmp::Ordering::Less => {
                            out.push((da, wa));
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            out.push((db, wb));
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            let w = wa + wb;
                            if w != 0.0 {
                                out.push((da, w));
                            }
                            i += 1;
                            j += 1;
                        }
                    }
                }
                out.extend_from_slice(&self.entries[i..]);
                out.extend_from_slice(&other.entries[j..]);
                RefVector { entries: out }
            }

            pub fn euclidean_distance(&self, other: &RefVector) -> f64 {
                let mut acc = 0.0f64;
                let (mut i, mut j) = (0, 0);
                while i < self.entries.len() && j < other.entries.len() {
                    let (da, wa) = self.entries[i];
                    let (db, wb) = other.entries[j];
                    match da.cmp(&db) {
                        std::cmp::Ordering::Less => {
                            acc += (wa as f64).powi(2);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            acc += (wb as f64).powi(2);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            let d = wa as f64 - wb as f64;
                            acc += d * d;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                for (_, w) in &self.entries[i..] {
                    acc += (*w as f64).powi(2);
                }
                for (_, w) in &other.entries[j..] {
                    acc += (*w as f64).powi(2);
                }
                acc.sqrt()
            }

            pub fn dot(&self, other: &RefVector) -> f64 {
                let mut acc = 0.0f64;
                let (mut i, mut j) = (0, 0);
                while i < self.entries.len() && j < other.entries.len() {
                    let (da, wa) = self.entries[i];
                    let (db, wb) = other.entries[j];
                    match da.cmp(&db) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            acc += wa as f64 * wb as f64;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                acc
            }

            pub fn norm(&self) -> f64 {
                self.entries
                    .iter()
                    .map(|(_, w)| (*w as f64) * (*w as f64))
                    .sum::<f64>()
                    .sqrt()
            }

            pub fn normalized(&self) -> RefVector {
                let n = self.norm();
                if n == 0.0 {
                    return RefVector {
                        entries: Vec::new(),
                    };
                }
                let f = (1.0 / n) as f32;
                RefVector {
                    entries: self.entries.iter().map(|(d, w)| (*d, w * f)).collect(),
                }
            }

            pub fn restrict_to(&self, docs: &[DocId]) -> RefVector {
                let mut out = Vec::new();
                let (mut i, mut j) = (0, 0);
                while i < self.entries.len() && j < docs.len() {
                    let (d, w) = self.entries[i];
                    match d.cmp(&docs[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push((d, w));
                            i += 1;
                            j += 1;
                        }
                    }
                }
                RefVector { entries: out }
            }
        }
    }

    /// Deterministic splitmix64 for the property inputs (the workspace's
    /// vendored rand is available, but a local generator keeps the case
    /// list reproducible from the seed printed on failure).
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        fn vector(&mut self, max_nnz: usize, dim_range: u32) -> Vec<(DocId, f32)> {
            let n = (self.next() as usize) % (max_nnz + 1);
            (0..n)
                .map(|_| {
                    let d = DocId((self.next() as u32) % dim_range);
                    // Mixed-sign, mixed-magnitude weights, occasional zero.
                    let w = match self.next() % 8 {
                        0 => 0.0,
                        k => ((self.next() % 2_000) as f32 - 1_000.0) / (10f32.powi(k as i32 % 4)),
                    };
                    (d, w)
                })
                .collect()
        }
    }

    #[test]
    fn property_soa_kernels_are_bit_identical_to_pair_reference() {
        use reference::RefVector;
        let mut rng = Mix(0x5EED_CAFE);
        for case in 0..500 {
            let ea = rng.vector(48, 64);
            let eb = rng.vector(48, 64);
            let (a, b) = (
                SparseVector::from_unsorted(ea.clone()),
                SparseVector::from_unsorted(eb.clone()),
            );
            let (ra, rb) = (
                RefVector::from_unsorted(ea.clone()),
                RefVector::from_unsorted(eb.clone()),
            );
            // Construction agrees entry-for-entry.
            assert_eq!(pairs(&a), ra.entries, "case {case}: construction");
            // Distance, dot, and norm are bit-identical.
            assert_eq!(
                a.euclidean_distance(&b).to_bits(),
                ra.euclidean_distance(&rb).to_bits(),
                "case {case}: distance"
            );
            assert_eq!(a.dot(&b).to_bits(), ra.dot(&rb).to_bits(), "case {case}");
            assert_eq!(a.norm().to_bits(), ra.norm().to_bits(), "case {case}");
            // Merge-based sum agrees entry-for-entry (bitwise weights).
            let sum = a.add(&b);
            let rsum = ra.add(&rb);
            assert_eq!(sum.nnz(), rsum.entries.len(), "case {case}: add nnz");
            for ((d1, w1), (d2, w2)) in sum.iter().zip(&rsum.entries) {
                assert_eq!(d1, *d2, "case {case}: add dim");
                assert_eq!(w1.to_bits(), w2.to_bits(), "case {case}: add weight");
            }
            // Normalization (the projection cache's post-processing step).
            let na = a.normalized();
            let rna = ra.normalized();
            for ((d1, w1), (d2, w2)) in na.iter().zip(&rna.entries) {
                assert_eq!(d1, *d2);
                assert_eq!(w1.to_bits(), w2.to_bits(), "case {case}: normalize");
            }
            // Support restriction (the filtering half of projection).
            let mut docs: Vec<DocId> = (0..16).map(|_| DocId((rng.next() as u32) % 64)).collect();
            docs.sort();
            docs.dedup();
            let restricted = a.restrict_to(&docs);
            let rrestricted = ra.restrict_to(&docs);
            assert_eq!(pairs(&restricted), rrestricted.entries, "case {case}");
        }
    }

    /// The Gram distance through a dense row, the way the PVSM hot path
    /// runs it: `a` scattered, `b` gathered.
    fn gather_distance(a: &SparseVector, b: &SparseVector) -> f64 {
        let mut row = vec![0.0f32; 64];
        a.scatter(&mut row);
        let d = b.gram_distance_to_row(&row, a.norm_squared());
        a.unscatter(&mut row);
        assert!(row.iter().all(|w| *w == 0.0), "unscatter restores the row");
        d
    }

    fn reference_distance(a: &SparseVector, b: &SparseVector) -> f64 {
        use reference::RefVector;
        RefVector::from_unsorted(pairs(a)).euclidean_distance(&RefVector::from_unsorted(pairs(b)))
    }

    #[test]
    fn property_gram_gather_equals_merge_is_symmetric_and_matches_eq5() {
        let mut rng = Mix(0x6EA7_0E5D);
        for case in 0..500 {
            let a = SparseVector::from_unsorted(rng.vector(48, 64));
            let b = SparseVector::from_unsorted(rng.vector(48, 64));
            let merge = a.gram_distance(&b);
            assert_eq!(
                gather_distance(&a, &b).to_bits(),
                merge.to_bits(),
                "case {case}: gather vs merge"
            );
            assert_eq!(
                b.gram_distance(&a).to_bits(),
                merge.to_bits(),
                "case {case}: symmetry"
            );
            assert_eq!(
                gather_distance(&b, &a).to_bits(),
                merge.to_bits(),
                "case {case}: symmetry through the row"
            );
            let (na, nb) = (a.normalized(), b.normalized());
            let gram = na.gram_distance(&nb);
            let eq5 = reference_distance(&na, &nb);
            assert!(
                (gram - eq5).abs() < 1e-12,
                "case {case}: gram {gram} vs Eq. 5 {eq5}"
            );
        }
    }

    #[test]
    fn gram_distance_edge_cases() {
        let a = v(&[(1, 3.0), (4, 4.0), (9, 1.5)]).normalized();
        // Identical vectors clamp to exactly zero, through either form.
        assert_eq!(a.gram_distance(&a), 0.0);
        assert_eq!(gather_distance(&a, &a), 0.0);
        // Disjoint supports: d² = ‖a‖² + ‖b‖², so √2 for unit vectors.
        let b = v(&[(2, 1.0), (7, 2.0)]).normalized();
        let d = a.gram_distance(&b);
        assert_eq!(d.to_bits(), gather_distance(&a, &b).to_bits());
        assert!((d - reference_distance(&a, &b)).abs() < 1e-12);
        assert!((d - 2f64.sqrt()).abs() < 1e-6);
        // One-entry vectors, on the same and on different documents.
        let (x, y, z) = (v(&[(5, 0.6)]), v(&[(5, 0.8)]), v(&[(6, 0.8)]));
        for (p, q) in [(&x, &y), (&x, &z), (&y, &z)] {
            let d = p.gram_distance(q);
            assert_eq!(d.to_bits(), q.gram_distance(p).to_bits());
            assert_eq!(d.to_bits(), gather_distance(p, q).to_bits());
            assert!((d - reference_distance(p, q)).abs() < 1e-12);
        }
        // The zero vector is at distance ‖a‖.
        let zero = SparseVector::zero();
        assert_eq!(
            zero.gram_distance(&a).to_bits(),
            a.gram_distance(&zero).to_bits()
        );
        assert!((zero.gram_distance(&a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn scatter_past_the_row_end_panics_and_unscatter_still_clears() {
        let a = v(&[(1, 1.0), (3, 2.0), (70, 3.0)]);
        let mut row = vec![0.0f32; 64];
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.scatter(&mut row);
        }));
        assert!(panicked.is_err());
        assert_eq!((row[1], row[3]), (1.0, 2.0), "the in-range prefix landed");
        a.unscatter(&mut row);
        assert!(row.iter().all(|w| *w == 0.0));
    }
}
