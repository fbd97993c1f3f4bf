//! Columnar tuple storage: many fixed-arity rows in one flat allocation.
//!
//! [`crate::Tuple`] is the paper-faithful *atomic* tuple — a boxed slice,
//! cloned and moved whole. That model is exactly right for the load
//! accounting but wrong for wall-clock: a relation of a million 2-ary tuples
//! is a million 16-byte heap allocations chased through pointers. A
//! [`TupleBlock`] stores the same rows as one flat `Vec<u64>` with a fixed
//! arity, so iteration is a linear scan, projection writes straight into
//! another block, and sort/dedup permute indices instead of boxing rows.
//!
//! Blocks are the unit of storage and exchange of the **data plane**
//! (`aj_mpc::Net::exchange_rows` moves blocks between servers with a radix
//! counting/scatter pass); the `Tuple` API remains the public surface, with
//! [`TupleBlock::from_tuples`] / [`TupleBlock::to_tuples`] conversions at
//! the boundary.

use crate::tuple::{Tuple, Value};

/// A block of fixed-arity rows stored back-to-back in one flat `Vec<u64>`.
///
/// Row `i` occupies `data[i*arity .. (i+1)*arity]`. The row count is stored
/// explicitly so 0-ary rows (the unit tuple of full-aggregation queries)
/// work too.
///
/// ```
/// use aj_relation::TupleBlock;
///
/// let mut block = TupleBlock::with_capacity(2, 3);
/// block.push_row(&[2, 20]);
/// block.push_row(&[1, 10]);
/// block.push_row(&[2, 20]);
/// assert_eq!(block.len(), 3);
/// assert_eq!(block.row(1), &[1, 10]);
///
/// // In-place sort + dedup, no per-row allocation.
/// block.sort_dedup();
/// assert_eq!(block.len(), 2);
///
/// // Projection writes straight into another block.
/// let mut keys = TupleBlock::new(1);
/// block.project_into(&[0], &mut keys);
/// assert_eq!(keys.iter().map(|r| r[0]).collect::<Vec<_>>(), vec![1, 2]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct TupleBlock {
    arity: usize,
    rows: usize,
    data: Vec<Value>,
}

impl TupleBlock {
    /// An empty block of the given arity.
    pub fn new(arity: usize) -> Self {
        TupleBlock {
            arity,
            rows: 0,
            data: Vec::new(),
        }
    }

    /// An empty block with room for `rows` rows.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        TupleBlock {
            arity,
            rows: 0,
            data: Vec::with_capacity(arity * rows),
        }
    }

    /// Wrap an existing flat buffer (`values.len()` must be a multiple of
    /// `arity`; for `arity == 0` the buffer must be empty and the block has
    /// zero rows — use [`TupleBlock::push_empty_rows`] to add 0-ary rows).
    ///
    /// # Panics
    /// Panics if the buffer length is not a whole number of rows.
    pub fn from_values(arity: usize, values: Vec<Value>) -> Self {
        let rows = if arity == 0 {
            assert!(values.is_empty(), "0-ary block from non-empty buffer");
            0
        } else {
            assert_eq!(values.len() % arity, 0, "partial row in flat buffer");
            values.len() / arity
        };
        TupleBlock {
            arity,
            rows,
            data: values,
        }
    }

    /// Build a block from tuples (all must have arity `arity`).
    pub fn from_tuples<'a>(arity: usize, tuples: impl IntoIterator<Item = &'a Tuple>) -> Self {
        let mut b = TupleBlock::new(arity);
        for t in tuples {
            b.push_row(t.values());
        }
        b
    }

    /// Materialize every row as an owned [`Tuple`] (the boundary back to the
    /// atomic-tuple API; allocates one box per row by definition).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.iter().map(Tuple::new).collect()
    }

    /// Row width.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the block holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The flat value buffer (row-major).
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.data
    }

    /// Row `i` as a value slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        debug_assert!(i < self.rows);
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics (debug) if `row.len() != self.arity()`.
    #[inline]
    pub fn push_row(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.arity, "row arity mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Append `n` 0-ary rows (only meaningful for `arity == 0`).
    ///
    /// # Panics
    /// Panics if the block is not 0-ary.
    pub fn push_empty_rows(&mut self, n: usize) {
        assert_eq!(self.arity, 0, "push_empty_rows on a non-0-ary block");
        self.rows += n;
    }

    /// Append every row of `other` (arities must match).
    pub fn extend_from_block(&mut self, other: &TupleBlock) {
        assert_eq!(self.arity, other.arity, "block arity mismatch");
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Remove all rows, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
        self.rows = 0;
    }

    /// Iterate over rows as value slices (no allocation).
    pub fn iter(&self) -> BlockIter<'_> {
        BlockIter { block: self, i: 0 }
    }

    /// Project every row onto `positions` (in that order), appending the
    /// results to `out`. `out.arity()` must equal `positions.len()`; no
    /// per-row allocation happens — this is the block form of
    /// [`Tuple::project`].
    ///
    /// # Panics
    /// Panics (debug) on arity mismatch or an out-of-range position.
    pub fn project_into(&self, positions: &[usize], out: &mut TupleBlock) {
        debug_assert_eq!(out.arity, positions.len(), "projection arity mismatch");
        out.data.reserve(self.rows * positions.len());
        for i in 0..self.rows {
            let row = &self.data[i * self.arity..(i + 1) * self.arity];
            for &p in positions {
                out.data.push(row[p]);
            }
        }
        out.rows += self.rows;
    }

    /// Sort rows lexicographically **in place** at every arity. Rows are
    /// never boxed: common arities (≤ 4) sort the flat buffer directly as
    /// fixed-width chunks; wider rows sort a row-index permutation and then
    /// apply it by cycle-following row moves through a single row-sized
    /// scratch buffer — peak extra memory is one row plus the permutation,
    /// never a second copy of the block.
    pub fn sort_rows(&mut self) {
        fn sort_fixed<const N: usize>(data: &mut [Value]) {
            let (rows, rest) = data.as_chunks_mut::<N>();
            debug_assert!(rest.is_empty(), "a block holds whole rows");
            rows.sort_unstable();
        }
        match self.arity {
            0 => {}
            1 => self.data.sort_unstable(),
            2 => sort_fixed::<2>(&mut self.data),
            3 => sort_fixed::<3>(&mut self.data),
            4 => sort_fixed::<4>(&mut self.data),
            a => {
                // order[i] = index of the row that belongs at position i.
                let mut order: Vec<u32> = (0..self.rows as u32).collect();
                {
                    let data = &self.data;
                    order.sort_unstable_by(|&x, &y| {
                        data[x as usize * a..(x as usize + 1) * a]
                            .cmp(&data[y as usize * a..(y as usize + 1) * a])
                    });
                }
                let mut scratch = vec![0u64; a];
                let mut placed = vec![false; self.rows];
                for start in 0..self.rows {
                    if placed[start] {
                        continue;
                    }
                    placed[start] = true;
                    if order[start] as usize == start {
                        continue;
                    }
                    // Rotate the cycle through `start`: hold the evicted row
                    // in scratch, pull each slot's source row forward, and
                    // drop the held row into the cycle's last slot.
                    scratch.copy_from_slice(&self.data[start * a..(start + 1) * a]);
                    let mut dst = start;
                    loop {
                        let src = order[dst] as usize;
                        if src == start {
                            self.data[dst * a..(dst + 1) * a].copy_from_slice(&scratch);
                            break;
                        }
                        self.data.copy_within(src * a..(src + 1) * a, dst * a);
                        placed[src] = true;
                        dst = src;
                    }
                }
            }
        }
    }

    /// Remove adjacent duplicate rows in place (sort first for global
    /// dedup). Compacts with `copy_within`; no allocation.
    pub fn dedup_rows(&mut self) {
        if self.rows <= 1 {
            return;
        }
        if self.arity == 0 {
            self.rows = 1;
            return;
        }
        let a = self.arity;
        let mut kept = 1usize; // row 0 always stays
        for i in 1..self.rows {
            let (prev, cur) = (kept - 1, i);
            let duplicate = {
                let p = &self.data[prev * a..(prev + 1) * a];
                let c = &self.data[cur * a..(cur + 1) * a];
                p == c
            };
            if !duplicate {
                if kept != i {
                    self.data.copy_within(i * a..(i + 1) * a, kept * a);
                }
                kept += 1;
            }
        }
        self.data.truncate(kept * a);
        self.rows = kept;
    }

    /// Sort and globally dedup (set semantics) in one call.
    pub fn sort_dedup(&mut self) {
        self.sort_rows();
        self.dedup_rows();
    }
}

impl std::fmt::Debug for TupleBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TupleBlock[{}×{}]{{", self.rows, self.arity)?;
        for (i, row) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            if i >= 8 {
                write!(f, "…")?;
                break;
            }
            write!(f, "{row:?}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the rows of a [`TupleBlock`] as value slices.
pub struct BlockIter<'a> {
    block: &'a TupleBlock,
    i: usize,
}

impl<'a> Iterator for BlockIter<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        if self.i >= self.block.rows {
            return None;
        }
        let a = self.block.arity;
        let r = &self.block.data[self.i * a..(self.i + 1) * a];
        self.i += 1;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.block.rows - self.i;
        (left, Some(left))
    }
}

impl ExactSizeIterator for BlockIter<'_> {}

impl<'a> IntoIterator for &'a TupleBlock {
    type Item = &'a [Value];
    type IntoIter = BlockIter<'a>;
    fn into_iter(self) -> BlockIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(rows: &[&[Value]]) -> TupleBlock {
        let arity = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut b = TupleBlock::new(arity);
        for r in rows {
            b.push_row(r);
        }
        b
    }

    #[test]
    fn push_and_iterate() {
        let b = block(&[&[1, 2], &[3, 4], &[5, 6]]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.arity(), 2);
        assert_eq!(b.row(1), &[3, 4]);
        let rows: Vec<&[Value]> = b.iter().collect();
        assert_eq!(rows, vec![&[1u64, 2][..], &[3, 4], &[5, 6]]);
        assert_eq!(b.iter().len(), 3);
    }

    #[test]
    fn tuple_round_trip() {
        let tuples = vec![Tuple::from([9, 1]), Tuple::from([2, 8])];
        let b = TupleBlock::from_tuples(2, &tuples);
        assert_eq!(b.to_tuples(), tuples);
    }

    #[test]
    fn project_into_reorders_and_appends() {
        let b = block(&[&[10, 20, 30], &[40, 50, 60]]);
        let mut out = TupleBlock::new(2);
        b.project_into(&[2, 0], &mut out);
        assert_eq!(out.row(0), &[30, 10]);
        assert_eq!(out.row(1), &[60, 40]);
        // Appending again grows the same block.
        b.project_into(&[2, 0], &mut out);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn sort_and_dedup_match_tuple_semantics() {
        let mut b = block(&[&[3, 1], &[1, 2], &[3, 1], &[1, 1]]);
        b.sort_dedup();
        let got = b.to_tuples();
        let mut want = vec![
            Tuple::from([3, 1]),
            Tuple::from([1, 2]),
            Tuple::from([3, 1]),
            Tuple::from([1, 1]),
        ];
        want.sort_unstable();
        want.dedup();
        assert_eq!(got, want);
    }

    #[test]
    fn sort_arity_one_and_zero() {
        let mut b = block(&[&[5], &[1], &[5], &[3]]);
        b.sort_dedup();
        assert_eq!(b.values(), &[1, 3, 5]);
        let mut z = TupleBlock::new(0);
        z.push_empty_rows(4);
        assert_eq!(z.len(), 4);
        z.sort_dedup();
        assert_eq!(z.len(), 1);
    }

    #[test]
    fn wide_arity_sorts_in_place() {
        // Arity 6 exercises the cycle-following permutation path.
        let n = 257u64;
        let mut b = TupleBlock::new(6);
        for i in 0..n {
            let x = (i * 131) % n; // a full cycle over 0..n, descending-ish
            b.push_row(&[x % 7, x % 5, x, x + 1, x + 2, x + 3]);
        }
        let mut want = b.to_tuples();
        b.sort_rows();
        want.sort_unstable();
        assert_eq!(b.to_tuples(), want);
        b.dedup_rows();
        want.dedup();
        assert_eq!(b.to_tuples(), want);
    }

    #[test]
    fn from_values_and_back() {
        let b = TupleBlock::from_values(2, vec![1, 2, 3, 4]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.values(), [1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "partial row")]
    fn from_values_rejects_partial_rows() {
        TupleBlock::from_values(2, vec![1, 2, 3]);
    }

    #[test]
    fn extend_and_clear() {
        let mut a = block(&[&[1, 2]]);
        let b = block(&[&[3, 4], &[5, 6]]);
        a.extend_from_block(&b);
        assert_eq!(a.len(), 3);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.arity(), 2);
    }

    #[test]
    fn dedup_keeps_non_adjacent_duplicates_without_sort() {
        let mut b = block(&[&[1], &[2], &[1]]);
        b.dedup_rows();
        assert_eq!(b.len(), 3, "dedup is adjacent-only, like Vec::dedup");
    }

    #[test]
    fn debug_is_bounded() {
        let mut b = TupleBlock::new(1);
        for i in 0..100 {
            b.push_row(&[i]);
        }
        let s = format!("{b:?}");
        assert!(s.contains('…'));
    }
}
