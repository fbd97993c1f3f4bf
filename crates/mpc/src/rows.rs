//! Columnar exchange payloads: blocks of rows plus per-row destinations.
//!
//! The per-item [`crate::Net::exchange`] moves a `Vec<(dest, T)>` per
//! sender — every tuple is an owned allocation that gets pushed, moved, and
//! re-pushed. The block exchange ([`crate::Net::exchange_rows`]) moves
//! [`TupleBlock`]s instead: a sender hands over one flat buffer of rows and
//! one destination per row, and the router — one pass on the coordinating
//! thread, or per sender on the network backend — delivers per-receiver
//! blocks with a radix **counting pass** (per-destination row counts)
//! followed by one **scatter pass** into pre-sized per-destination blocks.
//! No per-tuple `Vec::push` of an owned tuple, no per-tuple clone — values
//! are `memcpy`d from flat buffer to flat buffer.

use aj_relation::delta::{decode_weight, encode_weight};
use aj_relation::{TupleBlock, Value};

use crate::ServerId;

/// One sender's contribution to a block exchange: `dests[i]` is the local
/// destination server of `rows.row(i)`. Rows needing replication appear once
/// per destination.
#[derive(Debug, Clone)]
pub struct RowOutbox {
    /// The rows this server sends, in send order.
    pub rows: TupleBlock,
    /// One destination per row.
    pub dests: Vec<ServerId>,
}

impl RowOutbox {
    /// An empty outbox of the given row arity.
    pub fn new(arity: usize) -> Self {
        RowOutbox {
            rows: TupleBlock::new(arity),
            dests: Vec::new(),
        }
    }

    /// An empty outbox with room for `rows` rows.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        RowOutbox {
            rows: TupleBlock::with_capacity(arity, rows),
            dests: Vec::with_capacity(rows),
        }
    }

    /// Queue one row for `dest`.
    #[inline]
    pub fn push(&mut self, dest: ServerId, row: &[u64]) {
        self.rows.push_row(row);
        self.dests.push(dest);
    }

    /// Number of queued rows.
    pub fn len(&self) -> usize {
        self.dests.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.dests.is_empty()
    }
}

/// One sender's contribution to a **delta exchange**
/// ([`crate::Net::exchange_deltas`]): *signed* rows — each row a payload of
/// `arity` values plus an insert/delete weight (`+1`/`-1`, or any exact
/// signed count). The weight rides as a trailing encoded column of the
/// staged block, so delta rounds reuse the radix [`TupleBlock`] exchange
/// unchanged: a signed row is one flat row, one `memcpy`, one load unit —
/// identical accounting to an unsigned row of the same payload (the sign is
/// part of the tuple's `O(log IN)` bits, not a second unit).
#[derive(Debug, Clone)]
pub struct DeltaOutbox {
    ob: RowOutbox,
    scratch: Vec<Value>,
}

impl DeltaOutbox {
    /// An empty outbox for signed rows of `arity` payload values.
    pub fn new(arity: usize) -> Self {
        DeltaOutbox {
            ob: RowOutbox::new(arity + 1),
            scratch: Vec::with_capacity(arity + 1),
        }
    }

    /// An empty outbox with room for `rows` signed rows.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        DeltaOutbox {
            ob: RowOutbox::with_capacity(arity + 1, rows),
            scratch: Vec::with_capacity(arity + 1),
        }
    }

    /// Queue one signed row for `dest`.
    #[inline]
    pub fn push(&mut self, dest: ServerId, row: &[Value], weight: i64) {
        self.scratch.clear();
        self.scratch.extend_from_slice(row);
        self.scratch.push(encode_weight(weight));
        self.ob.push(dest, &self.scratch);
    }

    /// Number of queued signed rows.
    pub fn len(&self) -> usize {
        self.ob.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ob.is_empty()
    }

    /// The staged block + destinations (payload arity + 1, weight trailing).
    pub(crate) fn into_row_outbox(self) -> RowOutbox {
        self.ob
    }
}

/// A received block of **signed rows** — what each server gets back from a
/// delta exchange. Payload values and the decoded weight are read side by
/// side from the flat buffer; nothing is re-boxed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaBlock {
    block: TupleBlock,
}

impl DeltaBlock {
    /// Wrap a block whose trailing column encodes signed weights.
    ///
    /// # Panics
    /// Panics if the block is 0-ary (no room for the weight column).
    pub fn from_block(block: TupleBlock) -> Self {
        assert!(block.arity() >= 1, "a delta block needs a weight column");
        DeltaBlock { block }
    }

    /// Payload arity (the weight column excluded).
    pub fn arity(&self) -> usize {
        self.block.arity() - 1
    }

    /// Number of signed rows.
    pub fn len(&self) -> usize {
        self.block.len()
    }

    /// True if the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.block.is_empty()
    }

    /// Signed row `i`: `(payload values, weight)`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[Value], i64) {
        let r = self.block.row(i);
        (&r[..r.len() - 1], decode_weight(r[r.len() - 1]))
    }

    /// Iterate `(payload, weight)` pairs in delivery order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], i64)> + '_ {
        self.block.iter().map(|r| {
            let (payload, w) = r.split_at(r.len() - 1);
            (payload, decode_weight(w[0]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_accumulates_rows() {
        let mut ob = RowOutbox::with_capacity(2, 4);
        assert!(ob.is_empty());
        ob.push(1, &[10, 20]);
        ob.push(0, &[30, 40]);
        assert_eq!(ob.len(), 2);
        assert_eq!(ob.rows.row(1), &[30, 40]);
        assert_eq!(ob.dests, vec![1, 0]);
    }
}
