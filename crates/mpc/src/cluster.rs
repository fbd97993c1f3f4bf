//! The cluster: server bookkeeping, the communication entry point, and the
//! round API the executors drive.

use aj_obs::{Event, ObsConfig, RoundKind, Trace};
use aj_relation::TupleBlock;

use crate::executor::{run_consuming, Execute, ParExecutor, SeqExecutor};
use crate::fault::{FaultPlan, FaultyTransport};
use crate::net_executor::{NetExecutor, WireRound};
use crate::rows::{DeltaBlock, DeltaOutbox, RowOutbox};
use crate::stats::{EpochStats, Stats};
use crate::transport::{ChanTransport, Transport};
use crate::wire::{Frame, FrameKind, Wire};

/// Identifier of a server. Within a [`Net`] view, server ids are *local*:
/// `0..net.p()`. The cluster translates them to absolute ids for accounting.
pub type ServerId = usize;

/// A simulated MPC cluster of `p` servers with load accounting.
///
/// A `Cluster` is inert by itself; obtain a [`Net`] view with
/// [`Cluster::net`] to communicate. The cluster owns an [`Execute`] backend
/// deciding whether per-server work (round closures) runs sequentially
/// ([`SeqExecutor`], the default) or on a thread pool ([`ParExecutor`], via
/// [`Cluster::new_parallel`]). Both backends produce identical results and
/// identical [`Stats`]; only wall-clock time differs.
#[derive(Debug)]
pub struct Cluster {
    p: usize,
    stats: Stats,
    executor: Box<dyn Execute>,
    /// Structured event trace; `None` (the default) records nothing and
    /// costs nothing on the round path.
    trace: Option<Trace>,
    /// Epoch boundaries seen since creation / [`Cluster::reset_stats`].
    epoch_index: u64,
    /// Last physical frame counters folded into the trace, so each round
    /// barrier records only the delta (network backends only).
    frames_seen: crate::net_executor::FrameStats,
}

impl Cluster {
    /// Create a cluster of `p >= 1` servers simulated sequentially.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        Cluster::with_executor(p, Box::new(SeqExecutor))
    }

    /// Create a cluster of `p >= 1` servers whose per-server work runs on
    /// the calling thread plus a pool of parked helpers, one thread per core
    /// in all ([`ParExecutor::new`]). Helpers join a compute region only
    /// while work remains, so tiny control rounds stay on the calling
    /// thread.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new_parallel(p: usize) -> Self {
        Cluster::with_executor(p, Box::new(ParExecutor::new()))
    }

    /// Create a cluster of `p >= 1` servers on the **network backend**: one
    /// independent worker thread per server, all cross-server data movement
    /// serialized through wire frames over the default in-process
    /// [`crate::ChanTransport`]. Results and [`Stats`] are bit-identical to
    /// [`Cluster::new`] (the conformance suite's oracle).
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new_net(p: usize) -> Self {
        Cluster::with_executor(p, Box::new(NetExecutor::new(p)))
    }

    /// Like [`Cluster::new_net`], with an explicit frame transport (e.g.
    /// [`crate::UdsTransport`] for real unix-domain sockets, or a test
    /// wrapper such as [`crate::ShuffleTransport`]).
    ///
    /// # Panics
    /// Panics if `p == 0` or the transport's endpoint count differs from `p`.
    pub fn new_net_with_transport(p: usize, transport: std::sync::Arc<dyn Transport>) -> Self {
        Cluster::with_executor(p, Box::new(NetExecutor::with_transport(p, transport)))
    }

    /// Like [`Cluster::new_net`], but every exchange runs the **reliable**
    /// ack/retransmit protocol (see `net_executor`): dropped, duplicated,
    /// delayed, and reordered frames are tolerated, logical [`Stats`] stay
    /// bit-identical to the fault-free run, and the recovery traffic is
    /// metered separately ([`crate::NetExecutor::wire_breakdown`]).
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new_net_reliable(p: usize) -> Self {
        Cluster::new_net_with_transport_reliable(p, std::sync::Arc::new(ChanTransport::new(p)))
    }

    /// Like [`Cluster::new_net_reliable`], with an explicit frame transport
    /// (e.g. a [`crate::FaultyTransport`] wrapper, or [`crate::UdsTransport`]
    /// for real unix-domain sockets).
    ///
    /// # Panics
    /// Panics if `p == 0` or the transport's endpoint count differs from `p`.
    pub fn new_net_with_transport_reliable(
        p: usize,
        transport: std::sync::Arc<dyn Transport>,
    ) -> Self {
        Cluster::with_executor(
            p,
            Box::new(NetExecutor::with_transport_reliable(p, transport)),
        )
    }

    /// A reliable network cluster whose in-process transport injects the
    /// faults of `plan` (see [`crate::FaultPlan`]): the standard harness of
    /// the fault conformance matrix.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new_net_faulty(p: usize, plan: FaultPlan) -> Self {
        Cluster::new_net_with_transport_reliable(
            p,
            std::sync::Arc::new(FaultyTransport::new(ChanTransport::new(p), plan)),
        )
    }

    /// Create a cluster with an explicit execution backend.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn with_executor(p: usize, executor: Box<dyn Execute>) -> Self {
        assert!(p >= 1, "a cluster needs at least one server");
        Cluster {
            p,
            stats: Stats::new(p),
            executor,
            trace: None,
            epoch_index: 0,
            frames_seen: crate::net_executor::FrameStats::default(),
        }
    }

    /// Number of servers.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The execution backend.
    pub fn executor(&self) -> &dyn Execute {
        self.executor.as_ref()
    }

    /// The root view spanning all `p` servers.
    pub fn net(&mut self) -> Net<'_> {
        let p = self.p;
        Net {
            cluster: self,
            lo: 0,
            stride: 1,
            len: p,
        }
    }

    /// Measured statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Reset all measurements (the data the caller holds is untouched).
    /// Also clears the round digest, discards the current epoch, and empties
    /// the event trace (tracing stays enabled if it was).
    pub fn reset_stats(&mut self) {
        self.stats = Stats::new(self.p);
        self.epoch_index = 0;
        if let Some(t) = &mut self.trace {
            t.clear();
        }
        // Pre-reset transport recovery traffic belongs to no traced round.
        self.sync_frames_seen();
    }

    /// Start recording structured events (see [`aj_obs::Trace`]). Replaces
    /// any previous trace. With tracing off — the default — the round path
    /// records nothing: zero events, zero allocation, pinned loads
    /// unchanged.
    pub fn enable_tracing(&mut self, cfg: ObsConfig) {
        self.trace = Some(Trace::new(cfg));
        self.sync_frames_seen();
    }

    /// Is structured tracing active?
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The recorded trace so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Detach and return the trace, disabling tracing.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Record a driver-side event into the trace (no-op when tracing is
    /// off). Engine layers use this for plan/maintenance decisions,
    /// checkpoint transitions, and bag materializations.
    pub fn trace_event(&mut self, event: Event) {
        if let Some(t) = &mut self.trace {
            t.record(event);
        }
    }

    /// Align the physical frame-counter snapshot with the executor, so the
    /// next traced round reports only traffic from here on.
    fn sync_frames_seen(&mut self) {
        self.frames_seen = self
            .executor
            .as_net()
            .map(NetExecutor::frame_stats)
            .unwrap_or_default();
    }

    /// Close the current stats **epoch** and open a new one, returning the
    /// interval's measurements: true per-interval max load, per-server
    /// peaks, messages and exchanges since the previous [`Cluster::epoch`]
    /// (or since creation / [`Cluster::reset_stats`] /
    /// [`Cluster::begin_epoch`]).
    ///
    /// Epochs are how a long-lived cluster attributes load to individual
    /// phases or queries: the cumulative [`Stats::max_load`] is monotone, so
    /// only an epoch can tell how much a *specific* interval contributed.
    pub fn epoch(&mut self) -> EpochStats {
        let closed = self.stats.roll_epoch();
        self.note_epoch(&closed);
        closed
    }

    /// Discard the current epoch accumulators and start a fresh epoch.
    /// Cumulative [`Stats`] are unaffected.
    pub fn begin_epoch(&mut self) {
        let closed = self.stats.roll_epoch();
        self.note_epoch(&closed);
    }

    /// Trace an epoch boundary. Boundaries are driver-side (the engine
    /// rolls epochs between rounds), so the event stream is identical on
    /// every backend.
    fn note_epoch(&mut self, closed: &EpochStats) {
        if let Some(t) = &mut self.trace {
            t.record(Event::EpochBoundary {
                index: self.epoch_index,
                exchanges: closed.exchanges,
                max_load: closed.max_load,
                total_messages: closed.total_messages,
            });
        }
        self.epoch_index += 1;
    }

    /// Does nothing. Load intervals are epochs ([`Cluster::epoch`]), whose
    /// accounting is O(1) in the number of rounds, so there is no round log
    /// to trim. Kept only for callers written against the older API.
    pub fn trim_round_log(&mut self) {}

    /// Record one communication round: `counts[s]` units received by absolute
    /// server `lo + s * stride`. Runs on the coordinating thread at the round
    /// barrier; on the wire arm the per-receiver counts themselves are
    /// computed concurrently, by the server thread that assembled each inbox.
    ///
    /// With tracing on, this barrier is also where the round's
    /// [`Event::Exchange`] is recorded — after every worker closure has
    /// returned, on the coordinator, so the logical event stream is
    /// bit-identical across backends — and where the network executor's
    /// physical frame counters are snapshotted into an [`Event::Transport`]
    /// delta (kept on the separate physical ring).
    fn record_round(&mut self, lo: usize, stride: usize, counts: &[u64], kind: RoundKind) {
        let seq = self.stats.exchanges;
        self.stats.record_round(lo, stride, counts);
        if self.trace.is_none() {
            return;
        }
        self.trace
            .as_mut()
            .expect("checked")
            .record(Event::Exchange {
                seq,
                kind,
                lo: lo as u64,
                stride: stride as u64,
                counts: counts.to_vec(),
            });
        if let Some(nx) = self.executor.as_net() {
            let now = nx.frame_stats();
            let delta = now.since(&self.frames_seen);
            if delta != crate::net_executor::FrameStats::default() {
                self.frames_seen = now;
                self.trace
                    .as_mut()
                    .expect("checked")
                    .record(Event::Transport {
                        retransmits: delta.retransmits,
                        acks: delta.acks,
                        dups: delta.dups,
                    });
            }
        }
    }

    /// Retire the current exchange sequence number after an **aborted**
    /// round (a server panicked mid-exchange, so [`Stats::exchanges`] was
    /// never advanced): records an empty zero-load round, burning the
    /// sequence number the aborted exchange used. Frames of the aborted
    /// exchange still in flight then carry a stale `seq` and are silently
    /// discarded by the reliable exchange protocol instead of corrupting
    /// the next round. Crash-recovery supervisors call this once per
    /// detected failure before resuming work; on a healthy cluster it is a
    /// harmless no-op round.
    pub fn fence_round(&mut self) {
        self.record_round(0, 1, &[], RoundKind::Fence);
    }
}

/// One sender's outbox as the one exchange ([`Net::route`]) sees it. A round
/// is a counting pass ([`count_units`]) that pre-sizes what a scatter pass
/// ([`Outbox::deliver`]) fills, and has two arms: in **memory** (`seq` and
/// `par`) all senders' outboxes are delivered at once; on the **wire**
/// ([`Net::route_wire`]) each sender delivers its own outbox into one
/// [`Wire`] body per destination and each receiver [`Outbox::reassemble`]s
/// the bodies of all senders. Both produce the same (sender, send-order)
/// delivery.
trait Outbox: Send + Sized {
    /// What one (sender, destination) frame carries — and, concatenated
    /// over all senders, what a receiver ends up with.
    type Body: Wire + Send;
    /// The tag of this outbox's data frames.
    const KIND: FrameKind;

    /// The destination of every unit, in send order.
    fn dests(&self) -> impl Iterator<Item = ServerId> + '_;

    /// Move the units of `outboxes`, taken in sender then send order, into
    /// one body per destination, pre-sized from `counts` (=
    /// [`count_units`] of the same outboxes).
    fn deliver(counts: &[u64], outboxes: Vec<Self>) -> Vec<Self::Body>;

    /// Concatenate the bodies received from senders `0..p`, in that order
    /// (each is decoded as the iterator yields it); also returns the number
    /// of units received.
    fn reassemble(bodies: impl Iterator<Item = Self::Body>) -> (Self::Body, u64);
}

impl<T: Send + Wire> Outbox for Vec<(ServerId, T)> {
    type Body = Vec<T>;
    const KIND: FrameKind = FrameKind::Items;

    fn dests(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.iter().map(|(dest, _)| *dest)
    }

    fn deliver(counts: &[u64], outboxes: Vec<Self>) -> Vec<Vec<T>> {
        let mut inbox: Vec<Vec<T>> = counts
            .iter()
            .map(|&c| Vec::with_capacity(c as usize))
            .collect();
        for msgs in outboxes {
            for (dest, item) in msgs {
                inbox[dest].push(item);
            }
        }
        inbox
    }

    fn reassemble(bodies: impl Iterator<Item = Vec<T>>) -> (Vec<T>, u64) {
        let mut inbox = Vec::new();
        for mut bucket in bodies {
            inbox.append(&mut bucket);
        }
        let count = inbox.len() as u64;
        (inbox, count)
    }
}

/// Rows are **radix-partitioned**: `deliver` `memcpy`s each row into its
/// destination's pre-sized flat [`TupleBlock`] — no per-tuple `Vec::push` of
/// an owned tuple, no clone. Every block carries its arity, and a receiver's
/// own block has the arity [`Net::exchange_rows`] validated, so `reassemble`
/// agreeing on one arity means agreeing on that one.
impl Outbox for RowOutbox {
    type Body = TupleBlock;
    const KIND: FrameKind = FrameKind::Rows;

    fn dests(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.dests.iter().copied()
    }

    fn deliver(counts: &[u64], outboxes: Vec<Self>) -> Vec<TupleBlock> {
        let arity = outboxes[0].rows.arity();
        let mut blocks: Vec<TupleBlock> = counts
            .iter()
            .map(|&c| TupleBlock::with_capacity(arity, c as usize))
            .collect();
        for ob in &outboxes {
            // (A 0-ary row is the empty slice: it moves no values but
            // still counts.)
            for (i, &d) in ob.dests.iter().enumerate() {
                blocks[d].push_row(ob.rows.row(i));
            }
        }
        blocks
    }

    fn reassemble(blocks: impl Iterator<Item = TupleBlock>) -> (TupleBlock, u64) {
        let blocks: Vec<TupleBlock> = blocks.collect();
        let total: usize = blocks.iter().map(TupleBlock::len).sum();
        let mut inbox = TupleBlock::with_capacity(blocks[0].arity(), total);
        for block in &blocks {
            inbox.extend_from_block(block);
        }
        (inbox, total as u64)
    }
}

/// The counting pass of a round: how many units of `outboxes` go to each
/// destination `0..p` — and the one place a destination is checked.
///
/// # Panics
/// Panics if any destination is `>= p`.
fn count_units<O: Outbox>(p: usize, outboxes: &[O]) -> Vec<u64> {
    let mut counts = vec![0u64; p];
    for ob in outboxes {
        for dest in ob.dests() {
            assert!(dest < p, "destination {dest} out of range (p = {p})");
            counts[dest] += 1;
        }
    }
    counts
}

/// A view over a (possibly strided) arithmetic progression of servers of a
/// [`Cluster`]: local server `i` is absolute server `lo + i·stride`.
///
/// All algorithms are written against `Net`, which lets a recursive algorithm
/// carve out disjoint sub-groups of servers ([`Net::sub`], [`Net::sub_strided`])
/// for parallel sub-problems — including the strided groups of a HyperCube
/// grid — while a single tracker keeps absolute per-server accounting.
#[derive(Debug)]
pub struct Net<'a> {
    cluster: &'a mut Cluster,
    lo: usize,
    stride: usize,
    len: usize,
}

impl Net<'_> {
    /// Number of servers visible through this view.
    pub fn p(&self) -> usize {
        self.len
    }

    /// Absolute id of the first server of this view (mostly for diagnostics).
    pub fn base(&self) -> usize {
        self.lo
    }

    /// The execution backend driving per-server work in this view.
    pub fn executor(&self) -> &dyn Execute {
        self.cluster.executor.as_ref()
    }

    /// A sub-view of `len` servers starting at local offset `lo`.
    ///
    /// # Panics
    /// Panics if the requested range does not fit in this view or `len == 0`.
    pub fn sub(&mut self, lo: usize, len: usize) -> Net<'_> {
        assert!(len >= 1, "sub-view needs at least one server");
        assert!(
            lo + len <= self.len,
            "sub-view [{lo}, {}) out of range (p = {})",
            lo + len,
            self.len
        );
        Net {
            lo: self.lo + lo * self.stride,
            stride: self.stride,
            len,
            cluster: self.cluster,
        }
    }

    /// A strided sub-view: local server `i` of the result is local server
    /// `lo + i·step` of `self`. Used for the per-dimension groups of a
    /// HyperCube grid (Theorem 3, Case 2).
    ///
    /// # Panics
    /// Panics if the progression leaves this view or `len == 0` / `step == 0`.
    pub fn sub_strided(&mut self, lo: usize, step: usize, len: usize) -> Net<'_> {
        assert!(len >= 1 && step >= 1, "invalid strided view");
        assert!(
            lo + (len - 1) * step < self.len,
            "strided view lo={lo} step={step} len={len} leaves p={}",
            self.len
        );
        Net {
            lo: self.lo + lo * self.stride,
            stride: self.stride * step,
            len,
            cluster: self.cluster,
        }
    }

    /// One communication round.
    ///
    /// `outbox[s]` holds the messages *sent* by local server `s` as
    /// `(destination, item)` pairs with `destination < self.p()`. Returns the
    /// received messages, one `Vec` per local server, in deterministic order
    /// (by sender, then send order) regardless of the executor. Each item
    /// counts as one load unit at the receiver; senders are not charged (the
    /// MPC model only bounds incoming traffic).
    ///
    /// # Panics
    /// Panics if `outbox.len() != self.p()` or any destination is out of
    /// range.
    pub fn exchange<T: Send + Wire>(&mut self, outbox: Vec<Vec<(ServerId, T)>>) -> Vec<Vec<T>> {
        self.route(outbox, RoundKind::Items)
    }

    /// The one exchange behind [`Net::exchange`], [`Net::exchange_rows`] and
    /// [`Net::exchange_deltas`]: count (and so check) the outbox, move it —
    /// through the wire on the network backend ([`Net::route_wire`]), else
    /// in memory on the coordinating thread ([`Outbox::deliver`], on `seq`
    /// and `par` alike: a [`ParExecutor`] parallelises compute regions, not
    /// routing) — and record the round.
    fn route<O: Outbox>(&mut self, outbox: Vec<O>, kind: RoundKind) -> Vec<O::Body> {
        let p = self.len;
        assert_eq!(
            outbox.len(),
            p,
            "outbox must have exactly one entry per server"
        );
        // Before either arm moves anything: on the wire, a server that dies
        // on a bad destination before sending would leave its peers blocked
        // in `recv`.
        let sent = count_units(p, &outbox);
        let (inbox, counts) = match self.cluster.executor.as_net() {
            // Charged as received: each receiver counts what the wire
            // delivered to it.
            Some(nx) => self.route_wire(nx, outbox),
            None => (O::deliver(&sent, outbox), sent),
        };
        self.cluster
            .record_round(self.lo, self.stride, &counts, kind);
        inbox
    }

    /// The wire arm of [`Net::route`] ([`NetExecutor`] only): every server
    /// of the view — concurrently, each on its own thread — splits its
    /// outbox into one [`Wire`] body per destination ([`Outbox::deliver`]
    /// over that one sender), serializes each into a [`Frame`] (one frame
    /// per destination, empty bodies included), pushes them through the
    /// transport, then receives exactly `p` frames and reassembles its inbox
    /// **by sender id** ([`Outbox::reassemble`]), so the delivery order is
    /// (sender, send-order) — bit-identical to the memory arm — no matter in
    /// which order frames arrived. Frames carry the cluster's exchange
    /// counter as a sequence number, asserted on receive.
    ///
    /// Received-unit counts are computed per receiver on its worker and
    /// merged into [`Stats`] by the coordinator at the round barrier.
    fn route_wire<O: Outbox>(&self, nx: &NetExecutor, outbox: Vec<O>) -> (Vec<O::Body>, Vec<u64>) {
        let p = self.len;
        let done = std::sync::atomic::AtomicUsize::new(0);
        let round = WireRound {
            lo: self.lo,
            stride: self.stride,
            len: p,
            kind: O::KIND,
            seq: self.cluster.stats.exchanges,
            done: &done,
        };
        let pinned = |n, task: &(dyn Fn(usize) + Sync)| nx.run_pinned(n, &|i| round.abs(i), task);
        let delivered = run_consuming(pinned, outbox, |s, ob: O| {
            let from = round.abs(s) as u64;
            let per_dest = count_units(p, std::slice::from_ref(&ob));
            let outgoing = O::deliver(&per_dest, vec![ob])
                .into_iter()
                .map(|body| Frame::new(O::KIND, round.seq, from, &body))
                .collect();
            // Send, (reliably) receive, validate, and order by sender — all
            // inside the executor's exchange protocol.
            let frames = nx.exchange_frames(round, s, outgoing);
            O::reassemble(frames.into_iter().map(|f| f.decode_body()))
        });
        delivered.into_iter().unzip()
    }

    /// One communication round moving **blocks** (the columnar data plane):
    /// `outbox[s]` holds the rows sent by local server `s` with one
    /// destination per row ([`RowOutbox`]); rows needing replication appear
    /// once per destination. Returns one [`TupleBlock`] per receiver with
    /// rows in deterministic (sender, send-order) order — the exact order
    /// [`Net::exchange`] would deliver the same tuples in — and charges one
    /// load unit per row, identically to the per-item exchange.
    ///
    /// Routing is **radix-partitioned**: a counting pass computes
    /// per-destination row counts, then a single scatter pass `memcpy`s each
    /// row into its receiver's pre-sized flat buffer — no per-tuple
    /// `Vec::push` or clone.
    ///
    /// # Panics
    /// Panics if `outbox.len() != self.p()`, a sender block's arity differs
    /// from `arity`, a sender's `dests` length differs from its row count,
    /// or any destination is out of range.
    pub fn exchange_rows(&mut self, arity: usize, outbox: Vec<RowOutbox>) -> Vec<TupleBlock> {
        for ob in &outbox {
            assert_eq!(ob.rows.arity(), arity, "sender block arity mismatch");
            assert_eq!(ob.rows.len(), ob.dests.len(), "one destination per row");
        }
        self.route(outbox, RoundKind::Rows)
    }

    /// One **delta round**: the signed-row form of [`Net::exchange_rows`],
    /// the round shape of incremental view maintenance. `outbox[s]` holds
    /// local server `s`'s signed rows ([`DeltaOutbox`]) — `arity` payload
    /// values plus an insert/delete weight each; the weight travels as a
    /// trailing encoded column through the same radix block exchange, and
    /// each receiver gets its rows back as a [`DeltaBlock`] in the usual
    /// deterministic (sender, send-order) order. One signed row costs one
    /// load unit, exactly like an unsigned row of the same payload.
    ///
    /// # Panics
    /// Panics if `outbox.len() != self.p()`, a sender's payload arity
    /// differs from `arity`, or any destination is out of range.
    pub fn exchange_deltas(&mut self, arity: usize, outbox: Vec<DeltaOutbox>) -> Vec<DeltaBlock> {
        let row_outbox: Vec<RowOutbox> = outbox
            .into_iter()
            .map(DeltaOutbox::into_row_outbox)
            .collect();
        self.exchange_rows(arity + 1, row_outbox)
            .into_iter()
            .map(DeltaBlock::from_block)
            .collect()
    }

    /// One **computation + communication round**: for each local server `s`,
    /// run `work(s)` — concurrently under a threaded executor — producing that
    /// server's outbox, then route everything with [`Net::exchange`].
    ///
    /// This is the per-server-closure form of a round: `work` must only read
    /// shared state (it runs once per server, possibly on different threads)
    /// and emit `(destination, item)` messages with `destination < self.p()`.
    pub fn round<T: Send + Wire>(
        &mut self,
        work: impl Fn(ServerId) -> Vec<(ServerId, T)> + Sync,
    ) -> Vec<Vec<T>> {
        let outbox = self.run_each(work);
        self.exchange(outbox)
    }

    /// Like [`Net::round`], but each server's closure consumes an owned
    /// per-server input (typically the shards of a [`crate::Partitioned`]).
    ///
    /// # Panics
    /// Panics if `inputs.len() != self.p()`.
    pub fn round_map<S: Send, T: Send + Wire>(
        &mut self,
        inputs: Vec<S>,
        work: impl Fn(ServerId, S) -> Vec<(ServerId, T)> + Sync,
    ) -> Vec<Vec<T>> {
        let outbox = self.run_local(inputs, work);
        self.exchange(outbox)
    }

    /// Run free local computation on every server (no communication, no load
    /// charge): `work(s)` runs once per local server — concurrently under a
    /// threaded executor — and the results are returned in server order.
    pub fn run_each<T: Send>(&self, work: impl Fn(ServerId) -> T + Sync) -> Vec<T> {
        self.run_local(vec![(); self.len], |s, ()| work(s))
    }

    /// Like [`Net::run_each`], but each server's closure consumes an owned
    /// per-server input.
    ///
    /// # Panics
    /// Panics if `inputs.len() != self.p()`.
    pub fn run_local<S: Send, T: Send>(
        &self,
        inputs: Vec<S>,
        work: impl Fn(ServerId, S) -> T + Sync,
    ) -> Vec<T> {
        assert_eq!(inputs.len(), self.len, "one input per server");
        let exec = self.cluster.executor.as_ref();
        if !exec.is_parallel() {
            return inputs
                .into_iter()
                .enumerate()
                .map(|(i, s)| work(i, s))
                .collect();
        }
        run_consuming(|n, task| exec.run(n, task), inputs, work)
    }

    /// Broadcast `items` from local server `src` to every server of the view
    /// (including `src`). Each server receives `items.len()` units.
    pub fn broadcast<T: Clone + Send + Wire>(
        &mut self,
        src: ServerId,
        items: Vec<T>,
    ) -> Vec<Vec<T>> {
        assert!(src < self.len);
        let mut outbox: Vec<Vec<(ServerId, T)>> = vec![Vec::new(); self.len];
        for dest in 0..self.len {
            for item in &items {
                outbox[src].push((dest, item.clone()));
            }
        }
        self.exchange(outbox)
    }

    /// Current statistics of the underlying cluster.
    pub fn stats(&self) -> &Stats {
        self.cluster.stats()
    }

    /// Is structured tracing active on the underlying cluster?
    pub fn tracing_enabled(&self) -> bool {
        self.cluster.tracing_enabled()
    }

    /// Record a driver-side event into the cluster's trace (no-op when
    /// tracing is off). See [`Cluster::trace_event`].
    pub fn trace_event(&mut self, event: Event) {
        self.cluster.trace_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_counts_received_units() {
        let mut cluster = Cluster::new(3);
        {
            let mut net = cluster.net();
            // server 0 sends 2 items to server 1; server 2 sends 1 item to server 1.
            let msg = |s: &str| s.to_string();
            let inbox = net.exchange(vec![
                vec![(1, msg("a")), (1, msg("b"))],
                vec![],
                vec![(1, msg("c"))],
            ]);
            assert_eq!(inbox[1], vec![msg("a"), msg("b"), msg("c")]);
            assert!(inbox[0].is_empty() && inbox[2].is_empty());
        }
        let s = cluster.stats();
        assert_eq!(s.max_load, 3);
        assert_eq!(s.total_messages, 3);
        assert_eq!(s.per_server_peak, vec![0, 3, 0]);
        assert_eq!(s.exchanges, 1);
    }

    #[test]
    fn max_load_is_max_over_rounds_not_sum() {
        let mut cluster = Cluster::new(2);
        {
            let mut net = cluster.net();
            net.exchange(vec![vec![(0, 1u8), (0, 2)], vec![]]);
            net.exchange(vec![vec![(0, 3u8)], vec![]]);
        }
        // Two rounds with loads 2 and 1: L = 2, not 3.
        assert_eq!(cluster.stats().max_load, 2);
        assert_eq!(cluster.stats().exchanges, 2);
    }

    #[test]
    fn sub_view_accounts_to_absolute_servers() {
        let mut cluster = Cluster::new(4);
        {
            let mut net = cluster.net();
            let mut sub = net.sub(2, 2);
            assert_eq!(sub.p(), 2);
            // Local dest 1 is absolute server 3.
            sub.exchange(vec![vec![(1, ())], vec![(1, ())]]);
        }
        assert_eq!(cluster.stats().per_server_peak, vec![0, 0, 0, 2]);
    }

    #[test]
    fn disjoint_groups_do_not_add_loads() {
        // Two disjoint sub-groups each shipping 5 units to their own server:
        // the load must be 5 (parallel semantics), not 10.
        let mut cluster = Cluster::new(4);
        {
            let mut net = cluster.net();
            {
                let mut g0 = net.sub(0, 2);
                g0.exchange(vec![vec![(0, ()); 5], vec![]]);
            }
            {
                let mut g1 = net.sub(2, 2);
                g1.exchange(vec![vec![(0, ()); 5], vec![]]);
            }
        }
        assert_eq!(cluster.stats().max_load, 5);
    }

    #[test]
    fn broadcast_reaches_every_server() {
        let mut cluster = Cluster::new(3);
        {
            let mut net = cluster.net();
            let got = net.broadcast(1, vec![7u64, 8]);
            for part in &got {
                assert_eq!(part, &vec![7, 8]);
            }
        }
        // Every server received 2.
        assert_eq!(cluster.stats().max_load, 2);
    }

    #[test]
    fn epochs_attribute_load_per_interval() {
        let mut cluster = Cluster::new(2);
        {
            let mut net = cluster.net();
            net.exchange(vec![vec![(0, ()); 7], vec![]]);
        }
        let e1 = cluster.epoch();
        {
            let mut net = cluster.net();
            net.exchange(vec![vec![(1, ()); 3], vec![]]);
        }
        let e2 = cluster.epoch();
        // Each epoch reports only its own interval...
        assert_eq!(e1.max_load, 7);
        assert_eq!(e1.per_server_peak, vec![7, 0]);
        assert_eq!(e2.max_load, 3);
        assert_eq!(e2.per_server_peak, vec![0, 3]);
        // ...and the epochs sum/max back to the cumulative stats.
        let s = cluster.stats();
        assert_eq!(e1.total_messages + e2.total_messages, s.total_messages);
        assert_eq!(e1.exchanges + e2.exchanges, s.exchanges);
        assert_eq!(e1.max_load.max(e2.max_load), s.max_load);
        assert_eq!(s.per_server_peak, vec![7, 3]);
    }

    /// The three backends of the route tests below: `seq`, `par` on two
    /// threads, and `net`.
    fn backends(p: usize) -> [Cluster; 3] {
        [
            Cluster::new(p),
            Cluster::with_executor(p, Box::new(ParExecutor::with_threads(2))),
            Cluster::new_net(p),
        ]
    }

    /// One out-of-range destination behind 300 good units — items and rows,
    /// on every backend — is refused by the one check in `Net::route`.
    #[test]
    fn bad_destination_panics_on_every_backend_and_payload() {
        let items = |net: &mut Net<'_>| {
            let mut msgs = vec![(0usize, 1u64); 300];
            msgs.push((5, 0));
            net.exchange(vec![msgs, vec![]]);
        };
        let rows = |net: &mut Net<'_>| {
            let mut ob = RowOutbox::new(1);
            for i in 0..300u64 {
                ob.push(0, &[i]);
            }
            ob.push(5, &[0]);
            net.exchange_rows(1, vec![ob, RowOutbox::new(1)]);
        };
        let payloads: [&dyn Fn(&mut Net<'_>); 2] = [&items, &rows];
        for send in payloads {
            for mut cluster in backends(2) {
                let name = cluster.executor().name();
                let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    send(&mut cluster.net())
                }))
                .expect_err("a bad destination must panic");
                let msg = panic.downcast_ref::<String>().expect("formatted assert");
                assert_eq!(msg, "destination 5 out of range (p = 2)", "{name}");
                assert_eq!(cluster.stats().exchanges, 0, "{name}: no round ran");
            }
        }
    }

    /// The same exchange, on both executors: identical inboxes (order
    /// included) and identical stats.
    #[test]
    fn executors_agree_on_exchange() {
        let build_outbox = || -> Vec<Vec<(ServerId, u64)>> {
            (0..8)
                .map(|s: usize| {
                    (0..50u64)
                        .map(|i| {
                            (
                                (((s as u64) * 31 + i * 7) % 8) as usize,
                                s as u64 * 1000 + i,
                            )
                        })
                        .collect()
                })
                .collect()
        };
        let mut seq = Cluster::new(8);
        let seq_inbox = seq.net().exchange(build_outbox());
        let mut par = Cluster::new_parallel(8);
        let par_inbox = par.net().exchange(build_outbox());
        assert_eq!(seq_inbox, par_inbox);
        assert_eq!(seq.stats(), par.stats());
    }

    /// round/round_map produce identical results and stats on both executors.
    #[test]
    fn executors_agree_on_rounds() {
        let run = |mut cluster: Cluster| -> (Vec<Vec<u64>>, Stats) {
            let inbox = {
                let mut net = cluster.net();
                let data: Vec<Vec<u64>> = (0..6)
                    .map(|s| (0..40).map(|i| s * 100 + i).collect())
                    .collect();
                net.round(|s| data[s].iter().map(|&x| ((x % 6) as usize, x * 2)).collect())
            };
            (inbox, cluster.stats().clone())
        };
        let (a, sa) = run(Cluster::new(6));
        let (b, sb) = run(Cluster::new_parallel(6));
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    /// The network backend (frames over channels) must agree bit-for-bit
    /// with the sequential simulator on items, rows, deltas, and stats.
    #[test]
    fn net_backend_agrees_with_seq() {
        let build_items = || -> Vec<Vec<(ServerId, u64)>> {
            (0..6)
                .map(|s: usize| {
                    (0..40u64)
                        .map(|i| ((((s as u64) * 17 + i * 5) % 6) as usize, s as u64 * 100 + i))
                        .collect()
                })
                .collect()
        };
        let build_rows = || -> Vec<RowOutbox> {
            (0..6)
                .map(|s| {
                    let mut ob = RowOutbox::new(2);
                    for i in 0..35u64 {
                        ob.push(((s as u64 + i * 7) % 6) as usize, &[s as u64, i]);
                    }
                    ob
                })
                .collect()
        };
        let mut seq = Cluster::new(6);
        let mut net = Cluster::new_net(6);
        let a_items = seq.net().exchange(build_items());
        let b_items = net.net().exchange(build_items());
        assert_eq!(a_items, b_items);
        let a_rows = seq.net().exchange_rows(2, build_rows());
        let b_rows = net.net().exchange_rows(2, build_rows());
        assert_eq!(a_rows, b_rows);
        assert_eq!(seq.stats(), net.stats());
        let nx = net.executor().as_net().unwrap();
        assert!(nx.wire_bytes() > 0, "frames must have crossed the wire");
    }

    /// Wire routing through sub-views and strided sub-views: absolute
    /// accounting and delivery order must match the simulator.
    #[test]
    fn net_backend_agrees_on_sub_views() {
        let drive = |mut cluster: Cluster| -> (Vec<Vec<u64>>, Vec<Vec<u64>>, Stats) {
            let (a, b) = {
                let mut net = cluster.net();
                let a = {
                    let mut g = net.sub(1, 3);
                    g.round(|s| {
                        (0..10u64)
                            .map(|i| (((s as u64 + i) % 3) as usize, i))
                            .collect()
                    })
                };
                let b = {
                    let mut g = net.sub_strided(0, 2, 2);
                    g.round(|s| vec![((s + 1) % 2, s as u64)])
                };
                (a, b)
            };
            (a, b, cluster.stats().clone())
        };
        let (a1, b1, s1) = drive(Cluster::new(4));
        let (a2, b2, s2) = drive(Cluster::new_net(4));
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn net_backend_single_server_self_loop() {
        let mut cluster = Cluster::new_net(1);
        {
            let mut net = cluster.net();
            let inbox = net.exchange(vec![vec![(0, 7u64), (0, 8)]]);
            assert_eq!(inbox, vec![vec![7, 8]]);
        }
        assert_eq!(cluster.stats().max_load, 2);
    }

    #[test]
    fn run_local_is_free_and_ordered() {
        let mut cluster = Cluster::new_parallel(5);
        {
            let net = cluster.net();
            let inputs: Vec<u64> = (0..5).collect();
            let out = net.run_local(inputs, |s, v| v + s as u64);
            assert_eq!(out, vec![0, 2, 4, 6, 8]);
        }
        assert_eq!(cluster.stats().exchanges, 0);
        assert_eq!(cluster.stats().max_load, 0);
    }

    /// The block exchange must deliver exactly what the per-item exchange
    /// delivers — same rows, same order, same stats.
    #[test]
    fn exchange_rows_matches_per_item_exchange() {
        let p = 8usize;
        let arity = 3usize;
        let rows: Vec<Vec<(usize, [u64; 3])>> = (0..p)
            .map(|s| {
                (0..40u64)
                    .map(|i| {
                        let d = ((s as u64 * 13 + i * 7) % p as u64) as usize;
                        (d, [s as u64, i, s as u64 * 1000 + i])
                    })
                    .collect()
            })
            .collect();
        // Per-item path.
        let mut a = Cluster::new(p);
        let item_inbox = a.net().exchange(
            rows.iter()
                .map(|r| r.iter().map(|&(d, v)| (d, v.to_vec())).collect())
                .collect(),
        );
        // Block path.
        let mut b = Cluster::new(p);
        let block_inbox = b.net().exchange_rows(
            arity,
            rows.iter()
                .map(|r| {
                    let mut ob = RowOutbox::with_capacity(arity, r.len());
                    for (d, v) in r {
                        ob.push(*d, v);
                    }
                    ob
                })
                .collect(),
        );
        assert_eq!(a.stats(), b.stats());
        for (items, block) in item_inbox.iter().zip(&block_inbox) {
            assert_eq!(items.len(), block.len());
            for (item, row) in items.iter().zip(block.iter()) {
                assert_eq!(item.as_slice(), row);
            }
        }
    }

    /// The block exchange delivers bit-identical blocks and stats on both
    /// executors.
    #[test]
    fn exchange_rows_agrees_across_executors() {
        let p = 6usize;
        let arity = 2usize;
        let build = || -> Vec<RowOutbox> {
            (0..p)
                .map(|s| {
                    let mut ob = RowOutbox::new(arity);
                    for i in 0..100u64 {
                        ob.push(((s as u64 + i * 11) % p as u64) as usize, &[s as u64, i]);
                    }
                    ob
                })
                .collect()
        };
        let mut seq = Cluster::new(p);
        let seq_inbox = seq.net().exchange_rows(arity, build());
        let mut par = Cluster::with_executor(p, Box::new(ParExecutor::with_threads(4)));
        let par_inbox = par.net().exchange_rows(arity, build());
        assert_eq!(seq_inbox, par_inbox);
        assert_eq!(seq.stats(), par.stats());
    }

    /// The delta exchange delivers payloads + signs in the per-item delivery
    /// order and charges one unit per signed row — on both executors.
    #[test]
    fn exchange_deltas_carries_signs_with_row_accounting() {
        let p = 4usize;
        let build = || -> Vec<DeltaOutbox> {
            (0..p)
                .map(|s| {
                    let mut ob = DeltaOutbox::with_capacity(2, 30);
                    for i in 0..30u64 {
                        let w = if i % 3 == 0 { -1 } else { 1 };
                        ob.push(((s as u64 + i) % p as u64) as usize, &[s as u64, i], w);
                    }
                    ob
                })
                .collect()
        };
        let mut seq = Cluster::new(p);
        let seq_inbox = seq.net().exchange_deltas(2, build());
        let mut par = Cluster::with_executor(p, Box::new(ParExecutor::with_threads(3)));
        let par_inbox = par.net().exchange_deltas(2, build());
        assert_eq!(seq_inbox, par_inbox);
        assert_eq!(seq.stats(), par.stats());
        // One unit per signed row, total 120.
        assert_eq!(seq.stats().total_messages, 120);
        assert_eq!(seq.stats().exchanges, 1);
        let mut minus = 0;
        for block in &seq_inbox {
            assert_eq!(block.arity(), 2);
            for (i, (payload, w)) in block.iter().enumerate() {
                assert_eq!(payload.len(), 2);
                assert_eq!(block.row(i), (payload, w));
                assert!(w == 1 || w == -1);
                if w == -1 {
                    minus += 1;
                }
            }
        }
        assert_eq!(minus, 40, "every third row was a delete");
    }

    /// 0-ary rows carry no values but still count one unit each — through
    /// the memory arm and, end to end, through wire frames.
    #[test]
    fn exchange_rows_zero_arity_counts_rows() {
        for mut cluster in backends(2) {
            let name = cluster.executor().name();
            {
                let mut net = cluster.net();
                let mut ob = RowOutbox::new(0);
                ob.rows.push_empty_rows(300);
                ob.dests.extend((0..300).map(|i| usize::from(i % 3 != 0)));
                let inbox = net.exchange_rows(0, vec![ob, RowOutbox::new(0)]);
                assert_eq!(inbox[0].len(), 100, "{name}");
                assert_eq!(inbox[1].len(), 200, "{name}");
                assert!(inbox.iter().all(|b| b.arity() == 0), "{name}");
            }
            assert_eq!(cluster.stats().max_load, 200, "{name}");
            assert_eq!(cluster.stats().total_messages, 300, "{name}");
        }
    }
}
