//! The network backend: one independent worker thread per server,
//! message-passing only.
//!
//! [`NetExecutor`] is the third [`Execute`] backend. Where [`SeqExecutor`][crate::SeqExecutor]
//! and [`ParExecutor`][crate::ParExecutor] simulate servers by slicing
//! shared buffers, a `NetExecutor` cluster is a real (single-machine)
//! distributed system:
//!
//! * **Thread per server.** `p` persistent worker threads are spawned at
//!   construction, one per absolute server. A round pins local server `i`'s
//!   closure to the worker of its *absolute* server (the cluster passes the
//!   view's `lo + i·stride` mapping through [`Execute::run_at`]), so server
//!   `s`'s work always executes on thread `s` — and every server of a round
//!   runs **concurrently**, which is what lets closures block on
//!   [`Transport::recv`] without deadlocking.
//! * **Message passing only.** Under this backend, `Net::exchange` /
//!   `exchange_rows` / `exchange_deltas` do not touch shared routing
//!   buffers; each server serializes its outgoing payloads into
//!   [`crate::wire::Frame`]s and pushes them through the executor's
//!   [`Transport`]. The receiving server decodes and assembles its inbox
//!   locally. The only cross-server channel is the transport.
//! * **Round barrier.** The coordinating thread publishes a round, blocks
//!   until every worker has finished, and only then merges the per-server
//!   received-unit shards into [`crate::Stats`] — so measured loads are
//!   bit-identical to the simulated backends (the conformance suite's
//!   differential oracle).
//!
//! # Reliable delivery
//!
//! The plain ("raw") exchange protocol assumes a perfect transport: each
//! server sends one frame per destination and then *blocks* until `p`
//! frames arrive. Over a lossy link (see [`crate::FaultyTransport`]) that
//! wedges forever, so the executor optionally runs every exchange through a
//! **reliable protocol** ([`NetExecutor::with_transport_reliable`]):
//!
//! * every data frame is acknowledged per `(sender, receiver, seq)` with an
//!   empty [`FrameKind::Ack`] frame;
//! * unacked frames are retransmitted under a capped exponential backoff
//!   measured in **logical poll steps** (no wall clocks — the `wall-clock`
//!   analyzer rule stays clean);
//! * receivers deduplicate on the frame's existing `(kind, seq, from)` tags
//!   (first copy wins; every copy is re-acked, so a lost ack heals);
//! * frames from an older exchange (`seq` below the current one — leftovers
//!   of an aborted or heavily delayed round) are silently discarded;
//! * a server leaves the exchange only once **all** participants report
//!   both "received everything" and "everything I sent was acked" (the shared
//!   `WireRound::done` counter). While any server still misses data, its sender
//!   is unacked and keeps retransmitting; while anyone retransmits, every
//!   receiver is still polling and re-acking — so the protocol terminates
//!   whenever the transport delivers each frame with nonzero probability,
//!   and lingering duplicates can never leak into a later exchange.
//!
//! The deduplicated inbox is byte-identical to the raw protocol's, acks
//! never enter load accounting, and the exchange counter advances exactly
//! once per exchange — logical [`crate::Stats`] are therefore bit-identical
//! to a fault-free run; only the [`WireBytes`] breakdown (payload /
//! retransmit / ack) reveals the fault recovery traffic.
//!
//! # Crashes and recovery
//!
//! The `p` server threads are the crate's one region pool (`pool.rs`, shared
//! with [`crate::ParExecutor`]) with a closure that runs the round index
//! pinned to each server. The pool's panic policy is therefore the
//! backend's: panics are caught per server and re-raised on the
//! coordinating thread; when several servers panic in one round, the
//! **lowest absolute server id's** payload wins, deterministically, except
//! that [`PeerAbort`] markers — workers that bailed out of a reliable
//! exchange because a *peer* died — always lose to the genuine failure. A
//! panic whose payload is an [`crate::InjectedCrash`] is a fatal
//! server-thread death: the thread really exits, and the pool respawns a
//! fresh thread for that server before the next round — the "dead server"
//! that `aj_core`'s checkpoint supervisor detects and recovers from.
//! Dropping the executor joins every worker thread (no leaks), tolerating
//! poisoned locks left by panicking rounds.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::executor::Execute;
use crate::pool::Pool;
use crate::transport::{ChanTransport, Transport};
use crate::wire::{Frame, FrameKind};

/// Poll steps a reliable exchange waits before its first retransmission.
const PROBE_INITIAL: u64 = 32;
/// Cap of the exponential retransmission backoff, in poll steps.
const PROBE_CAP: u64 = 4096;

/// Panic payload of a worker that abandoned a reliable exchange because a
/// peer's thread died mid-round. Markers exist so surviving servers unwind
/// promptly instead of retransmitting at a corpse; the pool's panic
/// propagation always prefers the genuine failure over a `PeerAbort`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerAbort {
    /// Absolute id of the server that bailed out (not the dead peer).
    pub server: usize,
}

/// Bytes shipped across the transport, split by purpose. `payload` is the
/// first transmission of every data frame (what a perfect link would
/// carry); `retransmit` and `ack` are the overhead of the reliable
/// protocol. All three count the full byte form (length prefix + header +
/// body), i.e. what a socket actually carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireBytes {
    /// First transmission of data frames.
    pub payload: u64,
    /// Re-sent data frames (unacked after the backoff probe).
    pub retransmit: u64,
    /// Acknowledgment frames.
    pub ack: u64,
}

impl WireBytes {
    /// Total bytes across all three categories.
    pub fn total(&self) -> u64 {
        self.payload + self.retransmit + self.ack
    }
}

/// Frame **counts** of the reliable protocol's recovery machinery (the
/// byte-level view is [`WireBytes`]): retransmitted data frames, ack frames
/// sent, and duplicate or stale frames the dedup filter discarded. All zero
/// on a raw (non-reliable) executor. Cumulative; the cluster snapshots
/// deltas at round barriers to emit physical trace events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Data frames re-sent on probe timeout.
    pub retransmits: u64,
    /// Ack frames sent.
    pub acks: u64,
    /// Duplicate or stale inbound frames discarded.
    pub dups: u64,
}

impl FrameStats {
    /// Component-wise difference against an earlier snapshot.
    ///
    /// # Panics
    /// Panics if `earlier` is not a prefix of `self` (counters are
    /// monotone).
    pub fn since(&self, earlier: &FrameStats) -> FrameStats {
        FrameStats {
            retransmits: self.retransmits - earlier.retransmits,
            acks: self.acks - earlier.acks,
            dups: self.dups - earlier.dups,
        }
    }
}

/// One wire round as every participant sees it: the view `(lo, stride,
/// len)` plus the tag `(kind, seq)` its data frames carry. Built once per
/// round by the cluster's wire routing.
#[derive(Clone, Copy)]
pub(crate) struct WireRound<'a> {
    pub(crate) lo: usize,
    pub(crate) stride: usize,
    pub(crate) len: usize,
    pub(crate) kind: FrameKind,
    pub(crate) seq: u64,
    /// Completion count of the reliable protocol, starting at 0: a server
    /// increments it once it has received every inbox frame *and* seen
    /// every frame it sent acked, and leaves only when all `len` have.
    pub(crate) done: &'a AtomicUsize,
}

impl WireRound<'_> {
    /// Absolute id of the view's local server `i`.
    pub(crate) fn abs(&self, i: usize) -> usize {
        self.lo + i * self.stride
    }

    /// Validate a received frame's header against this round (`kind` is the
    /// round's own, or [`FrameKind::Ack`]) and translate its absolute
    /// sender id to the view's local id.
    fn frame_sender(&self, frame: &Frame, kind: FrameKind) -> usize {
        let (lo, stride, len, seq) = (self.lo, self.stride, self.len, self.seq);
        assert_eq!(frame.kind, kind, "wire: wrong frame kind for this round");
        assert_eq!(
            frame.seq, seq,
            "wire: frame from exchange {} received in exchange {seq}",
            frame.seq
        );
        let from = frame.from as usize;
        assert!(
            from >= lo && (from - lo).is_multiple_of(stride) && (from - lo) / stride < len,
            "wire: frame from server {from} outside view (lo={lo}, stride={stride}, len={len})",
        );
        (from - lo) / stride
    }
}

/// An [`Execute`] backend with one persistent worker thread per server and a
/// pluggable frame [`Transport`] (see the module docs).
pub struct NetExecutor {
    p: usize,
    pool: Pool,
    transport: Arc<dyn Transport>,
    /// Run every exchange through the ack/retransmit protocol (required on
    /// lossy transports; see the module docs).
    reliable: bool,
    payload_bytes: AtomicU64,
    retransmit_bytes: AtomicU64,
    ack_bytes: AtomicU64,
    retransmit_frames: AtomicU64,
    ack_frames: AtomicU64,
    dup_frames: AtomicU64,
}

impl std::fmt::Debug for NetExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetExecutor")
            .field("p", &self.p)
            .field("transport", &self.transport.name())
            .field("reliable", &self.reliable)
            .finish()
    }
}

impl NetExecutor {
    /// A network backend of `p` servers over the default in-process
    /// [`ChanTransport`].
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        NetExecutor::with_transport(p, Arc::new(ChanTransport::new(p)))
    }

    /// A network backend of `p` servers over an explicit transport, using
    /// the raw exchange protocol (assumes a perfect link).
    ///
    /// # Panics
    /// Panics if `p == 0` or the transport's endpoint count differs from `p`.
    pub fn with_transport(p: usize, transport: Arc<dyn Transport>) -> Self {
        NetExecutor::build(p, transport, false)
    }

    /// Like [`NetExecutor::with_transport`], but every exchange runs the
    /// reliable ack/retransmit protocol, tolerating dropped, duplicated,
    /// delayed, and reordered frames (and, combined with the checkpoint
    /// supervisor in `aj_core`, injected server crashes).
    ///
    /// # Panics
    /// Panics if `p == 0` or the transport's endpoint count differs from `p`.
    pub fn with_transport_reliable(p: usize, transport: Arc<dyn Transport>) -> Self {
        NetExecutor::build(p, transport, true)
    }

    fn build(p: usize, transport: Arc<dyn Transport>, reliable: bool) -> Self {
        assert!(p >= 1, "a network backend needs at least one server");
        assert_eq!(
            transport.endpoints(),
            p,
            "transport endpoints must match the server count"
        );
        NetExecutor {
            p,
            pool: Pool::new(p, "aj-server"),
            transport,
            reliable,
            payload_bytes: AtomicU64::new(0),
            retransmit_bytes: AtomicU64::new(0),
            ack_bytes: AtomicU64::new(0),
            retransmit_frames: AtomicU64::new(0),
            ack_frames: AtomicU64::new(0),
            dup_frames: AtomicU64::new(0),
        }
    }

    /// Number of servers (= worker threads = transport endpoints).
    pub fn p(&self) -> usize {
        self.p
    }

    /// The frame transport connecting the servers.
    pub fn transport(&self) -> &dyn Transport {
        self.transport.as_ref()
    }

    /// Is the reliable ack/retransmit protocol active?
    pub fn is_reliable(&self) -> bool {
        self.reliable
    }

    /// Total bytes shipped across the transport so far (frame byte form,
    /// header and length prefix included — what a socket actually carries).
    /// Sum of the [`NetExecutor::wire_breakdown`] categories.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_breakdown().total()
    }

    /// Bytes shipped so far, split into payload / retransmit / ack (see
    /// [`WireBytes`]). On a raw (non-reliable) executor, retransmit and ack
    /// are always zero.
    pub fn wire_breakdown(&self) -> WireBytes {
        WireBytes {
            payload: self.payload_bytes.load(Ordering::Relaxed),
            retransmit: self.retransmit_bytes.load(Ordering::Relaxed),
            ack: self.ack_bytes.load(Ordering::Relaxed),
        }
    }

    /// Frame **counts** of the recovery machinery so far (see
    /// [`FrameStats`]). On a raw (non-reliable) executor, all zero.
    pub fn frame_stats(&self) -> FrameStats {
        FrameStats {
            retransmits: self.retransmit_frames.load(Ordering::Relaxed),
            acks: self.ack_frames.load(Ordering::Relaxed),
            dups: self.dup_frames.load(Ordering::Relaxed),
        }
    }

    /// One server's side of a frame exchange: local server `s` of `round`'s
    /// view sends `outgoing[d]` to each local destination `d` and returns
    /// the `len` inbox frames indexed by local sender, validated against
    /// the round's `(kind, seq)`. Dispatches to the raw or reliable
    /// protocol; called from the cluster's wire routing on each server's
    /// own worker thread.
    pub(crate) fn exchange_frames(
        &self,
        round: WireRound,
        s: usize,
        outgoing: Vec<Frame>,
    ) -> Vec<Frame> {
        debug_assert_eq!(outgoing.len(), round.len, "one frame per destination");
        if self.reliable {
            self.exchange_reliable(round, s, outgoing)
        } else {
            self.exchange_raw(round, s, outgoing)
        }
    }

    /// The raw protocol: fire everything, then block until `len` frames
    /// arrive. Correct only on perfect (lossless, non-duplicating)
    /// transports.
    fn exchange_raw(&self, round: WireRound, s: usize, outgoing: Vec<Frame>) -> Vec<Frame> {
        let abs_s = round.abs(s);
        let transport = self.transport();
        for (d, frame) in outgoing.into_iter().enumerate() {
            self.payload_bytes
                .fetch_add(frame.wire_bytes(), Ordering::Relaxed);
            transport.send(abs_s, round.abs(d), frame);
        }
        let mut by_sender: Vec<Option<Frame>> = (0..round.len).map(|_| None).collect();
        for _ in 0..round.len {
            let frame = transport.recv(abs_s);
            let sender = round.frame_sender(&frame, round.kind);
            assert!(
                by_sender[sender].is_none(),
                "wire: duplicate frame from server {sender}"
            );
            by_sender[sender] = Some(frame);
        }
        by_sender
            .into_iter()
            .map(|f| f.expect("every sender sends one frame"))
            .collect()
    }

    /// The reliable protocol (see the module docs): poll, ack, dedup, and
    /// retransmit under a capped exponential backoff counted in logical
    /// poll steps, leaving only when every participant is done.
    fn exchange_reliable(&self, round: WireRound, s: usize, outgoing: Vec<Frame>) -> Vec<Frame> {
        let WireRound { len, seq, .. } = round;
        let abs_s = round.abs(s);
        let transport = self.transport();
        for (d, frame) in outgoing.iter().enumerate() {
            self.payload_bytes
                .fetch_add(frame.wire_bytes(), Ordering::Relaxed);
            transport.send(abs_s, round.abs(d), frame.clone());
        }
        let mut acked = vec![false; len];
        let mut n_acked = 0usize;
        let mut inbox: Vec<Option<Frame>> = (0..len).map(|_| None).collect();
        let mut n_got = 0usize;
        let mut signaled = false;
        // Logical backoff: `idle` counts consecutive empty polls, and a
        // retransmission of all unacked frames fires each time it reaches
        // the current probe interval, which doubles up to a cap. No wall
        // clocks are involved anywhere in the protocol.
        let mut idle: u64 = 0;
        let mut probe: u64 = PROBE_INITIAL;
        loop {
            if self.pool.aborted() {
                // A peer's thread died; nobody will complete this round,
                // so stop retransmitting at a corpse.
                std::panic::panic_any(PeerAbort { server: abs_s });
            }
            match transport.try_recv(abs_s) {
                Some(frame) => {
                    idle = 0;
                    if frame.seq < seq {
                        // Leftover of an aborted or delayed earlier
                        // exchange (retired via `Cluster::fence_round`).
                        self.dup_frames.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if frame.kind == FrameKind::Ack {
                        let sender = round.frame_sender(&frame, FrameKind::Ack);
                        if !acked[sender] {
                            acked[sender] = true;
                            n_acked += 1;
                        }
                    } else {
                        let sender = round.frame_sender(&frame, round.kind);
                        // Ack every copy (a lost ack heals on the
                        // retransmit), keep only the first.
                        let ack = Frame::ack(seq, abs_s as u64);
                        self.ack_bytes
                            .fetch_add(ack.wire_bytes(), Ordering::Relaxed);
                        self.ack_frames.fetch_add(1, Ordering::Relaxed);
                        transport.send(abs_s, round.abs(sender), ack);
                        if inbox[sender].is_none() {
                            inbox[sender] = Some(frame);
                            n_got += 1;
                        } else {
                            self.dup_frames.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                None => {
                    idle += 1;
                    if n_acked < len && idle >= probe {
                        for (d, frame) in outgoing.iter().enumerate() {
                            if !acked[d] {
                                self.retransmit_bytes
                                    .fetch_add(frame.wire_bytes(), Ordering::Relaxed);
                                self.retransmit_frames.fetch_add(1, Ordering::Relaxed);
                                transport.send(abs_s, round.abs(d), frame.clone());
                            }
                        }
                        idle = 0;
                        probe = (probe * 2).min(PROBE_CAP);
                    }
                    std::thread::yield_now();
                }
            }
            if !signaled && n_got == len && n_acked == len {
                signaled = true;
                round.done.fetch_add(1, Ordering::AcqRel);
            }
            // Keep polling (serving re-acks) until *every* participant is
            // done; only then can no further retransmission exist.
            if signaled && round.done.load(Ordering::Acquire) >= len {
                break;
            }
        }
        inbox
            .into_iter()
            .map(|f| f.expect("reliable exchange: inbox complete"))
            .collect()
    }
}

impl Execute for NetExecutor {
    fn run(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        self.run_at(n, &|i| i, task);
    }

    fn run_at(
        &self,
        n: usize,
        abs: &(dyn Fn(usize) -> usize + Sync),
        task: &(dyn Fn(usize) + Sync),
    ) {
        assert!(
            n <= self.p,
            "round of {n} servers on a {}-server network backend",
            self.p
        );
        // Per server thread: the round index pinned to it, if any.
        let mut assign = vec![None; self.p];
        for i in 0..n {
            let w = abs(i);
            assert!(w < self.p, "absolute server {w} out of range");
            assert!(
                assign[w].is_none(),
                "two round indices pinned to server {w}"
            );
            assign[w] = Some(i);
        }
        self.pool.run_region(&|w| {
            if let Some(i) = assign[w] {
                task(i);
            }
        });
    }

    fn is_parallel(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "net"
    }

    fn as_net(&self) -> Option<&NetExecutor> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CrashPoint, FaultPlan, FaultyTransport, InjectedCrash};
    use std::panic::AssertUnwindSafe;
    use std::sync::Mutex;

    #[test]
    fn pins_index_to_absolute_server_thread() {
        let exec = NetExecutor::new(4);
        // A strided view {1, 3}: index i must run on thread `1 + 2i`.
        exec.run_at(2, &|i| 1 + 2 * i, &|i| {
            let name = std::thread::current().name().unwrap().to_string();
            assert_eq!(name, format!("aj-server-{}", 1 + 2 * i), "index {i}");
        });
    }

    #[test]
    fn servers_run_concurrently_and_can_block_on_recv() {
        // Every server sends one frame to its successor and then blocks
        // receiving from its predecessor — impossible unless all servers of
        // the round truly run at the same time.
        let p = 6;
        let exec = NetExecutor::new(p);
        exec.run(p, &|s| {
            let t = exec.transport();
            t.send(
                s,
                (s + 1) % p,
                Frame::new(FrameKind::Items, 1, s as u64, &(s as u64)),
            );
            let got = t.recv(s);
            assert_eq!(got.decode_body::<u64>(), ((s + p - 1) % p) as u64);
        });
    }

    #[test]
    fn genuine_panic_beats_peer_abort_marker() {
        let exec = NetExecutor::new(4);
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            exec.run(4, &|i| {
                if i == 3 {
                    panic!("server 3 genuinely failed");
                } else {
                    std::panic::panic_any(PeerAbort { server: i });
                }
            });
        }))
        .expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(
            msg, "server 3 genuinely failed",
            "PeerAbort markers from lower servers must lose"
        );
    }

    #[test]
    #[should_panic(expected = "two round indices pinned")]
    fn double_assignment_is_rejected() {
        let exec = NetExecutor::new(4);
        exec.run_at(2, &|_| 0, &|_| {});
    }

    #[test]
    fn wire_byte_counter_accumulates() {
        let exec = NetExecutor::new(2);
        assert_eq!(exec.wire_bytes(), 0);
        let frame_bytes = Frame::new(FrameKind::Items, 0, 0, &1u64).wire_bytes();
        all_to_all(&exec, 0);
        // Raw protocol: p² payload frames, nothing else.
        let b = exec.wire_breakdown();
        assert_eq!(b.payload, 4 * frame_bytes);
        assert_eq!(b.retransmit, 0);
        assert_eq!(b.ack, 0);
        assert_eq!(exec.wire_bytes(), b.total());
    }

    /// One all-to-all exchange through `exchange_frames` on every server,
    /// returning each server's decoded inbox.
    fn all_to_all(exec: &NetExecutor, seq: u64) -> Vec<Vec<u64>> {
        let p = exec.p();
        let done = AtomicUsize::new(0);
        let round = WireRound {
            lo: 0,
            stride: 1,
            len: p,
            kind: FrameKind::Items,
            seq,
            done: &done,
        };
        let results: Mutex<Vec<(usize, Vec<u64>)>> = Mutex::new(Vec::new());
        exec.run(p, &|s| {
            let outgoing: Vec<Frame> = (0..p)
                .map(|d| Frame::new(FrameKind::Items, seq, s as u64, &((s * 100 + d) as u64)))
                .collect();
            let inbox = exec.exchange_frames(round, s, outgoing);
            let decoded: Vec<u64> = inbox.iter().map(|f| f.decode_body::<u64>()).collect();
            results.lock().unwrap().push((s, decoded));
        });
        let mut rows = results.into_inner().unwrap();
        rows.sort_by_key(|(s, _)| *s);
        rows.into_iter().map(|(_, v)| v).collect()
    }

    fn expected_inboxes(p: usize) -> Vec<Vec<u64>> {
        (0..p)
            .map(|d| (0..p).map(|s| (s * 100 + d) as u64).collect())
            .collect()
    }

    #[test]
    fn reliable_exchange_matches_raw_on_perfect_link() {
        let p = 4;
        let raw = NetExecutor::new(p);
        let rel = NetExecutor::with_transport_reliable(p, Arc::new(ChanTransport::new(p)));
        assert_eq!(all_to_all(&raw, 0), expected_inboxes(p));
        assert_eq!(all_to_all(&rel, 0), expected_inboxes(p));
        let b = rel.wire_breakdown();
        assert!(b.ack > 0, "every data frame is acked");
        assert_eq!(b.retransmit, 0, "no loss, no retransmission");
    }

    #[test]
    fn reliable_exchange_completes_exactly_once_over_lossy_links() {
        let p = 4;
        for (label, plan) in [
            ("drop10%", FaultPlan::dropping(0xbad1, 100)),
            ("drop30%", FaultPlan::dropping(0xbad2, 300)),
            ("dup20%", FaultPlan::duplicating(0xbad3, 200)),
            ("delay", FaultPlan::delaying(0xbad4, 300, 2)),
            (
                "combined",
                FaultPlan {
                    seed: 0xbad5,
                    drop_per_mille: 100,
                    dup_per_mille: 100,
                    delay_per_mille: 100,
                    delay_steps: 3,
                    ..FaultPlan::default()
                },
            ),
        ] {
            let faulty = FaultyTransport::new(ChanTransport::new(p), plan);
            let exec = NetExecutor::with_transport_reliable(p, Arc::new(faulty));
            for seq in 0..5u64 {
                assert_eq!(all_to_all(&exec, seq), expected_inboxes(p), "{label}@{seq}");
            }
        }
    }

    #[test]
    fn injected_crash_kills_and_respawns_the_server_thread() {
        let p = 3;
        let plan = FaultPlan {
            crash: Some(CrashPoint {
                server: 1,
                at_seq: 7,
            }),
            ..FaultPlan::default()
        };
        let faulty = FaultyTransport::new(ChanTransport::new(p), plan);
        let exec = NetExecutor::with_transport_reliable(p, Arc::new(faulty));
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| all_to_all(&exec, 7)))
            .expect_err("the injected crash must propagate");
        assert_eq!(
            payload.downcast_ref::<InjectedCrash>(),
            Some(&InjectedCrash { server: 1 }),
            "the genuine crash wins over PeerAbort markers"
        );
        // The dead thread is respawned; a later exchange (higher seq, so
        // leftovers of the aborted round are discarded) completes and runs
        // on a thread named after the same server.
        exec.run(p, &|s| {
            let name = std::thread::current().name().unwrap().to_string();
            assert_eq!(name, format!("aj-server-{s}"));
        });
        assert_eq!(all_to_all(&exec, 8), expected_inboxes(p));
    }

    #[test]
    fn drop_joins_all_workers_cleanly_after_a_crash() {
        // Regression: dropping the executor after a fatally-crashed round
        // must neither deadlock nor leak threads. Run in a scratch thread
        // so a regression fails the test instead of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let p = 3;
            let plan = FaultPlan {
                crash: Some(CrashPoint {
                    server: 2,
                    at_seq: 0,
                }),
                ..FaultPlan::default()
            };
            let faulty = FaultyTransport::new(ChanTransport::new(p), plan);
            let exec = NetExecutor::with_transport_reliable(p, Arc::new(faulty));
            let _ = std::panic::catch_unwind(AssertUnwindSafe(|| all_to_all(&exec, 0)));
            drop(exec);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("executor drop deadlocked after a mid-exchange crash");
    }
}
