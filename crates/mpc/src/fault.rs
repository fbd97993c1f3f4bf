//! Deterministic fault injection for the network backend: a seeded
//! [`FaultyTransport`] wrapper driven by a replayable [`FaultPlan`].
//!
//! Transports under test are assumed perfect everywhere else in the
//! workspace; this module makes them adversarial on purpose. A
//! `FaultyTransport` sits between the cluster's wire routing and a real
//! transport and, per sent frame, may
//!
//! * **drop** it (never delivered),
//! * **duplicate** it (delivered twice back-to-back),
//! * **delay** it by N *steps* — held back until at least N further frames
//!   have been sent on the same directed link, which breaks per-link FIFO
//!   order, a strictly stronger reordering than
//!   [`crate::ShuffleTransport`]'s cross-sender shuffle,
//! * **partition** a link one-shot (a contiguous window of frames on one
//!   unordered server pair is dropped), or
//! * **crash** a server: the first send matching the plan's crash point
//!   panics with an [`InjectedCrash`] payload, which the
//!   [`crate::NetExecutor`] pool treats as a fatal server-thread death
//!   (the thread exits and is respawned by the supervisor at the next
//!   round).
//!
//! # Determinism and replayability
//!
//! Every per-frame decision is a pure function of `(plan.seed, from, to,
//! n)` where `n` is the frame's ordinal on its directed link — no clocks,
//! no global counters shared across links. Two runs that push the same
//! per-link frame sequences therefore see byte-identical fault schedules;
//! the plan is a value, so a failing schedule can be replayed exactly.
//!
//! Faults apply to **every** frame — payload, retransmission, and ack alike
//! — so the reliable-delivery layer's lost-ack and duplicated-retransmit
//! paths are genuinely exercised. Lossy plans require the reliable exchange
//! protocol ([`crate::Cluster::new_net_faulty`] enables it); under the raw
//! protocol a dropped frame would block a receiver forever.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::transport::Transport;
use crate::wire::Frame;

/// A one-shot partition of one unordered server pair: frames `after ..
/// after + len` (per-direction ordinals) on the links `a → b` and `b → a`
/// are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkPartition {
    /// One side of the partitioned pair.
    pub a: usize,
    /// The other side.
    pub b: usize,
    /// First affected frame ordinal on each direction of the link.
    pub after: u64,
    /// Number of consecutive frames dropped per direction.
    pub len: u64,
}

impl LinkPartition {
    fn covers(&self, from: usize, to: usize, n: u64) -> bool {
        let on_link = (from == self.a && to == self.b) || (from == self.b && to == self.a);
        on_link && n >= self.after && n < self.after.saturating_add(self.len)
    }
}

/// A one-shot injected server-thread crash: the first frame `server` sends
/// with sequence number `at_seq` panics with [`InjectedCrash`] instead of
/// being delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Absolute id of the server whose thread dies.
    pub server: usize,
    /// Exchange sequence number at which the crash fires.
    pub at_seq: u64,
}

/// The panic payload of an injected server crash. The network pool
/// recognizes it, marks the worker thread dead (the thread really exits),
/// and respawns a fresh thread for that server at the next round — the
/// "dead server" a crash-recovery supervisor must detect and absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedCrash {
    /// Absolute id of the crashed server.
    pub server: usize,
}

/// A replayable schedule of faults: seeded probabilistic drop / duplicate /
/// delay rates (per mille), plus optional one-shot partition and crash
/// events. `FaultPlan::default()` injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed of the per-frame decision stream.
    pub seed: u64,
    /// Per-mille probability of dropping a frame.
    pub drop_per_mille: u16,
    /// Per-mille probability of duplicating a frame.
    pub dup_per_mille: u16,
    /// Per-mille probability of delaying a frame by
    /// [`FaultPlan::delay_steps`] link steps.
    pub delay_per_mille: u16,
    /// How many further frames must pass on the same directed link before a
    /// delayed frame is released.
    pub delay_steps: u64,
    /// One-shot link partition, if any.
    pub partition: Option<LinkPartition>,
    /// One-shot injected server crash, if any.
    pub crash: Option<CrashPoint>,
}

impl FaultPlan {
    /// A plan that only drops frames, at `per_mille / 1000` probability.
    pub fn dropping(seed: u64, per_mille: u16) -> Self {
        FaultPlan {
            seed,
            drop_per_mille: per_mille,
            ..FaultPlan::default()
        }
    }

    /// A plan that only duplicates frames.
    pub fn duplicating(seed: u64, per_mille: u16) -> Self {
        FaultPlan {
            seed,
            dup_per_mille: per_mille,
            ..FaultPlan::default()
        }
    }

    /// A plan that only delays frames (by `steps` link steps each).
    pub fn delaying(seed: u64, per_mille: u16, steps: u64) -> Self {
        FaultPlan {
            seed,
            delay_per_mille: per_mille,
            delay_steps: steps,
            ..FaultPlan::default()
        }
    }
}

/// Splitmix64-quality mixer (local copy; see `transport::splitmix`).
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What the plan decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Deliver,
    Drop,
    Duplicate,
    /// Hold until the link's ordinal reaches the tagged value.
    Delay(u64),
}

/// Per-directed-link mutable state: the frame ordinal counter and the
/// delayed-frame stash.
#[derive(Default)]
struct LinkState {
    /// Frames sent on this link so far (the ordinal of the next frame).
    sent: u64,
    /// Held-back frames, tagged with the ordinal that releases them.
    delayed: Vec<(u64, Frame)>,
}

/// A [`Transport`] wrapper injecting the faults of a [`FaultPlan`].
///
/// See the module docs for the fault model and determinism argument. The
/// wrapper owns one mutex per directed link; a link lock is never held
/// across a call into the inner transport, so no lock-order edge toward the
/// inner queues exists.
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan,
    p: usize,
    /// `links[from * p + to]`.
    links: Vec<Mutex<LinkState>>,
    /// One-shot latch of the plan's crash point.
    crashed: AtomicBool,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wrap `inner` with the given fault plan.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        let p = inner.endpoints();
        FaultyTransport {
            inner,
            plan,
            p,
            links: (0..p * p)
                .map(|_| Mutex::new(LinkState::default()))
                .collect(),
            crashed: AtomicBool::new(false),
        }
    }

    /// The plan this wrapper replays.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn lock_link(&self, from: usize, to: usize) -> std::sync::MutexGuard<'_, LinkState> {
        self.links[from * self.p + to]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn endpoints(&self) -> usize {
        self.inner.endpoints()
    }

    fn send(&self, from: usize, to: usize, frame: Frame) {
        // Crash check first, outside every lock: the panic must not poison
        // link or queue state the surviving servers still use.
        if let Some(c) = self.plan.crash {
            if from == c.server
                && frame.seq == c.at_seq
                && !self.crashed.swap(true, Ordering::AcqRel)
            {
                std::panic::panic_any(InjectedCrash { server: from });
            }
        }
        let (fate, due) = {
            let mut link = self.lock_link(from, to);
            let n = link.sent;
            link.sent += 1;
            // Frames from earlier ordinals whose delay expired are released
            // *after* the current frame below — that is what breaks FIFO.
            let mut due: Vec<Frame> = Vec::new();
            let mut i = 0;
            while i < link.delayed.len() {
                if link.delayed[i].0 <= n {
                    due.push(link.delayed.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
            let h = mix(mix(self.plan.seed, ((from as u64) << 32) | to as u64), n);
            let partitioned = self.plan.partition.is_some_and(|pt| pt.covers(from, to, n));
            let fate = if partitioned || h % 1000 < self.plan.drop_per_mille as u64 {
                Fate::Drop
            } else if (h >> 10) % 1000 < self.plan.dup_per_mille as u64 {
                Fate::Duplicate
            } else if (h >> 20) % 1000 < self.plan.delay_per_mille as u64 {
                Fate::Delay(n + self.plan.delay_steps)
            } else {
                Fate::Deliver
            };
            if let Fate::Delay(release_at) = fate {
                link.delayed.push((release_at, frame.clone()));
            }
            (fate, due)
        };
        // Inner sends happen outside the link lock.
        match fate {
            Fate::Deliver => self.inner.send(from, to, frame),
            Fate::Duplicate => {
                self.inner.send(from, to, frame.clone());
                self.inner.send(from, to, frame);
            }
            Fate::Drop | Fate::Delay(_) => {}
        }
        for f in due {
            self.inner.send(from, to, f);
        }
    }

    fn recv(&self, at: usize) -> Frame {
        self.inner.recv(at)
    }

    fn try_recv(&self, at: usize) -> Option<Frame> {
        self.inner.try_recv(at)
    }

    fn name(&self) -> &'static str {
        "faulty"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChanTransport;
    use crate::wire::FrameKind;

    fn frame(seq: u64, from: u64, payload: u64) -> Frame {
        Frame::new(FrameKind::Items, seq, from, &payload)
    }

    fn drain(t: &dyn Transport, at: usize) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(f) = t.try_recv(at) {
            out.push(f.decode_body::<u64>());
        }
        out
    }

    #[test]
    fn default_plan_is_transparent() {
        let t = FaultyTransport::new(ChanTransport::new(2), FaultPlan::default());
        for i in 0..50u64 {
            t.send(0, 1, frame(0, 0, i));
        }
        assert_eq!(drain(&t, 1), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn drop_schedule_is_deterministic() {
        let run = || {
            let t = FaultyTransport::new(ChanTransport::new(2), FaultPlan::dropping(0xfa_117, 300));
            for i in 0..200u64 {
                t.send(0, 1, frame(0, 0, i));
            }
            drain(&t, 1)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same plan, same link sequence, same schedule");
        assert!(a.len() < 200, "a 30% plan must drop something");
        assert!(!a.is_empty(), "a 30% plan must deliver something");
    }

    #[test]
    fn duplicates_arrive_back_to_back() {
        let t = FaultyTransport::new(ChanTransport::new(2), FaultPlan::duplicating(7, 1000));
        t.send(0, 1, frame(0, 0, 42));
        assert_eq!(drain(&t, 1), vec![42, 42]);
    }

    #[test]
    fn delay_breaks_link_fifo() {
        // Delay everything by 1 step: frame k is released by the send of
        // frame k+1, so arrival order inverts pairwise and the final frame
        // stays stuck until another send happens.
        let t = FaultyTransport::new(ChanTransport::new(2), FaultPlan::delaying(7, 1000, 1));
        for i in 0..4u64 {
            t.send(0, 1, frame(0, 0, i));
        }
        let got = drain(&t, 1);
        assert_eq!(got, vec![0, 1, 2], "frame 3 still held");
        assert_ne!(
            got,
            Vec::<u64>::new(),
            "delayed frames are released by later sends"
        );
    }

    #[test]
    fn partition_drops_exactly_the_window() {
        let plan = FaultPlan {
            partition: Some(LinkPartition {
                a: 0,
                b: 1,
                after: 2,
                len: 3,
            }),
            ..FaultPlan::default()
        };
        let t = FaultyTransport::new(ChanTransport::new(2), plan);
        for i in 0..8u64 {
            t.send(0, 1, frame(0, 0, i));
        }
        assert_eq!(drain(&t, 1), vec![0, 1, 5, 6, 7]);
        // The reverse direction is partitioned on its own ordinals.
        for i in 0..3u64 {
            t.send(1, 0, frame(0, 1, i));
        }
        assert_eq!(drain(&t, 0), vec![0, 1], "ordinal 2 opens the window");
    }

    #[test]
    fn crash_point_fires_exactly_once() {
        let plan = FaultPlan {
            crash: Some(CrashPoint {
                server: 0,
                at_seq: 5,
            }),
            ..FaultPlan::default()
        };
        let t = FaultyTransport::new(ChanTransport::new(2), plan);
        t.send(0, 1, frame(4, 0, 1)); // wrong seq: no crash
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.send(0, 1, frame(5, 0, 2))
        }))
        .expect_err("crash point must fire");
        assert_eq!(
            err.downcast_ref::<InjectedCrash>(),
            Some(&InjectedCrash { server: 0 })
        );
        assert!(t.crashed.load(Ordering::Acquire));
        // One-shot: the same (server, seq) send now goes through.
        t.send(0, 1, frame(5, 0, 3));
        assert_eq!(drain(&t, 1), vec![1, 3]);
    }
}
