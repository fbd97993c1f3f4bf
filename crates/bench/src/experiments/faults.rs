//! **Faults** — reliable-delivery overhead under injected frame loss.
//!
//! Not a figure of the paper: this experiment prices the fault-tolerance
//! machinery. A binary join runs on the reliable network backend while a
//! seeded [`aj_mpc::FaultyTransport`] drops a configured fraction of frames
//! underneath it; the ack/retransmit protocol must deliver the *same*
//! output and the *same* measured load `L` as the fault-free sequential
//! reference at every drop rate, paying only in physical wire bytes. The
//! table reports that price: payload bytes (first copies), retransmitted
//! bytes, ack bytes, and the resulting overhead factor over the payload.
//!
//! Load `L` is logical (tuples received per server per round) and is
//! asserted identical across rates — the fault layer is invisible to the
//! paper's cost model by construction. Which frames a drop hits depends on
//! thread timing, so the retransmit/ack columns vary between runs and this
//! table stays out of the committed `BENCH_repro.json` record.

use aj_core::binary::binary_join;
use aj_core::dist::distribute_db;
use aj_mpc::{Cluster, FaultPlan};
use aj_relation::{database_from_rows, Database};

use crate::table::ExpTable;

const P: usize = 8;

/// Per-side relation size (scaled down in debug builds so the experiment
/// smoke test stays fast; `repro` release builds use the full size).
const N: u64 = if cfg!(debug_assertions) {
    2_000
} else {
    24_000
};

/// Injected drop rates, per mille: fault-free, 1%, 10%.
const DROP_PER_MILLE: [u16; 3] = [0, 10, 100];

fn instance(n: u64) -> Database {
    let q = aj_instancegen::line_query(2);
    let keys = (n / 12).max(1);
    let mut db = database_from_rows(
        &q,
        &[
            (0..n).map(|i| vec![i, i % keys]).collect(),
            (0..n).map(|i| vec![i % keys, 10_000_000 + i]).collect(),
        ],
    );
    for r in &mut db.relations {
        r.dedup();
    }
    db
}

/// Run the join once on `cluster`; return (OUT, L).
fn run_join(cluster: &mut Cluster, db: &Database) -> (usize, u64) {
    let out = {
        let mut net = cluster.net();
        let dist = distribute_db(db, P);
        let mut seed = 7;
        let mut it = dist.into_iter();
        let left = it.next().unwrap();
        let right = it.next().unwrap();
        binary_join(&mut net, left, right, &mut seed)
    };
    (out.total_len(), cluster.stats().max_load)
}

pub fn run() -> Vec<ExpTable> {
    let db = instance(N);
    let in_size = db.input_size();
    let mut reference = Cluster::new(P);
    let (out_ref, load_ref) = run_join(&mut reference, &db);

    let mut t = ExpTable::new(
        format!(
            "Faults: reliable delivery under frame loss (binary join, IN={in_size}, p={P}) — \
             same L at every drop rate"
        ),
        &[
            "drop",
            "OUT",
            "L",
            "payload(KiB)",
            "retx(KiB)",
            "ack(KiB)",
            "overhead",
        ],
    );
    for pm in DROP_PER_MILLE {
        let mut lossy =
            Cluster::new_net_faulty(P, FaultPlan::dropping(0xfau64 << 8 | pm as u64, pm));
        let (out, load) = run_join(&mut lossy, &db);
        assert_eq!(out, out_ref, "drop {pm}‰: outputs diverged");
        assert_eq!(load, load_ref, "drop {pm}‰: measured load diverged");
        let b = lossy
            .executor()
            .as_net()
            .expect("faulty cluster runs the net executor")
            .wire_breakdown();
        if pm > 0 {
            assert!(
                b.retransmit > 0,
                "drop {pm}‰ must force at least one retransmission"
            );
        }
        let kib = |x: u64| format!("{:.1}", x as f64 / 1024.0);
        t.row(vec![
            format!("{:.1}%", pm as f64 / 10.0),
            out.to_string(),
            load.to_string(),
            kib(b.payload),
            kib(b.retransmit),
            kib(b.ack),
            format!("{:.2}x", b.total() as f64 / (b.payload as f64).max(1.0)),
        ]);
    }
    t.note(
        "Identical OUT and L on every row: retransmits and acks are physical-wire costs only, \
         invisible to the paper's load measure.",
    );
    t.note(
        "overhead = total wire bytes / payload bytes; the ack floor (one empty frame per \
         delivered copy) dominates at 0% loss.",
    );
    vec![t]
}
