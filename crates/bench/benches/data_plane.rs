//! Wall-clock micro-benchmarks of the columnar data plane: `TupleBlock`
//! versus `Vec<Tuple>` for build/sort/dedup/project, `FxHashMap` versus the
//! SipHash-backed `std::collections::HashMap` for build-side indexes, and
//! skewed-vs-uniform binary-join routing (hash-only vs hybrid).
//!
//! Run with `cargo bench --bench data_plane`; pass `--smoke` for the
//! CI-bounded variant (tiny time budget, few iterations) that exists to
//! fail loudly if one of these paths regresses into pathological territory.

use std::collections::HashMap;
use std::time::Duration;

use aj_bench::microbench::{bench, black_box, default_budget};
use aj_mpc::Cluster;
use aj_primitives::FxHashMap;
use aj_relation::{Tuple, TupleBlock};

fn rows(n: u64) -> Vec<[u64; 3]> {
    (0..n)
        .map(|i| [i % 977, i.wrapping_mul(0x9e37), i])
        .collect()
}

fn bench_block_vs_tuple(budget: Duration, min_iters: usize) {
    let data = rows(100_000);

    bench("block/build+sort+dedup/100k", budget, min_iters, || {
        let mut b = TupleBlock::with_capacity(3, data.len());
        for r in &data {
            b.push_row(r);
        }
        b.sort_dedup();
        black_box(b.len())
    });
    bench("tuple/build+sort+dedup/100k", budget, min_iters, || {
        let mut v: Vec<Tuple> = data.iter().map(|r| Tuple::from(*r)).collect();
        v.sort_unstable();
        v.dedup();
        black_box(v.len())
    });

    let block = {
        let mut b = TupleBlock::with_capacity(3, data.len());
        for r in &data {
            b.push_row(r);
        }
        b
    };
    let tuples: Vec<Tuple> = data.iter().map(|r| Tuple::from(*r)).collect();
    bench("block/project/100k", budget, min_iters, || {
        let mut out = TupleBlock::with_capacity(2, block.len());
        block.project_into(&[2, 0], &mut out);
        black_box(out.len())
    });
    bench("tuple/project/100k", budget, min_iters, || {
        let out: Vec<Tuple> = tuples.iter().map(|t| t.project(&[2, 0])).collect();
        black_box(out.len())
    });
}

fn bench_hash_maps(budget: Duration, min_iters: usize) {
    let keys: Vec<Tuple> = (0..50_000u64)
        .map(|i| Tuple::from([i % 8192, i % 3]))
        .collect();

    bench("fxmap/build+probe/50k", budget, min_iters, || {
        let mut m: FxHashMap<Tuple, u64> = FxHashMap::default();
        for k in &keys {
            *m.entry(k.clone()).or_insert(0) += 1;
        }
        let mut hits = 0u64;
        for k in &keys {
            hits += m.get(k.values()).copied().unwrap_or(0);
        }
        black_box(hits)
    });
    bench("sipmap/build+probe/50k", budget, min_iters, || {
        let mut m: HashMap<Tuple, u64> = HashMap::new();
        for k in &keys {
            *m.entry(k.clone()).or_insert(0) += 1;
        }
        let mut hits = 0u64;
        for k in &keys {
            hits += m.get(k.values()).copied().unwrap_or(0);
        }
        black_box(hits)
    });
}

/// Skewed-vs-uniform routing: the hash-only and hybrid binary joins on a
/// Zipf(1.1) instance and a uniform one. Timings are informational; the
/// invariant that fails loudly is the load relation — hybrid ≤ hash under
/// skew, hybrid ≡ hash without it.
fn bench_skew_routing(budget: Duration, min_iters: usize) {
    use aj_core::binary::{detect_join_skew, hash_join, hybrid_hash_join};
    use aj_core::dist::DistRelation;
    let p = 16usize;
    for (name, s) in [("zipf1.1", 1.1f64), ("uniform", 0.0)] {
        let inst = aj_instancegen::skew::zipf_binary(10_000, s, 64, 0x5eed);
        let sides = || {
            (
                DistRelation::distribute(&inst.db.relations[0], p),
                DistRelation::distribute(&inst.db.relations[1], p),
            )
        };
        let skew = {
            let mut cluster = Cluster::new(p);
            let mut net = cluster.net();
            let (l, r) = sides();
            detect_join_skew(&mut net, &l, &r, 16).significant(p)
        };
        let mut loads = (0u64, 0u64);
        bench(&format!("join/hash/{name}/20k"), budget, min_iters, || {
            let mut cluster = Cluster::new(p);
            let out = {
                let mut net = cluster.net();
                let (l, r) = sides();
                let mut seed = 7;
                hash_join(&mut net, l, r, &mut seed).total_len()
            };
            loads.0 = cluster.stats().max_load;
            black_box(out)
        });
        bench(
            &format!("join/hybrid/{name}/20k"),
            budget,
            min_iters,
            || {
                let mut cluster = Cluster::new(p);
                let out = {
                    let mut net = cluster.net();
                    let (l, r) = sides();
                    let mut seed = 7;
                    hybrid_hash_join(&mut net, l, r, &skew, &mut seed).total_len()
                };
                loads.1 = cluster.stats().max_load;
                black_box(out)
            },
        );
        let (hash_load, hybrid_load) = loads;
        if s > 1.0 {
            assert!(
                hybrid_load < hash_load,
                "{name}: hybrid load {hybrid_load} must beat hash {hash_load}"
            );
        } else {
            assert_eq!(
                hybrid_load, hash_load,
                "{name}: empty profile is bit-identical"
            );
        }
        println!("{name:<22} L(hash) {hash_load:>8}  L(hybrid) {hybrid_load:>8}");
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (budget, min_iters) = if smoke {
        (Duration::from_millis(60), 2)
    } else {
        (default_budget(), 5)
    };
    if smoke {
        println!("data_plane microbenchmarks (smoke mode: bounded iterations)");
    }
    bench_block_vs_tuple(budget, min_iters);
    bench_hash_maps(budget, min_iters);
    bench_skew_routing(budget, min_iters);
}
