//! Differential tests for the columnar data plane: `TupleBlock` must be an
//! exact drop-in for `Vec<Tuple>` semantics (build → iterate → sort →
//! dedup), and the radix block exchange must deliver inboxes bit-identical
//! to the per-tuple exchange — same rows, same order, same `Stats` — on
//! random instances, under both executors.

use acyclic_joins::mpc::{Cluster, ParExecutor, RowOutbox};
use acyclic_joins::prelude::*;
use aj_relation::TupleBlock;
use proptest::prelude::*;

/// Deterministic pseudo-random row stream for a given seed.
fn random_rows(seed: u64, n: usize, arity: usize, domain: u64) -> Vec<Vec<u64>> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| (0..arity).map(|_| next() % domain).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Build → iterate → sort → dedup through a block matches the same
    /// pipeline through owned tuples, row for row.
    #[test]
    fn block_round_trips_against_tuples(seed in 0u64..10_000, n in 0usize..400, arity in 0usize..6) {
        let rows = random_rows(seed, n, arity, 7); // small domain forces duplicates
        let mut block = TupleBlock::new(arity);
        let mut tuples: Vec<Tuple> = Vec::new();
        for r in &rows {
            block.push_row(r);
            tuples.push(Tuple::new(r));
        }
        // Iteration order and content agree before any reordering.
        prop_assert_eq!(block.len(), tuples.len());
        for (row, t) in block.iter().zip(&tuples) {
            prop_assert_eq!(row, t.values());
        }
        prop_assert_eq!(block.to_tuples(), tuples.clone());
        // sort + dedup agree with the Vec<Tuple> reference pipeline.
        block.sort_dedup();
        tuples.sort_unstable();
        tuples.dedup();
        prop_assert_eq!(block.to_tuples(), tuples);
    }

    /// The any-arity in-place sort (the cycle-following permutation path,
    /// arity > 4) matches the `Vec<Tuple>` reference pipeline at every
    /// width, including with heavy duplication, and composes with dedup.
    #[test]
    fn wide_blocks_sort_in_place(seed in 0u64..10_000, n in 0usize..300, arity in 5usize..12) {
        let rows = random_rows(seed, n, arity, 5); // tiny domain: many duplicates, long cycles
        let mut block = TupleBlock::new(arity);
        let mut tuples: Vec<Tuple> = Vec::new();
        for r in &rows {
            block.push_row(r);
            tuples.push(Tuple::new(r));
        }
        block.sort_rows();
        tuples.sort_unstable();
        prop_assert_eq!(block.to_tuples(), tuples.clone());
        block.dedup_rows();
        tuples.dedup();
        prop_assert_eq!(block.to_tuples(), tuples);
    }

    /// Projection through a block matches per-tuple projection.
    #[test]
    fn block_projection_matches_tuples(seed in 0u64..10_000, n in 0usize..300) {
        let rows = random_rows(seed, n, 4, 1000);
        let tuples: Vec<Tuple> = rows.iter().map(Tuple::new).collect();
        let block = TupleBlock::from_tuples(4, &tuples);
        let positions = [3usize, 1, 1];
        let mut out = TupleBlock::new(3);
        block.project_into(&positions, &mut out);
        let want: Vec<Tuple> = rows.iter().map(|r| Tuple::new(r).project(&positions)).collect();
        prop_assert_eq!(out.to_tuples(), want);
    }

    /// The radix block exchange delivers exactly the inboxes of the
    /// per-tuple exchange — identical rows, identical (sender, send-order)
    /// order, identical stats — on random instances, on both executors.
    #[test]
    fn radix_exchange_bit_identical_to_per_tuple(
        seed in 0u64..10_000,
        p in 1usize..9,
        per_server in 0usize..150,
        arity in 1usize..5,
    ) {
        let shards: Vec<Vec<Vec<u64>>> = (0..p)
            .map(|s| random_rows(seed ^ (s as u64) << 32, per_server, arity, 1 << 20))
            .collect();
        let dest_of = |row: &[u64]| (row.iter().sum::<u64>() % p as u64) as usize;

        // Reference: per-tuple exchange on a sequential cluster.
        let mut ref_cluster = Cluster::new(p);
        let ref_inbox = ref_cluster.net().exchange(
            shards
                .iter()
                .map(|rows| rows.iter().map(|r| (dest_of(r), r.clone())).collect())
                .collect(),
        );

        // Block exchange, sequential and 4-thread parallel.
        let build_outbox = || -> Vec<RowOutbox> {
            shards
                .iter()
                .map(|rows| {
                    let mut ob = RowOutbox::with_capacity(arity, rows.len());
                    for r in rows {
                        ob.push(dest_of(r), r);
                    }
                    ob
                })
                .collect()
        };
        let mut seq = Cluster::new(p);
        let seq_inbox = seq.net().exchange_rows(arity, build_outbox());
        let mut par = Cluster::with_executor(p, Box::new(ParExecutor::with_threads(4)));
        let par_inbox = par.net().exchange_rows(arity, build_outbox());

        prop_assert_eq!(&seq_inbox, &par_inbox);
        prop_assert_eq!(seq.stats(), par.stats());
        prop_assert_eq!(seq.stats(), ref_cluster.stats());
        for (items, block) in ref_inbox.iter().zip(&seq_inbox) {
            prop_assert_eq!(items.len(), block.len());
            for (item, row) in items.iter().zip(block.iter()) {
                prop_assert_eq!(item.as_slice(), row);
            }
        }
    }
}

/// Rows that need replication (the HyperCube pattern: one row, many cells)
/// are staged once per destination and arrive exactly as the per-tuple
/// exchange would deliver the clones.
#[test]
fn replicated_rows_match_per_tuple_clones() {
    let p = 4;
    let rows = random_rows(7, 64, 2, 100);
    let mut ref_cluster = Cluster::new(p);
    let ref_inbox = ref_cluster.net().exchange(
        (0..p)
            .map(|s| {
                if s != 0 {
                    return Vec::new();
                }
                rows.iter()
                    .flat_map(|r| (0..p).map(move |d| (d, r.clone())))
                    .collect()
            })
            .collect(),
    );
    let mut cluster = Cluster::new(p);
    let inbox = cluster.net().exchange_rows(2, {
        (0..p)
            .map(|s| {
                let mut ob = RowOutbox::new(2);
                if s == 0 {
                    for r in &rows {
                        for d in 0..p {
                            ob.push(d, r);
                        }
                    }
                }
                ob
            })
            .collect()
    });
    assert_eq!(cluster.stats(), ref_cluster.stats());
    for (items, block) in ref_inbox.iter().zip(&inbox) {
        assert_eq!(items.len(), block.len());
        for (item, row) in items.iter().zip(block.iter()) {
            assert_eq!(item.as_slice(), row);
        }
    }
}

/// A cluster whose `ParExecutor` pool is reused across many exchanges (the
/// serving pattern: one long-lived cluster, thousands of regions) keeps
/// producing inboxes and stats identical to fresh sequential clusters.
#[test]
fn persistent_pool_reuse_stays_bit_identical() {
    let p = 6;
    let mut par = Cluster::with_executor(p, Box::new(ParExecutor::with_threads(4)));
    for round in 0..60u64 {
        let arity = 1 + (round % 3) as usize;
        let shards: Vec<Vec<Vec<u64>>> = (0..p)
            .map(|s| random_rows(round ^ (s as u64) << 40, 90, arity, 512))
            .collect();
        let dest_of = |row: &[u64]| (row[0] % p as u64) as usize;
        let build = || {
            shards
                .iter()
                .map(|rows| {
                    let mut ob = RowOutbox::with_capacity(arity, rows.len());
                    for r in rows {
                        ob.push(dest_of(r), r);
                    }
                    ob
                })
                .collect()
        };
        let mut seq = Cluster::new(p);
        let seq_inbox = seq.net().exchange_rows(arity, build());
        par.begin_epoch();
        let par_inbox = par.net().exchange_rows(arity, build());
        assert_eq!(seq_inbox, par_inbox, "round {round}");
        // The long-lived cluster accumulates stats; compare its one-round
        // epoch against the fresh cluster's totals.
        let par_round = par.epoch();
        assert_eq!(par_round.exchanges, 1, "round {round}");
        assert_eq!(par_round.max_load, seq.stats().max_load, "round {round}");
        assert_eq!(
            par_round.per_server_peak,
            seq.stats().per_server_peak,
            "round {round}"
        );
    }
}

/// Skew-free routing stays bit-identical to the pre-skew data plane: on a
/// uniform instance the detected-and-thresholded profile is empty, and the
/// hybrid join's rounds — stats included — are exactly the hash join's, on
/// both executors.
#[test]
fn skew_free_hybrid_routing_is_bit_identical_to_hash() {
    use acyclic_joins::core::binary::{detect_join_skew, hash_join, hybrid_hash_join};
    use acyclic_joins::core::DistRelation;
    let p = 8;
    let rows1 = random_rows(0xaa, 600, 2, 97);
    let rows2 = random_rows(0xbb, 600, 2, 97);
    let rel = |attrs: Vec<usize>, rows: &[Vec<u64>]| {
        let mut r = acyclic_joins::relation::Relation::new(
            attrs,
            rows.iter().map(|r| Tuple::new(r.as_slice())).collect(),
        );
        r.dedup();
        r
    };
    let left = rel(vec![0, 1], &rows1);
    let right = rel(vec![1, 2], &rows2);
    let run = |parallel: bool, hybrid: bool| {
        let mut cluster = if parallel {
            Cluster::with_executor(p, Box::new(ParExecutor::with_threads(4)))
        } else {
            Cluster::new(p)
        };
        let skew = {
            let mut net = cluster.net();
            let l = DistRelation::distribute(&left, p);
            let r = DistRelation::distribute(&right, p);
            detect_join_skew(&mut net, &l, &r, 16).significant(p)
        };
        assert!(
            !skew.is_skewed(),
            "uniform keys must threshold to an empty profile"
        );
        cluster.reset_stats(); // compare the join rounds in isolation
        let out = {
            let mut net = cluster.net();
            let l = DistRelation::distribute(&left, p);
            let r = DistRelation::distribute(&right, p);
            let mut seed = 11;
            if hybrid {
                hybrid_hash_join(&mut net, l, r, &skew, &mut seed)
            } else {
                hash_join(&mut net, l, r, &mut seed)
            }
        };
        (out.gather_free().tuples, cluster.stats().clone())
    };
    let (hash_out, hash_stats) = run(false, false);
    for (parallel, hybrid) in [(false, true), (true, false), (true, true)] {
        let (out, stats) = run(parallel, hybrid);
        assert_eq!(out, hash_out, "parallel={parallel} hybrid={hybrid}");
        assert_eq!(stats, hash_stats, "parallel={parallel} hybrid={hybrid}");
    }
}

// ---------------------------------------------------------------------------
// Wire codec: every frame that crosses the network backend must round-trip
// exactly, and encoding must be canonical (repeated encodes byte-identical),
// or the conformance oracle's bit-identity guarantee has no foundation.
// ---------------------------------------------------------------------------

use acyclic_joins::mpc::{Frame, FrameKind, Wire};

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Rows frames round-trip `TupleBlock`s of every arity 0–8 — through
    /// words, through bytes, and through the stream reader — and repeated
    /// encodes of the same frame are byte-identical.
    #[test]
    fn wire_rows_frames_round_trip(
        seed in 0u64..10_000,
        n in 0usize..200,
        arity in 0usize..9,
        seq in 0u64..1_000,
        from in 0u64..16,
    ) {
        let rows = random_rows(seed, n, arity, 50);
        let mut block = TupleBlock::new(arity);
        for r in &rows {
            block.push_row(r);
        }
        let frame = Frame::new(FrameKind::Rows, seq, from, &block);
        // Word-level round trip.
        let back = Frame::decode_words(&frame.encode_words());
        prop_assert_eq!(&back, &frame);
        let decoded: TupleBlock = back.decode_body();
        prop_assert_eq!(decoded.to_tuples(), block.to_tuples());
        // Canonical: two encodes of one logical frame are byte-identical.
        prop_assert_eq!(frame.to_bytes(), back.to_bytes());
        prop_assert_eq!(frame.wire_bytes() as usize, frame.to_bytes().len());
        // Stream round trip: one frame, then clean EOF.
        let bytes = frame.to_bytes();
        let mut cursor = std::io::Cursor::new(bytes);
        let streamed = Frame::read_from(&mut cursor).unwrap();
        prop_assert_eq!(streamed, Some(frame));
        prop_assert_eq!(Frame::read_from(&mut cursor).unwrap(), None);
    }

    /// Signed delta-weight payloads — the incremental engine's update
    /// traffic — round-trip with their signs intact, including `i64::MIN`
    /// magnitudes mixed in.
    #[test]
    fn wire_signed_deltas_round_trip(
        seed in 0u64..10_000,
        n in 0usize..100,
        arity in 0usize..5,
        extreme in 0usize..3,
    ) {
        let rows = random_rows(seed, n, arity, 20);
        let mut deltas: Vec<(Tuple, i64)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let w = (i as i64 - n as i64 / 2) * 3;
                (Tuple::new(r), w)
            })
            .collect();
        if extreme > 0 && !deltas.is_empty() {
            deltas[0].1 = i64::MIN;
        }
        if extreme > 1 && deltas.len() > 1 {
            deltas[1].1 = i64::MAX;
        }
        let frame = Frame::new(FrameKind::Items, seed, 0, &deltas);
        let back = Frame::decode_words(&frame.encode_words());
        let decoded: Vec<(Tuple, i64)> = back.decode_body();
        prop_assert_eq!(decoded, deltas);
    }
}

/// Empty frames are legal traffic (every view member sends to every view
/// member each exchange, most frames carry nothing) — they must round-trip
/// and cost exactly the fixed header.
#[test]
fn wire_empty_frames_round_trip() {
    let empty_items = Frame::new(FrameKind::Items, 7, 3, &Vec::<(Tuple, u64)>::new());
    let back = Frame::decode_words(&empty_items.encode_words());
    assert_eq!(back, empty_items);
    let decoded: Vec<(Tuple, u64)> = back.decode_body();
    assert!(decoded.is_empty());
    // length-prefix word + (magic, kind, seq, from, body_len) + 1 body word
    // for the Vec length.
    assert_eq!(empty_items.wire_bytes(), 8 * (1 + 5 + 1));

    let empty_rows = Frame::new(FrameKind::Rows, 0, 0, &TupleBlock::new(4));
    let back = Frame::decode_words(&empty_rows.encode_words());
    let decoded: TupleBlock = back.decode_body();
    assert_eq!(decoded.len(), 0);
    assert_eq!(decoded.arity(), 4);
}

/// Tuples at the inline/heap representation boundary (arity 3 is the widest
/// inline tuple) encode identically regardless of which representation the
/// sender held: the codec sees values, not storage.
#[test]
fn wire_tuples_cross_inline_boundary() {
    for arity in 0..=6usize {
        let values: Vec<u64> = (0..arity as u64).map(|i| i * 1_000_003).collect();
        let t = Tuple::new(&values);
        let mut words = Vec::new();
        t.encode(&mut words);
        assert_eq!(words[0], arity as u64, "arity prefix");
        assert_eq!(words.len(), 1 + arity);
        let mut r = acyclic_joins::mpc::WireReader::new(&words);
        let back = Tuple::decode(&mut r);
        assert!(r.is_exhausted());
        assert_eq!(back, t);
        // Canonical across re-encodes of the decoded value.
        let mut words2 = Vec::new();
        back.encode(&mut words2);
        assert_eq!(words2, words);
    }
}
