//! The output-optimal **binary join**, load `O(IN/p + √(OUT/p))`
//! (Beame–Koutris–Suciu \[8\], Hu–Tao–Yi \[18\]).
//!
//! Deterministic skew-handling scheme, in 12 rounds:
//!
//! 1. per-key degrees `d1(k), d2(k)` by one [`tally`] per side — sum-by-key
//!    that remembers which servers hold each key — co-located at the key
//!    owner (2 rounds);
//! 2. `OUT = Σ_k d1·d2` via one coordinator gather and scatter (2 rounds);
//!    `L = max(IN/p, √(OUT/p))`;
//! 3. **light keys** (`d1, d2 ≤ L`) are parallel-packed into groups of
//!    `O(L)` input and `O(L²)` output each, one (virtual) server per group
//!    (2 rounds);
//! 4. **heavy keys** get a `⌈d1/L⌉ × ⌈d2/L⌉` grid of virtual servers, their
//!    ranges placed by one prefix sum (2 rounds); the left side is sliced
//!    over rows (replicated across columns), the right over columns. Each
//!    grid cell receives ≤ `2L` tuples and owns a unique rectangle of output
//!    pairs;
//! 5. per side, the key owner [`answer`]s every holder its tally heard from
//!    with the key's directive and the holder's numbering offset — the
//!    multi-numbering of the paper, without an ask round — and one
//!    exchange routes the tuples (4 rounds).
//!
//! Virtual servers fold onto the `p` physical ones round-robin; the paper's
//! accounting shows the number of virtual servers is `O(p)`, so folding
//! costs a constant factor. Tuples are tagged with their virtual cell so
//! folding never produces duplicate output pairs.
//!
//! Tuples may carry extra trailing columns (annotations); they are carried
//! through and the output layout is `[left attrs][right new attrs][left
//! extras][right extras]`.
//!
//! All per-server phases (degree counting, directive answers, grid routing,
//! the final local hash join) are expressed through the round API of
//! [`aj_mpc`], so they run concurrently under a parallel executor.
//!
//! # Routing modes
//!
//! Besides the paper's exact-degree algorithm ([`binary_join`]), this module
//! provides the one-round hash family behind
//! [`crate::planner::Plan::SkewHybrid`] and the `skew` experiment:
//!
//! * [`hash_join`] — the hash-only baseline (`h(key) mod p`), worst-case
//!   optimal only on skew-free instances;
//! * [`hybrid_hash_join`] — light keys keep the identical hash routing,
//!   heavy keys (from a broadcast [`JoinSkew`] profile, see
//!   [`detect_join_skew`]) are sliced into per-key grids placed by a
//!   deterministic LPT assignment — the paper's grid scheme driven by
//!   approximate one-pass degrees instead of exact counting rounds.
//!
//! All three modes share the same cell-tagged local join and produce the
//! same output layout.

use aj_primitives::FxHashMap;

use aj_mpc::{
    detect_heavy_hitters, hash_mix, hash_to_server, HashKey, Net, Partitioned, RowOutbox, ServerId,
    TupleBlock, Wire, WireReader,
};
use aj_primitives::{answer, parallel_packing, prefix_offsets, prefix_sum, tally, Tally};
use aj_relation::skew::{grid_split, target_cell_load, JoinSkew};
use aj_relation::{Attr, Tuple};

use crate::dist::{next_seed, DistRelation};

/// Routing directive for one join key.
#[derive(Debug, Clone, Copy)]
enum Directive {
    /// All tuples of this key go to light-group `group`.
    Light { group: u64 },
    /// Grid of `rows × cols` virtual servers starting at `start` (in the
    /// heavy virtual space).
    Heavy { start: u64, rows: u64, cols: u64 },
}

impl Wire for Directive {
    fn encode(&self, out: &mut Vec<u64>) {
        match *self {
            Directive::Light { group } => out.extend([0, group]),
            Directive::Heavy { start, rows, cols } => out.extend([1, start, rows, cols]),
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        match r.word() {
            0 => Directive::Light { group: r.word() },
            1 => Directive::Heavy {
                start: r.word(),
                rows: r.word(),
                cols: r.word(),
            },
            other => panic!("wire: bad Directive tag {other}"),
        }
    }
}

/// Virtual cell id: light groups occupy `[0, G)`; heavy cells `[G, G+H)`.
type VCell = u64;

/// Output-optimal binary join (see module docs).
pub fn binary_join(
    net: &mut Net,
    left: DistRelation,
    right: DistRelation,
    seed: &mut u64,
) -> DistRelation {
    let p = net.p();
    assert_eq!(left.parts.p(), p);
    assert_eq!(right.parts.p(), p);
    let shared = left.shared_attrs(&right);
    let out_attrs = output_schema(&left, &right, &shared);
    if left.total_len() == 0 || right.total_len() == 0 {
        return DistRelation::empty(out_attrs, p);
    }
    let in_size = (left.total_len() + right.total_len()) as u64;
    let layout = JoinLayout::of(&left, &right, &shared);
    let (lkey, rkey) = (layout.lkey.clone(), layout.rkey.clone());

    // --- Degrees, co-located per key, holders remembered ------------------
    let kd = next_seed(seed);
    let left = pair_with_key(net, left.parts, &lkey);
    let right = pair_with_key(net, right.parts, &rkey);
    let d1 = tally(net, keyed_units(net, &left), kd, |a: u64, b| a + b);
    let d2 = tally(net, keyed_units(net, &right), kd, |a: u64, b| a + b);
    // Per owner: joinable keys with both degrees.
    let joinable: Vec<Vec<(Tuple, u64, u64)>> = net.run_each(|s| {
        let m2: FxHashMap<&Tuple, u64> = d2.totals.parts[s].iter().map(|(k, c)| (k, *c)).collect();
        d1.totals.parts[s]
            .iter()
            .filter_map(|(k, c1)| m2.get(k).map(|&c2| (k.clone(), *c1, c2)))
            .collect()
    });

    // --- OUT and the target load L ----------------------------------------
    let partial_out: Vec<u64> = joinable
        .iter()
        .map(|keys| keys.iter().map(|&(_, a, b)| a.saturating_mul(b)).sum())
        .collect();
    let (_, out_size) = prefix_sum(net, &partial_out);
    let load = target_load(in_size, out_size, p);

    // --- Classify keys; pack light; allocate heavy grids ------------------
    let mut light_items: Vec<Vec<(Tuple, f64)>> = Vec::with_capacity(p);
    let mut heavy_demand: Vec<Vec<(Tuple, u64, u64, u64)>> = Vec::with_capacity(p); // key, rows, cols, cells
    for keys in &joinable {
        let mut lt = Vec::new();
        let mut hv = Vec::new();
        for (k, a, b) in keys {
            if *a > load || *b > load {
                let rows = a.div_ceil(load);
                let cols = b.div_ceil(load);
                hv.push((k.clone(), rows, cols, rows * cols));
            } else {
                let lf = load as f64;
                let w = ((*a + *b) as f64 / (4.0 * lf)
                    + (a.saturating_mul(*b)) as f64 / (4.0 * lf * lf))
                    .clamp(f64::MIN_POSITIVE, 1.0);
                lt.push((k.clone(), w));
            }
        }
        light_items.push(lt);
        heavy_demand.push(hv);
    }
    let packing = parallel_packing(net, Partitioned::from_parts(light_items));
    let n_groups = packing.n_groups;
    // Heavy virtual ranges: local prefix + global prefix over cell demands.
    let heavy_totals: Vec<u64> = heavy_demand
        .iter()
        .map(|keys| keys.iter().map(|k| k.3).sum())
        .collect();
    let (heavy_bases, _n_heavy_cells) = prefix_sum(net, &heavy_totals);
    // Directives, assembled in place at the key owners (seed kd).
    let directives: Vec<FxHashMap<Tuple, Directive>> = packing
        .items
        .into_parts()
        .into_iter()
        .zip(heavy_demand)
        .enumerate()
        .map(|(s, (light, heavy))| {
            let mut v: FxHashMap<Tuple, Directive> = light
                .into_iter()
                .map(|(k, g)| (k, Directive::Light { group: g }))
                .collect();
            let mut run = heavy_bases[s];
            for (k, rows, cols, cells) in heavy {
                v.insert(
                    k,
                    Directive::Heavy {
                        start: run,
                        rows,
                        cols,
                    },
                );
                run += cells;
            }
            v
        })
        .collect();
    // The two multi-numbering seeds the tallies replace (later seeds stay).
    next_seed(seed);
    next_seed(seed);
    // --- Route both sides (columnar: cell-tagged rows in TupleBlocks) -----
    let route = |net: &mut Net, side, pairs, degrees: &Tally<Tuple, u64>, arity| {
        route_side(net, &directives, degrees, pairs, n_groups, side, arity)
    };
    let left_routed = route(net, Side::Left, left, &d1, layout.left_arity);
    let right_routed = route(net, Side::Right, right, &d2, layout.right_arity);
    // --- Local join per physical server ------------------------------------
    let sides: Vec<(TupleBlock, TupleBlock)> = left_routed.into_iter().zip(right_routed).collect();
    let out_parts: Vec<Vec<Tuple>> = net.run_local(sides, |_, (lblock, rblock)| {
        local_cell_join(&lblock, &rblock, &layout)
    });
    DistRelation {
        attrs: out_attrs,
        parts: Partitioned::from_parts(out_parts),
    }
}

/// Column bookkeeping shared by every binary-join routing mode (the paper's
/// grid router, the hash-only baseline and the skew-aware hybrid): key
/// positions on both sides, the right columns appended to each output row,
/// and the output column order `[left attrs][right new attrs][left extras]
/// [right extras]` (see the module docs on annotations).
struct JoinLayout {
    /// Positions of the join key in the left layout.
    lkey: Vec<usize>,
    /// Positions of the join key in the right layout.
    rkey: Vec<usize>,
    /// Right-side columns appended to each output row.
    right_append: Vec<usize>,
    /// Output column permutation over `[left values ++ appended]`.
    final_order: Vec<usize>,
    /// Actual left tuple arity (annotations may trail the schema).
    left_arity: usize,
    /// Actual right tuple arity.
    right_arity: usize,
}

impl JoinLayout {
    fn of(left: &DistRelation, right: &DistRelation, shared: &[Attr]) -> JoinLayout {
        let la = left.attrs.len();
        let lkey = left.positions_of(shared);
        let rkey = right.positions_of(shared);
        let right_arity = right
            .parts
            .iter()
            .flat_map(|pt| pt.first())
            .map(Tuple::arity)
            .next()
            .unwrap_or(right.attrs.len());
        let right_append: Vec<usize> = (0..right_arity)
            .filter(|&c| c >= right.attrs.len() || !shared.contains(&right.attrs[c]))
            .collect();
        let left_arity = left
            .parts
            .iter()
            .flat_map(|pt| pt.first())
            .map(Tuple::arity)
            .next()
            .unwrap_or(la);
        let right_attr_len = right.attrs.len();
        let final_order: Vec<usize> = {
            let ra_attr: Vec<usize> = right_append
                .iter()
                .enumerate()
                .filter(|(_, &c)| c < right_attr_len)
                .map(|(k, _)| left_arity + k)
                .collect();
            let ra_extra: Vec<usize> = right_append
                .iter()
                .enumerate()
                .filter(|(_, &c)| c >= right_attr_len)
                .map(|(k, _)| left_arity + k)
                .collect();
            (0..la)
                .chain(ra_attr)
                .chain(la..left_arity)
                .chain(ra_extra)
                .collect()
        };
        JoinLayout {
            lkey,
            rkey,
            right_append,
            final_order,
            left_arity,
            right_arity,
        }
    }
}

/// The per-server join of two routed, cell-tagged blocks (rows are
/// `[cell, values…]`). A two-level build-side index over the left block —
/// virtual cell → join key → row indices — scopes matching to within one
/// cell, so folding many virtual cells onto one physical server never
/// produces duplicate output pairs. The inner map is probed with a bare
/// value slice (`Borrow<[Value]>`), and rows stay in the flat blocks — the
/// probe loop allocates nothing but the output tuples themselves.
fn local_cell_join(lblock: &TupleBlock, rblock: &TupleBlock, layout: &JoinLayout) -> Vec<Tuple> {
    let mut index: FxHashMap<VCell, FxHashMap<Tuple, Vec<u32>>> = FxHashMap::default();
    let mut lkey_scratch = Vec::with_capacity(layout.lkey.len());
    for (i, row) in lblock.iter().enumerate() {
        let vals = &row[1..];
        lkey_scratch.clear();
        lkey_scratch.extend(layout.lkey.iter().map(|&c| vals[c]));
        index
            .entry(row[0])
            .or_default()
            .entry(Tuple::from_slice(&lkey_scratch))
            .or_default()
            .push(i as u32);
    }
    // When the final layout is the plain concatenation (no annotation
    // columns to interleave — the common case), outputs are built straight
    // from the two value slices.
    let order_is_identity = layout.final_order.iter().enumerate().all(|(i, &c)| i == c);
    let mut out = Vec::new();
    let mut key = Vec::with_capacity(layout.rkey.len());
    let mut appended = Vec::with_capacity(layout.right_append.len());
    let mut row_buf = Vec::with_capacity(layout.final_order.len());
    for row in rblock.iter() {
        let Some(by_key) = index.get(&row[0]) else {
            continue;
        };
        let vals = &row[1..];
        key.clear();
        key.extend(layout.rkey.iter().map(|&c| vals[c]));
        if let Some(ls) = by_key.get(key.as_slice()) {
            appended.clear();
            appended.extend(layout.right_append.iter().map(|&c| vals[c]));
            for &li in ls {
                let lv = &lblock.row(li as usize)[1..];
                if order_is_identity {
                    out.push(Tuple::from_concat(lv, &appended));
                } else {
                    // The reordered concatenation [left ++ appended]
                    // [final_order], assembled in scratch: one allocation
                    // per output tuple at most.
                    row_buf.clear();
                    row_buf.extend(layout.final_order.iter().map(|&i| {
                        if i < lv.len() {
                            lv[i]
                        } else {
                            appended[i - lv.len()]
                        }
                    }));
                    out.push(Tuple::new(row_buf.as_slice()));
                }
            }
        }
    }
    out
}

/// The target load `L = max(1, ⌈IN/p⌉, ⌈√(OUT/p)⌉)`.
pub fn target_load(in_size: u64, out_size: u64, p: usize) -> u64 {
    let a = in_size.div_ceil(p as u64);
    let b = ((out_size as f64 / p as f64).sqrt()).ceil() as u64;
    a.max(b).max(1)
}

// ---------------------------------------------------------------------------
// Hash-only and skew-aware hybrid routing
// ---------------------------------------------------------------------------

/// Detect the heavy hitters of both sides of `left ⋈ right` over their
/// shared join key: two one-pass detections
/// ([`aj_mpc::detect_heavy_hitters`], at most `k` nominations per server
/// each) merged at round barriers into a [`JoinSkew`]. Costs four control
/// rounds of `O(p·k)` units total; the result is globally known, so routing
/// can consult it for free.
pub fn detect_join_skew(
    net: &mut Net,
    left: &DistRelation,
    right: &DistRelation,
    k: usize,
) -> JoinSkew {
    let shared = left.shared_attrs(right);
    let lkey = left.positions_of(&shared);
    let rkey = right.positions_of(&shared);
    JoinSkew {
        left: detect_heavy_hitters(net, &left.parts, &lkey, k),
        right: detect_heavy_hitters(net, &right.parts, &rkey, k),
    }
}

/// The **hash-only baseline**: route every tuple to `h(key) mod p` and join
/// locally — one data round, load `IN/p + max_k(d1(k)+d2(k))` (w.h.p. over
/// the routing hash). Worst-case optimal only on skew-free instances: a
/// single heavy key concentrates its entire degree on one server, which is
/// precisely the failure mode [`hybrid_hash_join`] removes.
///
/// # Panics
/// Panics if the sides share no attribute (hash routing has no key to
/// partition on; use [`crate::hypercube`] for Cartesian products).
pub fn hash_join(
    net: &mut Net,
    left: DistRelation,
    right: DistRelation,
    seed: &mut u64,
) -> DistRelation {
    let key_arity = left.shared_attrs(&right).len();
    hybrid_hash_join(net, left, right, &JoinSkew::empty(key_arity), seed)
}

/// The **skew-aware hybrid hash join**: one data round whose routing mode is
/// decided per key by a [`JoinSkew`] profile.
///
/// * **Light keys** (not in the profile) keep the exact hash routing of
///   [`hash_join`] — same hash, same seed, same destination, same load;
///   with an empty profile the two functions are bit-identical.
/// * **Heavy keys** are sliced into a `⌈a/L⌉ × ⌈b/L⌉` grid of virtual cells
///   at the profile-derived target `L` ([`target_cell_load`]): each left
///   tuple picks one row slice (by hashing its full contents) and is
///   replicated across the columns; each right tuple picks one column slice
///   and is replicated across the rows — a broadcast degenerates to the
///   `1 × c` / `r × 1` case when one side of the key is small. A matching
///   pair meets in exactly one cell, and cells are placed on physical
///   servers by a deterministic LPT (longest-first) assignment of their
///   estimated loads, so no server receives more than ≈ `2L` units per cell
///   it hosts.
///
/// This mirrors the paper's exact heavy-key grid (see [`binary_join`]) with
/// the profile's approximate degrees standing in for the exact ones: no
/// degree-counting rounds, no per-key numbering — the price is that keys the
/// detection under-counts get coarser grids. Per-server load stays within a
/// constant of `max(IN/p, √(OUT_heavy/p))` as long as the profile covers the
/// keys above their side's fair share (e.g. via [`JoinSkew::significant`]).
///
/// Tuples may carry trailing annotation columns exactly as in
/// [`binary_join`]; the output layout is identical.
///
/// # Panics
/// Panics if the sides share no attribute.
pub fn hybrid_hash_join(
    net: &mut Net,
    left: DistRelation,
    right: DistRelation,
    skew: &JoinSkew,
    seed: &mut u64,
) -> DistRelation {
    let p = net.p();
    assert_eq!(left.parts.p(), p);
    assert_eq!(right.parts.p(), p);
    let shared = left.shared_attrs(&right);
    assert!(
        !shared.is_empty(),
        "hash routing needs a non-empty join key (use HyperCube for Cartesian products)"
    );
    let out_attrs = output_schema(&left, &right, &shared);
    if left.total_len() == 0 || right.total_len() == 0 {
        return DistRelation::empty(out_attrs, p);
    }
    let route_seed = next_seed(seed);
    let layout = JoinLayout::of(&left, &right, &shared);
    let table = HeavyTable::plan(skew, p);
    let left_routed = route_hybrid_side(
        net,
        left.parts,
        &layout.lkey,
        layout.left_arity,
        &table,
        route_seed,
        HSide::Left,
    );
    let right_routed = route_hybrid_side(
        net,
        right.parts,
        &layout.rkey,
        layout.right_arity,
        &table,
        route_seed,
        HSide::Right,
    );
    let sides: Vec<(TupleBlock, TupleBlock)> = left_routed.into_iter().zip(right_routed).collect();
    let out_parts: Vec<Vec<Tuple>> = net.run_local(sides, |_, (lblock, rblock)| {
        local_cell_join(&lblock, &rblock, &layout)
    });
    DistRelation {
        attrs: out_attrs,
        parts: Partitioned::from_parts(out_parts),
    }
}

/// Grid directive for one heavy key: cells `cell0 .. cell0 + rows·cols` in
/// the global heavy-cell space, row-major.
struct HeavyDir {
    cell0: u64,
    rows: u64,
    cols: u64,
}

/// The driver-side routing table of the hybrid join: one grid directive per
/// heavy key plus the LPT cell→server placement. A pure function of
/// `(profile, p)`, so every server derives the identical table from the
/// broadcast profile — consulting it is free.
struct HeavyTable {
    /// `(key, directive)` sorted by key for slice-probing binary search.
    dirs: Vec<(Tuple, HeavyDir)>,
    /// Physical server of each global heavy cell.
    cell_server: Vec<ServerId>,
}

impl HeavyTable {
    fn plan(skew: &JoinSkew, p: usize) -> HeavyTable {
        let load = target_cell_load(skew, p);
        let merged = skew.merged_keys();
        let mut dirs = Vec::with_capacity(merged.len());
        let mut cell_est: Vec<u64> = Vec::new();
        let mut cell0 = 0u64;
        for (key, a, b) in merged {
            let (rows, cols) = grid_split(a, b, load);
            // Every cell of this key receives at most ⌈a/rows⌉ + ⌈b/cols⌉.
            let est = a.div_ceil(rows) + b.div_ceil(cols);
            cell_est.resize(cell_est.len() + (rows * cols) as usize, est);
            dirs.push((key, HeavyDir { cell0, rows, cols }));
            cell0 += rows * cols;
        }
        // Deterministic LPT: heaviest cells first, each to the currently
        // least-loaded server (ties: lower cell index, lower server id).
        let mut order: Vec<usize> = (0..cell_est.len()).collect();
        order.sort_unstable_by(|&x, &y| cell_est[y].cmp(&cell_est[x]).then(x.cmp(&y)));
        let mut server_load = vec![0u64; p];
        let mut cell_server = vec![0usize; cell_est.len()];
        for i in order {
            let s = (0..p).min_by_key(|&s| (server_load[s], s)).expect("p >= 1");
            cell_server[i] = s;
            server_load[s] += cell_est[i];
        }
        HeavyTable { dirs, cell_server }
    }
}

#[derive(Clone, Copy)]
enum HSide {
    Left,
    Right,
}

/// Route one side of the hybrid join (columnar, one exchange): light keys
/// hash to their owner (cell tag = destination), heavy keys replicate
/// across their grid slice (cell tag = `p + global cell`, so tags never
/// collide with light tags and folding stays duplicate-free).
fn route_hybrid_side(
    net: &mut Net,
    parts: Partitioned<Tuple>,
    key_pos: &[usize],
    arity: usize,
    table: &HeavyTable,
    route_seed: u64,
    side: HSide,
) -> Vec<TupleBlock> {
    let p = net.p();
    let row_arity = arity + 1;
    // Per-side slice seeds: a tuple appearing on both sides of a self-join
    // must pick its row and column slices independently.
    let slice_seed = hash_mix(
        route_seed
            ^ match side {
                HSide::Left => 0x51de_0001,
                HSide::Right => 0x51de_0002,
            },
    );
    let outbox: Vec<RowOutbox> = net.run_local(parts.into_parts(), |_, part: Vec<Tuple>| {
        let mut ob = RowOutbox::with_capacity(row_arity, part.len());
        let mut row: Vec<u64> = Vec::with_capacity(row_arity);
        let mut key: Vec<u64> = Vec::with_capacity(key_pos.len());
        let stage = |ob: &mut RowOutbox, row: &mut Vec<u64>, cell: u64, dest: usize, t: &Tuple| {
            row.clear();
            row.push(cell);
            row.extend_from_slice(t.values());
            ob.push(dest, row);
        };
        for t in &part {
            key.clear();
            key.extend(key_pos.iter().map(|&c| t.values()[c]));
            match table
                .dirs
                .binary_search_by(|(k, _)| k.values().cmp(key.as_slice()))
            {
                Err(_) => {
                    // Light key: today's plain hash routing, bit-identical
                    // to `hash_join`.
                    let dest = hash_to_server(key.as_slice(), route_seed, p);
                    stage(&mut ob, &mut row, dest as u64, dest, t);
                }
                Ok(i) => {
                    let d = &table.dirs[i].1;
                    let slice = t.values().hash_key(slice_seed);
                    match side {
                        HSide::Left => {
                            let r = slice % d.rows;
                            for c in 0..d.cols {
                                let cell = d.cell0 + r * d.cols + c;
                                stage(
                                    &mut ob,
                                    &mut row,
                                    p as u64 + cell,
                                    table.cell_server[cell as usize],
                                    t,
                                );
                            }
                        }
                        HSide::Right => {
                            let c = slice % d.cols;
                            for r in 0..d.rows {
                                let cell = d.cell0 + r * d.cols + c;
                                stage(
                                    &mut ob,
                                    &mut row,
                                    p as u64 + cell,
                                    table.cell_server[cell as usize],
                                    t,
                                );
                            }
                        }
                    }
                }
            }
        }
        ob
    });
    net.exchange_rows(row_arity, outbox)
}

#[derive(Clone, Copy)]
enum Side {
    Left,
    Right,
}

fn keyed_units(net: &Net, pairs: &Partitioned<(Tuple, Tuple)>) -> Partitioned<(Tuple, u64)> {
    Partitioned::from_parts(
        net.run_each(|s| pairs[s].iter().map(|(k, _)| (k.clone(), 1u64)).collect()),
    )
}

fn pair_with_key(
    net: &Net,
    parts: Partitioned<Tuple>,
    key_pos: &[usize],
) -> Partitioned<(Tuple, Tuple)> {
    Partitioned::from_parts(net.run_local(parts.into_parts(), |_, part: Vec<Tuple>| {
        part.into_iter().map(|t| (t.project(key_pos), t)).collect()
    }))
}

/// Answer one side's holders with their keys' directives and numbering
/// offsets, then ship tuples to their (virtual-cell-tagged) physical
/// destinations. A key's holders are the servers its degree tally heard
/// from, so one answer round replaces a directive lookup's ask and answer
/// rounds, and the offset is the per-server prefix of the key's degree in
/// server order — the number multi-numbering assigns a server's first tuple
/// of that key. Keys without a directive (no match on the other side) get
/// no answer and their tuples are dropped locally.
///
/// Movement is columnar: each sender stages rows `[cell, values…]` in a flat
/// [`aj_mpc::RowOutbox`] (heavy tuples once per replica cell) and the radix
/// block exchange delivers per-server [`TupleBlock`]s — no per-tuple clone
/// or boxed message on the hot path. Loads are identical to the per-item
/// exchange: one unit per delivered row.
fn route_side(
    net: &mut Net,
    directives: &[FxHashMap<Tuple, Directive>],
    degrees: &Tally<Tuple, u64>,
    pairs: Partitioned<(Tuple, Tuple)>,
    n_groups: u64,
    side: Side,
    tuple_arity: usize,
) -> Vec<TupleBlock> {
    let answers = answer(net, degrees, |owner, k, _, holders, out| {
        if let Some(&d) = directives[owner].get(k) {
            out.extend(prefix_offsets(holders).map(|at| (d, at)));
        }
    });
    let p = net.p();
    let row_arity = tuple_arity + 1;
    let inputs: Vec<_> = pairs.into_parts().into_iter().zip(answers).collect();
    type Answers = FxHashMap<Tuple, (Directive, u64)>;
    let outbox: Vec<RowOutbox> = net.run_local(inputs, |_, (part, mut ans): (Vec<_>, Answers)| {
        let mut ob = RowOutbox::with_capacity(row_arity, part.len());
        let mut row = Vec::with_capacity(row_arity);
        let stage = |ob: &mut RowOutbox, row: &mut Vec<u64>, cell: u64, t: &Tuple| {
            row.clear();
            row.push(cell);
            row.extend_from_slice(t.values());
            ob.push((cell % p as u64) as usize, row);
        };
        for (k, t) in &part {
            // `next` numbers this server's tuples of `k` consecutively.
            let Some((d, next)) = ans.get_mut(k) else {
                continue; // dangling for this join: drop
            };
            let idx = *next;
            *next += 1;
            match *d {
                Directive::Light { group } => stage(&mut ob, &mut row, group, t),
                Directive::Heavy { start, rows, cols } => match side {
                    Side::Left => {
                        let r = idx % rows;
                        for c in 0..cols {
                            stage(&mut ob, &mut row, n_groups + start + r * cols + c, t);
                        }
                    }
                    Side::Right => {
                        let c = idx % cols;
                        for r in 0..rows {
                            stage(&mut ob, &mut row, n_groups + start + r * cols + c, t);
                        }
                    }
                },
            }
        }
        ob
    });
    net.exchange_rows(row_arity, outbox)
}

fn output_schema(left: &DistRelation, right: &DistRelation, shared: &[Attr]) -> Vec<Attr> {
    let mut attrs = left.attrs.clone();
    attrs.extend(right.attrs.iter().copied().filter(|a| !shared.contains(a)));
    attrs
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_mpc::Cluster;
    use aj_relation::{database_from_rows, ram, QueryBuilder, Relation};

    fn join_via_mpc(p: usize, r1: &Relation, r2: &Relation) -> (Relation, u64) {
        let mut cluster = Cluster::new(p);
        let out = {
            let mut net = cluster.net();
            let left = DistRelation::distribute(r1, p);
            let right = DistRelation::distribute(r2, p);
            let mut seed = 42;
            binary_join(&mut net, left, right, &mut seed)
        };
        (out.gather_free(), cluster.stats().max_load)
    }

    fn reference(q_attrs: (&[&str], &[&str]), r1: &Relation, r2: &Relation) -> Vec<Tuple> {
        let mut b = QueryBuilder::new();
        b.relation("R1", q_attrs.0);
        b.relation("R2", q_attrs.1);
        let q = b.build();
        let db = aj_relation::Database::new(vec![r1.clone(), r2.clone()]);
        let (_, tuples) = ram::join(&q, &db);
        tuples
    }

    fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
        v.sort_unstable();
        v
    }

    #[test]
    fn small_join_matches_oracle() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        let q = b.build();
        let db = database_from_rows(
            &q,
            &[
                vec![vec![1, 10], vec![2, 10], vec![3, 11]],
                vec![vec![10, 5], vec![10, 6], vec![12, 9]],
            ],
        );
        let (got, _) = join_via_mpc(4, &db.relations[0], &db.relations[1]);
        let want = reference(
            (&["A", "B"], &["B", "C"]),
            &db.relations[0],
            &db.relations[1],
        );
        // Normalize: output layout is A,B,C (left attrs then new); oracle is
        // ascending attrs A,B,C — same here.
        assert_eq!(sorted(got.tuples), sorted(want));
    }

    #[test]
    fn skewed_key_is_handled_by_grid() {
        // One key with d1 = d2 = 200 on p=8: output 40_000; light path would
        // overload one server; the grid must keep load near L.
        let p = 8;
        let r1 = Relation::new(vec![0, 1], (0..200).map(|i| Tuple::from([i, 7])).collect());
        let r2 = Relation::new(
            vec![1, 2],
            (0..200).map(|i| Tuple::from([7, 1000 + i])).collect(),
        );
        let (out, load) = join_via_mpc(p, &r1, &r2);
        assert_eq!(out.tuples.len(), 200 * 200);
        let l_target = target_load(400, 40_000, p);
        assert!(
            load <= 6 * l_target,
            "load {load} exceeds constant × target {l_target}"
        );
    }

    #[test]
    fn many_light_keys_balanced() {
        let p = 8;
        let n = 1024u64;
        let r1 = Relation::new(
            vec![0, 1],
            (0..n).map(|i| Tuple::from([i, i % 256])).collect(),
        );
        let r2 = Relation::new(
            vec![1, 2],
            (0..n).map(|i| Tuple::from([i % 256, i])).collect(),
        );
        let (out, load) = join_via_mpc(p, &r1, &r2);
        // Each of 256 keys: 4 × 4 = 16 results.
        assert_eq!(out.tuples.len(), 256 * 16);
        let l_target = target_load(2 * n, 256 * 16, p);
        assert!(load <= 6 * l_target, "load {load} vs target {l_target}");
    }

    #[test]
    fn empty_sides() {
        let r1 = Relation::new(vec![0, 1], vec![]);
        let r2 = Relation::new(vec![1, 2], vec![Tuple::from([1, 2])]);
        let (out, _) = join_via_mpc(2, &r1, &r2);
        assert!(out.tuples.is_empty());
    }

    #[test]
    fn disjoint_schemas_give_cartesian_product() {
        let r1 = Relation::new(vec![0], (0..30).map(|i| Tuple::from([i])).collect());
        let r2 = Relation::new(vec![1], (0..40).map(|i| Tuple::from([i])).collect());
        let (out, _) = join_via_mpc(4, &r1, &r2);
        assert_eq!(out.tuples.len(), 1200);
        assert_eq!(out.attrs, vec![0, 1]);
    }

    #[test]
    fn no_duplicate_pairs_under_folding() {
        // Force many virtual cells (heavy grid) on few physical servers and
        // check every output pair appears exactly once.
        let p = 2;
        let r1 = Relation::new(vec![0, 1], (0..50).map(|i| Tuple::from([i, 1])).collect());
        let r2 = Relation::new(vec![1, 2], (0..50).map(|i| Tuple::from([1, i])).collect());
        let (out, _) = join_via_mpc(p, &r1, &r2);
        let mut t = out.tuples.clone();
        t.sort_unstable();
        let before = t.len();
        t.dedup();
        assert_eq!(before, t.len(), "duplicate join results emitted");
        assert_eq!(before, 2500);
    }

    #[test]
    fn annotations_ride_along() {
        // Tuples with one extra trailing column each.
        let p = 2;
        let mut cluster = Cluster::new(p);
        let out = {
            let mut net = cluster.net();
            let left = DistRelation {
                attrs: vec![0, 1],
                parts: Partitioned::distribute(vec![Tuple::from([1, 5, 77])], p),
            };
            let right = DistRelation {
                attrs: vec![1, 2],
                parts: Partitioned::distribute(vec![Tuple::from([5, 9, 88])], p),
            };
            let mut seed = 1;
            binary_join(&mut net, left, right, &mut seed)
        };
        assert_eq!(out.attrs, vec![0, 1, 2]);
        let got = out.gather_free().tuples;
        assert_eq!(got, vec![Tuple::from([1, 5, 9, 77, 88])]);
    }

    fn hash_join_via_mpc(p: usize, r1: &Relation, r2: &Relation) -> (Relation, u64) {
        let mut cluster = Cluster::new(p);
        let out = {
            let mut net = cluster.net();
            let left = DistRelation::distribute(r1, p);
            let right = DistRelation::distribute(r2, p);
            let mut seed = 42;
            hash_join(&mut net, left, right, &mut seed)
        };
        (out.gather_free(), cluster.stats().max_load)
    }

    /// Detect, threshold, and run the hybrid join on one cluster; return
    /// the gathered result and the cluster's max load (detection included).
    fn hybrid_via_mpc(p: usize, k: usize, r1: &Relation, r2: &Relation) -> (Relation, u64) {
        let mut cluster = Cluster::new(p);
        let out = {
            let mut net = cluster.net();
            let left = DistRelation::distribute(r1, p);
            let right = DistRelation::distribute(r2, p);
            let skew = detect_join_skew(&mut net, &left, &right, k).significant(p);
            let mut seed = 42;
            hybrid_hash_join(&mut net, left, right, &skew, &mut seed)
        };
        (out.gather_free(), cluster.stats().max_load)
    }

    #[test]
    fn hash_join_matches_oracle() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        let q = b.build();
        let db = database_from_rows(
            &q,
            &[
                vec![vec![1, 10], vec![2, 10], vec![3, 11]],
                vec![vec![10, 5], vec![10, 6], vec![12, 9]],
            ],
        );
        let (got, _) = hash_join_via_mpc(4, &db.relations[0], &db.relations[1]);
        let want = reference(
            (&["A", "B"], &["B", "C"]),
            &db.relations[0],
            &db.relations[1],
        );
        assert_eq!(sorted(got.tuples), sorted(want));
    }

    /// With an empty profile the hybrid join *is* the hash join: identical
    /// outputs (order included) and identical stats.
    #[test]
    fn hybrid_with_empty_profile_is_bit_identical_to_hash_join() {
        let p = 8;
        let r1 = Relation::new(
            vec![0, 1],
            (0..300).map(|i| Tuple::from([i, i % 40])).collect(),
        );
        let r2 = Relation::new(
            vec![1, 2],
            (0..300).map(|i| Tuple::from([i % 40, 1000 + i])).collect(),
        );
        let run = |use_hybrid: bool| {
            let mut cluster = Cluster::new(p);
            let out = {
                let mut net = cluster.net();
                let left = DistRelation::distribute(&r1, p);
                let right = DistRelation::distribute(&r2, p);
                let mut seed = 9;
                if use_hybrid {
                    hybrid_hash_join(&mut net, left, right, &JoinSkew::empty(1), &mut seed)
                } else {
                    hash_join(&mut net, left, right, &mut seed)
                }
            };
            (out.gather_free().tuples, cluster.stats().clone())
        };
        let (hash_out, hash_stats) = run(false);
        let (hyb_out, hyb_stats) = run(true);
        assert_eq!(hash_out, hyb_out);
        assert_eq!(hash_stats, hyb_stats);
    }

    /// One dominant key on both sides: the hybrid grid must spread what the
    /// hash join concentrates, and stay correct.
    #[test]
    fn hybrid_spreads_heavy_key() {
        let p = 16;
        let heavy = 320u64;
        let mut rows1: Vec<Tuple> = (0..heavy).map(|i| Tuple::from([i, 7])).collect();
        rows1.extend((0..40).map(|i| Tuple::from([1000 + i, 100 + i % 20])));
        let mut rows2: Vec<Tuple> = (0..heavy).map(|i| Tuple::from([7, 2000 + i])).collect();
        rows2.extend((0..40).map(|i| Tuple::from([100 + i % 20, 3000 + i])));
        let r1 = Relation::new(vec![0, 1], rows1);
        let r2 = Relation::new(vec![1, 2], rows2);
        let (hash_out, hash_load) = hash_join_via_mpc(p, &r1, &r2);
        let (hyb_out, hyb_load) = hybrid_via_mpc(p, 4, &r1, &r2);
        assert_eq!(sorted(hash_out.tuples), sorted(hyb_out.tuples));
        assert!(
            hyb_load * 2 <= hash_load,
            "hybrid {hyb_load} should be well below hash {hash_load}"
        );
        let want = reference((&["A", "B"], &["B", "C"]), &r1, &r2);
        let (got, _) = hybrid_via_mpc(p, 8, &r1, &r2);
        assert_eq!(sorted(got.tuples), sorted(want));
    }

    /// A key heavy on the build side only (and vice versa): the grid
    /// degenerates to a broadcast (`r × 1` / `1 × c`) and stays correct.
    #[test]
    fn heavy_key_on_one_side_only() {
        let p = 4;
        for heavy_left in [true, false] {
            let heavy_rows: Vec<Tuple> = (0..120).map(|i| Tuple::from([i, 5])).collect();
            let light_rows: Vec<Tuple> = (0..6).map(|i| Tuple::from([5, 900 + i])).collect();
            let (r1, r2) = if heavy_left {
                (
                    Relation::new(vec![0, 1], heavy_rows.clone()),
                    Relation::new(vec![1, 2], light_rows.clone()),
                )
            } else {
                (
                    Relation::new(
                        vec![0, 1],
                        light_rows
                            .iter()
                            .map(|t| Tuple::from([t.get(1), 5]))
                            .collect(),
                    ),
                    Relation::new(
                        vec![1, 2],
                        heavy_rows
                            .iter()
                            .map(|t| Tuple::from([5, t.get(0)]))
                            .collect(),
                    ),
                )
            };
            let (hyb_out, _) = hybrid_via_mpc(p, 4, &r1, &r2);
            let want = reference((&["A", "B"], &["B", "C"]), &r1, &r2);
            assert_eq!(
                sorted(hyb_out.tuples),
                sorted(want),
                "heavy_left={heavy_left}"
            );
        }
    }

    /// Annotation columns ride through the hybrid join with the same layout
    /// as the paper's algorithm.
    #[test]
    fn hybrid_annotations_ride_along() {
        let p = 2;
        let mut cluster = Cluster::new(p);
        let out = {
            let mut net = cluster.net();
            let left = DistRelation {
                attrs: vec![0, 1],
                parts: Partitioned::distribute(vec![Tuple::from([1, 5, 77])], p),
            };
            let right = DistRelation {
                attrs: vec![1, 2],
                parts: Partitioned::distribute(vec![Tuple::from([5, 9, 88])], p),
            };
            let mut seed = 1;
            hash_join(&mut net, left, right, &mut seed)
        };
        assert_eq!(out.attrs, vec![0, 1, 2]);
        assert_eq!(
            out.gather_free().tuples,
            vec![Tuple::from([1, 5, 9, 77, 88])]
        );
    }

    #[test]
    fn output_optimal_scaling_beats_linear_in_out() {
        // OUT = 64 × IN on p = 16: L should scale like √(OUT/p), far below
        // OUT/p.
        let p = 16;
        let keys = 64u64;
        let per = 64u64; // d1 = d2 = 64 per key
        let r1 = Relation::new(
            vec![0, 1],
            (0..keys)
                .flat_map(|k| (0..per).map(move |i| Tuple::from([k * per + i, k])))
                .collect(),
        );
        let r2 = Relation::new(
            vec![1, 2],
            (0..keys)
                .flat_map(|k| (0..per).map(move |i| Tuple::from([k, 100_000 + k * per + i])))
                .collect(),
        );
        let in_size = (r1.len() + r2.len()) as u64;
        let out_size = keys * per * per;
        let (out, load) = join_via_mpc(p, &r1, &r2);
        assert_eq!(out.tuples.len() as u64, out_size);
        let l_target = target_load(in_size, out_size, p);
        let yannakakis_like = out_size / p as u64;
        assert!(load <= 6 * l_target, "load {load} vs {l_target}");
        assert!(
            load < yannakakis_like,
            "load {load} should beat OUT/p = {yannakakis_like}"
        );
    }

    /// The binary join's control plane is pinned on the `scaling`
    /// experiment's instance (fanout 12 per side, `IN = 96000`,
    /// `OUT = 576000`) at p = 8: 12 exchanges at `L = 18456` — two degree
    /// tallies, two prefix sums, the packing, one answer and one routing
    /// exchange per side. `L` is a max over rounds and cannot see an added
    /// round; this can. Before the tallies' owners answered their holders
    /// directly (multi-numbering and a directive lookup per side), the join
    /// took 18 exchanges at the same `L`.
    #[test]
    fn scaling_instance_rounds_are_pinned() {
        let (p, n, keys) = (8, 48_000u64, 4_000u64);
        let r1 = Relation::new(
            vec![0, 1],
            (0..n).map(|i| Tuple::from([i, i % keys])).collect(),
        );
        let r2 = Relation::new(
            vec![1, 2],
            (0..n)
                .map(|i| Tuple::from([i % keys, 10_000_000 + i]))
                .collect(),
        );
        let mut cluster = Cluster::new(p);
        let out = {
            let mut net = cluster.net();
            let (left, right) = (
                DistRelation::distribute(&r1, p),
                DistRelation::distribute(&r2, p),
            );
            binary_join(&mut net, left, right, &mut 7).total_len()
        };
        assert_eq!(out, 576_000);
        let stats = cluster.stats();
        assert_eq!((stats.exchanges, stats.max_load), (12, 18_456));
    }
}
