//! The four workloads: inputs made from `--seed`, with their oracle counts.
//!
//! Seed 0 reproduces the instances the README names exactly. Any other seed
//! re-seeds the random generators, relabels every value by one seeded offset
//! (joins are preserved, hash placement is not) and shuffles row order (the
//! free initial placement changes).

use std::collections::HashMap;

use crate::stats::mix64;
use crate::sut::{self, gen, Database, Query, Tuple, UpdateBatch};

pub const NAMES: [&str; 4] = ["serve_mixed", "bulk_line3", "bulk_binary", "view_updates"];

/// Instance scales, repetition counts and probe sizes. `full` is what the
/// benchmark measures; `smoke` keeps a debug build under a few seconds for
/// the unit tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `serve_mixed`: tuples per relation and instances per shape.
    pub mixed_n: u64,
    pub mixed_per_shape: usize,
    /// `bulk_line3`: `fig3::two_sided(n, 16 n)`.
    pub line3_n: u64,
    /// `bulk_binary`: tuples per side (fan-out 12).
    pub binary_n: u64,
    /// Ops per pass of the two bulk workloads.
    pub bulk_pass_ops: usize,
    /// `view_updates`: view scale, batches per pass, timed passes per stream.
    pub view_n: u64,
    pub view_pass_batches: usize,
    pub view_passes: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Every backend runs at least this many timed passes, and `seq` at
    /// least this many timed ops (so p90 has ten samples beyond it).
    pub min_passes: usize,
    pub min_seq_ops: usize,
    /// Words the canary kernel mixes per sample.
    pub canary_words: usize,
    /// Synthetic probes: rows routed, items per primitive, rows per codec
    /// block, repetitions of a microsecond-scale / millisecond-scale probe.
    pub probe_route_rows: usize,
    pub probe_items: usize,
    pub probe_wire_rows: usize,
    pub probe_small_iters: usize,
    pub probe_bulk_iters: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            mixed_n: 256,
            mixed_per_shape: 6,
            line3_n: 8192,
            binary_n: 48_000,
            bulk_pass_ops: 4,
            view_n: 4000,
            view_pass_batches: 20,
            view_passes: 9,
            setups: 3,
            min_passes: 9,
            min_seq_ops: 100,
            canary_words: 1 << 22,
            probe_route_rows: 1 << 18,
            probe_items: 1 << 16,
            probe_wire_rows: 4096,
            probe_small_iters: 200,
            probe_bulk_iters: 5,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            mixed_n: 32,
            mixed_per_shape: 3,
            line3_n: 64,
            binary_n: 600,
            bulk_pass_ops: 2,
            view_n: 256,
            view_pass_batches: 3,
            view_passes: 3,
            setups: 1,
            min_passes: 2,
            min_seq_ops: 4,
            canary_words: 1 << 10,
            probe_route_rows: 1 << 10,
            probe_items: 1 << 8,
            probe_wire_rows: 64,
            probe_small_iters: 5,
            probe_bulk_iters: 2,
        }
    }
}

/// One query request: `expect_out` is the oracle's `OUT`.
pub struct Instance {
    pub shape: &'static str,
    pub query: Query,
    pub db: Database,
    pub expect_out: u64,
}

/// One registered view and the update stream it is fed.
pub struct ViewSpec {
    pub name: &'static str,
    pub query: Query,
    pub base: Database,
    pub batches: Vec<UpdateBatch>,
    /// Oracle `OUT` after each batch.
    pub expect_out: Vec<u64>,
}

pub enum Kind {
    /// A pass issues `pass[i]`-th instance's query, in order.
    Queries {
        instances: Vec<Instance>,
        pass: Vec<usize>,
    },
    /// Pass `j` applies batches `j·pass_batches ..` of every view's stream,
    /// batch-major (view 0, 1, 2 of batch b, then batch b+1).
    Views {
        views: Vec<ViewSpec>,
        pass_batches: usize,
    },
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

impl Workload {
    pub fn pass_ops(&self) -> usize {
        match &self.kind {
            Kind::Queries { pass, .. } => pass.len(),
            Kind::Views {
                views,
                pass_batches,
            } => views.len() * pass_batches,
        }
    }

    /// Distinct timed passes before the op list repeats (a view stream's
    /// first pass is the untimed warm-up).
    pub fn cycle_passes(&self) -> usize {
        match &self.kind {
            Kind::Queries { .. } => 1,
            Kind::Views {
                views,
                pass_batches,
            } => views[0].batches.len() / pass_batches - 1,
        }
    }
}

/// How `--seed` reaches the generators.
struct Reseed(u64);

impl Reseed {
    /// Seed for a random generator whose seed-0 value is `base`.
    fn gen_seed(&self, base: u64) -> u64 {
        if self.0 == 0 {
            base
        } else {
            base.wrapping_add(mix64(self.0))
        }
    }

    /// Relabel and shuffle a generated instance (identity for seed 0).
    fn finish(&self, mut db: Database) -> Database {
        if self.0 == 0 {
            return db;
        }
        // Generated values stay below 2^34 and update streams mint fresh ids
        // from 2^40, so a 28-bit offset keeps every namespace disjoint.
        let offset = 1 + mix64(self.0 ^ 0x0ff5_e700) % (1 << 28);
        let mut state = mix64(self.0 ^ 0x5bff_1e00);
        for rel in &mut db.relations {
            for t in &mut rel.tuples {
                let shifted: Vec<u64> = t.values().iter().map(|v| v + offset).collect();
                *t = Tuple::from_slice(&shifted);
            }
            for i in (1..rel.tuples.len()).rev() {
                state = mix64(state);
                rel.tuples.swap(i, (state % (i as u64 + 1)) as usize);
            }
        }
        db
    }
}

/// Reference join for what `ram` cannot take (cyclic queries): fold the
/// relations in one at a time with a hash index on the shared attributes.
/// Rows come back sorted, deduplicated, columns by ascending attribute id.
pub fn reference_join(db: &Database) -> Vec<Tuple> {
    let mut attrs: Vec<usize> = Vec::new();
    let mut rows: Vec<Vec<u64>> = vec![Vec::new()];
    for rel in &db.relations {
        let shared: Vec<(usize, usize)> = rel
            .attrs
            .iter()
            .enumerate()
            .filter_map(|(i, a)| attrs.iter().position(|x| x == a).map(|j| (i, j)))
            .collect();
        let extra: Vec<usize> = (0..rel.attrs.len())
            .filter(|i| !shared.iter().any(|(s, _)| s == i))
            .collect();
        let mut index: HashMap<Vec<u64>, Vec<Vec<u64>>> = HashMap::new();
        for t in &rel.tuples {
            let key = shared.iter().map(|&(i, _)| t.get(i)).collect();
            let ext = extra.iter().map(|&i| t.get(i)).collect();
            index.entry(key).or_default().push(ext);
        }
        let mut next = Vec::new();
        for row in &rows {
            let key: Vec<u64> = shared.iter().map(|&(_, j)| row[j]).collect();
            for ext in index.get(&key).into_iter().flatten() {
                let mut joined = row.clone();
                joined.extend_from_slice(ext);
                next.push(joined);
            }
        }
        rows = next;
        attrs.extend(extra.iter().map(|&i| rel.attrs[i]));
    }
    let mut order: Vec<usize> = (0..attrs.len()).collect();
    order.sort_unstable_by_key(|&i| attrs[i]);
    let mut out: Vec<Tuple> = rows
        .iter()
        .map(|row| Tuple::new(order.iter().map(|&i| row[i]).collect::<Vec<u64>>()))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The oracle's `OUT`.
pub fn expect_out(q: &Query, db: &Database) -> u64 {
    if sut::is_acyclic(q) {
        sut::oracle_count(q, db)
    } else {
        reference_join(db).len() as u64
    }
}

/// The oracle's sorted result rows.
pub fn expect_rows(q: &Query, db: &Database) -> Vec<Tuple> {
    if sut::is_acyclic(q) {
        sut::oracle_join(q, db)
    } else {
        reference_join(db)
    }
}

fn instance(shape: &'static str, query: &Query, db: Database) -> Instance {
    Instance {
        shape,
        expect_out: expect_out(query, &db),
        query: query.clone(),
        db,
    }
}

pub fn build(name: &str, seed: u64, sizes: &Sizes) -> Option<Workload> {
    let rs = Reseed(seed);
    let (name, kind) = match name {
        "serve_mixed" => ("serve_mixed", serve_mixed(&rs, sizes)),
        "bulk_line3" => ("bulk_line3", bulk_line3(&rs, sizes)),
        "bulk_binary" => ("bulk_binary", bulk_binary(&rs, sizes)),
        "view_updates" => ("view_updates", view_updates(&rs, sizes)),
        _ => return None,
    };
    Some(Workload { name, kind })
}

/// The `repro engine` batch: six shapes, issued round-robin by shape.
fn serve_mixed(rs: &Reseed, s: &Sizes) -> Kind {
    let n = s.mixed_n;
    let k = s.mixed_per_shape as u64;
    type Gen<'a> = Box<dyn Fn(u64) -> Database + 'a>;
    let (star, rh, tf, line, tri) = (
        gen::star3(),
        gen::r_hier(),
        gen::tall_flat(),
        gen::line(3),
        gen::triangle(),
    );
    let random = |q: &Query, domain: u64, base: u64, i: u64| {
        gen::random_instance(q, n as usize, domain, rs.gen_seed(base + i))
    };
    let shapes: Vec<(&'static str, &Query, Gen)> = vec![
        ("star3", &star, Box::new(|i| random(&star, n / 4, 100, i))),
        ("r-hier", &rh, Box::new(|i| random(&rh, n / 3, 200, i))),
        ("tall-flat", &tf, Box::new(|i| random(&tf, 6, 300, i))),
        (
            "line3-big-out",
            &line,
            Box::new(|i| gen::fig3_one_sided(n, n * n / (4 + 4 * (i % 4)))),
        ),
        (
            "line3-small-out",
            &line,
            Box::new(|i| gen::fig3_sparse_small_out(n, rs.gen_seed(i) % 1024)),
        ),
        (
            "triangle",
            &tri,
            Box::new(|i| gen::fig6(n, 2 * n, rs.gen_seed(400 + i))),
        ),
    ];
    // Shape-major storage (instance `g·k + i`), round-robin issue order.
    let mut instances = Vec::new();
    for (label, q, make) in &shapes {
        for i in 0..k {
            instances.push(instance(label, q, rs.finish(make(i))));
        }
    }
    let per = s.mixed_per_shape;
    let pass = (0..per)
        .flat_map(|i| (0..shapes.len()).map(move |g| g * per + i))
        .collect();
    Kind::Queries { instances, pass }
}

/// Theorem 7's regime: non-r-hierarchical, `OUT = 16·IN/3`.
fn bulk_line3(rs: &Reseed, s: &Sizes) -> Kind {
    let q = gen::line(3);
    let db = rs.finish(gen::fig3_two_sided(s.line3_n, 16 * s.line3_n));
    Kind::Queries {
        instances: vec![instance("line3", &q, db)],
        pass: vec![0; s.bulk_pass_ops],
    }
}

/// The `scaling` instance: a binary join with fan-out 12 on both sides.
fn bulk_binary(rs: &Reseed, s: &Sizes) -> Kind {
    let q = gen::line(2);
    let n = s.binary_n;
    let keys = (n / 12).max(1);
    let db = gen::rows(
        &q,
        &[
            (0..n).map(|i| vec![i, i % keys]).collect(),
            (0..n).map(|i| vec![i % keys, 10_000_000 + i]).collect(),
        ],
    );
    Kind::Queries {
        instances: vec![instance("binary", &q, rs.finish(db))],
        pass: vec![0; s.bulk_pass_ops],
    }
}

/// Three registered views, each fed a 1 % uniform update stream.
fn view_updates(rs: &Reseed, s: &Sizes) -> Kind {
    let n = s.view_n;
    // One warm-up pass, then `view_passes` timed ones.
    let n_batches = s.view_pass_batches * (s.view_passes + 1);
    let star = gen::star3();
    let bases: Vec<(&'static str, Query, Database)> = vec![
        ("line3", gen::line(3), gen::fig3_one_sided(n, 4 * n)),
        (
            "star3",
            star.clone(),
            gen::random_instance(&star, n as usize, n / 6, rs.gen_seed(0x57a1)),
        ),
        (
            "triangle",
            gen::triangle(),
            gen::fig6(n / 2, n, rs.gen_seed(0x7123)),
        ),
    ];
    let views = bases
        .into_iter()
        .map(|(name, query, db)| {
            let mut base = rs.finish(db);
            base.dedup_all();
            let batches = gen::update_stream(&query, &base, n_batches, 0.01, rs.gen_seed(0xda7a));
            let mut mirror = base.clone();
            let expect_out = batches
                .iter()
                .map(|b| {
                    sut::apply_batch(b, &mut mirror);
                    expect_out(&query, &mirror)
                })
                .collect();
            ViewSpec {
                name,
                query,
                base,
                batches,
                expect_out,
            }
        })
        .collect();
    Kind::Views {
        views,
        pass_batches: s.view_pass_batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_join_agrees_with_the_ram_oracle_on_acyclic_queries() {
        let Kind::Queries { instances, .. } = serve_mixed(&Reseed(0), &Sizes::smoke()) else {
            unreachable!()
        };
        for inst in instances.iter().filter(|i| sut::is_acyclic(&i.query)) {
            assert_eq!(
                reference_join(&inst.db),
                sut::oracle_join(&inst.query, &inst.db),
                "{}",
                inst.shape
            );
        }
        assert!(instances.iter().any(|i| !sut::is_acyclic(&i.query)));
    }

    #[test]
    fn a_seed_relabels_and_shuffles_but_keeps_the_join() {
        let sizes = Sizes::smoke();
        let first = |seed| match bulk_line3(&Reseed(seed), &sizes) {
            Kind::Queries { mut instances, .. } => instances.remove(0),
            Kind::Views { .. } => unreachable!(),
        };
        let (a, b, b2) = (first(0), first(5), first(5));
        assert_eq!(a.expect_out, b.expect_out);
        assert_ne!(a.db.relations[0].tuples, b.db.relations[0].tuples);
        assert_eq!(b.db.relations[0].tuples, b2.db.relations[0].tuples);
        // Seed 0 is the generator's own instance, untouched.
        let n = sizes.line3_n;
        assert_eq!(
            a.db.relations[0].tuples,
            gen::fig3_two_sided(n, 16 * n).relations[0].tuples
        );
    }

    #[test]
    fn view_streams_carry_an_oracle_count_per_batch() {
        let sizes = Sizes::smoke();
        let Kind::Views {
            views,
            pass_batches,
        } = view_updates(&Reseed(3), &sizes)
        else {
            unreachable!()
        };
        assert_eq!(views.len(), 3);
        for v in &views {
            assert_eq!(v.batches.len(), pass_batches * (sizes.view_passes + 1));
            assert_eq!(v.expect_out.len(), v.batches.len());
        }
    }
}
