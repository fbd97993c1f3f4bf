//! Routing keys: hashable, comparable values used by the key-based
//! primitives.

use aj_mpc::hash_mix;
use aj_relation::Tuple;

/// A value usable as a grouping/routing key.
///
/// `Send + Sync` are supertraits so keys can cross the round barrier of a
/// parallel executor ([`aj_mpc::ParExecutor`]).
pub trait Key: Eq + std::hash::Hash + Clone + Ord + std::fmt::Debug + Send + Sync {
    /// A well-mixed 64-bit hash under `seed`.
    fn route_hash(&self, seed: u64) -> u64;

    /// The server in `0..p` that owns this key under `seed`.
    fn owner(&self, seed: u64, p: usize) -> usize {
        owner_of_hash(self.route_hash(seed), p)
    }
}

fn owner_of_hash(h: u64, p: usize) -> usize {
    ((h as u128 * p as u128) >> 64) as usize
}

/// The owner of the `Tuple` (or `Vec<u64>`) holding `values`, without
/// building it: for a key projected into a scratch buffer.
pub fn values_owner(values: &[u64], seed: u64, p: usize) -> usize {
    owner_of_hash(values_route_hash(values, seed), p)
}

fn values_route_hash(values: &[u64], seed: u64) -> u64 {
    let mut h = hash_mix(seed ^ (values.len() as u64).wrapping_mul(0xa076_1d64_78bd_642f));
    for &v in values {
        h = hash_mix(h ^ v);
    }
    h
}

impl Key for u64 {
    fn route_hash(&self, seed: u64) -> u64 {
        hash_mix(*self ^ hash_mix(seed))
    }
}

impl Key for (u64, u64) {
    fn route_hash(&self, seed: u64) -> u64 {
        hash_mix(self.1 ^ hash_mix(self.0 ^ hash_mix(seed)))
    }
}

impl Key for Tuple {
    fn route_hash(&self, seed: u64) -> u64 {
        values_route_hash(self.values(), seed)
    }
}

impl Key for Vec<u64> {
    fn route_hash(&self, seed: u64) -> u64 {
        values_route_hash(self, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owners_in_range() {
        for p in [1usize, 2, 7, 64] {
            for v in 0..100u64 {
                assert!(v.owner(3, p) < p);
            }
        }
    }

    #[test]
    fn tuple_and_vec_agree() {
        let t = Tuple::from([3, 4, 5]);
        let v = vec![3u64, 4, 5];
        assert_eq!(t.route_hash(9), v.route_hash(9));
        assert_eq!(t.owner(9, 7), values_owner(&v, 9, 7));
    }

    #[test]
    fn seed_changes_placement() {
        let k = 12345u64;
        assert_ne!(k.route_hash(1), k.route_hash(2));
    }
}
