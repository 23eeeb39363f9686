//! Ownership rules: which partition a row belongs to, and the spec a
//! partition server enforces them with.
//!
//! The routing key of a row is the **display form of its first
//! column** — the same derivation as [`crate::table::primary_key`], so
//! a persistent table's upsert key and its routing key always agree:
//! every version of a keyed row lands on the same partition, and a
//! cluster-wide upsert is exactly a single-partition upsert. Ephemeral
//! rows have no upsert identity, so their first column simply spreads
//! them across the ring.
//!
//! A [`ClusterSpec`] installed on a partition server
//! ([`crate::Cache::set_cluster_spec`]) turns ownership into an
//! *enforced invariant*: an insert whose key hashes to another
//! partition is rejected with [`Error::WrongPartition`] before any row
//! is staged, carrying the owner's index so the RPC layer can answer
//! with a redirect instead of an opaque failure. Scatter-gather
//! correctness rests on this — a row that slipped onto two partitions
//! would be double-counted by every merged query.

use gapl::event::Scalar;

use super::ring::HashRing;
use crate::error::{Error, Result};

/// The routing key of a row: the display form of its first value.
/// Mirrors [`crate::table::primary_key`] (which works on stored
/// tuples; this works on not-yet-inserted value vectors).
#[must_use]
pub fn routing_key(values: &[Scalar]) -> String {
    match values.first() {
        Some(Scalar::Str(s)) => s.to_string(),
        Some(other) => other.to_string(),
        None => String::new(),
    }
}

/// One node's view of the cluster: the shared ring plus its own
/// partition index.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    ring: HashRing,
    index: usize,
}

impl ClusterSpec {
    /// The spec for partition `index` of a `partitions`-wide cluster.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range — a server enforcing ownership
    /// for a partition that does not exist rejects every write, which
    /// is strictly worse than failing at configuration time.
    #[must_use]
    pub fn new(partitions: usize, index: usize) -> ClusterSpec {
        assert!(
            index < partitions,
            "partition index {index} out of range for a {partitions}-partition cluster"
        );
        ClusterSpec {
            ring: HashRing::new(partitions),
            index,
        }
    }

    /// The shared ring.
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// This node's partition index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total partitions in the cluster.
    #[must_use]
    pub fn partitions(&self) -> usize {
        self.ring.partitions()
    }

    /// The partition that owns `key`.
    #[must_use]
    pub fn owner_of(&self, key: &str) -> usize {
        self.ring.partition_of(key)
    }

    /// Check that this node owns the row; on a miss, report the owner.
    ///
    /// # Errors
    ///
    /// [`Error::WrongPartition`] naming the owning partition.
    pub fn check_owned(&self, values: &[Scalar]) -> Result<()> {
        self.check_owns_key(&routing_key(values))
    }

    /// [`ClusterSpec::check_owned`] for a row's routing key.
    pub(crate) fn check_owns_key(&self, key: &str) -> Result<()> {
        let owner = self.owner_of(key);
        if owner == self.index {
            Ok(())
        } else {
            Err(Error::WrongPartition {
                partition: owner as u64,
            })
        }
    }
}

/// Split a batch of rows into per-partition batches, remembering each
/// row's original position so per-partition replies (timestamps, in
/// practice) can be reassembled in the caller's row order.
#[must_use]
pub fn split_batch(ring: &HashRing, rows: Vec<Vec<Scalar>>) -> Vec<Vec<(usize, Vec<Scalar>)>> {
    let mut per: Vec<Vec<(usize, Vec<Scalar>)>> = vec![Vec::new(); ring.partitions()];
    for (ix, row) in rows.into_iter().enumerate() {
        let owner = ring.partition_of(&routing_key(&row));
        per[owner].push((ix, row));
    }
    per
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn routing_key_matches_primary_key_derivation() {
        use crate::table::primary_key;
        use gapl::event::{AttrType, Schema, Tuple};
        let schema = Arc::new(
            Schema::new("T", vec![("name", AttrType::Str), ("n", AttrType::Int)]).unwrap(),
        );
        for values in [
            vec![Scalar::Str(Arc::from("alpha")), Scalar::Int(1)],
            vec![Scalar::Str(Arc::from("")), Scalar::Int(2)],
        ] {
            let tuple = Tuple::new(Arc::clone(&schema), values.clone(), 7).unwrap();
            assert_eq!(routing_key(&values), primary_key(&tuple).to_string());
        }
        let ints = Arc::new(Schema::new("N", vec![("n", AttrType::Int)]).unwrap());
        let values = vec![Scalar::Int(42)];
        let tuple = Tuple::new(ints, values.clone(), 7).unwrap();
        assert_eq!(routing_key(&values), primary_key(&tuple).to_string());
    }

    #[test]
    fn check_owned_accepts_own_keys_and_redirects_others() {
        let spec0 = ClusterSpec::new(2, 0);
        let spec1 = ClusterSpec::new(2, 1);
        let mut seen = [false, false];
        for i in 0..64 {
            let values = vec![Scalar::Str(Arc::from(format!("k{i}").as_str()))];
            let owner = spec0.owner_of(&routing_key(&values));
            seen[owner] = true;
            let (own, other) = if owner == 0 {
                (&spec0, &spec1)
            } else {
                (&spec1, &spec0)
            };
            assert!(own.check_owned(&values).is_ok());
            match other.check_owned(&values) {
                Err(Error::WrongPartition { partition }) => {
                    assert_eq!(partition, owner as u64);
                }
                other => panic!("expected WrongPartition, got {other:?}"),
            }
        }
        assert!(seen[0] && seen[1], "64 keys never hit both partitions");
    }

    #[test]
    fn split_batch_preserves_original_positions() {
        let ring = HashRing::new(3);
        let rows: Vec<Vec<Scalar>> = (0..50)
            .map(|i| vec![Scalar::Int(i), Scalar::Int(i * 10)])
            .collect();
        let split = split_batch(&ring, rows.clone());
        let mut seen: Vec<Option<Vec<Scalar>>> = vec![None; rows.len()];
        for (p, part) in split.iter().enumerate() {
            for (ix, row) in part {
                assert_eq!(ring.partition_of(&routing_key(row)), p);
                assert!(seen[*ix].replace(row.clone()).is_none());
            }
        }
        for (ix, row) in rows.iter().enumerate() {
            assert_eq!(seen[ix].as_ref(), Some(row));
        }
    }
}
