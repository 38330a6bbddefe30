//! [`CompressedUpdate`] — the decoded form of one client's wire update.

use crate::sparse::SparseUpdate;
use serde::{Deserialize, Serialize};

/// What a [`crate::wire::WireUpdate`] decodes to.
///
/// Sparse wire kinds decode to [`CompressedUpdate::Sparse`]; dense quantized
/// kinds keep every coordinate at reduced precision and decode to
/// [`CompressedUpdate::Quantized`]. The bytes an update cost are the
/// encoded buffer's length ([`crate::wire::WireUpdate::len`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CompressedUpdate {
    /// A sparsified update (Top-K, Rand-K, Threshold, …).
    Sparse(SparseUpdate),
    /// A dense but quantized update.
    Quantized {
        /// Dequantized (lossy) values, same length as the original vector.
        values: Vec<f32>,
    },
}

impl CompressedUpdate {
    /// Reconstruct the (lossy) dense update.
    pub fn to_dense(&self) -> Vec<f32> {
        match self {
            CompressedUpdate::Sparse(s) => s.to_dense(),
            CompressedUpdate::Quantized { values } => values.clone(),
        }
    }

    /// Consume the update and return the (lossy) dense vector. The quantized
    /// path moves its value buffer instead of cloning it (mirroring
    /// [`CompressedUpdate::into_sparse`]).
    pub fn into_dense(self) -> Vec<f32> {
        match self {
            CompressedUpdate::Sparse(s) => s.to_dense(),
            CompressedUpdate::Quantized { values } => values,
        }
    }

    /// Length of the original dense vector.
    pub fn dense_len(&self) -> usize {
        match self {
            CompressedUpdate::Sparse(s) => s.dense_len(),
            CompressedUpdate::Quantized { values } => values.len(),
        }
    }

    /// The sparse payload, if this is a sparsified update.
    pub fn as_sparse(&self) -> Option<&SparseUpdate> {
        match self {
            CompressedUpdate::Sparse(s) => Some(s),
            CompressedUpdate::Quantized { .. } => None,
        }
    }

    /// Consume the update and return the sparse payload, if this is a
    /// sparsified update. Lets aggregation take ownership of the indices and
    /// values instead of cloning them (the federated round loop moves every
    /// cohort update this way).
    pub fn into_sparse(self) -> Option<SparseUpdate> {
        match self {
            CompressedUpdate::Sparse(s) => Some(s),
            CompressedUpdate::Quantized { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_dispatch() {
        let s = CompressedUpdate::Sparse(SparseUpdate::new(vec![0, 1], vec![1.0, 2.0], 4));
        let q = CompressedUpdate::Quantized {
            values: vec![0.0; 4],
        };
        assert_eq!(s.dense_len(), 4);
        assert_eq!(q.dense_len(), 4);
        assert!(s.as_sparse().is_some());
        assert!(q.as_sparse().is_none());
    }

    #[test]
    fn into_sparse_moves_the_payload() {
        let s = CompressedUpdate::Sparse(SparseUpdate::new(vec![0, 1], vec![1.0, 2.0], 4));
        let expected = s.as_sparse().unwrap().clone();
        assert_eq!(s.into_sparse(), Some(expected));
        let q = CompressedUpdate::Quantized {
            values: vec![0.0; 4],
        };
        assert!(q.into_sparse().is_none());
    }

    #[test]
    fn into_dense_moves_the_quantized_buffer() {
        let q = CompressedUpdate::Quantized {
            values: vec![1.0, -2.0],
        };
        assert_eq!(q.into_dense(), vec![1.0, -2.0]);
        let s = CompressedUpdate::Sparse(SparseUpdate::new(vec![1], vec![5.0], 3));
        assert_eq!(s.into_dense(), vec![0.0, 5.0, 0.0]);
    }

    #[test]
    fn to_dense_dispatch() {
        let s = CompressedUpdate::Sparse(SparseUpdate::new(vec![1], vec![5.0], 3));
        assert_eq!(s.to_dense(), vec![0.0, 5.0, 0.0]);
        let q = CompressedUpdate::Quantized {
            values: vec![1.0, 2.0],
        };
        assert_eq!(q.to_dense(), vec![1.0, 2.0]);
    }
}
