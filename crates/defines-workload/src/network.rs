//! Network DAG: layers connected by feature-map edges, with branch support.

use crate::layer::{Layer, LayerId};
use serde::Serialize;
use std::collections::BTreeSet;
use std::fmt;

/// Errors produced while constructing or validating a [`Network`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A predecessor id referenced a layer that does not exist (yet).
    UnknownPredecessor {
        /// The layer declaring the edge.
        layer: LayerId,
        /// The missing predecessor.
        predecessor: LayerId,
    },
    /// A layer listed itself as its own predecessor.
    SelfLoop(LayerId),
    /// The network contains no layers.
    Empty,
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::UnknownPredecessor { layer, predecessor } => {
                write!(
                    f,
                    "layer {layer} references unknown predecessor {predecessor}"
                )
            }
            NetworkError::SelfLoop(l) => write!(f, "layer {l} references itself as predecessor"),
            NetworkError::Empty => write!(f, "network contains no layers"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// A DNN workload: a DAG of [`Layer`]s.
///
/// Layers are stored in insertion order, which must be a valid topological
/// order (a layer may only reference already-inserted layers as
/// predecessors). This mirrors how the DeFiNES input files enumerate layers.
///
/// ```
/// use defines_workload::{Layer, LayerDims, Network, OpType};
///
/// let mut net = Network::new("tiny");
/// let a = net.add_layer(Layer::new("a", OpType::Conv, LayerDims::conv(8, 3, 16, 16, 3, 3)), &[]).unwrap();
/// let b = net.add_layer(Layer::new("b", OpType::Conv, LayerDims::conv(8, 8, 14, 14, 3, 3)), &[a]).unwrap();
/// assert_eq!(net.predecessors(b), &[a]);
/// assert_eq!(net.successors(a), vec![b]);
/// assert_eq!(net.sink_layers(), vec![b]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Network {
    name: String,
    layers: Vec<Layer>,
    predecessors: Vec<Vec<LayerId>>,
}

impl Network {
    /// Creates an empty network with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            layers: Vec::new(),
            predecessors: Vec::new(),
        }
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a layer whose inputs are the outputs of `predecessors`.
    ///
    /// An empty predecessor list marks a network-input layer (it reads the
    /// external input feature map).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownPredecessor`] if a predecessor id has not
    /// been added yet and [`NetworkError::SelfLoop`] if the layer references
    /// itself; this guarantees the stored order is a topological order.
    pub fn add_layer(
        &mut self,
        layer: Layer,
        predecessors: &[LayerId],
    ) -> Result<LayerId, NetworkError> {
        let id = LayerId(self.layers.len());
        for &p in predecessors {
            if p == id {
                return Err(NetworkError::SelfLoop(id));
            }
            if p.0 >= self.layers.len() {
                return Err(NetworkError::UnknownPredecessor {
                    layer: id,
                    predecessor: p,
                });
            }
        }
        self.layers.push(layer);
        self.predecessors.push(predecessors.to_vec());
        Ok(id)
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// All layer ids in topological (insertion) order.
    pub fn layer_ids(&self) -> impl Iterator<Item = LayerId> + '_ {
        (0..self.layers.len()).map(LayerId)
    }

    /// Access a layer by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this network.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.0]
    }

    /// All layers in topological order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The direct predecessors of a layer.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this network.
    pub fn predecessors(&self, id: LayerId) -> &[LayerId] {
        &self.predecessors[id.0]
    }

    /// The direct successors of a layer.
    pub fn successors(&self, id: LayerId) -> Vec<LayerId> {
        self.layer_ids()
            .filter(|&s| self.predecessors(s).contains(&id))
            .collect()
    }

    /// Layers with no predecessors (network inputs).
    #[cfg(test)]
    pub(crate) fn source_layers(&self) -> Vec<LayerId> {
        self.layer_ids()
            .filter(|&l| self.predecessors(l).is_empty())
            .collect()
    }

    /// Layers whose output is not consumed by any other layer (network outputs).
    pub fn sink_layers(&self) -> Vec<LayerId> {
        let mut consumed: BTreeSet<LayerId> = BTreeSet::new();
        for preds in &self.predecessors {
            consumed.extend(preds.iter().copied());
        }
        self.layer_ids().filter(|l| !consumed.contains(l)).collect()
    }

    /// Whether the DAG is a simple chain (every layer has at most one
    /// predecessor and at most one successor).
    #[cfg(test)]
    pub(crate) fn is_chain(&self) -> bool {
        let mut out_degree = std::collections::BTreeMap::<LayerId, usize>::new();
        for (i, preds) in self.predecessors.iter().enumerate() {
            if preds.len() > 1 {
                return false;
            }
            for &p in preds {
                *out_degree.entry(p).or_insert(0) += 1;
            }
            let _ = i;
        }
        out_degree.values().all(|&d| d <= 1)
    }

    /// Validates the network as a whole: non-empty, no self loops, and every
    /// edge points at an earlier layer (i.e. the stored order is a valid
    /// topological order).
    ///
    /// [`Network::add_layer`] already enforces the edge invariants for
    /// incrementally built networks; `validate` re-checks them so consumers
    /// of externally produced networks (e.g. future deserialization paths)
    /// get a structured error instead of undefined downstream behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::Empty`] for a network without layers,
    /// [`NetworkError::SelfLoop`] or [`NetworkError::UnknownPredecessor`]
    /// for invalid edges.
    pub fn validate(&self) -> Result<(), NetworkError> {
        if self.layers.is_empty() {
            return Err(NetworkError::Empty);
        }
        for (i, preds) in self.predecessors.iter().enumerate() {
            let id = LayerId(i);
            for &p in preds {
                if p == id {
                    return Err(NetworkError::SelfLoop(id));
                }
                if p.0 >= i {
                    return Err(NetworkError::UnknownPredecessor {
                        layer: id,
                        predecessor: p,
                    });
                }
            }
        }
        Ok(())
    }

    /// The set of *cut points*: layers after which the network has no open
    /// branches, i.e. every edge from the prefix `[0..=l]` to the suffix
    /// `(l..]` leaves from layer `l` itself.
    ///
    /// Stacks of fused layers may only end at cut points when branching is
    /// present (Section III of the paper: "either all layers between two
    /// points where there are no branches are added to a stack, or none of
    /// them").
    pub fn cut_points(&self) -> Vec<LayerId> {
        let n = self.layers.len();
        let mut cuts = Vec::new();
        for l in 0..n {
            let mut ok = true;
            // Every consumer of a layer <= l must either be <= l or only
            // consume layer l itself.
            'outer: for later in (l + 1)..n {
                for &p in self.predecessors(LayerId(later)) {
                    if p.0 < l {
                        ok = false;
                        break 'outer;
                    }
                }
            }
            if ok {
                cuts.push(LayerId(l));
            }
        }
        cuts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::LayerDims;
    use crate::layer::OpType;

    fn conv(name: &str, k: u64, c: u64, o: u64) -> Layer {
        Layer::new(name, OpType::Conv, LayerDims::conv(k, c, o, o, 3, 3))
    }

    #[test]
    fn chain_construction_and_queries() {
        let mut net = Network::new("chain");
        let a = net.add_layer(conv("a", 8, 3, 32), &[]).unwrap();
        let b = net.add_layer(conv("b", 8, 8, 30), &[a]).unwrap();
        let c = net.add_layer(conv("c", 8, 8, 28), &[b]).unwrap();
        assert_eq!(net.len(), 3);
        assert!(net.is_chain());
        assert_eq!(net.source_layers(), vec![a]);
        assert_eq!(net.sink_layers(), vec![c]);
        assert_eq!(net.successors(b), vec![c]);
        assert!(net.validate().is_ok());
        // In a chain every layer is a cut point.
        assert_eq!(net.cut_points().len(), 3);
    }

    #[test]
    fn branch_detection_and_cut_points() {
        // a -> b -> d(add of b and c), a -> c -> d
        let mut net = Network::new("branch");
        let a = net.add_layer(conv("a", 8, 3, 32), &[]).unwrap();
        let b = net.add_layer(conv("b", 8, 8, 32), &[a]).unwrap();
        let c = net.add_layer(conv("c", 8, 8, 32), &[a]).unwrap();
        let d = net
            .add_layer(
                Layer::new("d", OpType::Add, LayerDims::conv(8, 8, 32, 32, 1, 1)),
                &[b, c],
            )
            .unwrap();
        assert!(!net.is_chain());
        assert_eq!(net.sink_layers(), vec![d]);
        let cuts = net.cut_points();
        // `a` is not a cut point because c (index 2) consumes a (index 0) while
        // b (index 1) sits in between; b is not a cut point for the same reason.
        assert!(!cuts.contains(&b));
        assert!(cuts.contains(&d));
    }

    #[test]
    fn unknown_predecessor_rejected() {
        let mut net = Network::new("bad");
        let err = net
            .add_layer(conv("a", 8, 3, 32), &[LayerId(5)])
            .unwrap_err();
        assert!(matches!(err, NetworkError::UnknownPredecessor { .. }));
    }

    #[test]
    fn self_loop_rejected() {
        let mut net = Network::new("bad");
        let err = net
            .add_layer(conv("a", 8, 3, 32), &[LayerId(0)])
            .unwrap_err();
        assert_eq!(err, NetworkError::SelfLoop(LayerId(0)));
    }

    #[test]
    fn empty_network_invalid() {
        let net = Network::new("empty");
        assert_eq!(net.validate().unwrap_err(), NetworkError::Empty);
        assert!(net.is_empty());
    }

    #[test]
    fn validate_recheck_catches_corrupted_edges() {
        // add_layer guards these invariants on the way in; validate() must
        // independently catch violated ones (same-module test can corrupt
        // the private edge lists directly).
        let mut net = Network::new("bad");
        net.add_layer(conv("a", 8, 3, 32), &[]).unwrap();
        net.add_layer(conv("b", 8, 8, 30), &[LayerId(0)]).unwrap();
        assert!(net.validate().is_ok());

        let mut self_loop = net.clone();
        self_loop.predecessors[1] = vec![LayerId(1)];
        assert_eq!(
            self_loop.validate().unwrap_err(),
            NetworkError::SelfLoop(LayerId(1))
        );

        let mut forward_edge = net.clone();
        forward_edge.predecessors[0] = vec![LayerId(1)];
        assert_eq!(
            forward_edge.validate().unwrap_err(),
            NetworkError::UnknownPredecessor {
                layer: LayerId(0),
                predecessor: LayerId(1),
            }
        );
    }
}
