//! Graphs and the max-k-coloring problem (maximise properly coloured edges).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::{QoptError, Result};

/// An undirected simple graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    nodes: usize,
    edges: Vec<(usize, usize)>,
}

impl Graph {
    /// Creates a graph from an edge list (self-loops and duplicates rejected).
    ///
    /// # Errors
    /// Returns an error for self-loops, out-of-range endpoints or duplicate
    /// edges.
    pub fn new(nodes: usize, edges: Vec<(usize, usize)>) -> Result<Self> {
        let mut seen = std::collections::BTreeSet::new();
        for &(a, b) in &edges {
            if a == b {
                return Err(QoptError::InvalidProblem(format!("self-loop on node {a}")));
            }
            if a >= nodes || b >= nodes {
                return Err(QoptError::InvalidProblem(format!(
                    "edge ({a},{b}) out of range for {nodes} nodes"
                )));
            }
            if !seen.insert((a.min(b), a.max(b))) {
                return Err(QoptError::InvalidProblem(format!("duplicate edge ({a},{b})")));
            }
        }
        Ok(Self { nodes, edges })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge list.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Neighbours of a node.
    pub fn neighbors(&self, node: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == node {
                    Some(b)
                } else if b == node {
                    Some(a)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Degree of a node.
    pub fn degree(&self, node: usize) -> usize {
        self.neighbors(node).len()
    }

    /// A cycle graph `C_n`.
    ///
    /// # Errors
    /// Returns an error for fewer than 3 nodes.
    pub fn cycle(n: usize) -> Result<Self> {
        if n < 3 {
            return Err(QoptError::InvalidProblem("cycle needs at least 3 nodes".into()));
        }
        Self::new(n, (0..n).map(|i| (i, (i + 1) % n)).collect())
    }

    /// The complete graph `K_n`.
    ///
    /// # Errors
    /// Returns an error for fewer than 2 nodes.
    pub fn complete(n: usize) -> Result<Self> {
        if n < 2 {
            return Err(QoptError::InvalidProblem("complete graph needs at least 2 nodes".into()));
        }
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b));
            }
        }
        Self::new(n, edges)
    }

    /// A random near-`k`-regular graph built by edge pairing (used for the
    /// paper's 3-regular coloring instances). The result is simple; a few
    /// nodes may end up with degree below `k` when pairings collide.
    ///
    /// # Errors
    /// Returns an error if `k >= n`.
    pub fn random_regular(n: usize, k: usize, seed: u64) -> Result<Self> {
        if k >= n {
            return Err(QoptError::InvalidProblem(format!(
                "degree {k} must be below node count {n}"
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = std::collections::BTreeSet::new();
        let mut degree = vec![0usize; n];
        // Repeated random pairing passes.
        for _ in 0..20 {
            let mut stubs: Vec<usize> = (0..n).filter(|&v| degree[v] < k).collect();
            stubs.shuffle(&mut rng);
            let mut i = 0;
            while i + 1 < stubs.len() {
                let (a, b) = (stubs[i], stubs[i + 1]);
                i += 2;
                if a == b || degree[a] >= k || degree[b] >= k {
                    continue;
                }
                if edges.insert((a.min(b), a.max(b))) {
                    degree[a] += 1;
                    degree[b] += 1;
                }
            }
            if degree.iter().all(|&d| d >= k) {
                break;
            }
        }
        Self::new(n, edges.into_iter().collect())
    }

    /// A graph guaranteed to be `k`-colorable: nodes are pre-assigned to `k`
    /// groups and edges only connect different groups. Returns the graph and
    /// the planted coloring.
    ///
    /// # Errors
    /// Returns an error for `k < 2`.
    pub fn planted_colorable(
        n: usize,
        k: usize,
        edge_probability: f64,
        seed: u64,
    ) -> Result<(Self, Vec<usize>)> {
        if k < 2 {
            return Err(QoptError::InvalidProblem("need at least 2 colors".into()));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let planted: Vec<usize> = (0..n).map(|i| i % k).collect();
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if planted[a] != planted[b] && rng.gen::<f64>() < edge_probability {
                    edges.push((a, b));
                }
            }
        }
        Ok((Self::new(n, edges)?, planted))
    }
}

/// The max-k-coloring problem: maximise the number of properly coloured edges.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColoringProblem {
    /// The graph.
    pub graph: Graph,
    /// Number of colours (the qudit dimension in the one-hot encoding).
    pub colors: usize,
}

impl ColoringProblem {
    /// Creates a coloring problem.
    ///
    /// # Errors
    /// Returns an error for fewer than 2 colors.
    pub fn new(graph: Graph, colors: usize) -> Result<Self> {
        if colors < 2 {
            return Err(QoptError::InvalidProblem("need at least 2 colors".into()));
        }
        Ok(Self { graph, colors })
    }

    /// Number of properly coloured edges under an assignment.
    ///
    /// # Panics
    /// Panics if the assignment is shorter than the node count (programming
    /// error).
    pub fn properly_colored(&self, assignment: &[usize]) -> usize {
        self.graph.edges().iter().filter(|&&(a, b)| assignment[a] != assignment[b]).count()
    }

    /// Number of conflicting (monochromatic) edges.
    pub fn conflicts(&self, assignment: &[usize]) -> usize {
        self.graph.num_edges() - self.properly_colored(assignment)
    }

    /// Brute-force optimum (properly colored edges of the best assignment).
    /// Exponential in the node count; intended for ≤ 10 nodes.
    pub fn brute_force_optimum(&self) -> (Vec<usize>, usize) {
        let n = self.graph.num_nodes();
        let k = self.colors;
        let mut best_value = 0;
        let mut best_assign = vec![0; n];
        let total = k.pow(n as u32);
        for code in 0..total {
            let mut c = code;
            let mut assignment = vec![0usize; n];
            for slot in assignment.iter_mut() {
                *slot = c % k;
                c /= k;
            }
            let value = self.properly_colored(&assignment);
            if value > best_value {
                best_value = value;
                best_assign = assignment;
                if best_value == self.graph.num_edges() {
                    break;
                }
            }
        }
        (best_assign, best_value)
    }

    /// Returns `true` if the assignment is a proper coloring (no conflicts).
    pub fn is_proper(&self, assignment: &[usize]) -> bool {
        self.conflicts(assignment) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_construction_validation() {
        assert!(Graph::new(3, vec![(0, 0)]).is_err());
        assert!(Graph::new(3, vec![(0, 5)]).is_err());
        assert!(Graph::new(3, vec![(0, 1), (1, 0)]).is_err());
        let g = Graph::new(3, vec![(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(0), vec![1]);
    }

    #[test]
    fn standard_graph_families() {
        assert_eq!(Graph::cycle(5).unwrap().num_edges(), 5);
        assert_eq!(Graph::complete(4).unwrap().num_edges(), 6);
        assert!(Graph::cycle(2).is_err());
    }

    #[test]
    fn random_regular_has_bounded_degree() {
        let g = Graph::random_regular(12, 3, 7).unwrap();
        for v in 0..12 {
            assert!(g.degree(v) <= 3);
        }
        // Most nodes reach full degree.
        let full = (0..12).filter(|&v| g.degree(v) == 3).count();
        assert!(full >= 8, "only {full} nodes reached degree 3");
        assert!(Graph::random_regular(4, 4, 0).is_err());
    }

    #[test]
    fn planted_colorable_graph_is_proper_under_planted_coloring() {
        let (g, planted) = Graph::planted_colorable(12, 3, 0.6, 5).unwrap();
        let problem = ColoringProblem::new(g, 3).unwrap();
        assert!(problem.is_proper(&planted));
        assert!(problem.graph.num_edges() > 10);
    }

    #[test]
    fn coloring_cost_functions() {
        let g = Graph::cycle(4).unwrap();
        let p = ColoringProblem::new(g, 2).unwrap();
        assert_eq!(p.properly_colored(&[0, 1, 0, 1]), 4);
        assert_eq!(p.conflicts(&[0, 0, 0, 0]), 4);
        // [0,1,0,0] colours edges (0,1) and (1,2) properly but leaves (2,3) and (3,0) in
        // conflict: half of the optimum 4.
        assert_eq!(p.properly_colored(&[0, 1, 0, 0]), 2);
    }

    #[test]
    fn brute_force_finds_proper_coloring_of_odd_cycle() {
        // C5 is not 2-colorable (best = 4 of 5 edges) but is 3-colorable.
        let g = Graph::cycle(5).unwrap();
        let p2 = ColoringProblem::new(g.clone(), 2).unwrap();
        let (_, best2) = p2.brute_force_optimum();
        assert_eq!(best2, 4);
        let p3 = ColoringProblem::new(g, 3).unwrap();
        let (assign3, best3) = p3.brute_force_optimum();
        assert_eq!(best3, 5);
        assert!(p3.is_proper(&assign3));
    }
}
