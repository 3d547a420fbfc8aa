//! s–t minimum cut extraction on top of max flow.

use crate::network::{EdgeId, FlowInterrupted, FlowNetwork, NodeId};

/// A minimum s–t cut.
#[derive(Clone, Debug)]
pub struct MinCut {
    /// The value of the cut (equals the maximum flow).
    pub value: u64,
    /// The (forward) edges crossing from the source side to the sink side.
    pub cut_edges: Vec<EdgeId>,
    /// `source_side[v]` is `true` when node `v` is reachable from the source
    /// in the residual network.
    pub source_side: Vec<bool>,
}

impl MinCut {
    /// Computes a minimum s–t cut of `network`: a max flow from zero (see
    /// [`FlowNetwork::augment`], which polls `should_stop`), then the
    /// residual source side and the forward edges leaving it. On
    /// interruption the partial flow routed so far is reported instead of a
    /// cut.
    pub fn compute(
        network: &mut FlowNetwork,
        s: NodeId,
        t: NodeId,
        should_stop: &mut dyn FnMut() -> bool,
    ) -> Result<MinCut, FlowInterrupted> {
        network.reset_flow();
        let (value, _) = network.augment(s, t, should_stop)?;
        let source_side = network.residual_reachable(s);
        let mut cut_edges = Vec::new();
        for i in 0..network.num_edges() {
            let id = EdgeId(i as u32);
            let (from, to, cap) = network.edge(id);
            if cap == 0 {
                continue;
            }
            if source_side[from.index()] && !source_side[to.index()] {
                cut_edges.push(id);
            }
        }
        Ok(MinCut {
            value,
            cut_edges,
            source_side,
        })
    }

    /// Sum of the original capacities of the reported cut edges.
    pub fn cut_capacity(&self, network: &FlowNetwork) -> u64 {
        self.cut_edges.iter().map(|&e| network.edge(e).2).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::INF;

    fn min_cut(g: &mut FlowNetwork, s: NodeId, t: NodeId) -> MinCut {
        MinCut::compute(g, s, t, &mut || false).expect("a never-stop run completes")
    }

    #[test]
    fn cut_edges_match_flow_value() {
        // s -> a (3), s -> b (2), a -> t (2), b -> t (3), a -> b (1)
        // max flow = 5; the min cut is {a->t (2), s->b (2), a->b (1)} or an
        // equivalent 5-capacity selection.
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let a = g.add_node();
        let b = g.add_node();
        let t = g.add_node();
        g.add_edge(s, a, 3);
        g.add_edge(s, b, 2);
        g.add_edge(a, t, 2);
        g.add_edge(b, t, 3);
        g.add_edge(a, b, 1);
        let cut = min_cut(&mut g, s, t);
        assert_eq!(cut.value, 5);
        assert_eq!(cut.cut_capacity(&g), 5);
        assert!(cut.source_side[s.index()]);
        assert!(!cut.source_side[t.index()]);
    }

    #[test]
    fn unit_capacity_path_cut_has_one_edge() {
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let m = g.add_node();
        let t = g.add_node();
        g.add_edge(s, m, 1);
        g.add_edge(m, t, INF);
        let cut = min_cut(&mut g, s, t);
        assert_eq!(cut.value, 1);
        assert_eq!(cut.cut_edges.len(), 1);
        let (from, to, _) = g.edge(cut.cut_edges[0]);
        assert_eq!((from, to), (s, m));
    }

    #[test]
    fn disconnected_cut_is_empty() {
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let t = g.add_node();
        let cut = min_cut(&mut g, s, t);
        assert_eq!(cut.value, 0);
        assert!(cut.cut_edges.is_empty());
    }

    #[test]
    fn parallel_paths_require_multiple_cut_edges() {
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let t = g.add_node();
        let mids = g.add_nodes(3);
        for &m in &mids {
            g.add_edge(s, m, INF);
            g.add_edge(m, t, 1);
        }
        let cut = min_cut(&mut g, s, t);
        assert_eq!(cut.value, 3);
        assert_eq!(cut.cut_edges.len(), 3);
    }

    #[test]
    fn interrupted_run_reports_partial_flow() {
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let t = g.add_node();
        for _ in 0..3 {
            let m = g.add_node();
            g.add_edge(s, m, 1);
            g.add_edge(m, t, 1);
        }
        // Stopping before any work reports zero partial flow.
        let err = MinCut::compute(&mut g, s, t, &mut || true).unwrap_err();
        assert_eq!(err.partial_flow, 0);
        // A stop after some augmentations reports a valid partial value
        // (Dinic may route several paths within the first uninterrupted
        // phase, so the bound is `<= max`, not an exact count).
        let mut calls = 0usize;
        g.reset_flow();
        let result = g.augment(s, t, &mut || {
            calls += 1;
            calls > 1
        });
        match result {
            Ok((v, _)) => assert_eq!(v, 3),
            Err(partial) => assert!(partial.partial_flow <= 3),
        }
        // A never-stop run still finds the maximum.
        assert_eq!(min_cut(&mut g, s, t).value, 3);
    }

    #[test]
    fn zero_capacity_edges_never_appear_in_cut() {
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t, 0);
        g.add_edge(s, t, 2);
        let cut = min_cut(&mut g, s, t);
        assert_eq!(cut.value, 2);
        assert_eq!(cut.cut_edges.len(), 1);
    }
}
