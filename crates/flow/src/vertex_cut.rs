//! Minimum vertex cuts via node splitting.
//!
//! The resilience-to-flow reductions in the paper place *tuples* on the
//! nodes of a network: an endogenous tuple may be deleted at cost 1, an
//! exogenous tuple may never be deleted, and witnesses become s–t paths.
//! A minimum contingency set is then a minimum *vertex* cut. The classic
//! reduction to edge cuts splits every vertex `v` into `v_in -> v_out` with
//! the vertex capacity on that internal edge; all original edges get infinite
//! capacity.

use crate::network::{EdgeId, FlowInterrupted, FlowNetwork, NodeId, RepairOutcome, INF};

/// A network whose *vertices* carry capacities.
#[derive(Clone, Debug, Default)]
pub struct VertexCutNetwork {
    /// Per vertex: its capacity (use [`INF`] for uncuttable vertices).
    capacities: Vec<u64>,
    /// Directed edges between vertices.
    edges: Vec<(u32, u32)>,
    /// Reusable node-split flow network (rebuilt per cut computation, never
    /// reallocated).
    split: FlowNetwork,
    /// Resident warm flow over `split` (see [`VertexCutNetwork::warm_build`]);
    /// `None` when no warm state is held.
    warm: Option<WarmFlow>,
}

/// Warm (decremental) flow state resident in the split network.
#[derive(Clone, Copy, Debug)]
struct WarmFlow {
    source: usize,
    target: usize,
    s: NodeId,
    t: NodeId,
    /// Current (maximum, after the last re-augment) s–t flow value.
    value: u64,
}

/// Result of a minimum vertex cut computation.
#[derive(Clone, Debug)]
pub struct VertexCut {
    /// Total capacity of the cut (equals the max flow).
    pub value: u64,
    /// The vertices whose internal edge is cut, in ascending order.
    pub cut_vertices: Vec<usize>,
}

impl VertexCutNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a vertex with the given capacity, returning its index.
    pub fn add_vertex(&mut self, capacity: u64) -> usize {
        self.capacities.push(capacity);
        self.capacities.len() - 1
    }

    /// Empties the network while keeping its allocations, so repeated
    /// constructions (the engine's session re-solves) reuse the buffers.
    /// Any resident warm flow state is dropped.
    pub fn clear(&mut self) {
        self.capacities.clear();
        self.edges.clear();
        self.warm = None;
    }

    /// Adds a directed edge between two vertices.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        self.edges.push((from as u32, to as u32));
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.capacities.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The endpoints of edge `e` (in insertion order).
    pub fn edge(&self, e: usize) -> (usize, usize) {
        let (from, to) = self.edges[e];
        (from as usize, to as usize)
    }

    /// Overwrites vertex `v`'s *built* capacity. Only affects networks built
    /// after this call ([`VertexCutNetwork::min_vertex_cut`] / the next
    /// [`VertexCutNetwork::warm_build`]);
    /// use [`VertexCutNetwork::warm_set_capacity`] to update a resident flow.
    pub fn set_capacity(&mut self, v: usize, cap: u64) {
        self.capacities[v] = cap;
    }

    /// Computes a minimum vertex cut separating `source` from `target` from
    /// scratch, polling `should_stop` inside the max-flow run (see
    /// [`FlowNetwork::augment`]); on interruption the partial flow is
    /// reported instead of a cut. Any resident warm flow is dropped.
    ///
    /// The source and target vertices themselves are treated as uncuttable
    /// (their capacity is ignored), matching the paper's constructions where
    /// s and t are artificial endpoints.
    pub fn min_vertex_cut(
        &mut self,
        source: usize,
        target: usize,
        should_stop: &mut dyn FnMut() -> bool,
    ) -> Result<VertexCut, FlowInterrupted> {
        let (s, t) = self.split_network(source, target);
        let (value, _) = self.split.augment(s, t, should_stop)?;
        let mut cut_vertices = Vec::new();
        self.cut_vertices_into(s, source, target, &mut cut_vertices);
        Ok(VertexCut {
            value,
            cut_vertices,
        })
    }

    /// Builds the node-split network and runs a max flow from zero, keeping
    /// the flow (and its residual graph) **resident** for subsequent
    /// decremental updates: [`VertexCutNetwork::warm_set_capacity`] repairs
    /// the resident flow in place when a vertex shrinks and
    /// [`VertexCutNetwork::warm_reaugment`] resumes Dinic from the repaired
    /// residual after restores — no from-scratch recomputation per step.
    /// Returns the maximum flow value (= the minimum vertex cut value).
    ///
    /// `should_stop` is polled as in [`FlowNetwork::augment`]. An
    /// interrupted build still leaves its partial flow resident (a valid
    /// flow, reported as the error's partial value), so the next
    /// [`VertexCutNetwork::warm_reaugment`] completes it.
    pub fn warm_build(
        &mut self,
        source: usize,
        target: usize,
        should_stop: &mut dyn FnMut() -> bool,
    ) -> Result<u64, FlowInterrupted> {
        let (s, t) = self.split_network(source, target);
        self.warm = Some(WarmFlow {
            source,
            target,
            s,
            t,
            value: 0,
        });
        self.warm_reaugment(should_stop).map(|(value, _)| value)
    }

    /// Decrementally sets vertex `v`'s capacity on the **resident** split
    /// network. A shrink repairs the resident flow through the residual
    /// graph (see [`FlowNetwork::reduce_capacity_repair`]); a raise relaxes
    /// the internal arc in place. Either way the caller must
    /// [`VertexCutNetwork::warm_reaugment`] before reading the value as a
    /// minimum again. Exploits the construction invariant that vertex `v`'s
    /// internal edge has `EdgeId` exactly `v`. Returns the repair outcome
    /// (zero for raises and for shrinks the flow already fit).
    pub fn warm_set_capacity(&mut self, v: usize, cap: u64) -> RepairOutcome {
        let warm = self.warm.as_mut().expect("no warm flow state resident");
        let id = EdgeId(v as u32);
        let current = self.split.edge(id).2;
        if cap < current {
            let out = self.split.reduce_capacity_repair(id, cap, warm.s, warm.t);
            warm.value -= out.drained;
            out
        } else {
            self.split.raise_capacity(id, cap);
            RepairOutcome::default()
        }
    }

    /// Resumes Dinic from the repaired residual, restoring the resident flow
    /// to a maximum. Returns `(new_value, augmenting_paths)`. `should_stop`
    /// is polled as in [`FlowNetwork::augment`]; an interrupted run keeps
    /// the flow it added and reports the resident (valid, not maximum) flow
    /// value as the partial value.
    pub fn warm_reaugment(
        &mut self,
        should_stop: &mut dyn FnMut() -> bool,
    ) -> Result<(u64, u64), FlowInterrupted> {
        let warm = self.warm.as_mut().expect("no warm flow state resident");
        match self.split.augment(warm.s, warm.t, should_stop) {
            Ok((added, paths)) => {
                warm.value += added;
                Ok((warm.value, paths))
            }
            Err(e) => {
                warm.value += e.partial_flow;
                Err(FlowInterrupted {
                    partial_flow: warm.value,
                })
            }
        }
    }

    /// Extracts the cut vertices of the resident warm flow (which must be
    /// maximum, i.e. re-augmented) into `out`, ascending: vertices whose
    /// internal arc crosses the residual source partition **and still has
    /// positive capacity** — arcs zeroed by deletions separate for free and
    /// are not part of the reported contingency.
    pub fn warm_cut_vertices(&self, out: &mut Vec<usize>) {
        let warm = self.warm.expect("no warm flow state resident");
        self.cut_vertices_into(warm.s, warm.source, warm.target, out);
    }

    /// The vertices (other than `source` and `target`) whose internal arc
    /// has positive capacity and leaves the residual source side of split
    /// node `s`, ascending.
    fn cut_vertices_into(&self, s: NodeId, source: usize, target: usize, out: &mut Vec<usize>) {
        let reach = self.split.residual_reachable(s);
        out.clear();
        for v in 0..self.num_vertices() {
            if v == source || v == target {
                continue;
            }
            if reach[2 * v] && !reach[2 * v + 1] && self.split.edge(EdgeId(v as u32)).2 > 0 {
                out.push(v);
            }
        }
    }

    /// Builds the node-split flow network into the reusable `split` buffer:
    /// `v_in = 2v`, `v_out = 2v + 1`, with the internal edge of vertex `v`
    /// added v-th so its `EdgeId` is exactly `v` — no explicit map needed.
    fn split_network(&mut self, source: usize, target: usize) -> (NodeId, NodeId) {
        let n = self.num_vertices();
        // Rebuilding the split network invalidates any resident warm flow
        // (warm_build re-establishes it after the rebuild).
        self.warm = None;
        self.split.clear();
        for _ in 0..2 * n {
            self.split.add_node();
        }
        for v in 0..n {
            let cap = if v == source || v == target {
                INF
            } else {
                self.capacities[v]
            };
            self.split
                .add_edge(NodeId(2 * v as u32), NodeId(2 * v as u32 + 1), cap);
        }
        for &(from, to) in &self.edges {
            self.split
                .add_edge(NodeId(2 * from + 1), NodeId(2 * to), INF);
        }
        (NodeId(2 * source as u32), NodeId(2 * target as u32 + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn min_cut(g: &mut VertexCutNetwork, s: usize, t: usize) -> VertexCut {
        g.min_vertex_cut(s, t, &mut || false)
            .expect("a never-stop run completes")
    }

    fn warm_build(g: &mut VertexCutNetwork, s: usize, t: usize) -> u64 {
        g.warm_build(s, t, &mut || false)
            .expect("a never-stop run completes")
    }

    fn reaugment(g: &mut VertexCutNetwork) -> (u64, u64) {
        g.warm_reaugment(&mut || false)
            .expect("a never-stop run completes")
    }

    /// Whether warm flow state is resident for this `source`/`target` pair.
    fn has_warm(g: &VertexCutNetwork, source: usize, target: usize) -> bool {
        g.warm
            .is_some_and(|w| w.source == source && w.target == target)
    }

    #[test]
    fn single_path_cuts_cheapest_vertex() {
        // s - a(5) - b(1) - c(7) - t : the cut is {b}.
        let mut g = VertexCutNetwork::new();
        let s = g.add_vertex(INF);
        let a = g.add_vertex(5);
        let b = g.add_vertex(1);
        let c = g.add_vertex(7);
        let t = g.add_vertex(INF);
        g.add_edge(s, a);
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, t);
        let cut = min_cut(&mut g, s, t);
        assert_eq!(cut.value, 1);
        assert_eq!(cut.cut_vertices, vec![b]);
    }

    #[test]
    fn parallel_paths_need_one_vertex_each() {
        let mut g = VertexCutNetwork::new();
        let s = g.add_vertex(INF);
        let t = g.add_vertex(INF);
        let mut mids = Vec::new();
        for _ in 0..4 {
            let m = g.add_vertex(1);
            g.add_edge(s, m);
            g.add_edge(m, t);
            mids.push(m);
        }
        let cut = min_cut(&mut g, s, t);
        assert_eq!(cut.value, 4);
        assert_eq!(cut.cut_vertices, mids);
    }

    #[test]
    fn shared_vertex_is_cut_once() {
        // Two paths share the middle vertex m: cutting m (capacity 1) breaks
        // both, so the cut value is 1 even though there are 2 paths.
        let mut g = VertexCutNetwork::new();
        let s = g.add_vertex(INF);
        let a = g.add_vertex(1);
        let b = g.add_vertex(1);
        let m = g.add_vertex(1);
        let c = g.add_vertex(1);
        let d = g.add_vertex(1);
        let t = g.add_vertex(INF);
        g.add_edge(s, a);
        g.add_edge(s, b);
        g.add_edge(a, m);
        g.add_edge(b, m);
        g.add_edge(m, c);
        g.add_edge(m, d);
        g.add_edge(c, t);
        g.add_edge(d, t);
        let cut = min_cut(&mut g, s, t);
        assert_eq!(cut.value, 1);
        assert_eq!(cut.cut_vertices, vec![m]);
    }

    #[test]
    fn uncuttable_vertices_are_routed_around() {
        // s -> x(INF) -> t and s -> y(1) -> t through x? No: make a single
        // path with an exogenous (INF) vertex followed by an endogenous one;
        // the cut must pick the endogenous vertex.
        let mut g = VertexCutNetwork::new();
        let s = g.add_vertex(INF);
        let exo = g.add_vertex(INF);
        let endo = g.add_vertex(1);
        let t = g.add_vertex(INF);
        g.add_edge(s, exo);
        g.add_edge(exo, endo);
        g.add_edge(endo, t);
        let cut = min_cut(&mut g, s, t);
        assert_eq!(cut.value, 1);
        assert_eq!(cut.cut_vertices, vec![endo]);
    }

    #[test]
    fn disconnected_graph_needs_no_cut() {
        let mut g = VertexCutNetwork::new();
        let s = g.add_vertex(INF);
        let t = g.add_vertex(INF);
        let a = g.add_vertex(1);
        g.add_edge(s, a);
        let cut = min_cut(&mut g, s, t);
        assert_eq!(cut.value, 0);
        assert!(cut.cut_vertices.is_empty());
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn value_only_cut_matches_full_extraction() {
        let mut g = VertexCutNetwork::new();
        let s = g.add_vertex(INF);
        let t = g.add_vertex(INF);
        for _ in 0..3 {
            let m = g.add_vertex(1);
            g.add_edge(s, m);
            g.add_edge(m, t);
        }
        assert_eq!(warm_build(&mut g, s, t), min_cut(&mut g, s, t).value);
    }

    #[test]
    fn warm_flow_tracks_deletions_and_restores() {
        // Four parallel unit vertices; delete two, restore one, checking the
        // warm value and cut against a cold recomputation at every step.
        let mut g = VertexCutNetwork::new();
        let s = g.add_vertex(INF);
        let t = g.add_vertex(INF);
        let mut mids = Vec::new();
        for _ in 0..4 {
            let m = g.add_vertex(1);
            g.add_edge(s, m);
            g.add_edge(m, t);
            mids.push(m);
        }
        assert_eq!(warm_build(&mut g, s, t), 4);
        assert!(has_warm(&g, s, t));

        g.warm_set_capacity(mids[1], 0);
        let (value, _) = reaugment(&mut g);
        assert_eq!(value, 3);
        let mut cut = Vec::new();
        g.warm_cut_vertices(&mut cut);
        assert_eq!(cut, vec![mids[0], mids[2], mids[3]]);

        g.warm_set_capacity(mids[3], 0);
        let (value, _) = reaugment(&mut g);
        assert_eq!(value, 2);
        g.warm_cut_vertices(&mut cut);
        assert_eq!(cut, vec![mids[0], mids[2]]);

        g.warm_set_capacity(mids[1], 1);
        let (value, _) = reaugment(&mut g);
        assert_eq!(value, 3);
        g.warm_cut_vertices(&mut cut);
        assert_eq!(cut, vec![mids[0], mids[1], mids[2]]);
    }

    #[test]
    fn warm_cut_excludes_zeroed_shared_vertex() {
        // s -> a -> m -> t, s -> b -> m -> t: cutting m (capacity 1) is
        // optimal. Deleting m makes the instance already-false (value 0, no
        // cut vertices) — the zero-capacity arc must not be reported.
        let mut g = VertexCutNetwork::new();
        let s = g.add_vertex(INF);
        let a = g.add_vertex(1);
        let b = g.add_vertex(1);
        let m = g.add_vertex(1);
        let t = g.add_vertex(INF);
        g.add_edge(s, a);
        g.add_edge(s, b);
        g.add_edge(a, m);
        g.add_edge(b, m);
        g.add_edge(m, t);
        assert_eq!(warm_build(&mut g, s, t), 1);
        g.warm_set_capacity(m, 0);
        let (value, _) = reaugment(&mut g);
        assert_eq!(value, 0);
        let mut cut = Vec::new();
        g.warm_cut_vertices(&mut cut);
        assert!(cut.is_empty());
    }

    #[test]
    fn cold_runs_invalidate_warm_state() {
        let mut g = VertexCutNetwork::new();
        let s = g.add_vertex(INF);
        let m = g.add_vertex(1);
        let t = g.add_vertex(INF);
        g.add_edge(s, m);
        g.add_edge(m, t);
        assert_eq!(warm_build(&mut g, s, t), 1);
        assert!(has_warm(&g, s, t));
        let _ = min_cut(&mut g, s, t);
        assert!(!has_warm(&g, s, t));
        warm_build(&mut g, s, t);
        g.clear();
        assert!(!has_warm(&g, s, t));
    }

    #[test]
    fn weighted_vertices_choose_cheaper_side() {
        // Path s - a(3) - t and s - b(2) - t and s - c(4) - t: all three must
        // be cut; value is 9. Then make one of them INF and ensure the cut
        // value becomes INF-free by routing... instead verify total.
        let mut g = VertexCutNetwork::new();
        let s = g.add_vertex(INF);
        let t = g.add_vertex(INF);
        let a = g.add_vertex(3);
        let b = g.add_vertex(2);
        let c = g.add_vertex(4);
        for &v in &[a, b, c] {
            g.add_edge(s, v);
            g.add_edge(v, t);
        }
        let cut = min_cut(&mut g, s, t);
        assert_eq!(cut.value, 9);
        assert_eq!(cut.cut_vertices.len(), 3);
    }
}
