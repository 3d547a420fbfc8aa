//! Directed flow networks with integer capacities and max-flow algorithms.
//!
//! The adjacency structure is *compressed sparse row* (CSR): a single
//! offsets array plus a single edge-index array, built lazily from the
//! residual edge list the first time a traversal needs it and invalidated by
//! mutation. Both max-flow implementations and the residual BFS walk the CSR
//! arrays; Dinic additionally reuses its level / queue / stack scratch
//! buffers across phases and across runs, so a solve performs no allocation
//! after the first call on a given network.

use std::collections::VecDeque;

/// Effectively-infinite capacity (large enough to never be the bottleneck,
/// small enough that sums cannot overflow `u64`).
pub const INF: u64 = u64::MAX / 4;

const UNREACHED: u32 = u32::MAX;

/// How many augmenting paths [`FlowNetwork::augment`] walks between two
/// polls of its stop callback (besides one poll per BFS phase).
const POLL_PATHS: u64 = 64;

/// A max-flow run stopped early by its caller's stop callback (see
/// [`FlowNetwork::augment`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowInterrupted {
    /// Flow routed before the stop — a valid (not necessarily maximum) s–t
    /// flow, hence a lower bound on the min-cut value.
    pub partial_flow: u64,
}

/// Outcome of a decremental capacity change
/// ([`FlowNetwork::reduce_capacity_repair`]): how much established flow had
/// to be drained back to the endpoints and how many residual augmentations
/// the repair walked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Flow units removed from the s–t flow value (the overflow that could
    /// not be rerouted around the shrunk edge). The caller's tracked flow
    /// value decreases by exactly this much.
    pub drained: u64,
    /// Residual augmenting paths walked during the repair (reroutes plus
    /// drain-back paths) — the "paths repaired" observability counter.
    pub paths: u64,
}

/// A node of a [`FlowNetwork`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A (forward) edge of a [`FlowNetwork`], identified by the order of
/// `add_edge` calls.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Internal residual edge: `cap` is the *remaining* capacity; the original
/// capacity is kept separately so flows can be reset and reported.
#[derive(Clone, Debug)]
struct InternalEdge {
    to: u32,
    cap: u64,
    original_cap: u64,
}

/// Reusable traversal scratch (level graph, BFS queue, DFS path, current-arc
/// cursors). Lives in the network so repeated solves allocate nothing.
#[derive(Clone, Debug, Default)]
struct Scratch {
    level: Vec<u32>,
    queue: Vec<u32>,
    iter: Vec<u32>,
    path: Vec<u32>,
}

/// A directed network with integer capacities.
///
/// Residual edges are stored explicitly: every `add_edge` creates a forward
/// edge and a zero-capacity reverse edge at adjacent indices (`i` and
/// `i ^ 1`), the classic pairing both max-flow implementations rely on.
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    num_nodes: usize,
    edges: Vec<InternalEdge>,
    /// Maps public [`EdgeId`]s to the index of their forward internal edge.
    public_edges: Vec<u32>,
    /// CSR adjacency over `edges`: node `u`'s incident residual edges are
    /// `csr_edges[csr_offsets[u]..csr_offsets[u + 1]]`. Rebuilt lazily.
    csr_offsets: Vec<u32>,
    csr_edges: Vec<u32>,
    csr_valid: bool,
    scratch: Scratch,
}

impl FlowNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the network while keeping every allocation (edge arena, CSR
    /// arrays, traversal scratch), so a caller rebuilding a similar network
    /// each solve — the engine's session steps — allocates nothing after the
    /// first build.
    pub fn clear(&mut self) {
        self.num_nodes = 0;
        self.edges.clear();
        self.public_edges.clear();
        self.csr_valid = false;
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.num_nodes += 1;
        self.csr_valid = false;
        NodeId(self.num_nodes as u32 - 1)
    }

    /// Adds `n` nodes and returns their ids.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of (forward) edges.
    pub fn num_edges(&self) -> usize {
        self.public_edges.len()
    }

    /// Adds a directed edge `from -> to` with capacity `cap`.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, cap: u64) -> EdgeId {
        assert!(from.index() < self.num_nodes && to.index() < self.num_nodes);
        let forward = self.edges.len() as u32;
        self.edges.push(InternalEdge {
            to: to.0,
            cap,
            original_cap: cap,
        });
        self.edges.push(InternalEdge {
            to: from.0,
            cap: 0,
            original_cap: 0,
        });
        self.public_edges.push(forward);
        self.csr_valid = false;
        EdgeId(self.public_edges.len() as u32 - 1)
    }

    /// The endpoints and (original) capacity of a (forward) edge.
    pub fn edge(&self, id: EdgeId) -> (NodeId, NodeId, u64) {
        let fwd = self.public_edges[id.index()];
        let to = self.edges[fwd as usize].to;
        let from = self.edges[(fwd ^ 1) as usize].to;
        (
            NodeId(from),
            NodeId(to),
            self.edges[fwd as usize].original_cap,
        )
    }

    /// Flow currently routed through a (forward) edge (valid after a
    /// max-flow run).
    pub fn edge_flow(&self, id: EdgeId) -> u64 {
        let fwd = self.public_edges[id.index()];
        let e = &self.edges[fwd as usize];
        e.original_cap - e.cap
    }

    /// Restores every edge to its original capacity (zero flow).
    pub fn reset_flow(&mut self) {
        for e in &mut self.edges {
            e.cap = e.original_cap;
        }
    }

    /// Decrementally shrinks a (forward) edge's capacity to `new_cap`
    /// **without discarding the established flow**: if the flow routed
    /// through the edge exceeds the new capacity, the surplus is first
    /// rerouted around the edge through the residual graph (flow value
    /// preserved) and whatever cannot be rerouted is drained back to the
    /// endpoints — excess at the tail returns to the source `s`, the sink
    /// `t` gives back the matching deficit at the head. Afterwards the
    /// network again holds a *valid* (not necessarily maximum) s–t flow
    /// whose value decreased by exactly [`RepairOutcome::drained`]; a
    /// follow-up [`FlowNetwork::augment`] re-augments to the
    /// new maximum from the repaired residual instead of from scratch.
    pub fn reduce_capacity_repair(
        &mut self,
        id: EdgeId,
        new_cap: u64,
        s: NodeId,
        t: NodeId,
    ) -> RepairOutcome {
        let fwd = self.public_edges[id.index()] as usize;
        let flow = self.edges[fwd].original_cap - self.edges[fwd].cap;
        self.edges[fwd].original_cap = new_cap;
        if flow <= new_cap {
            // Capacity-only change: the routed flow still fits, the CSR
            // topology is untouched, nothing to repair.
            self.edges[fwd].cap = new_cap - flow;
            return RepairOutcome::default();
        }
        // Clamp the routed flow to the new capacity. The surplus becomes an
        // excess at the tail `u` and a matching deficit at the head `v`.
        let overflow = flow - new_cap;
        self.edges[fwd].cap = 0;
        self.edges[fwd ^ 1].cap = new_cap;
        let u = self.tail(fwd as u32);
        let v = self.edges[fwd].to;
        let mut paths = 0u64;
        let rerouted = if u != v {
            let (r, p) = self.route_residual(u, v, overflow);
            paths += p;
            r
        } else {
            // A self-loop carries no net imbalance; clamping it is free.
            overflow
        };
        let drain = overflow - rerouted;
        if drain > 0 {
            // Flow decomposition of the pre-repair flow guarantees residual
            // capacity >= drain on both legs: reversed s->u path segments
            // drain the excess, reversed v->t segments return the deficit.
            if u != s.0 {
                let (d, p) = self.route_residual(u, s.0, drain);
                paths += p;
                debug_assert_eq!(d, drain, "residual drain to the source must succeed");
            }
            if v != t.0 {
                let (d, p) = self.route_residual(t.0, v, drain);
                paths += p;
                debug_assert_eq!(d, drain, "residual drain from the sink must succeed");
            }
        }
        RepairOutcome {
            drained: drain,
            paths,
        }
    }

    /// Raises a (forward) edge's capacity to `new_cap` in place, keeping the
    /// flow currently routed through it (which must fit — raising is only
    /// ever relaxing). The inverse of [`FlowNetwork::reduce_capacity_repair`]
    /// for restore steps; the caller re-augments with
    /// [`FlowNetwork::augment`] to pick up any newly available
    /// paths.
    pub fn raise_capacity(&mut self, id: EdgeId, new_cap: u64) {
        let fwd = self.public_edges[id.index()] as usize;
        let flow = self.edges[fwd].original_cap - self.edges[fwd].cap;
        debug_assert!(
            flow <= new_cap,
            "raise_capacity must not strand routed flow"
        );
        self.edges[fwd].original_cap = new_cap;
        self.edges[fwd].cap = new_cap - flow;
    }

    /// Pushes up to `limit` units from `from` to `to` along residual
    /// augmenting paths (BFS, shortest-first), mutating the residual state.
    /// Returns `(amount_routed, paths_walked)`. The node-parent array reuses
    /// the Dinic current-arc scratch, so repairs allocate nothing.
    fn route_residual(&mut self, from: u32, to: u32, limit: u64) -> (u64, u64) {
        const ROOT: u32 = u32::MAX - 1;
        self.ensure_csr();
        let n = self.num_nodes;
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut routed = 0u64;
        let mut paths = 0u64;
        while routed < limit {
            // BFS for a residual from->to path; `iter` holds the parent edge
            // of each reached node (UNREACHED = unvisited, ROOT = origin).
            scratch.iter.clear();
            scratch.iter.resize(n, UNREACHED);
            scratch.iter[from as usize] = ROOT;
            scratch.queue.clear();
            scratch.queue.push(from);
            let mut head = 0;
            'bfs: while head < scratch.queue.len() {
                let u = scratch.queue[head];
                head += 1;
                for &ei in self.incident(u) {
                    let e = &self.edges[ei as usize];
                    if e.cap > 0 && scratch.iter[e.to as usize] == UNREACHED {
                        scratch.iter[e.to as usize] = ei;
                        if e.to == to {
                            break 'bfs;
                        }
                        scratch.queue.push(e.to);
                    }
                }
            }
            if scratch.iter[to as usize] == UNREACHED {
                break;
            }
            let mut bottleneck = limit - routed;
            let mut v = to;
            while v != from {
                let ei = scratch.iter[v as usize];
                bottleneck = bottleneck.min(self.edges[ei as usize].cap);
                v = self.tail(ei);
            }
            let mut v = to;
            while v != from {
                let ei = scratch.iter[v as usize];
                self.edges[ei as usize].cap -= bottleneck;
                self.edges[(ei ^ 1) as usize].cap += bottleneck;
                v = self.tail(ei);
            }
            routed += bottleneck;
            paths += 1;
        }
        self.scratch = scratch;
        (routed, paths)
    }

    /// Tail (source node) of an internal edge: the head of its twin.
    #[inline]
    fn tail(&self, ei: u32) -> u32 {
        self.edges[(ei ^ 1) as usize].to
    }

    /// (Re)builds the CSR adjacency by counting sort over edge tails. All
    /// three working arrays (offsets, adjacency, cursor) are reused across
    /// rebuilds.
    fn ensure_csr(&mut self) {
        if self.csr_valid {
            return;
        }
        let n = self.num_nodes;
        let m = self.edges.len();
        let mut offsets = std::mem::take(&mut self.csr_offsets);
        offsets.clear();
        offsets.resize(n + 1, 0);
        for ei in 0..m as u32 {
            offsets[self.tail(ei) as usize + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        // The BFS queue buffer doubles as the counting-sort cursor between
        // traversals (both are per-node u32 scratch).
        let mut cursor = std::mem::take(&mut self.scratch.queue);
        cursor.clear();
        cursor.extend_from_slice(&offsets[..n]);
        let mut adj = std::mem::take(&mut self.csr_edges);
        adj.clear();
        adj.resize(m, 0);
        for ei in 0..m as u32 {
            let u = self.tail(ei) as usize;
            adj[cursor[u] as usize] = ei;
            cursor[u] += 1;
        }
        self.scratch.queue = cursor;
        self.csr_offsets = offsets;
        self.csr_edges = adj;
        self.csr_valid = true;
    }

    /// Incident residual edges of `u` (valid CSR required).
    #[inline]
    fn incident(&self, u: u32) -> &[u32] {
        &self.csr_edges
            [self.csr_offsets[u as usize] as usize..self.csr_offsets[u as usize + 1] as usize]
    }

    /// Computes the maximum s–t flow from zero with [`FlowNetwork::augment`]
    /// and a stop callback that never fires.
    pub fn max_flow_dinic(&mut self, s: NodeId, t: NodeId) -> u64 {
        self.reset_flow();
        match self.augment(s, t, &mut || false) {
            Ok((total, _)) => total,
            Err(_) => unreachable!("the never-stop callback cannot interrupt the run"),
        }
    }

    /// Augments the flow currently held by the residual network to a
    /// maximum s–t flow with Dinic's algorithm (iterative blocking-flow DFS
    /// with the current-arc optimization) and returns `(added_flow,
    /// augmenting_paths)`. The starting flow is whatever the network holds:
    /// zero on a fresh network or after [`FlowNetwork::reset_flow`], or the
    /// valid flow a [`FlowNetwork::reduce_capacity_repair`] /
    /// [`FlowNetwork::raise_capacity`] left behind, so a repaired network
    /// re-augments instead of recomputing from scratch.
    ///
    /// `should_stop` is polled once per BFS phase and once every 64
    /// augmenting paths within a phase, so a callback that reads a clock
    /// costs the run nothing measurable. When it returns `true` the run
    /// stops and reports the flow it added so far: augmentations are atomic,
    /// so the network then holds a valid (if not maximum) s–t flow — a lower
    /// bound on the min cut — and a later call resumes from it.
    pub fn augment(
        &mut self,
        s: NodeId,
        t: NodeId,
        should_stop: &mut dyn FnMut() -> bool,
    ) -> Result<(u64, u64), FlowInterrupted> {
        self.ensure_csr();
        if s == t {
            return Ok((0, 0));
        }
        let n = self.num_nodes;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.level.resize(n, UNREACHED);
        scratch.iter.resize(n, 0);
        let mut total = 0u64;
        let mut paths = 0u64;
        let mut stopped = false;
        loop {
            if should_stop() {
                stopped = true;
                break;
            }
            // BFS to build the level graph on the residual network.
            scratch.level.iter_mut().for_each(|l| *l = UNREACHED);
            scratch.level[s.index()] = 0;
            scratch.queue.clear();
            scratch.queue.push(s.0);
            let mut head = 0;
            while head < scratch.queue.len() {
                let u = scratch.queue[head];
                head += 1;
                for &ei in self.incident(u) {
                    let e = &self.edges[ei as usize];
                    if e.cap > 0 && scratch.level[e.to as usize] == UNREACHED {
                        scratch.level[e.to as usize] = scratch.level[u as usize] + 1;
                        scratch.queue.push(e.to);
                    }
                }
            }
            if scratch.level[t.index()] == UNREACHED {
                break;
            }
            let (phase_flow, phase_paths, phase_stopped) =
                self.blocking_flow(s.0, t.0, &mut scratch, should_stop);
            total += phase_flow;
            paths += phase_paths;
            if phase_stopped {
                stopped = true;
                break;
            }
        }
        self.scratch = scratch;
        if stopped {
            Err(FlowInterrupted {
                partial_flow: total,
            })
        } else {
            Ok((total, paths))
        }
    }

    /// Finds a blocking flow in the current level graph: an iterative DFS
    /// keeping the partial path on an explicit stack, advancing each node's
    /// current arc so saturated or level-inconsistent edges are never
    /// revisited within the phase. Returns the flow found this phase, the
    /// number of augmenting paths walked, and whether `should_stop` cut the
    /// phase short (the flow stays valid — augmentations are atomic, the
    /// stop lands between them).
    fn blocking_flow(
        &mut self,
        s: u32,
        t: u32,
        scratch: &mut Scratch,
        should_stop: &mut dyn FnMut() -> bool,
    ) -> (u64, u64, bool) {
        scratch.iter.iter_mut().for_each(|i| *i = 0);
        scratch.path.clear();
        let mut total = 0u64;
        let mut paths = 0u64;
        let mut u = s;
        loop {
            if u == t {
                if paths % POLL_PATHS == POLL_PATHS - 1 && should_stop() {
                    return (total, paths, true);
                }
                // Augment along the path, then roll the path back to the
                // tail of the first edge that saturated and continue the
                // search from there.
                let mut bottleneck = INF;
                for &ei in &scratch.path {
                    bottleneck = bottleneck.min(self.edges[ei as usize].cap);
                }
                total += bottleneck;
                paths += 1;
                let mut first_saturated = scratch.path.len() - 1;
                for &ei in &scratch.path {
                    self.edges[ei as usize].cap -= bottleneck;
                    self.edges[(ei ^ 1) as usize].cap += bottleneck;
                }
                for (i, &ei) in scratch.path.iter().enumerate() {
                    if self.edges[ei as usize].cap == 0 {
                        first_saturated = i;
                        break;
                    }
                }
                u = self.tail(scratch.path[first_saturated]);
                scratch.path.truncate(first_saturated);
                continue;
            }
            // Advance the current arc of `u` to the next admissible edge.
            let incident_start = self.csr_offsets[u as usize];
            let incident_end = self.csr_offsets[u as usize + 1];
            let mut advanced = false;
            while scratch.iter[u as usize] < incident_end - incident_start {
                let ei = self.csr_edges[(incident_start + scratch.iter[u as usize]) as usize];
                let e = &self.edges[ei as usize];
                if e.cap > 0 && scratch.level[e.to as usize] == scratch.level[u as usize] + 1 {
                    scratch.path.push(ei);
                    u = e.to;
                    advanced = true;
                    break;
                }
                scratch.iter[u as usize] += 1;
            }
            if advanced {
                continue;
            }
            // Dead end: remove `u` from the level graph and backtrack.
            scratch.level[u as usize] = UNREACHED;
            match scratch.path.pop() {
                Some(ei) => {
                    u = self.tail(ei);
                    // The popped edge is `u`'s current arc; move past it.
                    scratch.iter[u as usize] += 1;
                }
                None => break, // the source itself is exhausted
            }
        }
        (total, paths, false)
    }

    /// Computes the maximum s–t flow with the Edmonds–Karp algorithm
    /// (BFS augmenting paths). Kept as an independent implementation used to
    /// cross-check Dinic in tests and benchmarks.
    pub fn max_flow_edmonds_karp(&mut self, s: NodeId, t: NodeId) -> u64 {
        self.ensure_csr();
        self.reset_flow();
        if s == t {
            return 0;
        }
        let n = self.num_nodes;
        let mut total = 0u64;
        loop {
            let mut parent_edge: Vec<Option<u32>> = vec![None; n];
            let mut visited = vec![false; n];
            visited[s.index()] = true;
            let mut queue = VecDeque::new();
            queue.push_back(s.0);
            'bfs: while let Some(u) = queue.pop_front() {
                for &ei in self.incident(u) {
                    let e = &self.edges[ei as usize];
                    if e.cap > 0 && !visited[e.to as usize] {
                        visited[e.to as usize] = true;
                        parent_edge[e.to as usize] = Some(ei);
                        if e.to == t.0 {
                            break 'bfs;
                        }
                        queue.push_back(e.to);
                    }
                }
            }
            if !visited[t.index()] {
                break;
            }
            // Bottleneck along the found path.
            let mut bottleneck = INF;
            let mut v = t.0;
            while v != s.0 {
                let ei = parent_edge[v as usize].unwrap();
                bottleneck = bottleneck.min(self.edges[ei as usize].cap);
                v = self.edges[(ei ^ 1) as usize].to;
            }
            // Augment.
            let mut v = t.0;
            while v != s.0 {
                let ei = parent_edge[v as usize].unwrap();
                self.edges[ei as usize].cap -= bottleneck;
                self.edges[(ei ^ 1) as usize].cap += bottleneck;
                v = self.edges[(ei ^ 1) as usize].to;
            }
            total += bottleneck;
        }
        total
    }

    /// Nodes reachable from `s` in the residual network (valid after a
    /// max-flow run); this is the source side of a minimum cut.
    pub fn residual_reachable(&self, s: NodeId) -> Vec<bool> {
        let n = self.num_nodes;
        let mut visited = vec![false; n];
        visited[s.index()] = true;
        let mut queue = VecDeque::new();
        queue.push_back(s.0);
        if self.csr_valid {
            while let Some(u) = queue.pop_front() {
                for &ei in self.incident(u) {
                    let e = &self.edges[ei as usize];
                    if e.cap > 0 && !visited[e.to as usize] {
                        visited[e.to as usize] = true;
                        queue.push_back(e.to);
                    }
                }
            }
        } else {
            // No CSR yet (no max-flow run): scan the edge list per BFS level.
            while let Some(u) = queue.pop_front() {
                for ei in 0..self.edges.len() as u32 {
                    let e = &self.edges[ei as usize];
                    if self.tail(ei) == u && e.cap > 0 && !visited[e.to as usize] {
                        visited[e.to as usize] = true;
                        queue.push_back(e.to);
                    }
                }
            }
        }
        visited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (FlowNetwork, NodeId, NodeId) {
        // s -> a (3), s -> b (2), a -> t (2), b -> t (3), a -> b (1)
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
        (g, s, t)
    }

    #[test]
    fn dinic_computes_max_flow_on_diamond() {
        let (mut g, s, t) = diamond();
        assert_eq!(g.max_flow_dinic(s, t), 5);
    }

    #[test]
    fn edmonds_karp_agrees_with_dinic() {
        let (mut g, s, t) = diamond();
        let d = g.max_flow_dinic(s, t);
        let ek = g.max_flow_edmonds_karp(s, t);
        assert_eq!(d, ek);
    }

    #[test]
    fn single_edge_network() {
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t, 7);
        assert_eq!(g.max_flow_dinic(s, t), 7);
    }

    #[test]
    fn disconnected_source_and_sink_have_zero_flow() {
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let t = g.add_node();
        let _ = g.add_node();
        assert_eq!(g.max_flow_dinic(s, t), 0);
        assert_eq!(g.max_flow_edmonds_karp(s, t), 0);
    }

    #[test]
    fn infinite_capacity_edges_are_never_bottlenecks() {
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let m = g.add_node();
        let t = g.add_node();
        g.add_edge(s, m, INF);
        g.add_edge(m, t, 4);
        assert_eq!(g.max_flow_dinic(s, t), 4);
    }

    #[test]
    fn parallel_edges_sum() {
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t, 2);
        g.add_edge(s, t, 3);
        assert_eq!(g.max_flow_dinic(s, t), 5);
        assert_eq!(g.max_flow_edmonds_karp(s, t), 5);
    }

    #[test]
    fn edge_metadata_round_trips() {
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let t = g.add_node();
        let e = g.add_edge(s, t, 9);
        assert_eq!(g.edge(e), (s, t, 9));
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
        g.max_flow_dinic(s, t);
        assert_eq!(g.edge_flow(e), 9);
    }

    #[test]
    fn residual_reachability_identifies_cut_side() {
        // s -> a (1) -> t (10): the cut is the s->a edge, so only s is
        // reachable in the residual graph.
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let a = g.add_node();
        let t = g.add_node();
        g.add_edge(s, a, 1);
        g.add_edge(a, t, 10);
        g.max_flow_dinic(s, t);
        let reach = g.residual_reachable(s);
        assert!(reach[s.index()]);
        assert!(!reach[a.index()]);
        assert!(!reach[t.index()]);
    }

    #[test]
    fn residual_reachability_works_before_any_flow_run() {
        // Without a max-flow call there is no CSR; the fallback path must
        // still report plain reachability.
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(s, a, 1);
        let reach = g.residual_reachable(s);
        assert!(reach[s.index()] && reach[a.index()] && !reach[b.index()]);
    }

    #[test]
    fn classic_cut_example() {
        // CLRS figure 26.6: maximum flow value 23.
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let v1 = g.add_node();
        let v2 = g.add_node();
        let v3 = g.add_node();
        let v4 = g.add_node();
        let t = g.add_node();
        g.add_edge(s, v1, 16);
        g.add_edge(s, v2, 13);
        g.add_edge(v1, v2, 10);
        g.add_edge(v2, v1, 4);
        g.add_edge(v1, v3, 12);
        g.add_edge(v3, v2, 9);
        g.add_edge(v2, v4, 14);
        g.add_edge(v4, v3, 7);
        g.add_edge(v3, t, 20);
        g.add_edge(v4, t, 4);
        assert_eq!(g.max_flow_dinic(s, t), 23);
        assert_eq!(g.max_flow_edmonds_karp(s, t), 23);
    }

    #[test]
    fn rerunning_max_flow_is_deterministic() {
        let (mut g, s, t) = diamond();
        assert_eq!(g.max_flow_dinic(s, t), 5);
        assert_eq!(g.max_flow_dinic(s, t), 5);
        assert_eq!(g.max_flow_edmonds_karp(s, t), 5);
        assert_eq!(g.max_flow_dinic(s, t), 5);
    }

    #[test]
    fn mutation_after_a_run_invalidates_the_csr() {
        let (mut g, s, t) = diamond();
        assert_eq!(g.max_flow_dinic(s, t), 5);
        // Widen the a -> t edge; the rebuilt CSR must see the new edge too.
        let a = NodeId(1);
        g.add_edge(a, t, 10);
        assert_eq!(g.max_flow_dinic(s, t), 5); // still limited by s-edges
        g.add_edge(s, a, 100);
        // a -> t now carries 12, a -> b -> t carries 1, s -> b -> t carries 2.
        assert_eq!(g.max_flow_dinic(s, t), 15);
        assert_eq!(g.max_flow_edmonds_karp(s, t), 15);
    }

    #[test]
    fn source_equals_sink_is_zero() {
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        g.add_edge(s, s, 10);
        assert_eq!(g.max_flow_dinic(s, s), 0);
    }

    #[test]
    fn flow_conservation_on_reported_edge_flows() {
        let (mut g, s, t) = diamond();
        let total = g.max_flow_dinic(s, t);
        // Flow out of s equals total.
        let mut out_of_s = 0;
        for i in 0..g.num_edges() {
            let id = EdgeId(i as u32);
            let (from, _, _) = g.edge(id);
            if from == s {
                out_of_s += g.edge_flow(id);
            }
        }
        assert_eq!(out_of_s, total);
    }

    #[test]
    fn reduce_capacity_repair_matches_from_scratch() {
        let (mut g, s, t) = diamond();
        assert_eq!(g.max_flow_dinic(s, t), 5);
        // Shrink s -> a from 3 to 1: the repaired + resumed flow must equal
        // a from-scratch run on the reduced network.
        let out = g.reduce_capacity_repair(EdgeId(0), 1, s, t);
        let (added, _) = g.augment(s, t, &mut || false).unwrap();
        let warm = 5 - out.drained + added;
        assert_eq!(g.max_flow_dinic(s, t), warm);
        assert_eq!(warm, 3);
    }

    #[test]
    fn zeroing_an_edge_drains_its_flow() {
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let a = g.add_node();
        let t = g.add_node();
        g.add_edge(s, a, 2);
        let e = g.add_edge(a, t, 2);
        assert_eq!(g.max_flow_dinic(s, t), 2);
        // The only route dies entirely: all 2 units drain back.
        let out = g.reduce_capacity_repair(e, 0, s, t);
        assert_eq!(out.drained, 2);
        let (added, _) = g.augment(s, t, &mut || false).unwrap();
        assert_eq!(added, 0);
        assert_eq!(g.max_flow_dinic(s, t), 0);
    }

    #[test]
    fn repair_reroutes_before_draining() {
        // Two disjoint a -> t routes; shrinking one reroutes through the
        // other without losing flow value.
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let a = g.add_node();
        let t = g.add_node();
        g.add_edge(s, a, 2);
        let e1 = g.add_edge(a, t, 2);
        g.add_edge(a, t, 2);
        assert_eq!(g.max_flow_dinic(s, t), 2);
        let flow_on_e1 = g.edge_flow(e1);
        let out = g.reduce_capacity_repair(e1, 0, s, t);
        // Whatever was on e1 fits on the parallel edge: nothing drained.
        assert_eq!(out.drained, 0);
        let (added, _) = g.augment(s, t, &mut || false).unwrap();
        assert_eq!(added, 0);
        if flow_on_e1 > 0 {
            assert!(out.paths > 0);
        }
    }

    #[test]
    fn raise_capacity_reaugments_incrementally() {
        let (mut g, s, t) = diamond();
        assert_eq!(g.max_flow_dinic(s, t), 5);
        let mut value = 5;
        let out = g.reduce_capacity_repair(EdgeId(0), 0, s, t); // s -> a
        value -= out.drained;
        let (added, _) = g.augment(s, t, &mut || false).unwrap();
        value += added;
        assert_eq!(value, 2); // only s -> b (2) remains
                              // Restore and re-augment back to the original maximum.
        g.raise_capacity(EdgeId(0), 3);
        let (added, _) = g.augment(s, t, &mut || false).unwrap();
        value += added;
        assert_eq!(value, 5);
        assert_eq!(g.max_flow_dinic(s, t), 5);
    }

    #[test]
    fn repeated_repairs_track_from_scratch() {
        // CLRS network: zero edges one at a time, checking the repaired
        // value against an independent from-scratch run after every step.
        let build = || {
            let mut g = FlowNetwork::new();
            let s = g.add_node();
            let v1 = g.add_node();
            let v2 = g.add_node();
            let v3 = g.add_node();
            let v4 = g.add_node();
            let t = g.add_node();
            g.add_edge(s, v1, 16);
            g.add_edge(s, v2, 13);
            g.add_edge(v1, v2, 10);
            g.add_edge(v2, v1, 4);
            g.add_edge(v1, v3, 12);
            g.add_edge(v3, v2, 9);
            g.add_edge(v2, v4, 14);
            g.add_edge(v4, v3, 7);
            g.add_edge(v3, t, 20);
            g.add_edge(v4, t, 4);
            (g, s, t)
        };
        let (mut warm, s, t) = build();
        let mut value = warm.max_flow_dinic(s, t);
        assert_eq!(value, 23);
        for kill in [4u32, 9, 1] {
            let out = warm.reduce_capacity_repair(EdgeId(kill), 0, s, t);
            value -= out.drained;
            let (added, _) = warm.augment(s, t, &mut || false).unwrap();
            value += added;
            let (mut cold, cs, ct) = build();
            for earlier in [4u32, 9, 1] {
                cold.reduce_capacity_repair(EdgeId(earlier), 0, cs, ct);
                if earlier == kill {
                    break;
                }
            }
            assert_eq!(value, cold.max_flow_dinic(cs, ct));
        }
    }

    #[test]
    fn dinic_handles_layered_ladders() {
        // A ladder with cross edges stresses the iterative blocking-flow
        // bookkeeping (multiple augmenting paths per phase).
        let mut g = FlowNetwork::new();
        let s = g.add_node();
        let t = g.add_node();
        let k = 12;
        let top = g.add_nodes(k);
        let bottom = g.add_nodes(k);
        for i in 0..k {
            g.add_edge(s, top[i], 2);
            g.add_edge(top[i], bottom[i], 1);
            g.add_edge(bottom[i], t, 2);
            if i > 0 {
                g.add_edge(top[i - 1], bottom[i], 1);
                g.add_edge(bottom[i - 1], top[i], 1);
            }
        }
        let d = g.max_flow_dinic(s, t);
        let ek = g.max_flow_edmonds_karp(s, t);
        assert_eq!(d, ek);
    }
}
