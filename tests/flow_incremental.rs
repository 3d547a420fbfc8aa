//! Property-based differential tests for the decremental (warm) flow path:
//! on random vertex-capacitated networks, after every capacity-zeroing or
//! restore step the repaired resident flow must have exactly the value a
//! from-scratch min vertex cut reports, and the warm cut vertices must form
//! a valid cut of the current network together with the zeroed vertices.
//! A warm build or re-augment stopped by its callback leaves a flow no
//! larger than the cold cut, which the next uninterrupted step completes.

use flow::{VertexCutNetwork, INF};
use proptest::prelude::*;

/// A random network blueprint: `mids` capacitated middle vertices, random
/// wiring among them plus random source/target attachments, and a step
/// sequence toggling middle vertices dead/alive.
fn network_strategy() -> impl Strategy<Value = (Vec<u64>, Vec<(u64, u64)>, Vec<u64>)> {
    (
        prop::collection::vec(1u64..4, 2..9), // middle-vertex capacities
        prop::collection::vec((0u64..12, 0u64..12), 4..40), // random arcs (mod wiring)
        prop::collection::vec(0u64..9, 1..12), // toggle sequence (mod mids)
    )
}

struct Instance {
    graph: VertexCutNetwork,
    s: usize,
    t: usize,
    /// Built capacity of every vertex (INF for s/t).
    caps: Vec<u64>,
    /// Current alive/dead state of every vertex.
    dead: Vec<bool>,
}

impl Instance {
    /// Builds the vertex-capacitated network: s and t plus `caps.len()`
    /// middle vertices; each random arc `(a, b)` is interpreted over
    /// `mids + 2` slots so some arcs attach to s/t and some connect middles.
    fn build(mid_caps: &[u64], arcs: &[(u64, u64)]) -> Self {
        let mut graph = VertexCutNetwork::new();
        let s = graph.add_vertex(INF);
        let t = graph.add_vertex(INF);
        let mut caps = vec![INF, INF];
        for &c in mid_caps {
            graph.add_vertex(c);
            caps.push(c);
        }
        let n = graph.num_vertices() as u64;
        // Guarantee at least one s->mid and one mid->t attachment so the
        // instance is not trivially disconnected for every draw.
        graph.add_edge(s, 2);
        graph.add_edge(2 + (mid_caps.len() - 1), t);
        for &(a, b) in arcs {
            let from = (a % n) as usize;
            let to = (b % n) as usize;
            if from == to || to == s || from == t {
                continue;
            }
            graph.add_edge(from, to);
        }
        let dead = vec![false; caps.len()];
        Self {
            graph,
            s,
            t,
            caps,
            dead,
        }
    }

    /// The cold reference value: a min vertex cut of [`Instance::cold`].
    fn cold_value(&self) -> u64 {
        self.cold()
            .min_vertex_cut(self.s, self.t, &mut || false)
            .expect("a never-stop run completes")
            .value
    }

    /// Cold reference: a fresh network with the current (dead-aware)
    /// capacities, solved from scratch.
    fn cold(&self) -> VertexCutNetwork {
        let mut g = VertexCutNetwork::new();
        for v in 0..self.caps.len() {
            let cap = if self.dead[v] { 0 } else { self.caps[v] };
            g.add_vertex(cap);
        }
        for e in 0..self.graph.num_edges() {
            let (from, to) = self.graph.edge(e);
            g.add_edge(from, to);
        }
        g
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn repaired_flow_value_matches_from_scratch_after_every_step(
        (mid_caps, arcs, toggles) in network_strategy()
    ) {
        let mut inst = Instance::build(&mid_caps, &arcs);
        let (s, t) = (inst.s, inst.t);
        let warm_value = inst.graph.warm_build(s, t, &mut || false).unwrap();
        prop_assert_eq!(warm_value, inst.cold_value());
        for &raw in &toggles {
            let v = 2 + (raw as usize % mid_caps.len());
            inst.dead[v] = !inst.dead[v];
            let cap = if inst.dead[v] { 0 } else { inst.caps[v] };
            inst.graph.warm_set_capacity(v, cap);
            let (value, _paths) = inst.graph.warm_reaugment(&mut || false).unwrap();
            let cold = inst.cold_value();
            prop_assert!(value == cold, "warm value {} != cold {} after toggling {}", value, cold, v);
        }
    }

    #[test]
    fn warm_cut_vertices_form_a_valid_cut_after_every_step(
        (mid_caps, arcs, toggles) in network_strategy()
    ) {
        let mut inst = Instance::build(&mid_caps, &arcs);
        let (s, t) = (inst.s, inst.t);
        inst.graph.warm_build(s, t, &mut || false).unwrap();
        let mut cut = Vec::new();
        for &raw in &toggles {
            let v = 2 + (raw as usize % mid_caps.len());
            inst.dead[v] = !inst.dead[v];
            let cap = if inst.dead[v] { 0 } else { inst.caps[v] };
            inst.graph.warm_set_capacity(v, cap);
            let (value, _paths) = inst.graph.warm_reaugment(&mut || false).unwrap();
            if value >= INF / 2 {
                // Uncuttable: an all-INF path exists; no finite cut to check.
                continue;
            }
            inst.graph.warm_cut_vertices(&mut cut);
            // Every reported vertex is alive, is not s/t, and the cut pays
            // exactly the flow value.
            let mut paid = 0u64;
            for &v in &cut {
                prop_assert!(v != s && v != t);
                prop_assert!(!inst.dead[v], "cut reports deleted vertex {}", v);
                paid += inst.caps[v];
            }
            prop_assert!(paid == value, "cut capacity {} != flow value {}", paid, value);
            // Zeroing the reported vertices in a cold network disconnects
            // s from t (dead vertices already carry capacity 0 there).
            let mut check = inst.cold();
            for &v in &cut {
                check.set_capacity(v, 0);
            }
            let residual = check
                .min_vertex_cut(s, t, &mut || false)
                .unwrap()
                .value;
            prop_assert!(residual == 0, "reported cut leaves residual value {}", residual);
        }
    }

    #[test]
    fn interrupted_warm_steps_leave_a_valid_flow_and_resume_exactly(
        (mid_caps, arcs, toggles) in network_strategy(),
        k in 0usize..6
    ) {
        // The stop callback fires on its (k+1)-th poll, inside the warm
        // build or an odd step's re-augment. Whatever flow it leaves
        // resident is a valid flow, so it never exceeds the cold cut; the
        // next (even) step repairs it further and re-augments without a
        // stop, which must land exactly on the cold min cut.
        let mut inst = Instance::build(&mid_caps, &arcs);
        let (s, t) = (inst.s, inst.t);
        let stop_after_k = || {
            let mut polls = 0usize;
            move || {
                polls += 1;
                polls > k
            }
        };
        let cold = inst.cold_value();
        match inst.graph.warm_build(s, t, &mut stop_after_k()) {
            Ok(value) => prop_assert_eq!(value, cold),
            Err(e) => prop_assert!(e.partial_flow <= cold, "partial {} > cold {}", e.partial_flow, cold),
        }
        for (step, &raw) in toggles.iter().enumerate() {
            let v = 2 + (raw as usize % mid_caps.len());
            inst.dead[v] = !inst.dead[v];
            let cap = if inst.dead[v] { 0 } else { inst.caps[v] };
            inst.graph.warm_set_capacity(v, cap);
            let cold = inst.cold_value();
            if step % 2 == 1 {
                match inst.graph.warm_reaugment(&mut stop_after_k()) {
                    Ok((value, _)) => prop_assert_eq!(value, cold),
                    Err(e) => prop_assert!(e.partial_flow <= cold, "partial {} > cold {} at step {}", e.partial_flow, cold, step),
                }
            } else {
                let (value, _) = inst.graph.warm_reaugment(&mut || false).unwrap();
                prop_assert!(value == cold, "resumed value {} != cold {} at step {}", value, cold, step);
            }
        }
    }
}
