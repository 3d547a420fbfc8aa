//! Flow-based polynomial-time resilience algorithms.
//!
//! All PTIME cases of the dichotomy reduce to minimum cuts. This module
//! contains the generic constructions shared by several cases:
//!
//! * [`FlowConstruction::solve`] — the one entry point of the three
//!   tuple-node min-cut constructions:
//!   - [`FlowConstruction::WitnessPath`], the classic "witnesses are s–t
//!     paths over tuple nodes" construction used for linear queries
//!     (Section 2.4) and, with duplicated self-join positions collapsing
//!     onto a single node, for 2-confluences (Proposition 31) and
//!     `q_TS3conf` (Proposition 41);
//!   - [`FlowConstruction::Permutation`], the pair-node construction for
//!     unbound 2-permutations (Propositions 33 and 35);
//!   - [`FlowConstruction::Rep`], Proposition 36's observation that
//!     off-diagonal tuples of the REP relation are never needed, after
//!     which the witness-path flow applies.
//!
//!   One call solves cold, or warm from a deletion session's resident
//!   network ([`WarmSession`]), and polls one stop callback in every
//!   max-flow run;
//! * [`pairwise_bipartite_resilience_view`] — minimum vertex cover via
//!   König's theorem when every witness touches at most two endogenous
//!   tuples drawn from two relations (e.g. the normal form of `q_rats`);
//! * [`seed_cuttable_mask`] — the cuttability mask the constructions read.
//!
//! [`witness_path_flow_live`], [`permutation_flow_live`] and
//! [`rep_flow_live`] are cold, never-stopping shorthands for
//! [`FlowConstruction::solve`].
//!
//! A construction answers `None` when it detects that the query cannot be
//! made false on the given instance (a witness with no cuttable tuple), or
//! when it does not apply to the query.

use cq::patterns::single_self_join_relation;
use cq::Query;
use database::{FxHashMap, TupleId, TupleStore, WitnessView};
use flow::{FlowInterrupted, VertexCutNetwork, INF};
use std::collections::HashSet;

/// The artificial source and target: nodes 0 and 1 of every network.
const SOURCE: u32 = 0;
const TARGET: u32 = 1;

/// Reusable buffers for the flow constructions: the edge list, the
/// cuttability mask, the pair-node map and the cold network all survive
/// across solves, so a batch or session re-runs a flow without allocating
/// per witness (or per tuple, after the first solve).
#[derive(Clone, Debug, Default)]
pub struct FlowScratch {
    /// Edge list under construction (deduplicated before insertion).
    edges: Vec<(u32, u32)>,
    /// Cuttability mask: endogenous tuples minus the ones a construction
    /// freezes.
    cuttable: Vec<bool>,
    /// Pair-node lookup for the permutation construction.
    pair_node: FxHashMap<(TupleId, TupleId), u32>,
    /// The network cold solves build (cleared, not reallocated).
    cold: TupleNetwork,
}

impl FlowScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Result of a flow-based resilience computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowResult {
    /// The computed resilience.
    pub resilience: usize,
    /// A contingency set achieving it (one tuple per cut vertex; for
    /// pair-node constructions one representative tuple per pair).
    pub contingency: Vec<TupleId>,
}

/// Seeds `scratch.cuttable` with the endogenous mask of `q` over `db`
/// (reusing the buffer), as every construction expects on entry.
pub fn seed_cuttable_mask<S: TupleStore + ?Sized>(q: &Query, db: &S, scratch: &mut FlowScratch) {
    db.endogenous_mask_into(q, &mut scratch.cuttable);
}

/// One of the three tuple-node min-cut constructions. Tuples become nodes
/// (capacity 1 if cuttable, infinite otherwise) and every witness an s–t
/// path, so a minimum vertex cut is a minimum contingency set.
#[derive(Clone, Copy, Debug)]
pub enum FlowConstruction<'a> {
    /// Every witness contributes the s–t path that visits its tuples in the
    /// atom order `order`. For *linear* orders every hybrid s–t path of the
    /// resulting graph is itself a witness, so the minimum vertex cut equals
    /// the resilience.
    WitnessPath {
        /// The atom order each witness path follows.
        order: &'a [usize],
    },
    /// Resilience of an unbound 2-permutation query (Propositions 33 and 35,
    /// "case 1"). The self-join relation `R` occurs as `R(x,y), R(y,x)`;
    /// every witness either uses a symmetric pair `{R(a,b), R(b,a)}` (or a
    /// loop `R(a,a)`), of which a minimum contingency set deletes exactly
    /// one, or is destroyed further left. Each symmetric pair collapses to a
    /// single unit-capacity "pair node" placed after the remaining
    /// endogenous tuples of the witness (taken in the query's pseudo-linear
    /// order).
    Permutation {
        /// The query, which locates the self-join pair.
        query: &'a Query,
    },
    /// Resilience of a REP query containing `z3` (Proposition 36): tuples
    /// `R(a,b)` with `a != b` are never needed in a minimum contingency set,
    /// so they are frozen and the witness-path flow applies over `order`.
    Rep {
        /// The query, which names the self-join relation.
        query: &'a Query,
        /// The atom order each witness path follows: linear, else
        /// pseudo-linear, else query order.
        order: &'a [usize],
    },
}

impl FlowConstruction<'_> {
    /// Solves the construction over the live witnesses in `view`.
    /// `scratch.cuttable` must hold the cuttability mask on entry (see
    /// [`seed_cuttable_mask`]); the REP construction freezes its
    /// off-diagonal tuples in place.
    ///
    /// Without `warm`, the network is built over `view` and solved from
    /// scratch. With `warm`, the session's resident network over the full
    /// witness set is rebuilt (first use, or after
    /// [`FlowWarmState::invalidate`]) or repaired by the deletions and
    /// restores since the previous step and re-augmented; when it cannot
    /// express a deletion (a deleted tuple on an atom the permutation
    /// construction does not model), the step retries cold. Every path
    /// answers what the cold solve over `view` answers.
    ///
    /// `stop` is polled inside every max-flow run. When it fires, `Err`
    /// carries the flow routed so far — a valid flow of the live network
    /// (deleted tuples' arcs carry none), hence a certified lower bound on
    /// the resilience. An interrupted warm step drops the resident network,
    /// so the next step rebuilds it as a fresh session would.
    pub fn solve<S: TupleStore + ?Sized>(
        &self,
        db: &S,
        view: WitnessView<'_>,
        want_contingency: bool,
        scratch: &mut FlowScratch,
        stop: &mut dyn FnMut() -> bool,
        warm: Option<&mut WarmSession<'_>>,
    ) -> Result<Option<FlowResult>, FlowInterrupted> {
        let plan = match *self {
            FlowConstruction::WitnessPath { order } => Plan::Path(order),
            FlowConstruction::Permutation { query } => match PermShape::of(query) {
                Some(shape) => Plan::Pairs(shape),
                None => return Ok(None),
            },
            FlowConstruction::Rep { query, order } => {
                if !freeze_off_diagonal(query, db, &mut scratch.cuttable) {
                    return Ok(None);
                }
                Plan::Path(order)
            }
        };
        if let Some(warm) = warm {
            if let Some(result) = self.solve_warm(&plan, db, want_contingency, scratch, stop, warm)
            {
                return result;
            }
        }
        if view.is_empty() {
            return Ok(Some(FlowResult {
                resilience: 0,
                contingency: Vec::new(),
            }));
        }
        let FlowScratch {
            edges,
            cuttable,
            pair_node,
            cold,
        } = scratch;
        cold.reset(db.num_tuples(), false);
        if !plan.build(cold, view, cuttable, pair_node, edges, None, stop)? {
            return Ok(None);
        }
        let value = cold.run(edges, stop).map_err(certified)?;
        Ok(cold.result(value, want_contingency))
    }

    /// The warm step of [`FlowConstruction::solve`]; `None` asks for the
    /// cold retry.
    fn solve_warm<S: TupleStore + ?Sized>(
        &self,
        plan: &Plan<'_>,
        db: &S,
        want_contingency: bool,
        scratch: &mut FlowScratch,
        stop: &mut dyn FnMut() -> bool,
        warm: &mut WarmSession<'_>,
    ) -> Option<Result<Option<FlowResult>, FlowInterrupted>> {
        let kind = match self {
            FlowConstruction::WitnessPath { .. } => WarmKind::WitnessPath,
            FlowConstruction::Permutation { .. } => WarmKind::Permutation,
            FlowConstruction::Rep { .. } => WarmKind::Rep,
        };
        let state = &mut *warm.state;
        state.begin_step();
        let flow = if state.built == Some(kind) {
            state.step_reused = true;
            match state.net.apply_deltas(warm.deleted, warm.touched) {
                Some(paths) => state.step_repaired = paths,
                None => {
                    state.built = None;
                    state.step_rebuilt = true;
                    return None;
                }
            }
            warm.touched.clear();
            state
                .net
                .network
                .warm_reaugment(stop)
                .map(|(value, paths)| {
                    state.step_reaugmented = paths;
                    value
                })
        } else {
            state.built = None;
            state.step_rebuilt = true;
            warm.touched.clear();
            state.net.reset(db.num_tuples(), true);
            let FlowScratch {
                edges,
                cuttable,
                pair_node,
                ..
            } = scratch;
            match plan.build(
                &mut state.net,
                warm.full,
                cuttable,
                pair_node,
                edges,
                Some(warm.deleted),
                stop,
            ) {
                Ok(true) => state.net.run(edges, stop),
                Ok(false) => return None,
                Err(stopped) => Err(stopped),
            }
        };
        // A stopped step leaves no trace: the next one rebuilds the network
        // exactly as a fresh session's first step would.
        state.built = flow.is_ok().then_some(kind);
        Some(
            flow.map(|value| state.net.result(value, want_contingency))
                .map_err(certified),
        )
    }
}

/// A stopped run's partial flow as a lower bound on the resilience. Any
/// flow bounds its network's min cut from below; a flow past `INF / 2`
/// runs through a live witness with no cuttable tuple, whose network has no
/// finite cut, so the bound is then the trivial 0.
fn certified(e: FlowInterrupted) -> FlowInterrupted {
    FlowInterrupted {
        partial_flow: if e.partial_flow >= INF / 2 {
            0
        } else {
            e.partial_flow
        },
    }
}

/// Freezes the off-diagonal tuples `R(a,b)`, `a != b`, of the query's
/// self-join relation in `cuttable` (Proposition 36). `false` when the query
/// has no self-join relation or the instance lacks it.
fn freeze_off_diagonal<S: TupleStore + ?Sized>(q: &Query, db: &S, cuttable: &mut [bool]) -> bool {
    let Some((rel, _)) = single_self_join_relation(q) else {
        return false;
    };
    let Some(db_rel) = db.schema().relation_id(q.schema().name(rel)) else {
        return false;
    };
    for &t in db.tuples_of(db_rel) {
        let vals = db.values_of(t);
        if vals.len() == 2 && vals[0] != vals[1] && t.index() < cuttable.len() {
            cuttable[t.index()] = false;
        }
    }
    true
}

/// The atoms the pair-node construction walks.
struct PermShape {
    /// Endogenous non-`R` atoms in query order (pseudo-linear for the
    /// queries this is applied to).
    left: Vec<usize>,
    /// The two atoms of the self-join relation `R`.
    r_atoms: [usize; 2],
    /// Whether the `R` atoms are endogenous.
    r_endogenous: bool,
    /// Exogenous non-`R` atoms: their tuples get no node.
    skipped: Vec<usize>,
}

impl PermShape {
    /// The shape of an unbound 2-permutation, or `None` when `q` has no
    /// self-join relation occurring exactly twice.
    fn of(q: &Query) -> Option<PermShape> {
        let (_, r) = single_self_join_relation(q)?;
        let &[r0, r1] = r.as_slice() else {
            return None;
        };
        let others = (0..q.num_atoms()).filter(|&i| i != r0 && i != r1);
        Some(PermShape {
            left: others.clone().filter(|&i| !q.atom(i).exogenous).collect(),
            r_atoms: [r0, r1],
            r_endogenous: !q.atom(r0).exogenous || !q.atom(r1).exogenous,
            skipped: others.filter(|&i| q.atom(i).exogenous).collect(),
        })
    }
}

/// A construction resolved against its query: witness paths over an atom
/// order, or the pair-node shape.
enum Plan<'a> {
    Path(&'a [usize]),
    Pairs(PermShape),
}

impl Plan<'_> {
    /// Builds the network of the witnesses in `view` into `net` (already
    /// reset) — the one witness loop cold and warm solves share. Warm builds
    /// pass the session's deletion mask: they run over the full witness set
    /// with the deleted tuples' arcs zeroed.
    ///
    /// A cold build answers `Ok(false)` at the first witness without a
    /// cuttable tuple (the answer is then `None`, with no flow to run). A
    /// warm build keeps such witnesses — an all-infinite path lifts the flow
    /// above `INF / 2` exactly while the witness is live — and answers
    /// `Ok(false)` when a deleted tuple sits on an atom the construction
    /// does not model, which zeroing arcs cannot express. `stop` is polled
    /// every 1024 witnesses; `Err` means it fired before any flow ran.
    #[allow(clippy::too_many_arguments)]
    fn build(
        &self,
        net: &mut TupleNetwork,
        view: WitnessView<'_>,
        cuttable: &[bool],
        pair_node: &mut FxHashMap<(TupleId, TupleId), u32>,
        edges: &mut Vec<(u32, u32)>,
        deleted: Option<&[bool]>,
        stop: &mut dyn FnMut() -> bool,
    ) -> Result<bool, FlowInterrupted> {
        let cap = |t: TupleId| if cuttable[t.index()] { 1 } else { INF };
        let uncuttable =
            |tuples: &[TupleId]| deleted.is_none() && !tuples.iter().any(|t| cuttable[t.index()]);
        edges.clear();
        pair_node.clear();
        for (i, w) in view.witnesses().enumerate() {
            if i % 1024 == 1023 && stop() {
                return Err(FlowInterrupted { partial_flow: 0 });
            }
            let tuples = &w.atom_tuples[..];
            let left: &[usize] = match self {
                Plan::Path(order) => {
                    if uncuttable(tuples) {
                        return Ok(false);
                    }
                    order
                }
                Plan::Pairs(shape) => &shape.left,
            };
            let mut prev = SOURCE;
            for &atom in left {
                let n = net.node(tuples[atom], cap(tuples[atom]), deleted);
                if n != prev {
                    edges.push((prev, n));
                }
                prev = n;
            }
            if let Plan::Pairs(shape) = self {
                // The symmetric pair used by this witness.
                let (t1, t2) = (tuples[shape.r_atoms[0]], tuples[shape.r_atoms[1]]);
                let key = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
                let n = match pair_node.get(&key) {
                    Some(&n) => n,
                    None => {
                        let cap = if shape.r_endogenous { cap(key.0) } else { INF };
                        let dead = deleted.map_or(0, |d| {
                            d[key.0.index()] as u32 + (key.1 != key.0 && d[key.1.index()]) as u32
                        });
                        let n = net.add_node(cap, dead, Some(key.0));
                        pair_node.insert(key, n);
                        net.map(key.0, n, deleted);
                        if key.1 != key.0 {
                            net.map(key.1, n, deleted);
                        }
                        n
                    }
                };
                if n != prev {
                    edges.push((prev, n));
                }
                prev = n;
                if uncuttable(tuples) {
                    return Ok(false);
                }
                if let Some(deleted) = deleted {
                    for &atom in &shape.skipped {
                        let t = tuples[atom];
                        if net.node_of[t.index()] == u32::MAX {
                            net.unmodeled[t.index()] = true;
                            if deleted[t.index()] {
                                return Ok(false);
                            }
                        }
                    }
                }
            }
            edges.push((prev, TARGET));
        }
        Ok(true)
    }
}

/// A vertex-cut network whose nodes stand for tuples, with the maps between
/// tuples and nodes. Cold solves build one over the live witnesses; a
/// session's [`FlowWarmState`] keeps one over the full witness set resident,
/// with the node arcs of deleted tuples zeroed.
#[derive(Clone, Debug, Default)]
struct TupleNetwork {
    /// `node_of[t]` is the node whose split arc models tuple `t`
    /// (`u32::MAX` when `t` has none).
    node_of: Vec<u32>,
    /// Tuples with a node in the current build (for a cheap reset).
    mapped: Vec<TupleId>,
    /// Warm builds only: `t` appears in some witness but has no node
    /// (permutation construction: exogenous non-R atoms). Deleting such a
    /// tuple cannot be expressed by arc zeroing and forces a cold retry.
    unmodeled: Vec<bool>,
    /// Warm builds only: deletion state currently applied, per tuple.
    applied: Vec<bool>,
    /// Built capacity of each node's split arc (restored when the last
    /// deleted member of the node comes back).
    orig_cap: Vec<u64>,
    /// Number of currently-deleted member tuples per node (pair nodes have
    /// up to two members; the arc is zero iff the count is positive).
    dead: Vec<u32>,
    /// Representative tuple per node, for cut translation.
    tuple_of: Vec<Option<TupleId>>,
    network: VertexCutNetwork,
    cut_buf: Vec<usize>,
}

impl TupleNetwork {
    /// Empties the network for a build over `num_tuples` tuples and adds the
    /// source and target; `warm` builds also reset the per-tuple deletion
    /// bookkeeping.
    fn reset(&mut self, num_tuples: usize, warm: bool) {
        if self.node_of.len() < num_tuples {
            self.node_of.resize(num_tuples, u32::MAX);
        }
        for t in self.mapped.drain(..) {
            self.node_of[t.index()] = u32::MAX;
        }
        if warm {
            self.unmodeled.clear();
            self.unmodeled.resize(num_tuples, false);
            self.applied.clear();
            self.applied.resize(num_tuples, false);
        }
        self.orig_cap.clear();
        self.dead.clear();
        self.tuple_of.clear();
        self.network.clear();
        self.add_node(INF, 0, None);
        self.add_node(INF, 0, None);
    }

    /// Adds a node whose split arc starts at `built_cap` (or zero when some
    /// member is already deleted) and records the per-node bookkeeping.
    fn add_node(&mut self, built_cap: u64, dead_members: u32, t: Option<TupleId>) -> u32 {
        let initial = if dead_members > 0 { 0 } else { built_cap };
        let n = self.network.add_vertex(initial);
        debug_assert_eq!(n, self.orig_cap.len());
        self.orig_cap.push(built_cap);
        self.dead.push(dead_members);
        self.tuple_of.push(t);
        n as u32
    }

    /// Records that `node` models tuple `t` (and, on warm builds, whether
    /// `t`'s deletion is applied).
    fn map(&mut self, t: TupleId, node: u32, deleted: Option<&[bool]>) {
        self.node_of[t.index()] = node;
        self.mapped.push(t);
        if let Some(deleted) = deleted {
            self.applied[t.index()] = deleted[t.index()];
        }
    }

    /// The node of tuple `t`, created with capacity `cap` on first use (its
    /// arc zeroed when `t` is deleted).
    fn node(&mut self, t: TupleId, cap: u64, deleted: Option<&[bool]>) -> u32 {
        match self.node_of[t.index()] {
            u32::MAX => {
                let dead = deleted.is_some_and(|d| d[t.index()]) as u32;
                let n = self.add_node(cap, dead, Some(t));
                self.map(t, n, deleted);
                n
            }
            n => n,
        }
    }

    /// Adds the deduplicated edges and runs the max flow from zero, keeping
    /// it resident.
    fn run(
        &mut self,
        edges: &mut Vec<(u32, u32)>,
        stop: &mut dyn FnMut() -> bool,
    ) -> Result<u64, FlowInterrupted> {
        edges.sort_unstable();
        edges.dedup();
        for &(from, to) in edges.iter() {
            self.network.add_edge(from as usize, to as usize);
        }
        self.network
            .warm_build(SOURCE as usize, TARGET as usize, stop)
    }

    /// The answer of a resident maximum flow of `value`: `None` past
    /// `INF / 2` (some live witness has no cuttable tuple), else the cut
    /// value and, when wanted, the tuples of the cut vertices.
    fn result(&mut self, value: u64, want_contingency: bool) -> Option<FlowResult> {
        if value >= INF / 2 {
            return None;
        }
        let mut contingency = Vec::new();
        if want_contingency {
            self.network.warm_cut_vertices(&mut self.cut_buf);
            contingency.extend(self.cut_buf.iter().filter_map(|&v| self.tuple_of[v]));
        }
        Some(FlowResult {
            resilience: value as usize,
            contingency,
        })
    }

    /// Applies the deletion-state changes of the `touched` tuples to a warm
    /// network: zero-and-repair newly deleted arcs, restore revived ones.
    /// Returns the augmenting paths the repairs walked, or `None` when a
    /// deletion sits on an unmodelled atom.
    fn apply_deltas(&mut self, deleted: &[bool], touched: &[TupleId]) -> Option<u64> {
        let mut repaired = 0;
        for &t in touched {
            let desired = deleted[t.index()];
            if self.applied[t.index()] == desired {
                continue;
            }
            let node = self.node_of[t.index()];
            if node == u32::MAX {
                if desired && self.unmodeled[t.index()] {
                    return None;
                }
                // Not on any witness: no flow impact.
                self.applied[t.index()] = desired;
                continue;
            }
            self.applied[t.index()] = desired;
            let node = node as usize;
            if desired {
                self.dead[node] += 1;
                if self.dead[node] == 1 {
                    repaired += self.network.warm_set_capacity(node, 0).paths;
                }
            } else {
                self.dead[node] -= 1;
                if self.dead[node] == 0 {
                    self.network.warm_set_capacity(node, self.orig_cap[node]);
                }
            }
        }
        Some(repaired)
    }
}

/// Which construction built a resident warm network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WarmKind {
    WitnessPath,
    Permutation,
    Rep,
}

/// Per-session warm flow state: the split network of the *full* witness set
/// stays resident across steps, deletions are expressed by zeroing the
/// deleted tuple's node arc (draining the overflow through the residual
/// graph) and restores re-add capacity, so each re-solve runs Dinic from the
/// repaired residual instead of from scratch.
///
/// Correctness rests on the same hybrid-path property that justifies the
/// cold constructions: every s–t path of the full network is itself a
/// witness, so the paths that avoid the zeroed arcs are exactly the
/// witnesses of the live instance and the repaired min cut equals the cold
/// min cut over the live view.
#[derive(Clone, Debug, Default)]
pub struct FlowWarmState {
    /// The construction whose network `net` holds, when it is usable.
    built: Option<WarmKind>,
    net: TupleNetwork,
    /// Augmenting paths repaired during the last step's delta application.
    pub step_repaired: u64,
    /// Augmenting paths added by the last step's re-augmentation.
    pub step_reaugmented: u64,
    /// The last step rebuilt the network cold (or fell back cold).
    pub step_rebuilt: bool,
    /// The last step reused the resident residual state.
    pub step_reused: bool,
}

impl FlowWarmState {
    /// Creates empty (invalid) warm state; the first solve builds it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the resident network; the next warm solve rebuilds from the
    /// full view and the current deletion mask.
    pub fn invalidate(&mut self) {
        self.built = None;
    }

    fn begin_step(&mut self) {
        self.step_repaired = 0;
        self.step_reaugmented = 0;
        self.step_rebuilt = false;
        self.step_reused = false;
    }
}

/// Borrowed per-step warm context: the session's resident state, the full
/// witness view (for rebuilds), its current deletion mask and the tuples
/// whose state changed since the warm network last applied deltas (drained
/// on success).
pub struct WarmSession<'a> {
    /// The session-resident warm state.
    pub state: &'a mut FlowWarmState,
    /// Every witness of the session's instance, deleted or not.
    pub full: WitnessView<'a>,
    /// Current deletion mask, indexed by tuple.
    pub deleted: &'a [bool],
    /// Tuples whose deletion state changed since the last warm application.
    pub touched: &'a mut Vec<TupleId>,
}

/// [`FlowConstruction::WitnessPath`] over `atom_order`, solved cold and
/// never stopping. `scratch.cuttable` must hold the cuttability mask (see
/// [`seed_cuttable_mask`]).
pub fn witness_path_flow_live<S: TupleStore + ?Sized>(
    db: &S,
    view: WitnessView<'_>,
    atom_order: &[usize],
    want_contingency: bool,
    scratch: &mut FlowScratch,
) -> Option<FlowResult> {
    FlowConstruction::WitnessPath { order: atom_order }
        .solve(db, view, want_contingency, scratch, &mut || false, None)
        .expect("the never-stop callback cannot interrupt the run")
}

/// [`FlowConstruction::Permutation`] for `q`, solved cold and never
/// stopping. `scratch.cuttable` must hold the endogenous mask of `q` (see
/// [`seed_cuttable_mask`]).
pub fn permutation_flow_live<S: TupleStore + ?Sized>(
    q: &Query,
    db: &S,
    view: WitnessView<'_>,
    want_contingency: bool,
    scratch: &mut FlowScratch,
) -> Option<FlowResult> {
    FlowConstruction::Permutation { query: q }
        .solve(db, view, want_contingency, scratch, &mut || false, None)
        .expect("the never-stop callback cannot interrupt the run")
}

/// [`FlowConstruction::Rep`] for `q` over `atom_order`, solved cold and
/// never stopping. `scratch.cuttable` must hold the endogenous mask of `q`
/// on entry; the off-diagonal REP tuples are frozen in place.
pub fn rep_flow_live<S: TupleStore + ?Sized>(
    q: &Query,
    db: &S,
    view: WitnessView<'_>,
    atom_order: &[usize],
    want_contingency: bool,
    scratch: &mut FlowScratch,
) -> Option<FlowResult> {
    FlowConstruction::Rep {
        query: q,
        order: atom_order,
    }
    .solve(db, view, want_contingency, scratch, &mut || false, None)
    .expect("the never-stop callback cannot interrupt the run")
}

/// Minimum hitting set when every witness touches at most two endogenous
/// tuples: this is vertex cover over the "conflict graph" of tuples, solvable
/// by König's theorem whenever that graph is bipartite. Returns `None` when
/// some witness has more than two endogenous tuples, no endogenous tuple, or
/// the conflict graph is not bipartite. Takes a (possibly live-restricted)
/// [`WitnessView`], so deletion sessions pass their live rows directly.
pub fn pairwise_bipartite_resilience_view(view: WitnessView<'_>) -> Option<usize> {
    use satgad::UndirectedGraph;

    // The witness set's CSR index already renumbers the relevant tuples into
    // a dense `0..k` space; use it as the vertex numbering directly.
    let num_vertices = view.relevant_tuples().len();
    let dense = |t: TupleId| view.dense_id_of(t).expect("relevant tuple has a dense id") as usize;
    let mut graph = UndirectedGraph::new(num_vertices);
    let mut forced: HashSet<usize> = HashSet::new();
    for set in view.endogenous_sets() {
        match set.len() {
            0 => return None,
            1 => {
                forced.insert(dense(set[0]));
            }
            2 => {
                graph.add_edge(dense(set[0]), dense(set[1]));
            }
            _ => return None,
        }
    }
    // Forced vertices (singleton witnesses) must be deleted; remove their
    // incident edges by solving VC on the residual graph.
    let mut residual = UndirectedGraph::new(num_vertices);
    for (u, v) in graph.edges() {
        if !forced.contains(&u) && !forced.contains(&v) {
            residual.add_edge(u, v);
        }
    }
    let vc = satgad::bipartite_min_vertex_cover(&residual)?;
    Some(forced.len() + vc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactSolver;
    use cq::linear::{linear_order_all, pseudo_linear_order};
    use cq::parse_query;
    use database::{Database, WitnessSet};

    fn build_db(q: &Query, rows: &[(&str, &[u64])]) -> Database {
        let mut db = Database::for_query(q);
        for (rel, vals) in rows {
            db.insert_named(rel, vals);
        }
        db
    }

    /// Solves `construction` cold over every witness of `q` on `db`, with
    /// the tuples in `frozen` made uncuttable on top of the endogenous mask.
    fn solve(
        construction: FlowConstruction<'_>,
        q: &Query,
        db: &Database,
        frozen: &[TupleId],
    ) -> Option<FlowResult> {
        let ws = WitnessSet::build(q, db);
        let mut scratch = FlowScratch::new();
        seed_cuttable_mask(q, db, &mut scratch);
        for t in frozen {
            scratch.cuttable[t.index()] = false;
        }
        construction
            .solve(db, ws.view(), true, &mut scratch, &mut || false, None)
            .expect("the never-stop callback cannot interrupt the run")
    }

    /// The witness-path flow over the query's own linear order.
    fn linear_flow(q: &Query, db: &Database) -> Option<FlowResult> {
        let order = linear_order_all(q)?;
        solve(FlowConstruction::WitnessPath { order: &order }, q, db, &[])
    }

    #[test]
    fn linear_sjfree_flow_matches_exact() {
        // q :- A(x), R(x,y), B(y) over a small bipartite-ish instance.
        let q = parse_query("A(x), R(x,y), B(y)").unwrap();
        let db = build_db(
            &q,
            &[
                ("A", &[1]),
                ("A", &[2]),
                ("R", &[1, 10]),
                ("R", &[1, 11]),
                ("R", &[2, 10]),
                ("B", &[10]),
                ("B", &[11]),
            ],
        );
        let flow = linear_flow(&q, &db).unwrap();
        let exact = ExactSolver::new().resilience_value(&q, &db).unwrap();
        assert_eq!(flow.resilience, exact);
        // Contingency really works.
        let gamma: HashSet<TupleId> = flow.contingency.iter().copied().collect();
        let ws = WitnessSet::build(&q, &db);
        assert!(ws.is_contingency_set(&gamma));
    }

    #[test]
    fn exogenous_middle_relation_is_never_cut() {
        let q = parse_query("A(x), R^x(x,y), B(y)").unwrap();
        let db = build_db(
            &q,
            &[
                ("A", &[1]),
                ("A", &[2]),
                ("R", &[1, 10]),
                ("R", &[2, 10]),
                ("B", &[10]),
            ],
        );
        let flow = linear_flow(&q, &db).unwrap();
        assert_eq!(flow.resilience, 1); // delete B(10)
        let b = db.schema().relation_id("B").unwrap();
        assert!(flow.contingency.iter().all(|&t| db.relation_of(t) == b));
    }

    #[test]
    fn acconf_flow_matches_exact_on_crafted_instance() {
        // The Proposition 12 case analysis instance.
        let q = parse_query("A(x), R(x,y), R(z,y), C(z)").unwrap();
        let db = build_db(
            &q,
            &[
                ("A", &[1]),
                ("A", &[4]),
                ("C", &[1]),
                ("C", &[5]),
                ("R", &[1, 2]),
                ("R", &[4, 2]),
                ("R", &[5, 2]),
                ("R", &[1, 3]),
                ("R", &[5, 3]),
            ],
        );
        let flow = linear_flow(&q, &db).unwrap();
        let exact = ExactSolver::new().resilience_value(&q, &db).unwrap();
        assert_eq!(flow.resilience, exact);
    }

    #[test]
    fn unfalsifiable_instance_returns_none() {
        let q = parse_query("R^x(x,y), S^x(y,z)").unwrap();
        let db = build_db(&q, &[("R", &[1, 2]), ("S", &[2, 3])]);
        let order: Vec<usize> = vec![0, 1];
        assert!(solve(
            FlowConstruction::WitnessPath { order: &order },
            &q,
            &db,
            &[]
        )
        .is_none());
    }

    #[test]
    fn empty_database_has_zero_resilience() {
        let q = parse_query("A(x), R(x,y), B(y)").unwrap();
        let db = Database::for_query(&q);
        let flow = linear_flow(&q, &db).unwrap();
        assert_eq!(flow.resilience, 0);
        assert!(flow.contingency.is_empty());
    }

    #[test]
    fn pairwise_bipartite_matches_exact_for_rats_normal_form() {
        // Normal form of q_rats: R^x(x,y), A(x), T^x(z,x), S(y,z).
        let q = parse_query("R^x(x,y), A(x), T^x(z,x), S(y,z)").unwrap();
        let db = build_db(
            &q,
            &[
                ("A", &[1]),
                ("A", &[2]),
                ("R", &[1, 10]),
                ("R", &[2, 11]),
                ("T", &[20, 1]),
                ("T", &[21, 2]),
                ("S", &[10, 20]),
                ("S", &[11, 21]),
                ("S", &[10, 21]),
            ],
        );
        let ws = WitnessSet::build(&q, &db);
        let via_flow = pairwise_bipartite_resilience_view(ws.view()).unwrap();
        let exact = ExactSolver::new().resilience_value(&q, &db).unwrap();
        assert_eq!(via_flow, exact);
    }

    #[test]
    fn pairwise_bipartite_rejects_triple_witnesses() {
        let q = parse_query("A(x), R(x,y), B(y)").unwrap();
        let db = build_db(&q, &[("A", &[1]), ("R", &[1, 2]), ("B", &[2])]);
        let ws = WitnessSet::build(&q, &db);
        assert!(pairwise_bipartite_resilience_view(ws.view()).is_none());
    }

    #[test]
    fn permutation_flow_counts_disjoint_pairs() {
        // q_perm :- R(x,y), R(y,x): three disjoint symmetric pairs plus one
        // loop => resilience 4 (Proposition 33: one deletion per witness
        // pair).
        let q = parse_query("R(x,y), R(y,x)").unwrap();
        let db = build_db(
            &q,
            &[
                ("R", &[1, 2]),
                ("R", &[2, 1]),
                ("R", &[3, 4]),
                ("R", &[4, 3]),
                ("R", &[5, 6]),
                ("R", &[6, 5]),
                ("R", &[7, 7]),
                ("R", &[8, 9]), // no inverse: not a witness
            ],
        );
        let flow = solve(FlowConstruction::Permutation { query: &q }, &q, &db, &[]).unwrap();
        let exact = ExactSolver::new().resilience_value(&q, &db).unwrap();
        assert_eq!(flow.resilience, exact);
        assert_eq!(flow.resilience, 4);
    }

    #[test]
    fn aperm_flow_matches_exact() {
        // q_Aperm :- A(x), R(x,y), R(y,x): bipartite choice between A-tuples
        // and symmetric pairs.
        let q = parse_query("A(x), R(x,y), R(y,x)").unwrap();
        let db = build_db(
            &q,
            &[
                ("A", &[1]),
                ("A", &[2]),
                ("A", &[3]),
                ("R", &[1, 2]),
                ("R", &[2, 1]),
                ("R", &[1, 3]),
                ("R", &[3, 1]),
                ("R", &[2, 3]),
                ("R", &[3, 2]),
                ("R", &[4, 4]),
            ],
        );
        let flow = solve(FlowConstruction::Permutation { query: &q }, &q, &db, &[]).unwrap();
        let exact = ExactSolver::new().resilience_value(&q, &db).unwrap();
        assert_eq!(flow.resilience, exact);
    }

    #[test]
    fn rep_flow_matches_exact_for_z3() {
        // z3 :- R(x,x), R(x,y), A(y)
        let q = parse_query("R(x,x), R(x,y), A(y)").unwrap();
        let db = build_db(
            &q,
            &[
                ("R", &[1, 1]),
                ("R", &[1, 2]),
                ("R", &[1, 3]),
                ("R", &[2, 2]),
                ("R", &[2, 3]),
                ("A", &[1]),
                ("A", &[2]),
                ("A", &[3]),
            ],
        );
        let order = linear_order_all(&q)
            .or_else(|| pseudo_linear_order(&q))
            .unwrap_or_else(|| (0..q.num_atoms()).collect());
        let rep = FlowConstruction::Rep {
            query: &q,
            order: &order,
        };
        let flow = solve(rep, &q, &db, &[]).unwrap();
        let exact = ExactSolver::new().resilience_value(&q, &db).unwrap();
        assert_eq!(flow.resilience, exact);
        // Off-diagonal tuples never appear in the contingency set.
        for &t in &flow.contingency {
            let vals = db.values_of(t);
            if vals.len() == 2 {
                assert_eq!(vals[0], vals[1], "off-diagonal tuple chosen");
            }
        }
    }

    #[test]
    fn witness_path_flow_respects_uncuttable_set() {
        let q = parse_query("A(x), R(x,y), B(y)").unwrap();
        let db = build_db(&q, &[("A", &[1]), ("R", &[1, 2]), ("B", &[2])]);
        let order = vec![0, 1, 2];
        // Making both A(1) and B(2) uncuttable leaves only R(1,2).
        let a = db
            .lookup(db.schema().relation_id("A").unwrap(), &[1u64])
            .unwrap();
        let b = db
            .lookup(db.schema().relation_id("B").unwrap(), &[2u64])
            .unwrap();
        let flow = solve(
            FlowConstruction::WitnessPath { order: &order },
            &q,
            &db,
            &[a, b],
        )
        .unwrap();
        assert_eq!(flow.resilience, 1);
        let r = db.schema().relation_id("R").unwrap();
        assert_eq!(db.relation_of(flow.contingency[0]), r);
    }
}
