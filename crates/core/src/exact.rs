//! Exact resilience via minimum hitting set over the witness hypergraph.
//!
//! Resilience (Definition 1) asks for a minimum set of endogenous tuples
//! intersecting every witness. This is a minimum hitting set problem over
//! the witness sets, solved here by branch and bound:
//!
//! * the greedy hitting set provides an initial upper bound;
//! * a greedy packing of pairwise-disjoint witness sets provides a lower
//!   bound at every node;
//! * branching picks an uncovered witness with the fewest remaining tuples
//!   and tries each of its tuples in turn.
//!
//! Internally the solver works in the dense `0..k` tuple space maintained by
//! the witness set's CSR index (no per-solve renumbering map) and consumes
//! the reduced sets straight from the flat [`ReducedSets`] arena; every
//! witness set becomes a packed `u64` bitset in one flat arena, so the cover
//! and packing checks at every branch-and-bound node are word operations
//! over flat arrays rather than hash probes. All per-solve buffers live in a
//! caller-owned [`ExactScratch`], so repeated solves (deletion-session
//! steps, batches) allocate nothing per witness.
//!
//! [`ExactSolver::solve_with_incumbent`] additionally accepts an *incumbent*
//! — a known feasible hitting set, e.g. the previous step's contingency set
//! restricted to live tuples in a deletion session. A feasible incumbent is
//! an upper bound by definition, so it can seed the search bound; when its
//! size already matches the disjoint-packing lower bound the search is
//! skipped entirely. An infeasible ("stale") incumbent is detected and
//! ignored, so it can never prune the true optimum.
//!
//! The solver is exponential in the worst case — the paper proves the
//! problem NP-complete for most self-join queries — but it comfortably
//! handles the instance sizes used to validate the polynomial algorithms and
//! the hardness gadgets (hundreds of tuples, thousands of witnesses).

use crate::cancel::CancelToken;
use cq::Query;
use database::{ReducedSets, TupleId, TupleStore, WitnessSet};

/// The branch-and-bound search hit its node budget before proving
/// optimality. Returned by the fallible [`ExactSolver::try_resilience`]
/// family; the panicking wrappers keep the legacy contract (a loud panic
/// rather than a silently wrong answer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// Nodes explored before the search was cut off (equals the budget).
    pub nodes_explored: usize,
}

impl std::fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "exact resilience search exceeded {} nodes",
            self.nodes_explored
        )
    }
}

impl std::error::Error for BudgetExhausted {}

/// Anytime state of a search abandoned by a [`CancelToken`]: the bounds the
/// search had already established when it was interrupted. The upper bound
/// is always a *feasible* hitting set size (the greedy/incumbent seed, or a
/// better solution found during the search); the lower bound is the root
/// disjoint-packing bound. `lower <= optimum <= upper` by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CancelledSearch {
    /// Branch-and-bound nodes explored before the interruption.
    pub nodes_explored: usize,
    /// Root packing lower bound on the resilience.
    pub lower_bound: usize,
    /// Size of the best feasible hitting set found so far (an upper bound).
    pub upper_bound: usize,
}

/// Why a cancellable exact solve stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExactInterrupt {
    /// The node budget ran out (the pre-existing failure mode).
    Budget(BudgetExhausted),
    /// The caller's [`CancelToken`] fired; anytime bounds are attached.
    Cancelled(CancelledSearch),
}

/// Result of an exact resilience computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExactResult {
    /// The resilience `ρ(q, D)`, or `None` when the query cannot be made
    /// false (some witness uses only exogenous tuples).
    pub resilience: Option<usize>,
    /// A minimum contingency set witnessing the value (empty when the query
    /// is already false).
    pub contingency: Vec<TupleId>,
    /// Number of branch-and-bound nodes explored.
    pub nodes_explored: usize,
}

/// Outcome of a dense-space exact solve
/// ([`ExactSolver::solve_with_incumbent`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DenseExactOutcome {
    /// The resilience, or `None` when some reduced set is empty (the query
    /// cannot be falsified).
    pub resilience: Option<usize>,
    /// A minimum hitting set in dense ids, sorted ascending.
    pub contingency: Vec<u32>,
    /// Branch-and-bound nodes explored (0 when the search was skipped).
    pub nodes_explored: usize,
    /// Whether a verified-feasible incumbent seeded the search bound.
    pub incumbent_seeded: bool,
    /// Whether the incumbent matched the fresh packing lower bound, proving
    /// it optimal without any search.
    pub short_circuit: bool,
}

/// Reusable buffers for [`ExactSolver::solve_with_incumbent`]: bitsets,
/// greedy working state and the branch stack all survive across solves, so a
/// warm caller (the engine's sessions and batches) performs no per-witness
/// allocation.
#[derive(Clone, Debug, Default)]
pub struct ExactScratch {
    /// Flat bitset arena (`num_sets * blocks` words).
    bits: Vec<u64>,
    /// Tuples selected along the current branch (one block span).
    chosen: Vec<u64>,
    /// Packing scratch for the lower bound / incumbent check.
    pack: Vec<u64>,
    /// Greedy: per-set covered flags and per-element uncovered counts.
    covered: Vec<bool>,
    counts: Vec<u32>,
    /// Greedy result (the cold initial bound).
    greedy: Vec<u32>,
    /// Branch stack.
    current: Vec<u32>,
    /// Best hitting set found so far.
    best: Vec<u32>,
    /// Bool mask over the dense universe (incumbent screening / packing).
    marks: Vec<bool>,
}

impl ExactScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Exact resilience solver.
#[derive(Clone, Debug)]
pub struct ExactSolver {
    /// Upper limit on branch-and-bound nodes before giving up (`None` in the
    /// result is *not* used for this; the solver panics instead, because a
    /// silent wrong answer would poison gadget validation).
    pub node_limit: usize,
}

impl Default for ExactSolver {
    fn default() -> Self {
        ExactSolver {
            node_limit: 50_000_000,
        }
    }
}

impl ExactSolver {
    /// Creates a solver with the default node limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with a custom node limit.
    pub fn with_node_limit(node_limit: usize) -> Self {
        ExactSolver { node_limit }
    }

    /// Computes the exact resilience of `q` over `db`.
    pub fn resilience<S: TupleStore + ?Sized>(&self, q: &Query, db: &S) -> ExactResult {
        let ws = WitnessSet::build(q, db);
        self.resilience_of_witnesses(&ws)
    }

    /// Fallible variant of [`ExactSolver::resilience`]: returns
    /// `Err(BudgetExhausted)` instead of panicking when the node budget runs
    /// out.
    pub fn try_resilience<S: TupleStore + ?Sized>(
        &self,
        q: &Query,
        db: &S,
    ) -> Result<ExactResult, BudgetExhausted> {
        let ws = WitnessSet::build(q, db);
        self.try_resilience_of_witnesses(&ws)
    }

    /// Computes a minimum hitting set of the witness hypergraph directly.
    ///
    /// # Panics
    /// Panics if the node budget is exhausted (see
    /// [`ExactSolver::try_resilience_of_witnesses`] for the fallible form).
    pub fn resilience_of_witnesses(&self, ws: &WitnessSet) -> ExactResult {
        self.try_resilience_of_witnesses(ws)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible minimum hitting set over the witness hypergraph: returns
    /// `Err(BudgetExhausted)` when the branch-and-bound search would exceed
    /// the solver's node budget.
    pub fn try_resilience_of_witnesses(
        &self,
        ws: &WitnessSet,
    ) -> Result<ExactResult, BudgetExhausted> {
        // The witness set's CSR index already renumbers the relevant tuples
        // into a dense `0..k` space; the reduced sets and all bitsets are
        // indexed in it.
        let reduced = ws.reduced();
        let dense = self.solve_with_incumbent(&reduced, None, &mut ExactScratch::default())?;
        let universe = ws.relevant_tuples();
        Ok(ExactResult {
            resilience: dense.resilience,
            contingency: dense
                .contingency
                .iter()
                .map(|&e| universe[e as usize])
                .collect(),
            nodes_explored: dense.nodes_explored,
        })
    }

    /// Minimum hitting set over prebuilt [`ReducedSets`], in dense tuple-id
    /// space, with an optional **incumbent** warm start and caller-owned
    /// scratch buffers (no per-witness allocation).
    ///
    /// `incumbent` is a candidate feasible hitting set in dense ids (sorted
    /// ascending). It is *verified* against `reduced` before use: if it hits
    /// every set it is by definition an upper bound on the optimum, so it
    /// seeds the branch-and-bound bound (and is returned outright when its
    /// size matches the disjoint-packing lower bound — the search is then
    /// skipped). If it misses some set — a stale incumbent from a state the
    /// current sets did not evolve from monotonically — it is ignored
    /// entirely, so a stale incumbent can never prune the true optimum.
    ///
    /// Without an incumbent this is exactly the cold solve: the greedy
    /// hitting set seeds the bound and the search always runs.
    pub fn solve_with_incumbent(
        &self,
        reduced: &ReducedSets,
        incumbent: Option<&[u32]>,
        scratch: &mut ExactScratch,
    ) -> Result<DenseExactOutcome, BudgetExhausted> {
        self.search(reduced, incumbent, scratch, None)
            .map_err(|e| match e {
                ExactInterrupt::Budget(b) => b,
                ExactInterrupt::Cancelled(_) => {
                    unreachable!("no token was supplied, so the search cannot be cancelled")
                }
            })
    }

    /// [`ExactSolver::solve_with_incumbent`] with an optional [`CancelToken`]
    /// polled every 1024 branch-and-bound nodes. On cancellation the error
    /// carries the anytime bounds established so far (see
    /// [`CancelledSearch`]). The token adds polling, never a different
    /// search — same branch order, same node counts — so a completed search
    /// answers the same with or without one.
    pub fn search(
        &self,
        reduced: &ReducedSets,
        incumbent: Option<&[u32]>,
        scratch: &mut ExactScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<DenseExactOutcome, ExactInterrupt> {
        if reduced.is_empty() {
            return Ok(DenseExactOutcome {
                resilience: Some(0),
                ..DenseExactOutcome::default()
            });
        }
        if reduced.has_unhittable_set() {
            return Ok(DenseExactOutcome::default());
        }
        let universe = reduced.universe();
        let blocks = universe.div_ceil(64);
        let num_sets = reduced.len();

        // Incumbent screening runs BEFORE any bitset or greedy work: a
        // short-circuited step then costs two O(total-elements) passes over
        // the CSR arena and nothing else.
        let mut feasible_incumbent: Option<&[u32]> = None;
        let mut skip_greedy = false;
        let mut root_lb: Option<usize> = None;
        if let Some(inc) = incumbent {
            if incumbent_is_feasible(reduced, inc, &mut scratch.marks) {
                feasible_incumbent = Some(inc);
                // Fresh lower bound: a maximal packing of pairwise-disjoint
                // sets. If the incumbent already matches it, it is optimal
                // and the search (and its setup) are skipped entirely.
                let lb = csr_packing_bound(reduced, &mut scratch.marks);
                root_lb = Some(lb);
                if inc.len() == lb {
                    let mut contingency = inc.to_vec();
                    contingency.sort_unstable();
                    return Ok(DenseExactOutcome {
                        resilience: Some(contingency.len()),
                        contingency,
                        nodes_explored: 0,
                        incumbent_seeded: true,
                        short_circuit: true,
                    });
                }
                // An incumbent within a couple of deletions of the lower
                // bound is already a near-optimal seed: the greedy pass
                // cannot tighten the bound by much, so skip it.
                skip_greedy = inc.len() <= lb + 2;
            }
        }
        // A cancellable search reports the root packing bound as its anytime
        // lower bound; compute it once here when the incumbent path above
        // did not already. (Token-free solves skip this pass entirely.)
        if cancel.is_some() && root_lb.is_none() {
            root_lb = Some(csr_packing_bound(reduced, &mut scratch.marks));
        }

        // Flat bitset arena: set `i` occupies `bits[i*blocks..(i+1)*blocks]`.
        scratch.bits.clear();
        scratch.bits.resize(num_sets * blocks, 0);
        for (i, s) in reduced.iter().enumerate() {
            let row = &mut scratch.bits[i * blocks..(i + 1) * blocks];
            for &e in s {
                row[(e / 64) as usize] |= 1u64 << (e % 64);
            }
        }
        scratch.chosen.clear();
        scratch.chosen.resize(blocks, 0);
        scratch.pack.clear();
        scratch.pack.resize(blocks, 0);

        // A verified-feasible incumbent of at most the greedy's size takes
        // over as the initial bound (ties prefer the incumbent so unchanged
        // optima are reused across session steps); near-optimal incumbents
        // replace the greedy pass outright.
        let mut incumbent_seeded = false;
        scratch.best.clear();
        match feasible_incumbent {
            Some(inc) if skip_greedy => {
                incumbent_seeded = true;
                scratch.best.extend_from_slice(inc);
            }
            Some(inc) => {
                greedy_hitting_set_dense(reduced, scratch);
                if inc.len() <= scratch.greedy.len() {
                    incumbent_seeded = true;
                    scratch.best.extend_from_slice(inc);
                } else {
                    scratch.best.extend_from_slice(&scratch.greedy);
                }
            }
            None => {
                greedy_hitting_set_dense(reduced, scratch);
                scratch.best.extend_from_slice(&scratch.greedy);
            }
        }

        let mut state = SearchState {
            sets: reduced,
            bits: &scratch.bits,
            blocks,
            chosen: &mut scratch.chosen,
            pack: &mut scratch.pack,
            best: &mut scratch.best,
            node_limit: self.node_limit,
            nodes: 0,
            cancel,
            cancelled: false,
        };
        scratch.current.clear();
        let mut current = std::mem::take(&mut scratch.current);
        let alive = state.branch(&mut current);
        let nodes = state.nodes;
        let was_cancelled = state.cancelled;
        scratch.current = current;
        if !alive {
            return Err(if was_cancelled {
                ExactInterrupt::Cancelled(CancelledSearch {
                    nodes_explored: nodes,
                    lower_bound: root_lb.unwrap_or(0),
                    upper_bound: scratch.best.len(),
                })
            } else {
                ExactInterrupt::Budget(BudgetExhausted {
                    nodes_explored: nodes,
                })
            });
        }

        let mut contingency = scratch.best.clone();
        contingency.sort_unstable();
        Ok(DenseExactOutcome {
            resilience: Some(contingency.len()),
            contingency,
            nodes_explored: nodes,
            incumbent_seeded,
            short_circuit: false,
        })
    }

    /// Convenience: just the numeric resilience.
    pub fn resilience_value<S: TupleStore + ?Sized>(&self, q: &Query, db: &S) -> Option<usize> {
        self.resilience(q, db).resilience
    }

    /// Decision version (Definition 1): is `(D, k) ∈ RES(q)`?
    ///
    /// Requires `D |= q` (otherwise the instance is not in the decision
    /// problem at all, mirroring the paper's definition).
    pub fn decide<S: TupleStore + ?Sized>(&self, q: &Query, db: &S, k: usize) -> bool {
        let ws = WitnessSet::build(q, db);
        if ws.is_empty() {
            return false; // D does not satisfy q
        }
        match self.resilience_of_witnesses(&ws).resilience {
            Some(r) => r <= k,
            None => false,
        }
    }
}

/// Does the bitset intersect the current selection? One AND per word.
#[inline]
fn intersects(bits: &[u64], chosen: &[u64]) -> bool {
    bits.iter().zip(chosen).any(|(&b, &c)| b & c != 0)
}

/// Does the incumbent hit every set? Runs on the CSR arena directly with a
/// reusable bool mask — no bitsets are built for rejected (or
/// short-circuited) incumbents.
fn incumbent_is_feasible(reduced: &ReducedSets, incumbent: &[u32], marks: &mut Vec<bool>) -> bool {
    marks.clear();
    marks.resize(reduced.universe(), false);
    for &e in incumbent {
        if (e as usize) >= reduced.universe() {
            return false;
        }
        marks[e as usize] = true;
    }
    reduced.iter().all(|s| s.iter().any(|&e| marks[e as usize]))
}

/// Maximal greedy packing of pairwise-disjoint sets over the CSR arena (the
/// root lower bound, bool-array form for the pre-search short-circuit).
/// Shared with [`crate::approx::packing_lower_bound`] so the approximation
/// module and the short-circuit decision can never disagree on the bound.
pub(crate) fn csr_packing_bound(reduced: &ReducedSets, marks: &mut Vec<bool>) -> usize {
    marks.clear();
    marks.resize(reduced.universe(), false);
    let mut bound = 0usize;
    for s in reduced.iter() {
        // An empty set forces nothing deletable and must not count (it can
        // only appear on unfalsifiable instances, which the solver screens
        // out before calling; the public approx wrapper does not).
        if s.is_empty() || s.iter().any(|&e| marks[e as usize]) {
            continue;
        }
        bound += 1;
        for &e in s {
            marks[e as usize] = true;
        }
    }
    bound
}

struct SearchState<'a> {
    /// The reduced witness sets (dense elements, for branching).
    sets: &'a ReducedSets,
    /// Flat bitset arena: set `i` is `bits[i*blocks..(i+1)*blocks]`.
    bits: &'a [u64],
    blocks: usize,
    /// Bitset of the tuples selected along the current branch.
    chosen: &'a mut [u64],
    /// Scratch buffer for the lower-bound packing (no per-node allocation).
    pack: &'a mut [u64],
    best: &'a mut Vec<u32>,
    node_limit: usize,
    nodes: usize,
    /// Optional cooperative-cancellation token, polled every 1024 nodes.
    cancel: Option<&'a CancelToken>,
    /// Set when the token fired (distinguishes cancellation from budget
    /// exhaustion in the shared `false` abort signal of `branch`).
    cancelled: bool,
}

impl SearchState<'_> {
    /// Explores one branch-and-bound node. Returns `false` when the node
    /// budget is exhausted (the search is then abandoned wholesale).
    ///
    /// One merged pass over the sets computes both the packing lower bound
    /// (pairwise-disjoint uncovered sets each force a deletion) and the
    /// branch pick (the uncovered set with the fewest tuples); universes of
    /// at most 64 dense ids take a single-word fast path.
    fn branch(&mut self, current: &mut Vec<u32>) -> bool {
        if self.nodes >= self.node_limit {
            return false;
        }
        // Poll the cancellation token at bounded intervals (every 64
        // nodes): one masked compare on the happy path, so the overhead is
        // far below the per-node cover/packing work. The interval also
        // bounds deadline overshoot — a single node costs well under a
        // millisecond even in debug builds, so 64 nodes keeps the overshoot
        // comfortably inside the grace window callers are promised.
        if self.nodes & 0x3F == 0 {
            if let Some(token) = self.cancel {
                if token.is_cancelled() {
                    self.cancelled = true;
                    return false;
                }
            }
        }
        self.nodes += 1;
        let mut bound = 0usize;
        let mut pick: Option<usize> = None;
        if self.blocks == 1 {
            let chosen0 = self.chosen[0];
            let mut pack0 = chosen0;
            for (i, &b) in self.bits.iter().enumerate() {
                if b & chosen0 != 0 {
                    continue;
                }
                match pick {
                    Some(p) if self.sets.set(p).len() <= self.sets.set(i).len() => {}
                    _ => pick = Some(i),
                }
                if b & pack0 == 0 {
                    bound += 1;
                    pack0 |= b;
                }
            }
        } else {
            self.pack.copy_from_slice(self.chosen);
            for i in 0..self.sets.len() {
                let row = &self.bits[i * self.blocks..(i + 1) * self.blocks];
                if intersects(row, self.chosen) {
                    continue;
                }
                match pick {
                    Some(p) if self.sets.set(p).len() <= self.sets.set(i).len() => {}
                    _ => pick = Some(i),
                }
                if !intersects(row, self.pack) {
                    bound += 1;
                    for (s, &b) in self.pack.iter_mut().zip(row) {
                        *s |= b;
                    }
                }
            }
        }
        if current.len() + bound >= self.best.len() {
            return true;
        }
        let Some(pick) = pick else {
            // Everything covered: `current` is a hitting set.
            if current.len() < self.best.len() {
                self.best.clear();
                self.best.extend_from_slice(current);
            }
            return true;
        };
        for j in 0..self.sets.set(pick).len() {
            let e = self.sets.set(pick)[j];
            current.push(e);
            self.chosen[(e / 64) as usize] |= 1u64 << (e % 64);
            let alive = self.branch(current);
            self.chosen[(e / 64) as usize] &= !(1u64 << (e % 64));
            current.pop();
            if !alive {
                return false;
            }
        }
        true
    }
}

/// Greedy hitting set over the reduced sets' dense element ids: repeatedly
/// pick the element covering the most uncovered sets (ties broken towards
/// the smaller id). The result lands in `scratch.greedy`; all working
/// buffers are reused.
pub(crate) fn greedy_hitting_set_dense<'a>(
    sets: &ReducedSets,
    scratch: &'a mut ExactScratch,
) -> &'a [u32] {
    let universe = sets.universe();
    scratch.covered.clear();
    scratch.covered.resize(sets.len(), false);
    scratch.counts.clear();
    scratch.counts.resize(universe, 0);
    scratch.greedy.clear();
    let covered = &mut scratch.covered;
    let counts = &mut scratch.counts;
    let result = &mut scratch.greedy;
    let mut remaining = sets.len();
    while remaining > 0 {
        counts.iter_mut().for_each(|c| *c = 0);
        for (i, set) in sets.iter().enumerate() {
            if covered[i] {
                continue;
            }
            for &e in set {
                counts[e as usize] += 1;
            }
        }
        let (best, &best_count) = counts
            .iter()
            .enumerate()
            .max_by_key(|&(e, &c)| (c, std::cmp::Reverse(e)))
            .expect("non-empty universe while sets remain uncovered");
        // A zero count means every remaining uncovered set is empty and can
        // never be hit.
        assert!(best_count > 0, "uncovered sets are non-empty");
        let best = best as u32;
        result.push(best);
        for (i, set) in sets.iter().enumerate() {
            if !covered[i] && set.contains(&best) {
                covered[i] = true;
                remaining -= 1;
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::parse_query;
    use database::{Database, ReducedSets};

    fn solve(q: &str, rows: &[(&str, &[u64])]) -> Option<usize> {
        let q = parse_query(q).unwrap();
        let mut db = Database::for_query(&q);
        for (rel, vals) in rows {
            db.insert_named(rel, vals);
        }
        ExactSolver::new().resilience_value(&q, &db)
    }

    #[test]
    fn paper_chain_example_has_resilience_two() {
        // D = {R(1,2), R(2,3), R(3,3)}: witnesses (1,2,3),(2,3,3),(3,3,3).
        // R(3,3) alone kills the last two; R(1,2) or R(2,3) kills the first.
        let r = solve(
            "R(x,y), R(y,z)",
            &[("R", &[1, 2]), ("R", &[2, 3]), ("R", &[3, 3])],
        );
        assert_eq!(r, Some(2));
    }

    #[test]
    fn false_query_has_resilience_zero() {
        let r = solve("R(x,y), R(y,z)", &[("R", &[1, 2])]);
        assert_eq!(r, Some(0));
    }

    #[test]
    fn example_11_domination_subtlety() {
        // D = {A(1),A(5),R(1,2),R(2,3),R(3,1),R(5,1),R(2,5)} for
        // q_sj1rats :- A(x),R(x,y),R(y,z),R(z,x): the minimum contingency set
        // is {R(1,2)}, size 1 (Example 11).
        let r = solve(
            "A(x), R(x,y), R(y,z), R(z,x)",
            &[
                ("A", &[1]),
                ("A", &[5]),
                ("R", &[1, 2]),
                ("R", &[2, 3]),
                ("R", &[3, 1]),
                ("R", &[5, 1]),
                ("R", &[2, 5]),
            ],
        );
        assert_eq!(r, Some(1));
    }

    #[test]
    fn exogenous_relation_forces_other_deletions() {
        // q :- A(x), R^x(x,y): R-tuples cannot be deleted, so every A-tuple
        // participating in a witness must go.
        let r = solve(
            "A(x), R^x(x,y)",
            &[
                ("A", &[1]),
                ("A", &[2]),
                ("A", &[3]),
                ("R", &[1, 10]),
                ("R", &[2, 20]),
            ],
        );
        assert_eq!(r, Some(2));
    }

    #[test]
    fn fully_exogenous_witness_is_unfalsifiable() {
        let r = solve("R^x(x,y)", &[("R", &[1, 2])]);
        assert_eq!(r, None);
    }

    #[test]
    fn triangle_instance() {
        // Two disjoint triangles: resilience 2 (one edge each).
        let r = solve(
            "R(x,y), S(y,z), T(z,x)",
            &[
                ("R", &[1, 2]),
                ("S", &[2, 3]),
                ("T", &[3, 1]),
                ("R", &[4, 5]),
                ("S", &[5, 6]),
                ("T", &[6, 4]),
            ],
        );
        assert_eq!(r, Some(2));
    }

    #[test]
    fn shared_tuple_across_witnesses_is_preferred() {
        // Star: R(0,i) for i=1..5 and S(i, 100): q :- R(x,y), S(y,z).
        // Deleting the 5 S-tuples or the 5 R-tuples is forced... actually
        // each witness is {R(0,i), S(i,100)}, pairwise disjoint across i, so
        // resilience is 5.
        let q = parse_query("R(x,y), S(y,z)").unwrap();
        let mut db = Database::for_query(&q);
        for i in 1..=5u64 {
            db.insert_named("R", &[0, i]);
            db.insert_named("S", &[i, 100]);
        }
        assert_eq!(ExactSolver::new().resilience_value(&q, &db), Some(5));
    }

    #[test]
    fn hub_tuple_is_selected_once() {
        // All witnesses share R(0,1): resilience 1.
        let q = parse_query("R(x,y), S(y,z)").unwrap();
        let mut db = Database::for_query(&q);
        db.insert_named("R", &[0, 1]);
        for i in 0..6u64 {
            db.insert_named("S", &[1, 100 + i]);
        }
        let result = ExactSolver::new().resilience(&q, &db);
        assert_eq!(result.resilience, Some(1));
        assert_eq!(result.contingency.len(), 1);
        let r = db.schema().relation_id("R").unwrap();
        assert_eq!(db.relation_of(result.contingency[0]), r);
    }

    #[test]
    fn contingency_set_is_valid() {
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let mut db = Database::for_query(&q);
        for (a, b) in [(1, 2), (2, 3), (3, 4), (4, 2), (2, 5), (5, 5)] {
            db.insert_named("R", &[a as u64, b as u64]);
        }
        let result = ExactSolver::new().resilience(&q, &db);
        let gamma: std::collections::HashSet<TupleId> =
            result.contingency.iter().copied().collect();
        let ws = WitnessSet::build(&q, &db);
        assert!(ws.is_contingency_set(&gamma));
        assert_eq!(result.resilience, Some(gamma.len()));
        // And removing the tuples really falsifies the query.
        let smaller = db.without(&gamma);
        assert!(!database::evaluate(&q, &smaller));
    }

    #[test]
    fn decision_version_matches_optimum() {
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let mut db = Database::for_query(&q);
        db.insert_named("R", &[1, 2]);
        db.insert_named("R", &[2, 3]);
        db.insert_named("R", &[3, 3]);
        let solver = ExactSolver::new();
        assert!(!solver.decide(&q, &db, 1));
        assert!(solver.decide(&q, &db, 2));
        assert!(solver.decide(&q, &db, 3));
        // A database not satisfying q is not in RES(q) for any k.
        let empty = Database::for_query(&q);
        assert!(!solver.decide(&q, &empty, 0));
    }

    #[test]
    fn greedy_hitting_set_hits_everything() {
        let reduced = ReducedSets::from_sets([vec![1u32, 2], vec![2, 3], vec![4]], 5);
        let mut scratch = ExactScratch::new();
        greedy_hitting_set_dense(&reduced, &mut scratch);
        let hs = scratch.greedy.clone();
        for set in reduced.iter() {
            assert!(set.iter().any(|t| hs.contains(t)));
        }
        assert!(hs.len() <= 3);
    }

    #[test]
    #[should_panic(expected = "uncovered sets are non-empty")]
    fn greedy_hitting_set_panics_on_unhittable_empty_set() {
        // An empty set can never be hit; a silent hang or wrong answer here
        // would poison every caller, so the contract is a loud panic. (All
        // production callers screen empty sets out through
        // `ReducedSets::has_unhittable_set` first.)
        let reduced = ReducedSets::from_sets([vec![], vec![1u32]], 2);
        greedy_hitting_set_dense(&reduced, &mut ExactScratch::new());
    }

    /// The reduced sets of the paper's chain example in dense space:
    /// universe {R(1,2)=0, R(2,3)=1, R(3,3)=2}, sets {2} and {0,1}
    /// (the singleton subsumes both witnesses through R(3,3)).
    fn chain_reduced() -> ReducedSets {
        ReducedSets::from_sets([vec![2u32], vec![0, 1]], 3)
    }

    #[test]
    fn feasible_incumbent_seeds_and_short_circuits() {
        let solver = ExactSolver::new();
        let mut scratch = ExactScratch::new();
        // Cold solve: optimum 2.
        let cold = solver
            .solve_with_incumbent(&chain_reduced(), None, &mut scratch)
            .unwrap();
        assert_eq!(cold.resilience, Some(2));
        assert!(!cold.incumbent_seeded && !cold.short_circuit);
        assert!(cold.nodes_explored > 0);
        // Warm solve with the previous optimum as incumbent: the packing
        // lower bound is also 2 ({2} and {0,1} are disjoint), so the search
        // is skipped entirely and the incumbent is returned verbatim.
        let incumbent = cold.contingency.clone();
        let warm = solver
            .solve_with_incumbent(&chain_reduced(), Some(&incumbent), &mut scratch)
            .unwrap();
        assert_eq!(warm.resilience, cold.resilience);
        assert_eq!(warm.contingency, incumbent);
        assert!(warm.incumbent_seeded && warm.short_circuit);
        assert_eq!(warm.nodes_explored, 0);
    }

    #[test]
    fn stale_incumbent_never_prunes_the_true_optimum() {
        let solver = ExactSolver::new();
        let mut scratch = ExactScratch::new();
        // {0} misses the set {2}: an infeasible ("stale") incumbent. If it
        // were trusted as an upper bound of 1 it would prune the true
        // optimum (2); the feasibility check must reject it.
        let stale = vec![0u32];
        let out = solver
            .solve_with_incumbent(&chain_reduced(), Some(&stale), &mut scratch)
            .unwrap();
        assert_eq!(out.resilience, Some(2));
        assert!(!out.incumbent_seeded, "stale incumbent must be ignored");
        assert!(!out.short_circuit);
        // A stale incumbent referencing ids outside the universe is also
        // rejected rather than indexing out of bounds.
        let out_of_range = vec![7u32];
        let out2 = solver
            .solve_with_incumbent(&chain_reduced(), Some(&out_of_range), &mut scratch)
            .unwrap();
        assert_eq!(out2.resilience, Some(2));
        assert!(!out2.incumbent_seeded);
    }

    #[test]
    fn suboptimal_feasible_incumbent_still_finds_the_optimum() {
        let solver = ExactSolver::new();
        let mut scratch = ExactScratch::new();
        // {0,1,2} hits everything but is larger than the optimum: the search
        // must still find the 2-element optimum. (The greedy bound is
        // already <= 3, so the oversized incumbent is simply not seeded.)
        let fat = vec![0u32, 1, 2];
        let out = solver
            .solve_with_incumbent(&chain_reduced(), Some(&fat), &mut scratch)
            .unwrap();
        assert_eq!(out.resilience, Some(2));
    }

    #[test]
    fn incumbent_outcomes_match_cold_solves_on_random_instances() {
        // Differential: warm (with the cold optimum as incumbent) and cold
        // dense solves agree on the value for randomized chain instances.
        use workloads::Workload;
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        for seed in 0..6u64 {
            let db = Workload::new(seed).random_graph_relation(&q, "R", 8, 0.3);
            let ws = WitnessSet::build(&q, &db);
            let reduced = ws.reduced();
            let solver = ExactSolver::new();
            let mut scratch = ExactScratch::new();
            let cold = solver
                .solve_with_incumbent(&reduced, None, &mut scratch)
                .unwrap();
            let warm = solver
                .solve_with_incumbent(&reduced, Some(&cold.contingency.clone()), &mut scratch)
                .unwrap();
            assert_eq!(cold.resilience, warm.resilience, "seed {seed}");
            // The warm result is a valid hitting set of the same size.
            assert_eq!(warm.contingency.len(), cold.contingency.len());
            for set in reduced.iter() {
                assert!(
                    set.iter().any(|e| warm.contingency.contains(e)),
                    "seed {seed}: warm result misses a set"
                );
            }
        }
    }

    #[test]
    fn bitsets_span_more_than_one_block() {
        // >64 relevant tuples forces multi-block bitsets: a star of 70
        // disjoint witnesses has resilience 70.
        let q = parse_query("R(x,y), S(y,z)").unwrap();
        let mut db = Database::for_query(&q);
        for i in 1..=70u64 {
            db.insert_named("R", &[i, 1000 + i]);
            db.insert_named("S", &[1000 + i, 2000 + i]);
        }
        let result = ExactSolver::new().resilience(&q, &db);
        assert_eq!(result.resilience, Some(70));
        let gamma: std::collections::HashSet<TupleId> =
            result.contingency.iter().copied().collect();
        assert!(WitnessSet::build(&q, &db).is_contingency_set(&gamma));
    }

    #[test]
    fn vertex_cover_instance_through_qvc() {
        // q_vc over a 5-cycle graph: minimum vertex cover of C5 is 3.
        let q = parse_query("R(x), S(x,y), R(y)").unwrap();
        let mut db = Database::for_query(&q);
        for v in 0..5u64 {
            db.insert_named("R", &[v]);
            db.insert_named("S", &[v, (v + 1) % 5]);
        }
        assert_eq!(ExactSolver::new().resilience_value(&q, &db), Some(3));
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn node_limit_is_enforced() {
        // An adversarial instance with a tiny node limit must panic rather
        // than silently return a wrong answer.
        let q = parse_query("R(x), S(x,y), R(y)").unwrap();
        let mut db = Database::for_query(&q);
        for v in 0..12u64 {
            db.insert_named("R", &[v]);
            for w in 0..12u64 {
                if v < w {
                    db.insert_named("S", &[v, w]);
                }
            }
        }
        ExactSolver::with_node_limit(3).resilience(&q, &db);
    }
}
