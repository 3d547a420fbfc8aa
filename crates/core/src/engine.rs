//! The compiled, batched solve engine.
//!
//! The paper's dichotomy (Theorem 37) makes classification a *per-query*
//! cost while resilience is a *per-instance* cost. The engine mirrors that
//! split in the API:
//!
//! * [`Engine::compile`] runs the classifier and join-plan compilation once
//!   per query, producing a reusable [`CompiledQuery`];
//! * [`CompiledQuery::solve`] executes one instance — a [`FrozenDb`], i.e.
//!   an instance whose mutation phase is over — against the compiled
//!   artifacts;
//! * [`CompiledQuery::solve_batch`] fans a slice of instances out over
//!   scoped threads, sharing the compiled plan and classification while each
//!   thread reuses its own [`SolveScratch`];
//! * [`CompiledQuery::session`] opens a deletion-aware [`SolveSession`] on
//!   one instance: witnesses are enumerated once and what-if deletions /
//!   restores re-solve through live counters over the tuple → witness CSR
//!   instead of `Database::without` copies and re-enumeration.
//!
//! Results are structured: [`Resilience`] distinguishes `Finite(k)` from
//! `Unfalsifiable` (instead of an ambiguous `Option`), [`SolveOptions`]
//! carries the exact-search node budget and the `want_contingency` toggle
//! (flow methods skip min-cut extraction when it is off), and fallible paths
//! return [`SolveError`] instead of panicking.
//!
//! ```
//! use cq::parse_query;
//! use database::Database;
//! use resilience_core::engine::{Engine, Resilience, SolveOptions};
//!
//! let q = parse_query("R(x,y), R(y,z)").unwrap();
//! let compiled = Engine::compile(&q);
//! let mut db = Database::for_query(&q);
//! db.insert_named("R", &[1u64, 2]);
//! db.insert_named("R", &[2u64, 3]);
//! db.insert_named("R", &[3u64, 3]);
//! let frozen = db.freeze();
//! let report = compiled.solve(&frozen, &SolveOptions::new()).unwrap();
//! assert_eq!(report.resilience, Resilience::Finite(2));
//! ```

use crate::cancel::CancelToken;
use crate::exact::{ExactInterrupt, ExactScratch, ExactSolver};
use crate::flow_algorithms::{
    pairwise_bipartite_resilience_view, seed_cuttable_mask, FlowConstruction, FlowResult,
    FlowScratch, FlowWarmState, WarmSession,
};
use cq::linear::{linear_order_all, pseudo_linear_order};
use cq::{classify, Classification, Complexity, PtimeAlgorithm, Query};
use database::eval::Witness;
use database::{
    collect_witnesses, copy_without_mask, try_relation_translation, FrozenDb, QueryPlan,
    ReducedScratch, ReducedSets, ReducedSetsLive, TupleId, TupleStore, WitnessIndex, WitnessSet,
    WitnessView,
};
use flow::FlowInterrupted;
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Which algorithm produced a solve result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveMethod {
    /// The database does not satisfy the query; resilience is 0.
    AlreadyFalse,
    /// Some witness uses only exogenous tuples; no contingency set exists.
    Unfalsifiable,
    /// Witness-path network flow over a linear atom order.
    LinearFlow,
    /// König bipartite vertex cover over two-tuple witnesses.
    BipartiteCover,
    /// Pair-node flow for unbound permutations.
    PermutationFlow,
    /// Proposition 36 flow with off-diagonal tuples frozen.
    RepFlow,
    /// One of the dedicated Section 8 constructions (`q_A3perm-R`,
    /// `q_Swx3perm-R`, `q_TS3conf`).
    SpecialFlow(&'static str),
    /// Component-wise minimum (Lemma 14).
    ComponentMinimum,
    /// Deterministic gather of per-shard solves whose underlying methods
    /// differed across shards (see [`crate::shard`]); when every shard used
    /// the same method the merged report keeps that method instead.
    ShardGather,
    /// Exact branch-and-bound over the witness hypergraph (used for
    /// NP-complete and open queries, and as a fallback when a polynomial
    /// construction does not apply to the instance).
    ExactBranchAndBound,
}

/// The resilience of a query over one instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resilience {
    /// `ρ(q, D) = k`: deleting `k` endogenous tuples falsifies the query.
    Finite(usize),
    /// The query cannot be falsified by deleting endogenous tuples (some
    /// witness uses only exogenous tuples).
    Unfalsifiable,
}

impl Resilience {
    /// The finite value, or `None` when unfalsifiable.
    pub fn as_finite(self) -> Option<usize> {
        match self {
            Resilience::Finite(k) => Some(k),
            Resilience::Unfalsifiable => None,
        }
    }

    /// Whether the resilience is a finite value.
    pub fn is_finite(self) -> bool {
        matches!(self, Resilience::Finite(_))
    }

    /// Whether the query cannot be falsified on this instance.
    pub fn is_unfalsifiable(self) -> bool {
        matches!(self, Resilience::Unfalsifiable)
    }
}

impl From<Option<usize>> for Resilience {
    fn from(value: Option<usize>) -> Self {
        match value {
            Some(k) => Resilience::Finite(k),
            None => Resilience::Unfalsifiable,
        }
    }
}

impl fmt::Display for Resilience {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resilience::Finite(k) => write!(f, "{k}"),
            Resilience::Unfalsifiable => write!(f, "unfalsifiable"),
        }
    }
}

/// Per-solve options (builder style).
///
/// ```
/// use resilience_core::engine::SolveOptions;
/// let opts = SolveOptions::new()
///     .node_budget(1_000_000)
///     .want_contingency(false);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolveOptions {
    node_budget: usize,
    want_contingency: bool,
    enumeration_threads: usize,
    warm_start: bool,
    adaptive_plan: bool,
    cancel: Option<CancelToken>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            node_budget: ExactSolver::default().node_limit,
            want_contingency: true,
            enumeration_threads: 1,
            warm_start: true,
            adaptive_plan: true,
            cancel: None,
        }
    }
}

impl SolveOptions {
    /// Default options: the exact solver's default node budget, contingency
    /// extraction enabled, sequential witness enumeration, warm starts and
    /// adaptive plan selection on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Upper limit on exact-search branch-and-bound nodes; exceeding it
    /// yields [`SolveError::BudgetExhausted`] instead of a silently wrong
    /// answer.
    pub fn node_budget(mut self, nodes: usize) -> Self {
        self.node_budget = nodes;
        self
    }

    /// Whether to extract a minimum contingency set. Turning this off lets
    /// the flow methods skip min-cut extraction (only the cut *value* is
    /// computed) and the report's `contingency` is `None`.
    pub fn want_contingency(mut self, want: bool) -> Self {
        self.want_contingency = want;
        self
    }

    /// Whether contingency extraction is requested
    /// (see [`Self::want_contingency`]).
    pub fn wants_contingency(&self) -> bool {
        self.want_contingency
    }

    /// Maximum threads for witness enumeration (default 1 = sequential).
    /// Parallel enumeration partitions the first join step's candidate scan
    /// across scoped threads and merges the results deterministically, so
    /// solve output is identical at any thread count. Use > 1 for large
    /// single instances; leave at 1 inside [`CompiledQuery::solve_batch`]
    /// workloads, which already parallelize across instances.
    pub fn enumeration_threads(mut self, threads: usize) -> Self {
        self.enumeration_threads = threads.max(1);
        self
    }

    /// Whether a [`SolveSession`] may warm-start solves from its previous
    /// step (default `true`): replaying an unchanged-state report, seeding
    /// the exact search with the restricted previous contingency set, and
    /// repairing the resident flow network of flow dispatches (see
    /// [`Session::solve`]). Turning this off forces every session solve to
    /// run cold —
    /// useful for differential testing: successful warm and cold solves
    /// agree on resilience, witness count and method by construction. (The
    /// one asymmetry is a *tight* [`SolveOptions::node_budget`]: a warm
    /// seed can prune differently than the cold greedy seed, so the two
    /// paths may exhaust a near-limit budget at different points — both
    /// then fail loudly with [`SolveError::BudgetExhausted`], never with a
    /// wrong answer.)
    pub fn warm_start(mut self, warm: bool) -> Self {
        self.warm_start = warm;
        self
    }

    /// Whether solves may replace the instance-free compiled join plan with
    /// a per-instance [`QueryPlan::compile_scaled`] plan when the instance's
    /// relation cardinalities are heavily skewed (default `true`). The
    /// choice is a deterministic function of the instance, so batch, loop
    /// and session paths always agree.
    pub fn adaptive_plan(mut self, adaptive: bool) -> Self {
        self.adaptive_plan = adaptive;
        self
    }

    /// Attaches a [`CancelToken`]: the solve paths poll it at bounded
    /// intervals (branch-and-bound nodes, witness enumeration chunks, flow
    /// network builds and augmentations, warm session steps included) and
    /// abort with [`SolveError::Cancelled`] once it
    /// fires. A completed solve is byte-identical to one without a token —
    /// the token adds polling, never a different search. Tokens compare by
    /// identity, so a fresh per-request deadline token never lets a session
    /// replay a stale cached report.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The one stop callback every solve layer polls at its own stride
    /// (witness enumeration and flow builds every 1024 witnesses, max-flow
    /// runs every BFS phase and every 64 augmenting paths): it fires once
    /// the attached token is cancelled, and never without one.
    fn stop_callback(&self) -> impl Fn() -> bool + Sync + '_ {
        move || self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

/// Per-solve statistics of a [`SolveSession`] step, for observability of the
/// warm-start machinery (`rescli whatif --json` reports them per step).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionSolveStats {
    /// The deletion state (and options) were unchanged since the previous
    /// solve: the cached report was returned verbatim, nothing ran.
    pub replayed: bool,
    /// A verified-feasible incumbent from the previous step seeded the
    /// exact search bound. Exact dispatches only: flow-dispatched steps warm
    /// start from the session's resident flow network instead, which
    /// [`SessionSolveStats::flow_warm_reused`] reports.
    pub warm_start_hit: bool,
    /// The returned contingency set is the previous step's (restricted)
    /// certificate, reused without re-extraction.
    pub incumbent_reused: bool,
    /// The incumbent matched the fresh packing lower bound, proving it
    /// optimal with zero search nodes.
    pub short_circuit: bool,
    /// Branch-and-bound nodes explored by this step (0 for p-time methods
    /// and short-circuited solves).
    pub nodes_explored: usize,
    /// A flow-dispatched step reused the session's resident residual
    /// network: deletions were applied as arc repairs and the max flow was
    /// re-augmented instead of recomputed from scratch.
    pub flow_warm_reused: bool,
    /// Augmenting paths rerouted or drained while repairing deleted arcs on
    /// the resident network this step.
    pub flow_paths_repaired: u64,
    /// Augmenting paths found by the post-repair re-augmentation this step.
    pub flow_paths_reaugmented: u64,
    /// The warm flow network was (re)built cold this step — first use,
    /// post-`reset` invalidation, or a deletion the resident construction
    /// cannot express.
    pub flow_cold_rebuild: bool,
    /// Live reduced-set compactions performed since the previous solve
    /// (tombstone garbage collection of the deletion-aware CSR).
    pub reduced_compactions: u64,
}

/// Borrowed warm-solve context a session threads through `dispatch`: the
/// resident flow state with the session's deletion mask, touched-tuple log
/// and full witness view (for arc repair and rebuilds), and the
/// deletion-aware reduced sets for exact dispatches.
struct SessionWarm<'a> {
    flow: WarmSession<'a>,
    reduced_live: Option<&'a ReducedSetsLive>,
}

/// Anytime bounds salvaged from a cancelled solve: what the search had
/// proven about the resilience before the token fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnytimeBounds {
    /// Certified lower bound: the disjoint-set packing bound at the search
    /// root on the exact path, or the partial max-flow value on the flow
    /// paths.
    pub lower: usize,
    /// Best feasible contingency-set size found so far (the incumbent of
    /// the branch-and-bound search). `None` on paths that had not yet
    /// established a feasible solution.
    pub upper: Option<usize>,
    /// Branch-and-bound nodes explored before cancellation (0 on non-exact
    /// paths).
    pub nodes_explored: usize,
}

/// A failed solve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The exact branch-and-bound search hit the node budget
    /// ([`SolveOptions::node_budget`]) before proving optimality.
    BudgetExhausted {
        /// Nodes explored before the search was cut off.
        nodes_explored: usize,
    },
    /// The instance's schema is missing a relation the query refers to.
    SchemaMismatch {
        /// Name of the missing relation.
        relation: String,
    },
    /// The solve was cancelled through its [`CancelToken`] (explicitly or
    /// by deadline expiry) before completing.
    Cancelled {
        /// Anytime bounds established before cancellation; `None` when the
        /// token fired before any solving work ran (e.g. during witness
        /// enumeration or before dispatch).
        partial: Option<AnytimeBounds>,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::BudgetExhausted { nodes_explored } => {
                write!(f, "exact resilience search exceeded {nodes_explored} nodes")
            }
            SolveError::SchemaMismatch { relation } => {
                write!(f, "database schema is missing relation {relation}")
            }
            SolveError::Cancelled { partial } => match partial {
                Some(bounds) => {
                    write!(f, "solve cancelled: resilience >= {}", bounds.lower)?;
                    if let Some(upper) = bounds.upper {
                        write!(f, ", <= {upper}")?;
                    }
                    write!(f, " ({} nodes explored)", bounds.nodes_explored)
                }
                None => write!(f, "solve cancelled before any bounds were established"),
            },
        }
    }
}

impl std::error::Error for SolveError {}

/// Result of solving one instance through a [`CompiledQuery`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolveReport {
    /// The resilience `ρ(q, D)`.
    pub resilience: Resilience,
    /// A minimum contingency set achieving the value. `None` when the
    /// algorithm does not produce one, when the resilience is unfalsifiable,
    /// or when [`SolveOptions::want_contingency`] is off.
    pub contingency: Option<Vec<TupleId>>,
    /// The algorithm used.
    pub method: SolveMethod,
    /// Number of witnesses of `D |= q` (after domination normalization).
    pub witnesses: usize,
    /// Branch-and-bound nodes explored (0 for the polynomial methods).
    pub nodes_explored: usize,
}

/// Reusable per-thread buffers for [`CompiledQuery::solve_with_scratch`] and
/// the deletion sessions: the witness vector, the reduced-set CSR arena, the
/// exact solver's bitsets and the flow construction buffers all survive
/// across instances/steps, so repeated solves perform no per-witness heap
/// allocation.
#[derive(Clone, Debug, Default)]
pub struct SolveScratch {
    witness_buf: Vec<Witness>,
    /// Reduced witness sets of the current solve (flat CSR arena).
    reduced: ReducedSets,
    /// Builder buffers for `reduced`.
    reduced_scratch: ReducedScratch,
    /// Exact branch-and-bound buffers (bitset arena, greedy, branch stack).
    exact: ExactScratch,
    /// Flow construction buffers (node map, edges, network, masks).
    flow: FlowScratch,
}

impl SolveScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The engine's compile entry point; see the module docs.
#[derive(Clone, Copy, Debug)]
pub struct Engine;

impl Engine {
    /// Compiles `q` once: classification (Theorem 37 + Sections 5–8),
    /// domination normalization, the instance-free join plan for witness
    /// enumeration and, for disconnected queries, the compiled subqueries of
    /// every connected component.
    pub fn compile(q: &Query) -> CompiledQuery {
        let classification = classify(q);
        let normalized = &classification.evidence.normalized;
        let plan = QueryPlan::compile(normalized);
        // Per-query atom orders used by the flow dispatches, derived once
        // here instead of on every solve.
        let linear_order = linear_order_all(normalized);
        let rep_order = linear_order
            .clone()
            .or_else(|| pseudo_linear_order(normalized))
            .unwrap_or_else(|| (0..normalized.num_atoms()).collect());
        let components = match &classification.complexity {
            Complexity::PTime(PtimeAlgorithm::ComponentWise) => {
                let minimized = &classification.evidence.minimized;
                minimized
                    .components()
                    .iter()
                    .map(|comp| Engine::compile(&minimized.subquery(comp)))
                    .collect()
            }
            _ => Vec::new(),
        };
        CompiledQuery {
            query: q.clone(),
            classification,
            plan,
            linear_order,
            rep_order,
            components,
        }
    }
}

/// A query compiled for repeated solving: classification, domination normal
/// form and join plan are computed once and shared by every
/// [`solve`](CompiledQuery::solve) / [`solve_batch`](CompiledQuery::solve_batch)
/// call.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    query: Query,
    classification: Classification,
    plan: QueryPlan,
    /// Linear order of all atoms of the normalized query, when one exists
    /// (drives the witness-path flow).
    linear_order: Option<Vec<usize>>,
    /// Atom order for the Proposition 36 REP flow: linear, else
    /// pseudo-linear, else query order.
    rep_order: Vec<usize>,
    /// Compiled subqueries, one per connected component (non-empty only for
    /// the Lemma 14 component-wise dispatch).
    components: Vec<CompiledQuery>,
}

impl CompiledQuery {
    /// The query this compilation answers resilience for.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The classification computed at compile time.
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// Solves one frozen instance.
    pub fn solve(&self, db: &FrozenDb, opts: &SolveOptions) -> Result<SolveReport, SolveError> {
        let mut scratch = SolveScratch::new();
        self.solve_store(db, opts, &mut scratch)
    }

    /// Opens a deletion-aware [`SolveSession`] on one frozen instance: the
    /// witnesses are enumerated once, and subsequent what-if deletions /
    /// restores re-solve without copying the database or re-running the
    /// join. See the [`SolveSession`] docs for the live-view semantics.
    pub fn session<'a>(&'a self, db: &'a FrozenDb) -> Result<SolveSession<'a>, SolveError> {
        self.session_opts(db, &SolveOptions::new())
    }

    /// [`CompiledQuery::session`] with explicit options; in particular
    /// [`SolveOptions::enumeration_threads`] parallelizes the one-time
    /// witness enumeration for large instances.
    pub fn session_opts<'a>(
        &'a self,
        db: &'a FrozenDb,
        opts: &SolveOptions,
    ) -> Result<SolveSession<'a>, SolveError> {
        Session::open(self, db, opts)
    }

    /// Opens an owned, `'static` session over `Arc` handles — the registry
    /// storage shape a long-lived service needs: the session can be moved
    /// across threads and stored in maps without borrowing the compiled
    /// query or the instance. Identical semantics to
    /// [`CompiledQuery::session_opts`].
    pub fn session_shared(
        self: &Arc<Self>,
        db: &Arc<FrozenDb>,
        opts: &SolveOptions,
    ) -> Result<SharedSolveSession, SolveError> {
        Session::open(Arc::clone(self), Arc::clone(db), opts)
    }

    /// Solves one frozen instance, reusing the caller's scratch buffers
    /// (the batch fast path; equivalent to [`CompiledQuery::solve`]).
    pub fn solve_with_scratch(
        &self,
        db: &FrozenDb,
        opts: &SolveOptions,
        scratch: &mut SolveScratch,
    ) -> Result<SolveReport, SolveError> {
        self.solve_store(db, opts, scratch)
    }

    /// Solves many frozen instances through the shared compiled plan.
    ///
    /// Instances are distributed over scoped threads (at most one hardware
    /// thread each); every worker keeps its own [`SolveScratch`]. The result
    /// vector is index-aligned with `dbs` and each entry equals what a
    /// sequential [`solve`](CompiledQuery::solve) of that instance returns.
    ///
    /// Generic over how the instances are held: a plain `&[FrozenDb]` works
    /// as before, and a registry can pass its `&[Arc<FrozenDb>]` handles
    /// without copying any instance (the shape `resd`'s `batch` verb uses).
    pub fn solve_batch<D: Borrow<FrozenDb> + Sync>(
        &self,
        dbs: &[D],
        opts: &SolveOptions,
    ) -> Vec<Result<SolveReport, SolveError>> {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(dbs.len())
            .max(1);
        if threads <= 1 {
            let mut scratch = SolveScratch::new();
            return dbs
                .iter()
                .map(|db| self.solve_store(db.borrow(), opts, &mut scratch))
                .collect();
        }
        let chunk = dbs.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = dbs
                .chunks(chunk)
                .map(|chunk_dbs| {
                    scope.spawn(move || {
                        let mut scratch = SolveScratch::new();
                        chunk_dbs
                            .iter()
                            .map(|db| self.solve_store(db.borrow(), opts, &mut scratch))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("batch solver thread panicked"))
                .collect()
        })
    }

    /// The store-generic solve core: solves over any [`TupleStore`]
    /// (including the mutable [`Database`](database::Database)) without
    /// freezing, reusing caller-owned scratch. The `FrozenDb` entry points
    /// forward here.
    pub fn solve_store<S: TupleStore + Sync + ?Sized>(
        &self,
        db: &S,
        opts: &SolveOptions,
        scratch: &mut SolveScratch,
    ) -> Result<SolveReport, SolveError> {
        // All algorithms work on the domination normal form: it has the same
        // resilience (Proposition 18) and its exogenous labelling is what the
        // polynomial constructions rely on.
        let q = &self.classification.evidence.normalized;
        // Cancellation can strike before any real work; bail before paying
        // for witness enumeration. (No bounds exist yet at this point.)
        if opts.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            return Err(SolveError::Cancelled { partial: None });
        }
        let translation = try_relation_translation(q, db)
            .map_err(|relation| SolveError::SchemaMismatch { relation })?;
        let mut buf = std::mem::take(&mut scratch.witness_buf);
        if !self.enumerate_witnesses(&translation, db, opts, &mut buf) {
            buf.clear();
            scratch.witness_buf = buf;
            return Err(SolveError::Cancelled { partial: None });
        }
        let ws = WitnessSet::from_witnesses(q, db, buf);
        let mut stats = SessionSolveStats::default();
        let result = self.dispatch(q, db, ws.view(), opts, scratch, None, &mut stats, None);
        scratch.witness_buf = ws.into_witnesses();
        scratch.witness_buf.clear();
        result
    }

    /// Picks the join plan for one instance: the instance-free compiled plan
    /// by default, or a per-instance [`QueryPlan::compile_scaled`] plan when
    /// the instance's relation cardinalities are heavily skewed (sampled in
    /// `O(#atoms)` from the relation sizes). Skewed batches — a few huge
    /// relations joined against small ones — enumerate much faster when the
    /// join order anchors on the small relations, which only the scaled plan
    /// sees. The decision is a deterministic function of `(query, instance,
    /// opts)`, so `solve`, `solve_batch` and sessions always agree.
    fn instance_plan<S: TupleStore + ?Sized>(
        &self,
        q: &Query,
        db: &S,
        opts: &SolveOptions,
    ) -> Option<QueryPlan> {
        if !opts.adaptive_plan || q.num_atoms() < 2 {
            return None;
        }
        let schema = db.schema();
        let mut min = usize::MAX;
        let mut max = 0usize;
        for i in 0..q.num_atoms() {
            let name = q.schema().name(q.atom(i).relation);
            let size = schema
                .relation_id(name)
                .map(|r| db.tuples_of(r).len())
                .unwrap_or(0);
            min = min.min(size);
            max = max.max(size);
        }
        // Thresholds: re-planning pays off only when the skew is large
        // enough that scan order dominates (>= 8x) and the big relation is
        // big enough to matter (>= 64 tuples).
        if max >= 64 && max >= 8 * min.max(1) {
            Some(QueryPlan::compile_scaled(q, db))
        } else {
            None
        }
    }

    /// Runs the compiled (or adaptively re-scaled) plan into `buf`,
    /// sequentially or across [`SolveOptions::enumeration_threads`] scoped
    /// threads (identical output either way). Single dispatch point shared
    /// by the solve and session entry paths.
    /// Returns `false` when a [`CancelToken`] stopped the enumeration early
    /// (`buf` then holds a partial, unusable witness list).
    fn enumerate_witnesses<S: TupleStore + Sync + ?Sized>(
        &self,
        translation: &[cq::RelId],
        db: &S,
        opts: &SolveOptions,
        buf: &mut Vec<Witness>,
    ) -> bool {
        let q = &self.classification.evidence.normalized;
        let scaled = self.instance_plan(q, db, opts);
        let plan = scaled.as_ref().unwrap_or(&self.plan);
        collect_witnesses(
            plan,
            translation,
            db,
            opts.enumeration_threads,
            buf,
            &opts.stop_callback(),
        )
    }

    /// Whether this query's dispatch target reads raw relations of the
    /// store (rather than working purely off the witness set). Deletion
    /// sessions must materialize a reduced copy for such targets; witness-
    /// driven targets solve correctly over the original store with a
    /// filtered witness set, because deleted tuples appear in no live
    /// witness.
    ///
    /// Keep this in sync with [`CompiledQuery::solve_ptime`]: the
    /// component-wise path
    /// re-enumerates witnesses per component against the store, and the
    /// dedicated Section 8 constructions scan relations directly (2-way
    /// pair detection, forced-tuple scans) — only `q_perm`/`q_Aperm` route
    /// to the witness-driven permutation flow. Everything else (exact
    /// branch-and-bound, witness-path/permutation flows, bipartite cover,
    /// and the REP flow, whose relation scan only *adds* uncuttable tuples
    /// that no live witness references) is witness-driven.
    pub(crate) fn dispatch_scans_raw_store(&self) -> bool {
        match &self.classification.complexity {
            Complexity::PTime(PtimeAlgorithm::ComponentWise) => true,
            Complexity::PTime(PtimeAlgorithm::CatalogueMatch(name)) => {
                !matches!(*name, "q_perm" | "q_Aperm")
            }
            _ => false,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dispatch<S: TupleStore + Sync + ?Sized>(
        &self,
        q: &Query,
        db: &S,
        view: WitnessView<'_>,
        opts: &SolveOptions,
        scratch: &mut SolveScratch,
        incumbent: Option<&[u32]>,
        stats: &mut SessionSolveStats,
        warm: Option<SessionWarm<'_>>,
    ) -> Result<SolveReport, SolveError> {
        // Session and what-if paths enter here directly (without passing
        // through `solve_store`), so the pre-work cancellation check is
        // repeated at dispatch.
        if opts.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            return Err(SolveError::Cancelled { partial: None });
        }
        if view.is_empty() {
            return Ok(SolveReport {
                resilience: Resilience::Finite(0),
                contingency: opts.want_contingency.then(Vec::new),
                method: SolveMethod::AlreadyFalse,
                witnesses: 0,
                nodes_explored: 0,
            });
        }
        if view.has_undeletable_witness() {
            return Ok(self.unfalsifiable_report(view.len()));
        }
        match &self.classification.complexity {
            Complexity::PTime(alg) => {
                self.solve_ptime(alg, q, db, view, opts, scratch, incumbent, stats, warm)
            }
            Complexity::NpComplete(_) | Complexity::Open => {
                let reduced_live = warm.and_then(|w| w.reduced_live);
                self.solve_exact(view, opts, scratch, incumbent, stats, reduced_live)
            }
        }
    }

    fn unfalsifiable_report(&self, witnesses: usize) -> SolveReport {
        SolveReport {
            resilience: Resilience::Unfalsifiable,
            contingency: None,
            method: SolveMethod::Unfalsifiable,
            witnesses,
            nodes_explored: 0,
        }
    }

    /// Exact branch-and-bound over the view's reduced sets, served straight
    /// from the scratch-owned CSR arena. An `incumbent` (dense ids of a
    /// candidate hitting set, sorted) warm-starts the search; see
    /// [`ExactSolver::solve_with_incumbent`] for the feasibility guard.
    /// When the session maintains deletion-aware reduced sets, they fill the
    /// arena from live counters instead of rebuilding the CSR from rows —
    /// the output is byte-identical either way.
    #[allow(clippy::too_many_arguments)]
    fn solve_exact(
        &self,
        view: WitnessView<'_>,
        opts: &SolveOptions,
        scratch: &mut SolveScratch,
        incumbent: Option<&[u32]>,
        stats: &mut SessionSolveStats,
        reduced_live: Option<&ReducedSetsLive>,
    ) -> Result<SolveReport, SolveError> {
        match reduced_live {
            Some(live) => {
                live.live_reduced_into(&mut scratch.reduced, &mut scratch.reduced_scratch)
            }
            None => view.reduced_into(&mut scratch.reduced, &mut scratch.reduced_scratch),
        }
        let solver = ExactSolver::with_node_limit(opts.node_budget);
        let outcome = solver
            .search(
                &scratch.reduced,
                incumbent,
                &mut scratch.exact,
                opts.cancel.as_ref(),
            )
            .map_err(|interrupt| match interrupt {
                ExactInterrupt::Budget(e) => SolveError::BudgetExhausted {
                    nodes_explored: e.nodes_explored,
                },
                ExactInterrupt::Cancelled(c) => SolveError::Cancelled {
                    partial: Some(AnytimeBounds {
                        lower: c.lower_bound,
                        upper: Some(c.upper_bound),
                        nodes_explored: c.nodes_explored,
                    }),
                },
            })?;
        stats.warm_start_hit |= outcome.incumbent_seeded;
        stats.short_circuit |= outcome.short_circuit;
        if let Some(inc) = incumbent {
            stats.incumbent_reused |= outcome.contingency == inc;
        }
        let universe = view.relevant_tuples();
        Ok(SolveReport {
            resilience: outcome.resilience.into(),
            contingency: (opts.want_contingency && outcome.resilience.is_some()).then(|| {
                outcome
                    .contingency
                    .iter()
                    .map(|&d| universe[d as usize])
                    .collect()
            }),
            method: SolveMethod::ExactBranchAndBound,
            witnesses: view.len(),
            nodes_explored: outcome.nodes_explored,
        })
    }

    /// Maps a cancelled flow run to the structured solve error: the partial
    /// flow is a certified lower bound on the resilience (it is a valid
    /// s–t flow), and no feasible contingency set exists yet (flow methods
    /// only produce one at the end), so the upper bound is absent.
    fn flow_cancelled(c: FlowInterrupted) -> SolveError {
        SolveError::Cancelled {
            partial: Some(AnytimeBounds {
                lower: c.partial_flow as usize,
                upper: None,
                nodes_explored: 0,
            }),
        }
    }

    fn finish_flow(
        &self,
        flow: FlowResult,
        method: SolveMethod,
        witnesses: usize,
        opts: &SolveOptions,
    ) -> SolveReport {
        SolveReport {
            resilience: Resilience::Finite(flow.resilience),
            contingency: opts.want_contingency.then_some(flow.contingency),
            method,
            witnesses,
            nodes_explored: 0,
        }
    }

    /// The polynomial dispatches. Each flow construction runs through one
    /// [`FlowConstruction::solve`] call — warm when the session supplies its
    /// resident network — polling the solve's stop callback; a construction
    /// that does not apply to the instance falls back to bipartite cover
    /// (linear dispatches) and then to exact search.
    #[allow(clippy::too_many_arguments)]
    fn solve_ptime<S: TupleStore + Sync + ?Sized>(
        &self,
        alg: &PtimeAlgorithm,
        q: &Query,
        db: &S,
        view: WitnessView<'_>,
        opts: &SolveOptions,
        scratch: &mut SolveScratch,
        incumbent: Option<&[u32]>,
        stats: &mut SessionSolveStats,
        warm: Option<SessionWarm<'_>>,
    ) -> Result<SolveReport, SolveError> {
        let mut stop = opts.stop_callback();
        let construction = match alg {
            PtimeAlgorithm::Unfalsifiable => return Ok(self.unfalsifiable_report(view.len())),
            PtimeAlgorithm::ComponentWise => return self.solve_componentwise(db, view, opts),
            PtimeAlgorithm::SjFreeLinearFlow | PtimeAlgorithm::ConfluenceFlow => {
                self.linear_order.as_deref().map(|order| {
                    (
                        FlowConstruction::WitnessPath { order },
                        SolveMethod::LinearFlow,
                    )
                })
            }
            PtimeAlgorithm::UnboundPermutation
            | PtimeAlgorithm::CatalogueMatch("q_perm" | "q_Aperm") => Some((
                FlowConstruction::Permutation { query: q },
                SolveMethod::PermutationFlow,
            )),
            PtimeAlgorithm::RepeatedVariableFlow => Some((
                FlowConstruction::Rep {
                    query: q,
                    order: &self.rep_order,
                },
                SolveMethod::RepFlow,
            )),
            PtimeAlgorithm::CatalogueMatch(name) => {
                // A query that matched a catalogue entry structurally but
                // uses other relation names than the dedicated construction
                // expects gets `None` and falls back to the exact solver
                // (still correct, just not polynomial-by-construction).
                let flow = crate::special::solve(name, q, db, opts.want_contingency, &mut stop)
                    .map_err(Self::flow_cancelled)?;
                return match flow {
                    Some(flow) => Ok(self.finish_flow(
                        flow,
                        SolveMethod::SpecialFlow(name),
                        view.len(),
                        opts,
                    )),
                    None => self.solve_exact(view, opts, scratch, incumbent, stats, None),
                };
            }
        };
        if let Some((construction, method)) = construction {
            seed_cuttable_mask(q, db, &mut scratch.flow);
            let mut warm = warm.map(|w| w.flow);
            let flow = construction.solve(
                db,
                view,
                opts.want_contingency,
                &mut scratch.flow,
                &mut stop,
                warm.as_mut(),
            );
            if let Some(w) = &warm {
                Self::merge_flow_stats(stats, w.state);
            }
            if let Some(flow) = flow.map_err(Self::flow_cancelled)? {
                return Ok(self.finish_flow(flow, method, view.len(), opts));
            }
        }
        if matches!(
            alg,
            PtimeAlgorithm::SjFreeLinearFlow | PtimeAlgorithm::ConfluenceFlow
        ) {
            if let Some(value) = pairwise_bipartite_resilience_view(view) {
                return Ok(SolveReport {
                    resilience: Resilience::Finite(value),
                    contingency: None,
                    method: SolveMethod::BipartiteCover,
                    witnesses: view.len(),
                    nodes_explored: 0,
                });
            }
        }
        self.solve_exact(view, opts, scratch, incumbent, stats, None)
    }

    /// Copies the warm flow state's per-step counters into the session
    /// solve statistics after a warm attempt (successful or fallen back).
    fn merge_flow_stats(stats: &mut SessionSolveStats, flow: &FlowWarmState) {
        stats.flow_warm_reused |= flow.step_reused;
        stats.flow_paths_repaired += flow.step_repaired;
        stats.flow_paths_reaugmented += flow.step_reaugmented;
        stats.flow_cold_rebuild |= flow.step_rebuilt;
    }

    fn solve_componentwise<S: TupleStore + Sync + ?Sized>(
        &self,
        db: &S,
        view: WitnessView<'_>,
        opts: &SolveOptions,
    ) -> Result<SolveReport, SolveError> {
        // Components are independent subproblems (Lemma 14), each with its
        // own precompiled subquery: solve them on scoped threads. (The build
        // environment has no rayon; see vendor/README.md. std::thread::scope
        // gives the same fork-join shape without a dependency.)
        let reports: Vec<Result<SolveReport, SolveError>> = if self.components.len() <= 1 {
            self.components
                .iter()
                .map(|sub| sub.solve_store(db, opts, &mut SolveScratch::new()))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .components
                    .iter()
                    .map(|sub| {
                        scope.spawn(move || sub.solve_store(db, opts, &mut SolveScratch::new()))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("component solver panicked"))
                    .collect()
            })
        };
        let mut nodes_explored = 0usize;
        let mut best: Option<(usize, Option<Vec<TupleId>>)> = None;
        for report in reports {
            let report = report?;
            nodes_explored += report.nodes_explored;
            if let Resilience::Finite(r) = report.resilience {
                let better = best.as_ref().is_none_or(|(b, _)| r < *b);
                if better {
                    best = Some((r, report.contingency));
                }
            }
        }
        Ok(match best {
            Some((r, gamma)) => SolveReport {
                resilience: Resilience::Finite(r),
                // Propagate the winning component's certificate as-is: if its
                // method produced no contingency set (e.g. BipartiteCover),
                // the report must say `None`, not claim an empty set.
                contingency: if opts.want_contingency { gamma } else { None },
                method: SolveMethod::ComponentMinimum,
                witnesses: view.len(),
                nodes_explored,
            },
            None => self.unfalsifiable_report(view.len()),
        })
    }
}

/// A deletion-aware solve session over one compiled query and one frozen
/// instance.
///
/// Creating a session enumerates the witnesses **once** and builds a full
/// tuple → witness CSR incidence. [`SolveSession::delete`] and
/// [`SolveSession::restore`] then maintain, per witness, a *live counter*
/// (how many of the tuples it uses are currently deleted) in time
/// proportional to the touched tuples' witness degrees — no database copy,
/// no re-enumeration. [`SolveSession::solve`] answers resilience for the
/// current deletion state, equal to solving `Database::without(deleted)`
/// from scratch.
///
/// # Live-counter semantics
///
/// * The deletion state is a **set**: deleting an already-deleted tuple and
///   restoring a never-deleted tuple are no-ops, so any interleaving of
///   `delete`/`restore` calls that leaves the same set deleted yields the
///   same live view — restore order does not matter.
/// * A witness is *live* iff its counter is zero, i.e. none of the tuples it
///   uses (endogenous **or** exogenous) is deleted. This matches
///   `Database::without`: deleting a tuple referenced only by exogenous
///   atoms also destroys the witnesses through it.
/// * Deleting a tuple used by no witness only affects the materialized
///   fallback below (the tuple is still absent from the reduced copy).
///
/// # Solve semantics
///
/// For witness-driven methods (exact branch-and-bound, witness-path /
/// permutation / REP flows, bipartite cover) the solver runs directly over
/// the original store with the filtered witness set — deleted tuples appear
/// in no live witness, so they cannot appear in any hitting set, and the
/// flows' resident network carries no flow through their zeroed arcs. The
/// component-wise dispatch and the dedicated Section 8 catalogue
/// constructions scan raw relations, so for those the session materializes
/// the reduced instance once per solve and translates the resulting
/// contingency back to the session's original tuple ids.
///
/// ```
/// use cq::parse_query;
/// use database::Database;
/// use resilience_core::engine::{Engine, Resilience, SolveOptions};
///
/// let q = parse_query("R(x,y), R(y,z)").unwrap();
/// let compiled = Engine::compile(&q);
/// let mut db = Database::for_query(&q);
/// db.insert_named("R", &[1u64, 2]);
/// db.insert_named("R", &[2u64, 3]);
/// let t33 = db.insert_named("R", &[3u64, 3]);
/// let frozen = db.freeze();
/// let mut session = compiled.session(&frozen).unwrap();
/// let opts = SolveOptions::new();
/// assert_eq!(session.solve(&opts).unwrap().resilience, Resilience::Finite(2));
/// session.delete(&[t33]);
/// assert_eq!(session.live_witnesses(), 1);
/// assert_eq!(session.solve(&opts).unwrap().resilience, Resilience::Finite(1));
/// session.restore(&[t33]);
/// assert_eq!(session.solve(&opts).unwrap().resilience, Resilience::Finite(2));
/// ```
///
/// # Ownership shapes
///
/// `Session` is generic over *how* it holds the compiled query and the
/// instance. The two useful shapes have aliases:
///
/// * [`SolveSession<'a>`] — borrows both (`&'a CompiledQuery`,
///   `&'a FrozenDb`); the ergonomic shape for stack-scoped what-if scripts.
/// * [`SharedSolveSession`] — owns `Arc` handles to both, so the session is
///   `'static`: it can live in a registry, move across threads, and outlive
///   the scope that created it (the shape `resd`, the resilience service
///   daemon, stores per-connection named sessions in).
#[derive(Clone, Debug)]
pub struct Session<C, D> {
    compiled: C,
    db: D,
    /// The witness set of the *full* instance (endogenous projection).
    ws: WitnessSet,
    /// Full incidence: witness → every distinct tuple it uses.
    full: WitnessIndex,
    /// Per witness: number of its used tuples currently deleted.
    dead_hits: Vec<u32>,
    /// Per store tuple: currently deleted?
    deleted: Vec<bool>,
    deleted_count: usize,
    /// Number of witnesses with `dead_hits == 0`.
    live: usize,
    /// Bumped whenever a delete/restore/reset actually changes the deleted
    /// set; keys the solve cache.
    version: u64,
    /// Reusable buffer of live witness rows (ascending).
    survivors: Vec<u32>,
    /// Reusable buffer for the dense warm-start incumbent.
    incumbent_buf: Vec<u32>,
    /// Per-session solver scratch (reduced-set arena, bitsets, flow
    /// buffers): session steps allocate nothing per witness.
    scratch: SolveScratch,
    /// The last solve, for replay and warm starts.
    cache: Option<SessionCache>,
    /// Statistics of the most recent [`SolveSession::solve`].
    stats: SessionSolveStats,
    /// Resident warm flow state for flow dispatches: the split network of
    /// the full witness set survives across steps, deletions are applied as
    /// arc repairs and solves re-augment from the repaired residual.
    flow_warm: FlowWarmState,
    /// Tuples whose deletion state changed since the warm flow last applied
    /// deltas (drained by the next warm solve).
    flow_touched: Vec<TupleId>,
    /// Whether this query's dispatch benefits from deletion-aware reduced
    /// sets (exact branch-and-bound complexities only).
    reduced_live_wanted: bool,
    /// Deletion-aware reduced sets (exact dispatches only): tombstones and
    /// live counters maintained by `delete`/`restore` instead of rebuilding
    /// the CSR arena from live rows on every solve. Built lazily at the
    /// first warm solve (from `dead_hits`, so deletes before that first
    /// solve are reflected); `None` until then keeps maintenance-only
    /// sessions free of the arena-build cost.
    reduced_live: Option<ReducedSetsLive>,
    /// Compactions already reported through per-step solve stats.
    reduced_compactions_seen: u64,
    /// When the session last did work (open, mutate, or solve). Registries
    /// holding long-lived sessions use this to reap idle ones; see
    /// [`Session::idle_for`].
    last_touch: Instant,
}

/// A [`Session`] borrowing its compiled query and instance — the
/// stack-scoped shape (see the `Session` docs).
pub type SolveSession<'a> = Session<&'a CompiledQuery, &'a FrozenDb>;

/// A [`Session`] owning `Arc` handles to its compiled query and instance —
/// the `'static`, registry-storable shape (see the `Session` docs). Opened
/// via [`CompiledQuery::session_shared`].
pub type SharedSolveSession = Session<Arc<CompiledQuery>, Arc<FrozenDb>>;

/// Cached result of the previous [`SolveSession::solve`].
#[derive(Clone, Debug)]
struct SessionCache {
    /// Session version the report was computed at.
    version: u64,
    /// Options the report was computed with (replay requires equality).
    opts: SolveOptions,
    report: SolveReport,
}

impl<C: Borrow<CompiledQuery>, D: Borrow<FrozenDb>> Session<C, D> {
    /// Opens a session: enumerates the witnesses once and builds the full
    /// tuple → witness incidence. Both [`CompiledQuery::session_opts`]
    /// (borrowed shape) and [`CompiledQuery::session_shared`] (`Arc` shape)
    /// delegate here.
    pub fn open(compiled: C, db: D, opts: &SolveOptions) -> Result<Self, SolveError> {
        let (ws, full, num_tuples) = {
            let compiled_ref: &CompiledQuery = compiled.borrow();
            let db_ref: &FrozenDb = db.borrow();
            let q = &compiled_ref.classification.evidence.normalized;
            let translation = try_relation_translation(q, db_ref)
                .map_err(|relation| SolveError::SchemaMismatch { relation })?;
            let mut buf = Vec::new();
            if !compiled_ref.enumerate_witnesses(&translation, db_ref, opts, &mut buf) {
                return Err(SolveError::Cancelled { partial: None });
            }
            let ws = WitnessSet::from_witnesses(q, db_ref, buf);
            // Full incidence over *all* tuples a witness touches (exogenous
            // included): a deletion of any tuple must kill exactly the
            // witnesses using it.
            let keep_all = vec![true; db_ref.num_tuples()];
            let full = WitnessIndex::from_witnesses(&ws.witnesses, &keep_all);
            let n = db_ref.num_tuples();
            (ws, full, n)
        };
        let live = ws.len();
        // Deletion-aware reduced sets pay off exactly where the reduced CSR
        // is rebuilt per step: the exact branch-and-bound dispatches. The
        // arena itself is built lazily at the first warm solve (not here) so
        // pure-maintenance sessions — open, delete, count live witnesses —
        // never pay for it.
        let reduced_live_wanted = {
            let compiled_ref: &CompiledQuery = compiled.borrow();
            matches!(
                compiled_ref.classification.complexity,
                Complexity::NpComplete(_) | Complexity::Open
            )
        };
        Ok(Session {
            compiled,
            db,
            ws,
            full,
            dead_hits: vec![0; live],
            deleted: vec![false; num_tuples],
            deleted_count: 0,
            live,
            version: 0,
            survivors: Vec::new(),
            incumbent_buf: Vec::new(),
            scratch: SolveScratch::new(),
            cache: None,
            stats: SessionSolveStats::default(),
            flow_warm: FlowWarmState::new(),
            flow_touched: Vec::new(),
            reduced_live_wanted,
            reduced_live: None,
            reduced_compactions_seen: 0,
            last_touch: Instant::now(),
        })
    }

    /// Marks the session as freshly used, restarting its idle clock. Called
    /// automatically by every mutating or solving method; registries may
    /// also call it directly (e.g. when a read-only inspection should count
    /// as activity).
    pub fn touch(&mut self) {
        self.last_touch = Instant::now();
    }

    /// How long since the session last did work — the input to TTL reaping
    /// of abandoned sessions in long-lived registries.
    pub fn idle_for(&self) -> std::time::Duration {
        self.last_touch.elapsed()
    }
    /// Marks the given tuples deleted; returns how many witnesses died as a
    /// result. Already-deleted tuples and ids outside the store are ignored.
    pub fn delete(&mut self, tuples: &[TupleId]) -> usize {
        self.touch();
        let mut newly_dead = 0usize;
        for &t in tuples {
            if t.index() >= self.deleted.len() || self.deleted[t.index()] {
                continue;
            }
            self.deleted[t.index()] = true;
            self.deleted_count += 1;
            self.version += 1;
            self.flow_touched.push(t);
            for &w in self.full.witnesses_of(t) {
                self.dead_hits[w as usize] += 1;
                if self.dead_hits[w as usize] == 1 {
                    self.live -= 1;
                    newly_dead += 1;
                    if let Some(live_sets) = &mut self.reduced_live {
                        live_sets.note_dead(w);
                    }
                }
            }
        }
        newly_dead
    }

    /// Un-deletes the given tuples; returns how many witnesses came back to
    /// life. Tuples that are not currently deleted are ignored, so restores
    /// may arrive in any order relative to the deletes that preceded them.
    pub fn restore(&mut self, tuples: &[TupleId]) -> usize {
        self.touch();
        let mut revived = 0usize;
        for &t in tuples {
            if t.index() >= self.deleted.len() || !self.deleted[t.index()] {
                continue;
            }
            self.deleted[t.index()] = false;
            self.deleted_count -= 1;
            self.version += 1;
            self.flow_touched.push(t);
            for &w in self.full.witnesses_of(t) {
                self.dead_hits[w as usize] -= 1;
                if self.dead_hits[w as usize] == 0 {
                    self.live += 1;
                    revived += 1;
                    if let Some(live_sets) = &mut self.reduced_live {
                        live_sets.note_live(w);
                    }
                }
            }
        }
        revived
    }

    /// Restores every deleted tuple (back to the full instance).
    pub fn reset(&mut self) {
        self.touch();
        if self.deleted_count > 0 {
            self.version += 1;
        }
        self.deleted.iter_mut().for_each(|d| *d = false);
        self.dead_hits.iter_mut().for_each(|c| *c = 0);
        self.deleted_count = 0;
        self.live = self.ws.len();
        // Bulk restore: cheaper (and always correct) to drop the resident
        // warm state and revive every reduced set than to replay deltas.
        self.flow_warm.invalidate();
        self.flow_touched.clear();
        if let Some(live_sets) = &mut self.reduced_live {
            live_sets.reset_all_live();
        }
    }

    /// Number of witnesses alive under the current deletion state (`O(1)`).
    pub fn live_witnesses(&self) -> usize {
        self.live
    }

    /// Number of witnesses of the full (undeleted) instance.
    pub fn total_witnesses(&self) -> usize {
        self.ws.len()
    }

    /// Whether tuple `t` is currently deleted.
    pub fn is_deleted(&self, t: TupleId) -> bool {
        self.deleted.get(t.index()).copied().unwrap_or(false)
    }

    /// The currently deleted tuples, **sorted ascending by tuple id**.
    ///
    /// The ordering is guaranteed (the deletion state is kept as a dense
    /// mask and scanned in id order), so any state echo built from this —
    /// `rescli whatif --json`, the `resd` protocol's `deleted` arrays — is
    /// deterministic across runs and independent of the order in which the
    /// tuples were deleted.
    pub fn deleted_tuples(&self) -> Vec<TupleId> {
        let out: Vec<TupleId> = self
            .deleted
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| d.then_some(TupleId(i as u32)))
            .collect();
        debug_assert!(out.windows(2).all(|w| w[0] < w[1]));
        out
    }

    /// Number of currently deleted tuples (`O(1)`).
    pub fn deleted_count(&self) -> usize {
        self.deleted_count
    }

    /// The instance this session solves over.
    pub fn store(&self) -> &FrozenDb {
        self.db.borrow()
    }

    /// The compiled query this session was opened from.
    pub fn compiled(&self) -> &CompiledQuery {
        self.compiled.borrow()
    }

    /// Statistics of the most recent [`SolveSession::solve`] (warm-start
    /// hit, incumbent reuse, replay, nodes explored).
    pub fn last_solve_stats(&self) -> SessionSolveStats {
        self.stats
    }

    /// Solves the live view: the result equals compiling-and-solving
    /// `db.without(deleted_tuples())` from scratch (same resilience, same
    /// witness count), with contingency tuples referencing the session's
    /// original tuple ids.
    ///
    /// # Warm starts
    ///
    /// Unless [`SolveOptions::warm_start`] is off, consecutive solves feed
    /// each other:
    ///
    /// * **Replay** — if the deleted set (and the options) are unchanged
    ///   since the previous solve, the cached report is returned verbatim.
    /// * **Exact incumbent** — *resilience is monotone under deletions*:
    ///   deleting tuples only removes witnesses, and a live witness `w`
    ///   cannot use a deleted tuple `t` (it would be dead), so if the
    ///   previous contingency set `Γ` hit `w` through some tuple, that tuple
    ///   is in `Γ \ {deleted}`. Hence `Γ` restricted to non-deleted tuples
    ///   still hits every live witness — a *feasible* hitting set, i.e. an
    ///   upper bound on the new resilience. The exact solver re-verifies
    ///   feasibility before trusting it (restores can revive witnesses `Γ`
    ///   never hit), seeds its search bound with it, and skips the search
    ///   entirely when the bound matches the fresh packing lower bound.
    /// * **Resident flow network** — the witness-path, permutation and REP
    ///   flows keep the split network of the *full* witness set resident
    ///   across steps. A step zeroes the node arcs of newly deleted tuples
    ///   (rerouting or draining the flow through them), restores revived
    ///   ones, and re-augments Dinic from the repaired residual instead of
    ///   recomputing the max flow; the first step, a step after
    ///   [`Session::reset`] or after a cancelled step, and a deletion the
    ///   network cannot express rebuild it. Contingency extraction is
    ///   skipped whenever [`SolveOptions::want_contingency`] is off.
    ///   Deadlines hold on these steps too: the rebuild and the
    ///   re-augmentation poll the solve's [`CancelToken`] like cold solves.
    ///
    /// Successful warm and cold solves always agree on the resilience,
    /// witness count and method; certificates may differ between equally
    /// minimum sets, and a *tight* node budget may be exhausted at
    /// different points (see [`SolveOptions::warm_start`]).
    pub fn solve(&mut self, opts: &SolveOptions) -> Result<SolveReport, SolveError> {
        self.touch();
        self.stats = SessionSolveStats::default();
        if opts.warm_start {
            if let Some(cache) = &self.cache {
                if cache.version == self.version && cache.opts == *opts {
                    // The report is the cached one verbatim (its own
                    // `nodes_explored` records the original search); the
                    // per-step stats say 0 — nothing ran on this step.
                    self.stats.replayed = true;
                    return Ok(cache.report.clone());
                }
            }
        }
        let report = self.solve_uncached(opts)?;
        self.stats.nodes_explored = report.nodes_explored;
        self.cache = Some(SessionCache {
            version: self.version,
            opts: opts.clone(),
            report: report.clone(),
        });
        Ok(report)
    }

    fn solve_uncached(&mut self, opts: &SolveOptions) -> Result<SolveReport, SolveError> {
        let compiled: &CompiledQuery = self.compiled.borrow();
        let db: &FrozenDb = self.db.borrow();
        let q = &compiled.classification.evidence.normalized;
        let mut stats = SessionSolveStats::default();
        if self.deleted_count == 0 {
            // Nothing deleted: dispatch on the session's own witness set —
            // no clone, no index rebuild, no store copy. Runs cold so the
            // report is bit-identical to `CompiledQuery::solve`.
            let report = compiled.dispatch(
                q,
                db,
                self.ws.view(),
                opts,
                &mut self.scratch,
                None,
                &mut stats,
                None,
            );
            self.stats = stats;
            return report;
        }
        if compiled.dispatch_scans_raw_store() {
            // The dispatch target needs the deletions to be physically
            // absent. Materialize the reduced instance and translate the
            // certificate back (surviving tuples are renumbered densely in
            // scan order).
            let reduced = copy_without_mask(db, &self.deleted).freeze();
            let mut report = compiled.solve(&reduced, opts)?;
            if let Some(gamma) = &mut report.contingency {
                let survivors: Vec<TupleId> = (0..db.num_tuples() as u32)
                    .map(TupleId)
                    .filter(|t| !self.deleted[t.index()])
                    .collect();
                for t in gamma.iter_mut() {
                    *t = survivors[t.index()];
                }
            }
            return Ok(report);
        }
        // The live counters already know which witnesses survive — iterate
        // them in place (no witness cloning, no index rebuild).
        self.survivors.clear();
        self.survivors.extend(
            self.dead_hits
                .iter()
                .enumerate()
                .filter_map(|(w, &hits)| (hits == 0).then_some(w as u32)),
        );
        debug_assert_eq!(self.survivors.len(), self.live);
        let view = WitnessView::live(&self.ws, &self.survivors);

        // Warm-start candidates from the previous solve.
        let mut incumbent: Option<&[u32]> = None;
        if opts.warm_start {
            if let Some(cache) = &self.cache {
                if let (Resilience::Finite(_), Some(gamma)) =
                    (cache.report.resilience, &cache.report.contingency)
                {
                    if cache.report.method == SolveMethod::ExactBranchAndBound {
                        // Restrict the previous contingency set to live
                        // tuples (see the monotonicity argument in the
                        // `solve` docs) and hand it to the exact solver as a
                        // dense-space incumbent.
                        self.incumbent_buf.clear();
                        for &t in gamma {
                            if !self.deleted[t.index()] {
                                if let Some(d) = self.ws.dense_id_of(t) {
                                    self.incumbent_buf.push(d);
                                }
                            }
                        }
                        self.incumbent_buf.sort_unstable();
                        incumbent = Some(&self.incumbent_buf);
                    }
                }
            }
        }
        // Warm-solve context: flow dispatches repair the resident residual
        // network instead of rerunning Dinic from scratch; exact dispatches
        // fill the reduced-set arena from live counters. Off when the caller
        // disabled warm starts — the dispatch then runs fully cold.
        if opts.warm_start && self.reduced_live_wanted && self.reduced_live.is_none() {
            // First warm solve: build the live arena now and replay the
            // deletion state accumulated since open.
            let mut live_sets = ReducedSetsLive::build(&self.ws);
            for (w, &hits) in self.dead_hits.iter().enumerate() {
                if hits > 0 {
                    live_sets.note_dead(w as u32);
                }
            }
            self.reduced_compactions_seen = live_sets.compactions();
            self.reduced_live = Some(live_sets);
        }
        let warm = opts.warm_start.then(|| SessionWarm {
            flow: WarmSession {
                state: &mut self.flow_warm,
                full: self.ws.view(),
                deleted: &self.deleted,
                touched: &mut self.flow_touched,
            },
            reduced_live: self.reduced_live.as_ref(),
        });
        let report = compiled.dispatch(
            q,
            db,
            view,
            opts,
            &mut self.scratch,
            incumbent,
            &mut stats,
            warm,
        );
        if let Some(live_sets) = &self.reduced_live {
            let total = live_sets.compactions();
            stats.reduced_compactions = total - self.reduced_compactions_seen;
            self.reduced_compactions_seen = total;
        }
        self.stats = stats;
        report
    }

    /// Solves several hypothetical deletion sets of this instance in one
    /// call, **sharing the session's witness index** across scoped threads —
    /// the batched what-if entry point (the `resd` protocol's `batch_whatif`
    /// verb; ROADMAP "batched what-if scripts").
    ///
    /// Each `sets[i]` is applied *on top of* the session's current deletion
    /// state (tuples already deleted and ids outside the store are ignored,
    /// exactly like [`Session::delete`]); the session itself is **not**
    /// mutated. Result `i` equals cloning this session, deleting `sets[i]`
    /// and solving cold:
    ///
    /// * witness liveness is answered from the session's one-time tuple →
    ///   witness incidence (no re-enumeration, no index rebuild, no witness
    ///   cloning — threads only keep a per-set hit-counter overlay);
    /// * raw-store-scanning dispatch targets (component-wise, the dedicated
    ///   Section 8 constructions) materialize their reduced copy per set,
    ///   exactly as a regular session solve does, and certificates reference
    ///   the session's original tuple ids;
    /// * every set is solved independently (no warm starts between sets), so
    ///   the results are deterministic and independent of the thread count
    ///   and of the order of `sets`.
    pub fn solve_whatif_batch(
        &self,
        sets: &[Vec<TupleId>],
        opts: &SolveOptions,
    ) -> Vec<Result<SolveReport, SolveError>>
    where
        C: Sync,
        D: Sync,
    {
        let compiled: &CompiledQuery = self.compiled.borrow();
        let db: &FrozenDb = self.db.borrow();
        let solve_chunk = |chunk: &[Vec<TupleId>]| -> Vec<Result<SolveReport, SolveError>> {
            let mut scratch = SolveScratch::new();
            // Per-thread overlay over the shared incidence: extra dead hits
            // per witness and the tuples they came from (for O(touched)
            // reset between sets).
            let mut extra = vec![0u32; self.ws.len()];
            let mut touched: Vec<u32> = Vec::new();
            let mut mask = self.deleted.clone();
            let mut newly: Vec<TupleId> = Vec::new();
            let mut survivors: Vec<u32> = Vec::new();
            let mut out = Vec::with_capacity(chunk.len());
            for set in chunk {
                newly.clear();
                for &t in set {
                    if t.index() < mask.len() && !mask[t.index()] {
                        mask[t.index()] = true;
                        newly.push(t);
                    }
                }
                out.push(self.solve_one_whatif(
                    compiled,
                    db,
                    opts,
                    &mask,
                    &newly,
                    &mut extra,
                    &mut touched,
                    &mut survivors,
                    &mut scratch,
                ));
                for &t in &newly {
                    mask[t.index()] = false;
                }
            }
            out
        };
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(sets.len())
            .max(1);
        if threads <= 1 {
            return solve_chunk(sets);
        }
        let chunk = sets.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let solve_chunk = &solve_chunk;
            let handles: Vec<_> = sets
                .chunks(chunk)
                .map(|c| scope.spawn(move || solve_chunk(c)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("what-if batch thread panicked"))
                .collect()
        })
    }

    /// One hypothetical set of [`Session::solve_whatif_batch`]: `mask` is
    /// the combined (session ∪ set) deletion mask, `newly` the set's tuples
    /// not already deleted by the session. `extra`/`touched` are the
    /// caller's per-thread witness hit overlay (zeroed on entry, zeroed
    /// again on exit).
    #[allow(clippy::too_many_arguments)]
    fn solve_one_whatif(
        &self,
        compiled: &CompiledQuery,
        db: &FrozenDb,
        opts: &SolveOptions,
        mask: &[bool],
        newly: &[TupleId],
        extra: &mut [u32],
        touched: &mut Vec<u32>,
        survivors: &mut Vec<u32>,
        scratch: &mut SolveScratch,
    ) -> Result<SolveReport, SolveError> {
        if compiled.dispatch_scans_raw_store() {
            // Same materialized-copy fallback as a session solve, with the
            // certificate translated back to original ids.
            let reduced = copy_without_mask(db, mask).freeze();
            let mut report = compiled.solve_with_scratch(&reduced, opts, scratch)?;
            if let Some(gamma) = &mut report.contingency {
                let original: Vec<TupleId> = (0..db.num_tuples() as u32)
                    .map(TupleId)
                    .filter(|t| !mask[t.index()])
                    .collect();
                for t in gamma.iter_mut() {
                    *t = original[t.index()];
                }
            }
            return Ok(report);
        }
        touched.clear();
        for &t in newly {
            for &w in self.full.witnesses_of(t) {
                if extra[w as usize] == 0 {
                    touched.push(w);
                }
                extra[w as usize] += 1;
            }
        }
        survivors.clear();
        survivors.extend(
            self.dead_hits
                .iter()
                .zip(extra.iter())
                .enumerate()
                .filter_map(|(w, (&base, &add))| (base == 0 && add == 0).then_some(w as u32)),
        );
        let view = WitnessView::live(&self.ws, survivors);
        let q = &compiled.classification.evidence.normalized;
        let mut stats = SessionSolveStats::default();
        let report = compiled.dispatch(q, db, view, opts, scratch, None, &mut stats, None);
        for &w in touched.iter() {
            extra[w as usize] = 0;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::catalogue;
    use cq::parse_query;
    use database::Database;
    use std::collections::HashSet;

    fn build_db(q: &Query, rows: &[(&str, &[u64])]) -> Database {
        let mut db = Database::for_query(q);
        for (rel, vals) in rows {
            db.insert_named(rel, vals);
        }
        db
    }

    fn chain_instances(n: usize) -> (Query, Vec<FrozenDb>) {
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let dbs = (0..n)
            .map(|i| {
                let mut db = Database::for_query(&q);
                for j in 0..5u64 {
                    db.insert_named("R", &[j, (j + 1 + i as u64) % 6]);
                }
                db.freeze()
            })
            .collect();
        (q, dbs)
    }

    #[test]
    fn compile_once_solve_many() {
        let (q, dbs) = chain_instances(8);
        let compiled = Engine::compile(&q);
        let opts = SolveOptions::new();
        let reports = compiled.solve_batch(&dbs, &opts);
        assert_eq!(reports.len(), dbs.len());
        for (db, report) in dbs.iter().zip(&reports) {
            let report = report.as_ref().unwrap();
            let sequential = compiled.solve(db, &opts).unwrap();
            assert_eq!(report, &sequential);
        }
    }

    #[test]
    fn report_matches_exact_on_the_paper_example() {
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let db = build_db(&q, &[("R", &[1, 2]), ("R", &[2, 3]), ("R", &[3, 3])]);
        let compiled = Engine::compile(&q);
        let report = compiled.solve(&db.freeze(), &SolveOptions::new()).unwrap();
        assert_eq!(report.resilience, Resilience::Finite(2));
        assert_eq!(report.method, SolveMethod::ExactBranchAndBound);
        assert_eq!(report.witnesses, 3);
        assert!(report.nodes_explored > 0);
        assert_eq!(report.contingency.as_ref().map(Vec::len), Some(2));
    }

    #[test]
    fn want_contingency_off_skips_extraction_but_keeps_values() {
        // Covers every flow family: linear, permutation, REP, and the three
        // dedicated Section 8 constructions (whose value-only paths compute
        // the resilience without translating the cut back to tuples).
        for nq in [
            catalogue::q_acconf(),
            catalogue::q_aperm(),
            catalogue::z3(),
            catalogue::q_a3perm_r(),
            catalogue::q_swx3perm_r(),
            catalogue::q_ts3conf(),
        ] {
            let compiled = Engine::compile(&nq.query);
            let mut db = Database::for_query(&nq.query);
            for rel in nq.query.schema().relation_ids() {
                let name = nq.query.schema().name(rel).to_string();
                match nq.query.schema().arity(rel) {
                    1 => {
                        for v in 0..4u64 {
                            db.insert_named(&name, &[v]);
                        }
                    }
                    _ => {
                        for (a, b) in [(0u64, 1u64), (1, 0), (1, 2), (2, 2), (3, 1)] {
                            db.insert_named(&name, &[a, b]);
                        }
                    }
                }
            }
            let frozen = db.freeze();
            let with = compiled
                .solve(&frozen, &SolveOptions::new().want_contingency(true))
                .unwrap();
            let without = compiled
                .solve(&frozen, &SolveOptions::new().want_contingency(false))
                .unwrap();
            assert_eq!(with.resilience, without.resilience, "{}", nq.name);
            assert_eq!(with.method, without.method, "{}", nq.name);
            assert!(without.contingency.is_none(), "{}", nq.name);
        }
    }

    #[test]
    fn node_budget_is_a_result_not_a_panic() {
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
        let compiled = Engine::compile(&q);
        let err = compiled
            .solve(&db.freeze(), &SolveOptions::new().node_budget(3))
            .unwrap_err();
        assert_eq!(err, SolveError::BudgetExhausted { nodes_explored: 3 });
    }

    #[test]
    fn schema_mismatch_is_a_result_not_a_panic() {
        let q = parse_query("R(x,y), Z(y)").unwrap();
        let q_r_only = parse_query("R(x,y)").unwrap();
        let mut db = Database::for_query(&q_r_only);
        db.insert_named("R", &[1, 2]);
        let compiled = Engine::compile(&q);
        let err = compiled
            .solve(&db.freeze(), &SolveOptions::new())
            .unwrap_err();
        assert_eq!(
            err,
            SolveError::SchemaMismatch {
                relation: "Z".to_string()
            }
        );
    }

    #[test]
    fn disconnected_query_uses_precompiled_components() {
        let q = parse_query("A(x), R(x,y), B(u), S(u,v)").unwrap();
        let compiled = Engine::compile(&q);
        assert_eq!(compiled.components.len(), 2);
        let db = build_db(
            &q,
            &[
                ("A", &[1]),
                ("A", &[2]),
                ("R", &[1, 10]),
                ("R", &[2, 11]),
                ("B", &[5]),
                ("S", &[5, 50]),
            ],
        );
        let report = compiled.solve(&db.freeze(), &SolveOptions::new()).unwrap();
        assert_eq!(report.method, SolveMethod::ComponentMinimum);
        assert_eq!(report.resilience, Resilience::Finite(1));
    }

    #[test]
    fn component_minimum_never_fabricates_an_empty_certificate() {
        // q_rats joined with an unrelated component: the winning component
        // may solve via a method with no certificate (BipartiteCover). The
        // report must then say `contingency: None` — an empty set would be a
        // wrong certificate for a positive resilience.
        let q = parse_query("R^x(x,y), A(x), T^x(z,x), S(y,z), B(u), V(u,v)").unwrap();
        let compiled = Engine::compile(&q);
        assert_eq!(compiled.components.len(), 2);
        let db = build_db(
            &q,
            &[
                // q_rats component: pairwise witnesses, König path.
                ("A", &[1]),
                ("A", &[2]),
                ("R", &[1, 10]),
                ("R", &[2, 11]),
                ("T", &[20, 1]),
                ("T", &[21, 2]),
                ("S", &[10, 20]),
                ("S", &[11, 21]),
                ("S", &[10, 21]),
                // B/V component: resilience 3 (three disjoint witnesses), so
                // the rats component wins the minimum.
                ("B", &[5]),
                ("B", &[6]),
                ("B", &[7]),
                ("V", &[5, 50]),
                ("V", &[6, 60]),
                ("V", &[7, 70]),
            ],
        );
        let report = compiled.solve(&db.freeze(), &SolveOptions::new()).unwrap();
        assert_eq!(report.method, SolveMethod::ComponentMinimum);
        let value = report.resilience.as_finite().unwrap();
        assert!(value > 0);
        if let Some(gamma) = &report.contingency {
            assert_eq!(gamma.len(), value, "certificate must match the value");
        }
    }

    #[test]
    fn unfalsifiable_and_already_false_reports() {
        let q = parse_query("R^x(x,y)").unwrap();
        let compiled = Engine::compile(&q);
        let mut db = Database::for_query(&q);
        db.insert_named("R", &[1, 2]);
        let report = compiled.solve(&db.freeze(), &SolveOptions::new()).unwrap();
        assert_eq!(report.resilience, Resilience::Unfalsifiable);
        assert!(report.resilience.is_unfalsifiable());
        assert_eq!(report.resilience.as_finite(), None);

        let empty = Database::for_query(&q).freeze();
        let report = compiled.solve(&empty, &SolveOptions::new()).unwrap();
        assert_eq!(report.resilience, Resilience::Finite(0));
        assert_eq!(report.method, SolveMethod::AlreadyFalse);
        assert_eq!(report.contingency, Some(Vec::new()));
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_solves() {
        let (q, dbs) = chain_instances(5);
        let compiled = Engine::compile(&q);
        let opts = SolveOptions::new();
        let mut scratch = SolveScratch::new();
        for db in &dbs {
            let reused = compiled
                .solve_with_scratch(db, &opts, &mut scratch)
                .unwrap();
            let fresh = compiled.solve(db, &opts).unwrap();
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn session_matches_from_scratch_on_the_paper_example() {
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let compiled = Engine::compile(&q);
        let db = build_db(&q, &[("R", &[1, 2]), ("R", &[2, 3]), ("R", &[3, 3])]);
        let frozen = db.freeze();
        let opts = SolveOptions::new();
        let mut session = compiled.session(&frozen).unwrap();
        assert_eq!(session.total_witnesses(), 3);
        assert_eq!(session.live_witnesses(), 3);

        let r = db.schema().relation_id("R").unwrap();
        let t33 = db.lookup(r, &[3u64, 3]).unwrap();
        let dead = session.delete(&[t33]);
        assert_eq!(dead, 2); // (2,3,3) and (3,3,3)
        assert!(session.is_deleted(t33));
        assert_eq!(session.deleted_tuples(), vec![t33]);

        let report = session.solve(&opts).unwrap();
        let gamma: std::collections::HashSet<TupleId> = [t33].into_iter().collect();
        let scratch_report = compiled.solve(&db.without(&gamma).freeze(), &opts).unwrap();
        assert_eq!(report.resilience, scratch_report.resilience);
        assert_eq!(report.witnesses, scratch_report.witnesses);
        assert_eq!(report.resilience, Resilience::Finite(1));

        // Deleting an already-deleted tuple is a no-op; restores revive.
        assert_eq!(session.delete(&[t33]), 0);
        assert_eq!(session.restore(&[t33]), 2);
        assert_eq!(session.live_witnesses(), 3);
        assert_eq!(
            session.solve(&opts).unwrap(),
            compiled.solve(&frozen, &opts).unwrap()
        );
    }

    #[test]
    fn session_reset_and_exogenous_deletions() {
        // Deleting a tuple referenced only through an exogenous atom still
        // destroys its witnesses (Database::without semantics), even though
        // it can never be in a contingency set.
        let q = parse_query("A(x), R^x(x,y), B(y)").unwrap();
        let compiled = Engine::compile(&q);
        let db = build_db(
            &q,
            &[
                ("A", &[1]),
                ("A", &[2]),
                ("R", &[1, 10]),
                ("R", &[2, 11]),
                ("B", &[10]),
                ("B", &[11]),
            ],
        );
        let frozen = db.freeze();
        let opts = SolveOptions::new();
        let mut session = compiled.session(&frozen).unwrap();
        assert_eq!(session.live_witnesses(), 2);
        let r = db.schema().relation_id("R").unwrap();
        let r1 = db.lookup(r, &[1u64, 10]).unwrap();
        session.delete(&[r1]);
        assert_eq!(session.live_witnesses(), 1);
        let report = session.solve(&opts).unwrap();
        assert_eq!(report.resilience, Resilience::Finite(1));
        session.reset();
        assert_eq!(session.deleted_count(), 0);
        assert_eq!(session.live_witnesses(), 2);
        assert_eq!(
            session.solve(&opts).unwrap(),
            compiled.solve(&frozen, &opts).unwrap()
        );
    }

    #[test]
    fn session_rebuild_path_translates_contingency_ids() {
        // A disconnected query dispatches component-wise, which forces the
        // session's materialized-copy fallback; the certificate must still
        // reference the ORIGINAL tuple ids.
        let q = parse_query("A(x), R(x,y), B(u), S(u,v)").unwrap();
        let compiled = Engine::compile(&q);
        let db = build_db(
            &q,
            &[
                ("A", &[1]),
                ("A", &[2]),
                ("R", &[1, 10]),
                ("R", &[2, 11]),
                ("B", &[5]),
                ("B", &[6]),
                ("S", &[5, 50]),
                ("S", &[6, 60]),
            ],
        );
        let frozen = db.freeze();
        let opts = SolveOptions::new();
        let mut session = compiled.session(&frozen).unwrap();
        // Delete one B-side witness: the B/S component now needs 1 deletion,
        // the A/R component 2, so B/S still wins.
        let b = db.schema().relation_id("B").unwrap();
        let b5 = db.lookup(b, &[5u64]).unwrap();
        session.delete(&[b5]);
        let report = session.solve(&opts).unwrap();
        assert_eq!(report.method, SolveMethod::ComponentMinimum);
        assert_eq!(report.resilience, Resilience::Finite(1));
        if let Some(gamma) = &report.contingency {
            // Every certificate tuple must exist in the ORIGINAL store and
            // falsify the live view when removed.
            let mut deleted: HashSet<TupleId> = gamma.iter().copied().collect();
            assert!(
                !deleted.contains(&b5),
                "deleted tuple cannot be deleted again"
            );
            deleted.insert(b5);
            assert!(!database::evaluate(&q, &db.without(&deleted)));
        }
    }

    #[test]
    fn session_on_catalogue_special_query_matches_from_scratch() {
        // q_TS3conf dispatches to a raw-store-scanning construction: the
        // session must transparently fall back to the materialized copy.
        let nq = catalogue::q_ts3conf();
        let compiled = Engine::compile(&nq.query);
        let db = build_db(
            &nq.query,
            &[
                ("T", &[1, 2]),
                ("S", &[1, 2]),
                ("R", &[1, 2]),
                ("T", &[3, 4]),
                ("R", &[3, 4]),
                ("R", &[5, 4]),
                ("R", &[5, 6]),
                ("S", &[5, 6]),
            ],
        );
        let frozen = db.freeze();
        let opts = SolveOptions::new();
        let mut session = compiled.session(&frozen).unwrap();
        let r = db.schema().relation_id("R").unwrap();
        let forced = db.lookup(r, &[1u64, 2]).unwrap();
        session.delete(&[forced]);
        let report = session.solve(&opts).unwrap();
        let gamma: HashSet<TupleId> = [forced].into_iter().collect();
        let scratch_report = compiled.solve(&db.without(&gamma).freeze(), &opts).unwrap();
        assert_eq!(report.resilience, scratch_report.resilience);
        assert_eq!(report.witnesses, scratch_report.witnesses);
    }

    #[test]
    fn parallel_enumeration_solves_identically() {
        let (q, dbs) = chain_instances(3);
        let compiled = Engine::compile(&q);
        for db in &dbs {
            let sequential = compiled.solve(db, &SolveOptions::new()).unwrap();
            let parallel = compiled
                .solve(db, &SolveOptions::new().enumeration_threads(4))
                .unwrap();
            assert_eq!(sequential, parallel);
        }
    }

    #[test]
    fn shared_session_matches_borrowed_session() {
        // The Arc-owning session shape (registry storage) must behave
        // exactly like the borrowed shape, including across a thread move.
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let compiled = Arc::new(Engine::compile(&q));
        let db = build_db(&q, &[("R", &[1, 2]), ("R", &[2, 3]), ("R", &[3, 3])]);
        let frozen = Arc::new(db.freeze());
        let opts = SolveOptions::new();
        let mut shared = compiled.session_shared(&frozen, &opts).unwrap();
        let mut borrowed = compiled.session(&frozen).unwrap();

        let r = db.schema().relation_id("R").unwrap();
        let t33 = db.lookup(r, &[3u64, 3]).unwrap();
        assert_eq!(shared.delete(&[t33]), borrowed.delete(&[t33]));
        assert_eq!(shared.deleted_tuples(), borrowed.deleted_tuples());
        assert_eq!(shared.solve(&opts).unwrap(), borrowed.solve(&opts).unwrap());
        // 'static: the session moves into a spawned thread and keeps
        // working there (this is what lets resd store it per connection).
        let report = std::thread::spawn(move || {
            shared.restore(&[t33]);
            shared.solve(&SolveOptions::new()).unwrap()
        })
        .join()
        .unwrap();
        borrowed.restore(&[t33]);
        assert_eq!(report, borrowed.solve(&opts).unwrap());
    }

    #[test]
    fn deleted_tuples_are_sorted_ascending() {
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let compiled = Engine::compile(&q);
        let db = build_db(
            &q,
            &[
                ("R", &[1, 2]),
                ("R", &[2, 3]),
                ("R", &[3, 4]),
                ("R", &[4, 5]),
            ],
        );
        let frozen = db.freeze();
        let mut session = compiled.session(&frozen).unwrap();
        // Delete in descending/scrambled order; the echo must come back
        // ascending regardless.
        session.delete(&[TupleId(3), TupleId(0), TupleId(2)]);
        assert_eq!(
            session.deleted_tuples(),
            vec![TupleId(0), TupleId(2), TupleId(3)]
        );
    }

    #[test]
    fn whatif_batch_matches_sequential_session_solves() {
        // Every hypothetical set must answer exactly what a cloned session
        // with that set deleted answers — across a witness-driven
        // NP-complete query, a raw-store-scanning catalogue query, and a
        // component-wise (disconnected) query.
        for text in ["R(x,y), R(y,z)", "A(x), R(x,y), B(u), S(u,v)"] {
            let q = parse_query(text).unwrap();
            let compiled = Engine::compile(&q);
            let mut db = Database::for_query(&q);
            for rel in q.schema().relation_ids() {
                let name = q.schema().name(rel).to_string();
                match q.schema().arity(rel) {
                    1 => {
                        for v in 0..4u64 {
                            db.insert_named(&name, &[v]);
                        }
                    }
                    _ => {
                        for (a, b) in [(0u64, 1u64), (1, 2), (2, 2), (2, 3), (3, 1)] {
                            db.insert_named(&name, &[a, b]);
                        }
                    }
                }
            }
            let frozen = db.freeze();
            let opts = SolveOptions::new();
            let session = compiled.session(&frozen).unwrap();
            let n = frozen.num_tuples() as u32;
            let sets: Vec<Vec<TupleId>> = (0..n)
                .map(|i| vec![TupleId(i), TupleId((i + 3) % n)])
                .chain([Vec::new(), (0..n).map(TupleId).collect()])
                .collect();
            let batch = session.solve_whatif_batch(&sets, &opts);
            assert_eq!(batch.len(), sets.len());
            for (set, got) in sets.iter().zip(&batch) {
                let mut clone = session.clone();
                clone.delete(set);
                let expected = clone.solve(&SolveOptions::new().warm_start(false));
                match (got, &expected) {
                    (Ok(g), Ok(e)) => {
                        assert_eq!(g.resilience, e.resilience, "{text} {set:?}");
                        assert_eq!(g.witnesses, e.witnesses, "{text} {set:?}");
                        assert_eq!(g.method, e.method, "{text} {set:?}");
                        assert_eq!(
                            g.contingency.as_ref().map(Vec::len),
                            e.contingency.as_ref().map(Vec::len),
                            "{text} {set:?}"
                        );
                        // Certificates reference original, non-deleted ids.
                        if let Some(gamma) = &g.contingency {
                            for t in gamma {
                                assert!(!set.contains(t), "{text}: certificate re-deletes");
                                assert!(t.index() < frozen.num_tuples());
                            }
                        }
                    }
                    (Err(_), Err(_)) => {}
                    _ => panic!("{text} {set:?}: {got:?} vs {expected:?}"),
                }
            }
        }
    }

    #[test]
    fn whatif_batch_applies_on_top_of_current_deletions() {
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let compiled = Engine::compile(&q);
        let db = build_db(
            &q,
            &[
                ("R", &[1, 2]),
                ("R", &[2, 3]),
                ("R", &[3, 3]),
                ("R", &[3, 4]),
            ],
        );
        let frozen = db.freeze();
        let opts = SolveOptions::new();
        let mut session = compiled.session(&frozen).unwrap();
        session.delete(&[TupleId(0)]);
        let before = session.deleted_tuples();
        let live_before = session.live_witnesses();
        let sets = vec![
            vec![TupleId(2)],
            vec![TupleId(0)],
            vec![TupleId(1), TupleId(3)],
        ];
        let batch = session.solve_whatif_batch(&sets, &opts);
        // The session itself is untouched.
        assert_eq!(session.deleted_tuples(), before);
        assert_eq!(session.live_witnesses(), live_before);
        for (set, got) in sets.iter().zip(&batch) {
            let mut clone = session.clone();
            clone.delete(set);
            let expected = clone.solve(&SolveOptions::new().warm_start(false)).unwrap();
            let got = got.as_ref().unwrap();
            assert_eq!(got.resilience, expected.resilience, "{set:?}");
            assert_eq!(got.witnesses, expected.witnesses, "{set:?}");
        }
    }

    #[test]
    fn resilience_display_and_conversions() {
        assert_eq!(Resilience::Finite(3).to_string(), "3");
        assert_eq!(Resilience::Unfalsifiable.to_string(), "unfalsifiable");
        assert_eq!(Resilience::from(Some(2)), Resilience::Finite(2));
        assert_eq!(Resilience::from(None), Resilience::Unfalsifiable);
        assert!(Resilience::Finite(0).is_finite());
    }
}
