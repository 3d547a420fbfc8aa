//! Core resilience library — the paper's primary contribution, executable.
//!
//! The crate answers the question the paper studies: *given a Boolean
//! conjunctive query `q` (possibly with self-joins) and a database `D`, how
//! many endogenous tuples must be deleted to make `q` false?*  It provides:
//!
//! * [`exact`] — ground truth: minimum hitting set over the witness
//!   hypergraph by branch and bound, used for NP-complete queries, for the
//!   decision problem `RES(q)`, and to validate everything else;
//! * [`flow_algorithms`] — the generic polynomial constructions (witness-path
//!   flow for linear queries and 2-confluences, bipartite vertex cover for
//!   two-tuple witnesses, pair-node flow for unbound permutations, the
//!   Proposition 36 REP flow);
//! * [`special`] — the dedicated flow graphs of Propositions 13, 41 and 44
//!   (`q_A3perm-R`, `q_TS3conf`, `q_Swx3perm-R`);
//! * [`engine`] — the compiled, batched API: [`engine::Engine::compile`]
//!   runs classification + join-plan compilation once per query, and the
//!   resulting [`engine::CompiledQuery`] solves one frozen instance
//!   ([`engine::CompiledQuery::solve`]) or many in parallel
//!   ([`engine::CompiledQuery::solve_batch`]);
//! * [`ijp`] — Independent Join Paths (Section 9): verification of
//!   Definition 48 and the automated partition-enumeration search of
//!   Appendix C.2.
//!
//! ```
//! use cq::parse_query;
//! use database::Database;
//! use resilience_core::engine::{Engine, Resilience, SolveOptions};
//!
//! let q = parse_query("A(x), R(x,y), R(z,y), C(z)").unwrap(); // q_ACconf
//! let compiled = Engine::compile(&q);
//! assert!(compiled.classification().complexity.is_ptime());
//!
//! let mut db = Database::for_query(&q);
//! db.insert_named("A", &[1u64]);
//! db.insert_named("R", &[1u64, 2]);
//! db.insert_named("R", &[3u64, 2]);
//! db.insert_named("C", &[3u64]);
//! let report = compiled.solve(&db.freeze(), &SolveOptions::new()).unwrap();
//! assert_eq!(report.resilience, Resilience::Finite(1));
//! ```

pub mod approx;
pub mod cancel;
pub mod engine;
pub mod exact;
pub mod flow_algorithms;
pub mod ijp;
pub mod plancache;
pub mod shard;
pub mod special;

pub use approx::ResilienceBounds;
pub use cancel::CancelToken;
pub use engine::SolveMethod;
pub use engine::{
    AnytimeBounds, CompiledQuery, Engine, Resilience, Session, SharedSolveSession, SolveError,
    SolveOptions, SolveReport, SolveScratch, SolveSession,
};
pub use exact::{BudgetExhausted, CancelledSearch, ExactInterrupt, ExactResult, ExactSolver};
pub use flow_algorithms::FlowResult;
pub use plancache::{CachedCompile, PlanCache, PlanCacheStats};
pub use shard::{solve_sharded, solve_sharded_streaming, ShardInstance, ShardedOutcome};
