//! Database-instance substrate for the resilience library.
//!
//! The paper studies Boolean conjunctive queries over finite database
//! instances `D = (R_1^D, ..., R_l^D)` and defines resilience in terms of the
//! *witnesses* of `D |= q`: valuations of the existential variables that make
//! the query true, each of which pins down a set of at most `m` tuples
//! (Section 2.1). This crate provides:
//!
//! * [`Constant`] values and an optional string interner ([`ConstPool`]) for
//!   readable gadget constructions;
//! * [`Database`] instances keyed by the owning query's [`cq::Schema`], with
//!   per-position hash indexes for join evaluation, and their immutable
//!   CSR-compacted counterpart [`FrozenDb`] ([`Database::freeze`]) used by
//!   the engine's solve path;
//! * the [`TupleStore`] trait, the shared read surface both instance types
//!   expose to the solvers;
//! * Boolean evaluation and full witness enumeration ([`eval`]), driven by
//!   reusable compiled [`QueryPlan`]s;
//! * the *witness hypergraph* ([`witness::WitnessSet`]) — every witness
//!   reduced to its set of deletable (endogenous) tuples, stored as flat CSR
//!   incidence in both directions ([`witness::WitnessIndex`]) — which is the
//!   common input of the exact solver, the flow algorithms, the IJP
//!   machinery and the engine's deletion-aware solve sessions.

pub mod arena;
pub mod eval;
pub mod frozen;
pub mod fx;
pub mod instance;
pub mod interner;
pub mod shard;
pub mod snapshot;
pub mod store;
pub mod tuple;
pub mod witness;

pub use eval::{
    canonical_witnesses, collect_witnesses, evaluate, reference_witnesses,
    try_relation_translation, witnesses, witnesses_with_plan_into, QueryPlan, Valuation, Witness,
};
pub use frozen::FrozenDb;
pub use fx::{FxHashMap, FxHashSet};
pub use instance::Database;
pub use interner::ConstPool;
pub use shard::{Shard, ShardPlan, StreamTuple};
pub use snapshot::{SnapshotError, SnapshotInfo};
pub use store::{copy_without, copy_without_mask, TupleStore};
pub use tuple::{Constant, TupleId};
pub use witness::{
    ReducedScratch, ReducedSets, ReducedSetsLive, WitnessIndex, WitnessSet, WitnessView,
};
