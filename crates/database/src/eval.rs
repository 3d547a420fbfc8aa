//! Boolean evaluation and witness enumeration for conjunctive queries.
//!
//! A *witness* (Section 2.1) is a valuation of all existential variables that
//! makes the query true; it determines one tuple per atom (tuples may repeat
//! across atoms when the query has self-joins — that sharing is exactly what
//! makes resilience with self-joins subtle).
//!
//! The enumerator runs a compiled [`QueryPlan`]: a join order plus, per atom,
//! the statically-resolved list of positions that *check* an already-bound
//! variable and positions that *bind* a fresh one, and the index probe to use
//! for candidate selection. The inner loop then touches only flat arrays — a
//! `Vec<Option<Constant>>` valuation indexed by `Var` and borrowed candidate
//! slices from the store's per-position bucket index — and performs no
//! per-tuple allocation or hashing.
//!
//! Plans come in two flavours. [`QueryPlan::compile`] is *instance-free*: the
//! join order is chosen from the query structure alone, so one plan can be
//! compiled per query and shared across many instances (this is what the
//! engine's batch API does). The per-call convenience entry points
//! ([`witnesses`], [`evaluate`]) instead use [`QueryPlan::compile_scaled`],
//! which additionally orders atoms by relation cardinality in the concrete
//! instance. All enumeration is generic over [`TupleStore`], so it runs
//! unchanged on a mutable [`Database`](crate::Database) or a compacted
//! [`FrozenDb`](crate::FrozenDb).
//!
//! Large instances can enumerate in parallel: [`collect_witnesses`]
//! partitions the first join step's candidate scan across scoped threads and
//! merges the per-thread results in deterministic (chunk) order, producing
//! output bit-identical to the sequential enumeration.

use crate::store::TupleStore;
use crate::tuple::{Constant, TupleId};
use cq::{Query, RelId};

/// A valuation of the query's variables (indexed by `Var`).
pub type Valuation = Vec<Constant>;

/// One witness of `D |= q`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// The value assigned to each variable of the query.
    pub valuation: Valuation,
    /// For each atom of the query (in atom order), the tuple it matched.
    pub atom_tuples: Vec<TupleId>,
}

impl Witness {
    /// The distinct tuples used by this witness, sorted.
    pub fn tuple_set(&self) -> Vec<TupleId> {
        let mut ts = self.atom_tuples.clone();
        ts.sort_unstable();
        ts.dedup();
        ts
    }
}

/// Maps the relation ids of `q`'s schema onto the relation ids of `db`'s
/// schema by name, or reports the first missing relation name.
pub fn try_relation_translation<S: TupleStore + ?Sized>(
    q: &Query,
    db: &S,
) -> Result<Vec<RelId>, String> {
    q.schema()
        .relation_ids()
        .map(|r| {
            let name = q.schema().name(r);
            db.schema()
                .relation_id(name)
                .ok_or_else(|| name.to_string())
        })
        .collect()
}

/// Infallible [`try_relation_translation`]: panics if a relation of the
/// query is missing from the store schema.
fn relation_translation<S: TupleStore + ?Sized>(q: &Query, db: &S) -> Vec<RelId> {
    try_relation_translation(q, db)
        .unwrap_or_else(|name| panic!("database schema is missing relation {name}"))
}

/// What to do with one argument position of an atom when matching a
/// candidate tuple, resolved at plan-compile time.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// The variable is already bound (by an earlier atom, or by an earlier
    /// position of this atom): the tuple value must equal it.
    Check { pos: u32, var: u32 },
    /// First occurrence of the variable along the join order: bind it.
    Bind { pos: u32, var: u32 },
}

/// The compiled matching procedure for one atom at its place in the join
/// order.
#[derive(Clone, Debug)]
struct AtomPlan {
    /// Index of the atom in the query (for `Witness::atom_tuples`).
    atom_idx: u32,
    /// The *query-side* relation of the atom; resolved against the concrete
    /// store through the translation table at enumeration time.
    rel: RelId,
    /// `(pos, var)` of the first argument whose variable is bound by earlier
    /// atoms — candidates come from the position index; `None` means no
    /// argument is pre-bound and the whole relation is scanned.
    probe: Option<(u32, u32)>,
    /// Check/bind steps in argument order (the probe position is skipped:
    /// index candidates match it by construction).
    steps: Vec<Step>,
    /// Variables newly bound by this atom; reset on backtrack.
    binds: Vec<u32>,
}

/// A compiled join: atom order plus per-atom matching steps.
///
/// Compile once with [`QueryPlan::compile`] and reuse across every instance
/// of the query; the plan holds no reference to any store.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    order: Vec<AtomPlan>,
    num_vars: usize,
    num_atoms: usize,
}

impl QueryPlan {
    /// Compiles an instance-free plan for `q`: greedy join order preferring
    /// atoms with an already-bound variable (they can use the position
    /// index), breaking ties towards lower arity (unary anchors first) and
    /// then query order.
    pub fn compile(q: &Query) -> QueryPlan {
        Self::compile_with(q, |_| 0)
    }

    /// Compiles a plan ordered by the relation cardinalities of a concrete
    /// store: among remaining atoms, prefer one with an already-bound
    /// variable, then the smallest relation. This is the per-call heuristic
    /// used by [`witnesses`] and [`evaluate`].
    pub fn compile_scaled<S: TupleStore + ?Sized>(q: &Query, db: &S) -> QueryPlan {
        let translation = relation_translation(q, db);
        Self::compile_with(q, |atom_idx| {
            db.tuples_of(translation[q.atom(atom_idx).relation.index()])
                .len()
        })
    }

    fn compile_with(q: &Query, size_of_atom: impl Fn(usize) -> usize) -> QueryPlan {
        let num_atoms = q.num_atoms();
        let mut bound = vec![false; q.num_vars()];
        let mut remaining: Vec<usize> = (0..num_atoms).collect();
        let mut order: Vec<AtomPlan> = Vec::with_capacity(num_atoms);
        while !remaining.is_empty() {
            let (choice, _) = remaining
                .iter()
                .enumerate()
                .min_by_key(|&(_, &i)| {
                    let atom = q.atom(i);
                    let has_bound = atom.args.iter().any(|v| bound[v.index()]);
                    (!has_bound, size_of_atom(i), atom.args.len(), i)
                })
                .expect("remaining is non-empty");
            let atom_idx = remaining.swap_remove(choice);
            let atom = q.atom(atom_idx);

            let probe = atom
                .args
                .iter()
                .enumerate()
                .find(|(_, v)| bound[v.index()])
                .map(|(pos, v)| (pos as u32, v.0));
            let mut steps = Vec::with_capacity(atom.args.len());
            let mut binds = Vec::new();
            for (pos, &var) in atom.args.iter().enumerate() {
                if probe == Some((pos as u32, var.0)) {
                    continue; // index candidates already match this position
                }
                if bound[var.index()] {
                    steps.push(Step::Check {
                        pos: pos as u32,
                        var: var.0,
                    });
                } else {
                    bound[var.index()] = true;
                    binds.push(var.0);
                    steps.push(Step::Bind {
                        pos: pos as u32,
                        var: var.0,
                    });
                }
            }
            order.push(AtomPlan {
                atom_idx: atom_idx as u32,
                rel: atom.relation,
                probe,
                steps,
                binds,
            });
        }
        QueryPlan {
            order,
            num_vars: q.num_vars(),
            num_atoms,
        }
    }

    /// Number of atoms covered by the plan.
    pub fn num_atoms(&self) -> usize {
        self.num_atoms
    }
}

/// Does `db |= q`? Short-circuits on the first witness.
pub fn evaluate<S: TupleStore + ?Sized>(q: &Query, db: &S) -> bool {
    let mut found = false;
    enumerate(q, db, &mut |_| {
        found = true;
        false // stop
    });
    found
}

/// Enumerates all witnesses of `db |= q`.
pub fn witnesses<S: TupleStore + ?Sized>(q: &Query, db: &S) -> Vec<Witness> {
    let mut out = Vec::new();
    enumerate(q, db, &mut |w| {
        out.push(w);
        true // keep going
    });
    out
}

/// Enumerates all witnesses through a precompiled plan into `out` (which is
/// cleared first, so its allocation can be reused across instances): the
/// sequential, never-stopping form of [`collect_witnesses`].
pub fn witnesses_with_plan_into<S: TupleStore + ?Sized>(
    plan: &QueryPlan,
    translation: &[RelId],
    db: &S,
    out: &mut Vec<Witness>,
) {
    out.clear();
    collect_part(plan, translation, db, None, out, &|| false);
}

/// How often the enumerator consults its stop callback: every 1024
/// witnesses, so the check is amortized to nothing on the happy path while
/// cancellation latency stays bounded (a witness is produced in
/// microseconds).
const STOP_CHECK_MASK: usize = 1023;

/// Enumerates all witnesses through a precompiled plan into `out` (cleared
/// first, so its allocation can be reused across instances) on up to
/// `threads` scoped threads, consulting `should_stop` every 1024 witnesses
/// per thread.
///
/// With more than one thread, the candidate list of the *first* join step (a
/// whole-relation scan — the first atom of a plan never has a bound variable
/// to probe) is partitioned into contiguous chunks, one scoped thread
/// enumerates each chunk into its own `Vec<Witness>`, and the per-thread
/// vectors are concatenated in chunk order. Because the sequential
/// enumeration visits the first atom's candidates in exactly that slice
/// order and the deeper levels are unaffected by the split, the merged
/// output is **bit-identical** to the sequential one — the engine, the
/// deletion sessions and the differential tests all rely on this
/// determinism. `threads` is an upper bound, clamped to the candidate count;
/// a plan whose first atom probes (which only a hand-built plan could
/// produce) runs sequentially.
///
/// Returns `true` when the enumeration ran to completion; `false` when
/// `should_stop` ended it early (`out` then holds a partial list that must
/// not be used as a witness set).
pub fn collect_witnesses<S: TupleStore + Sync + ?Sized>(
    plan: &QueryPlan,
    translation: &[RelId],
    db: &S,
    threads: usize,
    out: &mut Vec<Witness>,
    should_stop: &(dyn Fn() -> bool + Sync),
) -> bool {
    out.clear();
    if plan.num_atoms == 0 {
        return true;
    }
    let first = &plan.order[0];
    let candidates: &[TupleId] = match first.probe {
        None => db.tuples_of(translation[first.rel.index()]),
        Some(_) => &[],
    };
    let threads = threads.min(candidates.len()).max(1);
    if threads <= 1 {
        return collect_part(plan, translation, db, None, out, should_stop);
    }
    let chunk = candidates.len().div_ceil(threads);
    let parts: Vec<(Vec<Witness>, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = candidates
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    let completed =
                        collect_part(plan, translation, db, Some(part), &mut local, should_stop);
                    (local, completed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("witness enumeration thread panicked"))
            .collect()
    });
    let mut completed = true;
    for (mut part, part_completed) in parts {
        out.append(&mut part);
        completed &= part_completed;
    }
    completed
}

/// One thread of [`collect_witnesses`]: appends to `out` the witnesses whose
/// first-step tuple lies in `first` (every witness when `None`), and returns
/// whether it ran to completion.
fn collect_part<S: TupleStore + ?Sized>(
    plan: &QueryPlan,
    translation: &[RelId],
    db: &S,
    first: Option<&[TupleId]>,
    out: &mut Vec<Witness>,
    should_stop: &(dyn Fn() -> bool + Sync),
) -> bool {
    let mut stopped = false;
    let mut sink = |w: Witness| {
        out.push(w);
        if out.len() & STOP_CHECK_MASK == 0 && should_stop() {
            stopped = true;
            return false;
        }
        true
    };
    match first {
        None => enumerate_with_plan(plan, translation, db, &mut sink),
        Some(candidates) => {
            let mut valuation: Vec<Option<Constant>> = vec![None; plan.num_vars];
            let mut chosen: Vec<TupleId> = vec![TupleId(0); plan.num_atoms];
            search_candidates(
                plan,
                translation,
                db,
                0,
                candidates,
                &mut valuation,
                &mut chosen,
                &mut sink,
                &mut true,
            );
        }
    }
    !stopped
}

/// Core backtracking join with a per-call plan. Calls `sink` for each
/// witness; `sink` returns `false` to stop the enumeration early.
fn enumerate<S: TupleStore + ?Sized>(q: &Query, db: &S, sink: &mut dyn FnMut(Witness) -> bool) {
    if q.num_atoms() == 0 {
        return;
    }
    let plan = QueryPlan::compile_scaled(q, db);
    let translation = relation_translation(q, db);
    enumerate_with_plan(&plan, &translation, db, sink);
}

/// Core backtracking join over a precompiled plan. `translation` maps the
/// query-side relation ids to the store's (see [`try_relation_translation`]).
pub fn enumerate_with_plan<S: TupleStore + ?Sized>(
    plan: &QueryPlan,
    translation: &[RelId],
    db: &S,
    sink: &mut dyn FnMut(Witness) -> bool,
) {
    if plan.num_atoms == 0 {
        return;
    }
    let mut valuation: Vec<Option<Constant>> = vec![None; plan.num_vars];
    let mut chosen: Vec<TupleId> = vec![TupleId(0); plan.num_atoms];
    let mut running = true;
    search(
        plan,
        translation,
        db,
        0,
        &mut valuation,
        &mut chosen,
        sink,
        &mut running,
    );
}

#[allow(clippy::too_many_arguments)]
fn search<S: TupleStore + ?Sized>(
    plan: &QueryPlan,
    translation: &[RelId],
    db: &S,
    depth: usize,
    valuation: &mut [Option<Constant>],
    chosen: &mut [TupleId],
    sink: &mut dyn FnMut(Witness) -> bool,
    running: &mut bool,
) {
    if depth == plan.order.len() {
        let full: Valuation = valuation
            .iter()
            .map(|v| v.expect("all variables bound at a leaf"))
            .collect();
        let witness = Witness {
            valuation: full,
            atom_tuples: chosen.to_vec(),
        };
        if !sink(witness) {
            *running = false;
        }
        return;
    }
    let ap = &plan.order[depth];
    let rel = translation[ap.rel.index()];
    let candidates: &[TupleId] = match ap.probe {
        Some((pos, var)) => {
            let value = valuation[var as usize].expect("probe variable is bound");
            db.tuples_matching(rel, pos as usize, value)
        }
        None => db.tuples_of(rel),
    };
    search_candidates(
        plan,
        translation,
        db,
        depth,
        candidates,
        valuation,
        chosen,
        sink,
        running,
    );
}

/// The candidate loop of [`search`] at one depth, with an explicit candidate
/// slice. [`collect_witnesses`] calls this directly at depth 0 with one
/// chunk of the first atom's scan per thread.
#[allow(clippy::too_many_arguments)]
fn search_candidates<S: TupleStore + ?Sized>(
    plan: &QueryPlan,
    translation: &[RelId],
    db: &S,
    depth: usize,
    candidates: &[TupleId],
    valuation: &mut [Option<Constant>],
    chosen: &mut [TupleId],
    sink: &mut dyn FnMut(Witness) -> bool,
    running: &mut bool,
) {
    let ap = &plan.order[depth];
    for &id in candidates {
        let values = db.values_of(id);
        let mut ok = true;
        for step in &ap.steps {
            match *step {
                Step::Check { pos, var } => {
                    if valuation[var as usize] != Some(values[pos as usize]) {
                        ok = false;
                        break;
                    }
                }
                Step::Bind { pos, var } => {
                    valuation[var as usize] = Some(values[pos as usize]);
                }
            }
        }
        if ok {
            chosen[ap.atom_idx as usize] = id;
            search(
                plan,
                translation,
                db,
                depth + 1,
                valuation,
                chosen,
                sink,
                running,
            );
        }
        for &var in &ap.binds {
            valuation[var as usize] = None;
        }
        if !*running {
            return;
        }
    }
}

/// Reference witness enumerator: plain nested loops over every atom's
/// relation with a straightforward consistency check, no join ordering, no
/// indexes. Exponentially slower than [`witnesses`] but obviously correct —
/// the differential tests assert the two agree on random inputs.
pub fn reference_witnesses<S: TupleStore + ?Sized>(q: &Query, db: &S) -> Vec<Witness> {
    let mut out = Vec::new();
    if q.num_atoms() == 0 {
        return out;
    }
    let translation = relation_translation(q, db);
    let mut chosen: Vec<TupleId> = vec![TupleId(0); q.num_atoms()];
    reference_search(q, db, &translation, 0, &mut chosen, &mut out);
    out
}

fn reference_search<S: TupleStore + ?Sized>(
    q: &Query,
    db: &S,
    translation: &[RelId],
    depth: usize,
    chosen: &mut Vec<TupleId>,
    out: &mut Vec<Witness>,
) {
    if depth == q.num_atoms() {
        // Recompute the valuation from scratch; inconsistent combinations
        // were already rejected below.
        let mut assignment: Vec<Option<Constant>> = vec![None; q.num_vars()];
        for (i, &id) in chosen.iter().enumerate() {
            let values = db.values_of(id);
            for (pos, &var) in q.atom(i).args.iter().enumerate() {
                assignment[var.index()] = Some(values[pos]);
            }
        }
        out.push(Witness {
            valuation: assignment.into_iter().map(|v| v.unwrap()).collect(),
            atom_tuples: chosen.clone(),
        });
        return;
    }
    let rel = translation[q.atom(depth).relation.index()];
    for &id in db.tuples_of(rel) {
        chosen[depth] = id;
        if reference_consistent(q, db, &chosen[..depth + 1]) {
            reference_search(q, db, translation, depth + 1, chosen, out);
        }
    }
}

/// Is the partial tuple choice consistent (every variable maps to a single
/// constant across all chosen atoms)?
fn reference_consistent<S: TupleStore + ?Sized>(q: &Query, db: &S, chosen: &[TupleId]) -> bool {
    let mut assignment: Vec<Option<Constant>> = vec![None; q.num_vars()];
    for (i, &id) in chosen.iter().enumerate() {
        let values = db.values_of(id);
        for (pos, &var) in q.atom(i).args.iter().enumerate() {
            match assignment[var.index()] {
                Some(c) if c != values[pos] => return false,
                Some(_) => {}
                None => assignment[var.index()] = Some(values[pos]),
            }
        }
    }
    true
}

/// Convenience for tests: the sorted multiset of `(valuation, atom_tuples)`
/// pairs, a canonical form for comparing two enumerators.
pub fn canonical_witnesses(ws: &[Witness]) -> Vec<(Vec<Constant>, Vec<TupleId>)> {
    let mut canon: Vec<(Vec<Constant>, Vec<TupleId>)> = ws
        .iter()
        .map(|w| (w.valuation.clone(), w.atom_tuples.clone()))
        .collect();
    canon.sort();
    canon
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Database;
    use cq::parse_query;

    #[test]
    fn paper_chain_example_has_three_witnesses() {
        // Section 2.1: q_chain over D = {R(1,2), R(2,3), R(3,3)} has witnesses
        // (1,2,3), (2,3,3), (3,3,3).
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let mut db = Database::for_query(&q);
        db.insert_named("R", &[1, 2]);
        db.insert_named("R", &[2, 3]);
        db.insert_named("R", &[3, 3]);
        assert!(evaluate(&q, &db));
        let ws = witnesses(&q, &db);
        assert_eq!(ws.len(), 3);
        let mut vals: Vec<Vec<u64>> = ws
            .iter()
            .map(|w| w.valuation.iter().map(|c| c.value()).collect())
            .collect();
        vals.sort();
        // Variable order is x, y, z as they appear in the query.
        assert_eq!(vals, vec![vec![1, 2, 3], vec![2, 3, 3], vec![3, 3, 3]]);
    }

    #[test]
    fn witness_tuple_sets_match_the_paper() {
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let mut db = Database::for_query(&q);
        let t1 = db.insert_named("R", &[1, 2]);
        let t2 = db.insert_named("R", &[2, 3]);
        let t3 = db.insert_named("R", &[3, 3]);
        let ws = witnesses(&q, &db);
        let mut sets: Vec<Vec<TupleId>> = ws.iter().map(|w| w.tuple_set()).collect();
        sets.sort();
        let mut expected = vec![vec![t1, t2], vec![t2, t3], vec![t3]];
        expected.sort();
        assert_eq!(sets, expected);
    }

    #[test]
    fn unsatisfied_query_has_no_witnesses() {
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let mut db = Database::for_query(&q);
        db.insert_named("R", &[1, 2]);
        assert!(!evaluate(&q, &db));
        assert!(witnesses(&q, &db).is_empty());
    }

    #[test]
    fn triangle_witnesses() {
        let q = parse_query("R(x,y), S(y,z), T(z,x)").unwrap();
        let mut db = Database::for_query(&q);
        db.insert_named("R", &[1, 2]);
        db.insert_named("S", &[2, 3]);
        db.insert_named("T", &[3, 1]);
        db.insert_named("T", &[3, 9]); // does not close the triangle
        let ws = witnesses(&q, &db);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].valuation, vec![Constant(1), Constant(2), Constant(3)]);
    }

    #[test]
    fn repeated_variable_atoms_bind_correctly() {
        let q = parse_query("R(x,x), R(x,y)").unwrap();
        let mut db = Database::for_query(&q);
        db.insert_named("R", &[1, 1]);
        db.insert_named("R", &[1, 2]);
        db.insert_named("R", &[2, 3]);
        let ws = witnesses(&q, &db);
        // x must be 1 (the only loop); y can be 1 or 2.
        assert_eq!(ws.len(), 2);
        for w in &ws {
            assert_eq!(w.valuation[0], Constant(1));
        }
    }

    #[test]
    fn unary_relations_evaluate() {
        let q = parse_query("R(x), S(x,y), R(y)").unwrap();
        let mut db = Database::for_query(&q);
        db.insert_named("R", &[1]);
        db.insert_named("R", &[2]);
        db.insert_named("S", &[1, 2]);
        db.insert_named("S", &[1, 3]);
        let ws = witnesses(&q, &db);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].valuation, vec![Constant(1), Constant(2)]);
    }

    #[test]
    fn self_join_witness_can_reuse_one_tuple() {
        // The witness (3,3,3) uses R(3,3) for both atoms: its tuple set has
        // size 1, which is the crux of Example in Section 2.1.
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let mut db = Database::for_query(&q);
        let t = db.insert_named("R", &[3, 3]);
        let ws = witnesses(&q, &db);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].atom_tuples, vec![t, t]);
        assert_eq!(ws[0].tuple_set(), vec![t]);
    }

    #[test]
    fn exogenous_atoms_still_join() {
        let q = parse_query("A(x), R^x(x,y), B(y)").unwrap();
        let mut db = Database::for_query(&q);
        db.insert_named("A", &[1]);
        db.insert_named("R", &[1, 2]);
        db.insert_named("B", &[2]);
        assert!(evaluate(&q, &db));
        assert_eq!(witnesses(&q, &db).len(), 1);
    }

    #[test]
    fn evaluation_scales_to_moderate_cross_products() {
        // 30x30 joins through a shared middle value; ensure enumeration
        // produces the full cross product without issue.
        let q = parse_query("R(x,y), S(y,z)").unwrap();
        let mut db = Database::for_query(&q);
        for i in 0..30u64 {
            db.insert_named("R", &[i, 1000]);
            db.insert_named("S", &[1000, 2000 + i]);
        }
        let ws = witnesses(&q, &db);
        assert_eq!(ws.len(), 900);
    }

    #[test]
    fn empty_query_is_never_satisfied() {
        // A query with no atoms is outside the paper's scope; we treat it as
        // unsatisfiable rather than vacuously true.
        let q = cq::Query::builder().build();
        let db = Database::new(q.schema().clone());
        assert!(!evaluate(&q, &db));
        assert!(reference_witnesses(&q, &db).is_empty());
    }

    #[test]
    fn reference_enumerator_agrees_on_the_paper_examples() {
        for (query, rows) in [
            (
                "R(x,y), R(y,z)",
                vec![("R", vec![1u64, 2]), ("R", vec![2, 3]), ("R", vec![3, 3])],
            ),
            (
                "R(x,x), R(x,y)",
                vec![("R", vec![1, 1]), ("R", vec![1, 2]), ("R", vec![2, 3])],
            ),
            (
                "R(x), S(x,y), R(y)",
                vec![("R", vec![1]), ("R", vec![2]), ("S", vec![1, 2])],
            ),
        ] {
            let q = parse_query(query).unwrap();
            let mut db = Database::for_query(&q);
            for (rel, vals) in rows {
                db.insert_named(rel, &vals);
            }
            assert_eq!(
                canonical_witnesses(&witnesses(&q, &db)),
                canonical_witnesses(&reference_witnesses(&q, &db)),
                "{query}"
            );
        }
    }

    #[test]
    fn plan_uses_index_probe_for_joined_atoms() {
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let mut db = Database::for_query(&q);
        db.insert_named("R", &[1, 2]);
        for plan in [QueryPlan::compile(&q), QueryPlan::compile_scaled(&q, &db)] {
            // The first atom scans; the second must probe on its bound
            // variable.
            assert!(plan.order[0].probe.is_none());
            assert!(plan.order[1].probe.is_some());
            assert_eq!(plan.num_atoms(), 2);
        }
    }

    #[test]
    fn static_plan_enumerates_the_same_witnesses() {
        let q = parse_query("A(x), R(x,y), R(z,y), C(z)").unwrap();
        let mut db = Database::for_query(&q);
        for (a, b) in [(1u64, 2u64), (4, 2), (5, 2), (1, 3), (5, 3)] {
            db.insert_named("R", &[a, b]);
        }
        for a in [1u64, 4] {
            db.insert_named("A", &[a]);
        }
        for c in [1u64, 5] {
            db.insert_named("C", &[c]);
        }
        let plan = QueryPlan::compile(&q);
        let translation = try_relation_translation(&q, &db).unwrap();
        let mut via_plan = Vec::new();
        witnesses_with_plan_into(&plan, &translation, &db, &mut via_plan);
        assert_eq!(
            canonical_witnesses(&via_plan),
            canonical_witnesses(&witnesses(&q, &db))
        );
        // The same plan works against the frozen copy and yields identical
        // witnesses in identical order.
        let frozen = db.freeze();
        let mut via_frozen = Vec::new();
        witnesses_with_plan_into(&plan, &translation, &frozen, &mut via_frozen);
        assert_eq!(via_plan, via_frozen);
    }

    #[test]
    fn parallel_enumeration_is_bit_identical_to_sequential() {
        let q = parse_query("A(x), R(x,y), R(z,y), C(z)").unwrap();
        let mut db = Database::for_query(&q);
        for a in 0..12u64 {
            for b in 0..12u64 {
                if (a * 7 + b * 3) % 4 == 0 {
                    db.insert_named("R", &[a, b]);
                }
            }
            db.insert_named("A", &[a]);
            db.insert_named("C", &[a]);
        }
        let plan = QueryPlan::compile(&q);
        let translation = try_relation_translation(&q, &db).unwrap();
        let mut sequential = Vec::new();
        witnesses_with_plan_into(&plan, &translation, &db, &mut sequential);
        assert!(!sequential.is_empty());
        let frozen = db.freeze();
        for threads in [1usize, 2, 3, 8, 1000] {
            let mut parallel = Vec::new();
            collect_witnesses(&plan, &translation, &db, threads, &mut parallel, &|| false);
            assert_eq!(sequential, parallel, "threads={threads}");
            // Same guarantee over the frozen store.
            collect_witnesses(
                &plan,
                &translation,
                &frozen,
                threads,
                &mut parallel,
                &|| false,
            );
            assert_eq!(sequential, parallel, "frozen, threads={threads}");
        }
    }

    #[test]
    fn parallel_enumeration_handles_empty_and_tiny_inputs() {
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let db = Database::for_query(&q);
        let plan = QueryPlan::compile(&q);
        let translation = try_relation_translation(&q, &db).unwrap();
        let mut out = vec![Witness {
            valuation: Vec::new(),
            atom_tuples: Vec::new(),
        }];
        collect_witnesses(&plan, &translation, &db, 4, &mut out, &|| false);
        assert!(out.is_empty());
        // One candidate: clamps to a single thread.
        let mut db = Database::for_query(&q);
        db.insert_named("R", &[1, 1]);
        collect_witnesses(&plan, &translation, &db, 4, &mut out, &|| false);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn translation_reports_missing_relations() {
        let q = parse_query("R(x,y), Z(y)").unwrap();
        let q_r_only = parse_query("R(x,y)").unwrap();
        let db = Database::for_query(&q_r_only);
        assert_eq!(try_relation_translation(&q, &db), Err("Z".to_string()));
    }
}
