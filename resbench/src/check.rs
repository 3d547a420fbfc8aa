//! Output checks that do not trust the solver under test.
//!
//! Contingency validity is decided by the benchmark's own hash join, not by
//! the planned enumeration in `database::eval`; optimality comes from the
//! exact solver where its search finishes; session steps are compared with
//! from-scratch solves; daemon responses with local renderings.

use cq::Query;
use database::{TupleId, TupleStore};
use resilience_core::engine::{Resilience, SolveReport};
use resilience_core::ExactSolver;
use server::jsonio::render_tuple;
use std::collections::{HashMap, HashSet};

/// A witness of `q` (one tuple per atom) over the tuples of `db` for which
/// `gone` is false, if there is one. A plain backtracking join over hash
/// indexes that the check builds itself.
pub fn find_witness<S: TupleStore + ?Sized>(
    q: &Query,
    db: &S,
    gone: &dyn Fn(TupleId) -> bool,
) -> Option<Vec<TupleId>> {
    let n = q.num_atoms();
    let mut rel_of = Vec::with_capacity(n);
    for i in 0..n {
        // A relation the store lacks is empty: no witness.
        rel_of.push(
            db.schema()
                .relation_id(q.schema().name(q.atom(i).relation))?,
        );
    }
    // Connected atom order: each atom after the first shares a variable with
    // an earlier one whenever the query allows it.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut bound: HashSet<usize> = HashSet::new();
    while order.len() < n {
        let next = (0..n)
            .filter(|i| !order.contains(i))
            .max_by_key(|&i| {
                let shared = q.atom(i).args.iter().any(|v| bound.contains(&v.index()));
                (shared, std::cmp::Reverse(i))
            })
            .expect("an atom is left");
        bound.extend(q.atom(next).args.iter().map(|v| v.index()));
        order.push(next);
    }
    // (atom, position, value) -> live tuples of the atom's relation.
    let mut index: HashMap<(usize, usize, u64), Vec<TupleId>> = HashMap::new();
    let mut all: Vec<Vec<TupleId>> = vec![Vec::new(); n];
    for i in 0..n {
        for &t in db.tuples_of(rel_of[i]) {
            if gone(t) {
                continue;
            }
            all[i].push(t);
            for (pos, c) in db.values_of(t).iter().enumerate() {
                index.entry((i, pos, c.value())).or_default().push(t);
            }
        }
    }
    let mut assignment: Vec<Option<u64>> = vec![None; q.num_vars()];
    let mut chosen = vec![TupleId(0); n];
    search(q, db, &order, 0, &all, &index, &mut assignment, &mut chosen).then_some(chosen)
}

#[allow(clippy::too_many_arguments)]
fn search<S: TupleStore + ?Sized>(
    q: &Query,
    db: &S,
    order: &[usize],
    depth: usize,
    all: &[Vec<TupleId>],
    index: &HashMap<(usize, usize, u64), Vec<TupleId>>,
    assignment: &mut Vec<Option<u64>>,
    chosen: &mut [TupleId],
) -> bool {
    let Some(&atom) = order.get(depth) else {
        return true;
    };
    let args = &q.atom(atom).args;
    let candidates: &[TupleId] = match args
        .iter()
        .enumerate()
        .find_map(|(pos, v)| assignment[v.index()].map(|c| (pos, c)))
    {
        Some((pos, c)) => index.get(&(atom, pos, c)).map_or(&[], Vec::as_slice),
        None => &all[atom],
    };
    for &t in candidates {
        let values = db.values_of(t);
        let mut newly: Vec<usize> = Vec::new();
        let mut ok = true;
        for (pos, v) in args.iter().enumerate() {
            let c = values[pos].value();
            match assignment[v.index()] {
                Some(b) if b != c => {
                    ok = false;
                    break;
                }
                Some(_) => {}
                None => {
                    assignment[v.index()] = Some(c);
                    newly.push(v.index());
                }
            }
        }
        chosen[atom] = t;
        if ok && search(q, db, order, depth + 1, all, index, assignment, chosen) {
            for v in newly {
                assignment[v] = None;
            }
            return true;
        }
        for v in newly {
            assignment[v] = None;
        }
    }
    false
}

/// Checks a contingency set Γ reported with resilience `rho` for `q` over
/// `db` minus the tuples already `deleted`: Γ holds `rho` distinct live
/// tuples of relations with an endogenous atom, and removing them leaves no
/// witness.
pub fn contingency<S: TupleStore + ?Sized>(
    q: &Query,
    db: &S,
    rho: usize,
    gamma: &[TupleId],
    deleted: &[bool],
) -> Result<(), String> {
    let distinct: HashSet<TupleId> = gamma.iter().copied().collect();
    if distinct.len() != gamma.len() {
        return Err("contingency set repeats a tuple".into());
    }
    if gamma.len() != rho {
        return Err(format!(
            "|contingency| = {} but resilience = {rho}",
            gamma.len()
        ));
    }
    let endogenous: HashSet<&str> = q
        .atoms()
        .iter()
        .filter(|a| !a.exogenous)
        .map(|a| q.schema().name(a.relation))
        .collect();
    for &t in gamma {
        if t.index() >= db.num_tuples() || deleted.get(t.index()).copied().unwrap_or(false) {
            return Err(format!(
                "contingency tuple {} is not in the instance",
                t.index()
            ));
        }
        let rel = db.schema().name(db.relation_of(t));
        if !endogenous.contains(rel) {
            return Err(format!(
                "contingency tuple {} is exogenous ({rel})",
                t.index()
            ));
        }
    }
    let gone =
        |t: TupleId| distinct.contains(&t) || deleted.get(t.index()).copied().unwrap_or(false);
    if let Some(w) = find_witness(q, db, &gone) {
        let facts: Vec<String> = w.iter().map(|&t| render_tuple(db, t)).collect();
        return Err(format!(
            "the witness {} survives the contingency set",
            facts.join(", ")
        ));
    }
    Ok(())
}

/// Checks a solve report: a finite resilience needs a witness to exist
/// (or be 0) and, where the method returns one, a valid contingency set.
pub fn report<S: TupleStore + ?Sized>(
    q: &Query,
    db: &S,
    report: &SolveReport,
    deleted: &[bool],
) -> Result<(), String> {
    let Resilience::Finite(rho) = report.resilience else {
        return Err("benchmark inputs are falsifiable, got unfalsifiable".into());
    };
    let alive = find_witness(q, db, &|t: TupleId| {
        deleted.get(t.index()).copied().unwrap_or(false)
    })
    .is_some();
    if alive != (rho > 0) {
        return Err(format!(
            "resilience {rho} but the query is {}satisfied",
            if alive { "" } else { "not " }
        ));
    }
    match &report.contingency {
        Some(gamma) => contingency(q, db, rho, gamma, deleted),
        None => Ok(()),
    }
}

/// Outcome of comparing a flow result with exact search.
#[derive(Debug, PartialEq, Eq)]
pub enum Agreement {
    Agrees,
    /// The exact search ran out of nodes; nothing was compared.
    Unfinished,
}

/// Compares a flow-dispatched resilience with [`ExactSolver`] on the same
/// instance, within `node_budget` search nodes.
pub fn flow_vs_exact<S: TupleStore + ?Sized>(
    q: &Query,
    db: &S,
    flow_rho: Resilience,
    node_budget: usize,
) -> Result<Agreement, String> {
    match ExactSolver::with_node_limit(node_budget).try_resilience(q, db) {
        Ok(exact) => {
            let exact: Resilience = exact.resilience.into();
            if exact == flow_rho {
                Ok(Agreement::Agrees)
            } else {
                Err(format!(
                    "flow resilience {flow_rho} but exact search finds {exact}"
                ))
            }
        }
        Err(_) => Ok(Agreement::Unfinished),
    }
}

/// A single-tuple delete may lower ρ by at most one and never raise it; a
/// single-tuple restore may raise it by at most one and never lower it.
pub fn session_step(before: usize, after: usize, deleted: bool) -> Result<(), String> {
    let ok = if deleted {
        after <= before && before - after <= 1
    } else {
        after >= before && after - before <= 1
    };
    if ok {
        Ok(())
    } else {
        let verb = if deleted { "delete" } else { "restore" };
        Err(format!(
            "one {verb} moved resilience from {before} to {after}"
        ))
    }
}

/// Session step against a from-scratch solve of the reduced instance.
pub fn session_vs_scratch(session: Resilience, scratch: Resilience) -> Result<(), String> {
    if session == scratch {
        Ok(())
    } else {
        Err(format!(
            "session resilience {session} but a from-scratch solve gives {scratch}"
        ))
    }
}

/// A daemon response against the local rendering of the same computation.
pub fn remote_vs_local(what: &str, remote: &str, local: &str) -> Result<(), String> {
    if remote == local {
        Ok(())
    } else {
        Err(format!(
            "{what}: remote {remote} differs from local {local}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::parse_query;
    use database::Database;
    use resilience_core::engine::SolveMethod;

    /// `R(x,y), R(y,z)` over the path 1→2→3→3: ρ = 2 ({R(2,3), R(3,3)}).
    fn chain() -> (Query, Database, Vec<TupleId>) {
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let mut db = Database::for_query(&q);
        let ids = vec![
            db.insert_named("R", &[1u64, 2]),
            db.insert_named("R", &[2u64, 3]),
            db.insert_named("R", &[3u64, 3]),
        ];
        (q, db, ids)
    }

    fn exact_report(rho: usize, gamma: Option<Vec<TupleId>>) -> SolveReport {
        SolveReport {
            resilience: Resilience::Finite(rho),
            contingency: gamma,
            method: SolveMethod::ExactBranchAndBound,
            witnesses: 2,
            nodes_explored: 0,
        }
    }

    #[test]
    fn a_valid_contingency_set_passes() {
        let (q, db, t) = chain();
        assert_eq!(contingency(&q, &db, 2, &[t[1], t[2]], &[]), Ok(()));
        assert!(report(&q, &db, &exact_report(2, Some(vec![t[1], t[2]])), &[]).is_ok());
    }

    #[test]
    fn a_set_that_leaves_a_witness_fails() {
        let (q, db, t) = chain();
        // R(1,2) alone leaves R(2,3), R(3,3) and R(3,3), R(3,3).
        let err = contingency(&q, &db, 1, &[t[0]], &[]).unwrap_err();
        assert!(err.contains("R(2,3), R(3,3) survives"), "{err}");
    }

    #[test]
    fn a_size_that_disagrees_with_rho_fails() {
        let (q, db, t) = chain();
        assert!(contingency(&q, &db, 3, &[t[1], t[2]], &[]).is_err());
        assert!(contingency(&q, &db, 2, &[t[2], t[2]], &[]).is_err());
    }

    #[test]
    fn an_exogenous_or_deleted_tuple_fails() {
        let q = parse_query("A(x), R^x(x,y), B(y)").unwrap();
        let mut db = Database::for_query(&q);
        db.insert_named("A", &[1u64]);
        let r = db.insert_named("R", &[1u64, 2]);
        let b = db.insert_named("B", &[2u64]);
        assert!(contingency(&q, &db, 1, &[r], &[])
            .unwrap_err()
            .contains("exogenous"));
        assert_eq!(contingency(&q, &db, 1, &[b], &[]), Ok(()));
        let mut deleted = vec![false; db.num_tuples()];
        deleted[b.index()] = true;
        assert!(contingency(&q, &db, 1, &[b], &deleted).is_err());
    }

    #[test]
    fn a_zero_resilience_on_a_satisfied_query_fails() {
        let (q, db, _) = chain();
        assert!(report(&q, &db, &exact_report(0, Some(vec![])), &[]).is_err());
    }

    #[test]
    fn a_flow_value_that_exact_search_refutes_fails() {
        let (q, db, _) = chain();
        assert_eq!(
            flow_vs_exact(&q, &db, Resilience::Finite(2), 10_000),
            Ok(Agreement::Agrees)
        );
        assert!(flow_vs_exact(&q, &db, Resilience::Finite(1), 10_000).is_err());
        assert_eq!(
            flow_vs_exact(&q, &db, Resilience::Finite(1), 0),
            Ok(Agreement::Unfinished)
        );
    }

    #[test]
    fn session_steps_move_rho_by_at_most_one_in_the_right_direction() {
        assert!(session_step(3, 2, true).is_ok());
        assert!(session_step(3, 3, true).is_ok());
        assert!(session_step(3, 4, true).is_err());
        assert!(session_step(3, 1, true).is_err());
        assert!(session_step(2, 3, false).is_ok());
        assert!(session_step(2, 1, false).is_err());
        assert!(session_step(2, 4, false).is_err());
        assert!(session_vs_scratch(Resilience::Finite(2), Resilience::Finite(2)).is_ok());
        assert!(session_vs_scratch(Resilience::Finite(2), Resilience::Finite(1)).is_err());
    }

    #[test]
    fn a_remote_rendering_that_differs_by_one_byte_fails() {
        assert!(remote_vs_local("solve", "{\"a\": 1}", "{\"a\": 1}").is_ok());
        assert!(remote_vs_local("solve", "{\"a\": 1}", "{\"a\": 2}").is_err());
    }

    #[test]
    fn the_join_handles_repeated_variables_and_disconnected_atoms() {
        let q = parse_query("R(x,x), S(u,v)").unwrap();
        let mut db = Database::for_query(&q);
        let r12 = db.insert_named("R", &[1u64, 2]);
        let s = db.insert_named("S", &[5u64, 6]);
        assert_eq!(find_witness(&q, &db, &|_| false), None);
        let r33 = db.insert_named("R", &[3u64, 3]);
        assert_eq!(find_witness(&q, &db, &|_| false), Some(vec![r33, s]));
        assert_eq!(find_witness(&q, &db, &|t| t == r33), None);
        assert_eq!(find_witness(&q, &db, &|t| t == s), None);
        assert!(find_witness(&q, &db, &|t| t == r12).is_some());
    }
}
