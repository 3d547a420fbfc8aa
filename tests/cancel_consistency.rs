//! Interrupted solves must not poison a [`SolveSession`]: after
//! `BudgetExhausted` or `Cancelled`, the session's deletion state, witness
//! counters and caches are untouched, and the next solve answers exactly
//! what a from-scratch solve over the reduced instance answers.
//!
//! The session dispatches through three distinct shapes, all covered here:
//!
//! 1. **zero-deletion** — dispatch on the session's own witness set;
//! 2. **raw-store scan** — component-wise / catalogue targets that need
//!    deletions physically absent (a reduced copy is materialized);
//! 3. **live view** — survivor iteration over the shared witness index,
//!    with a warm-start incumbent when one is cached, or the resident warm
//!    flow network on the flow dispatches.

use cq::classify::{Complexity, PtimeAlgorithm};
use database::{copy_without_mask, Database, TupleId};
use resilience_core::engine::{Engine, Resilience, SolveError, SolveMethod, SolveOptions};
use resilience_core::CancelToken;
use std::collections::HashSet;
use std::time::Duration;
use workloads::Workload;

/// NP-hard vertex-cover query (Proposition 9): solves through the exact
/// branch-and-bound, so both node budgets and cancellation apply.
const QVC: &str = "R(x), S(x,y), R(y)";

/// Disconnected P-time query (Section 4.2): its dispatch scans the raw
/// store, which is the one session shape that materializes a reduced copy.
const QCOMP: &str = "A(x), R(x,y), R(z,w), B(w)";

/// A pre-cancelled token: fires before any solving work, the deterministic
/// way to exercise the cancellation paths without racing a real deadline.
fn fired() -> CancelToken {
    let token = CancelToken::new();
    token.cancel();
    token
}

fn vc_instance(nodes: u64, density: f64) -> Database {
    let q = cq::parse_query(QVC).unwrap();
    let mut workload = Workload::new(7);
    let mut db = workload.random_graph_relation(&q, "S", nodes, density);
    workload.saturate_unary_relations(&q, &mut db, nodes);
    db
}

#[test]
fn budget_exhaustion_leaves_the_session_resolvable() {
    let q = cq::parse_query(QVC).unwrap();
    let compiled = Engine::compile(&q);
    let db = vc_instance(24, 0.3);
    let frozen = db.freeze();
    let mut session = compiled.session(&frozen).unwrap();
    let witnesses = session.live_witnesses();
    let tight = SolveOptions::new().node_budget(2);

    // Shape 1: zero deletions. The tight budget fails loudly...
    match session.solve(&tight) {
        Err(SolveError::BudgetExhausted { nodes_explored }) => assert!(nodes_explored <= 2),
        other => panic!("expected budget exhaustion, got {other:?}"),
    }
    // ...and leaves no residue: counters unchanged, next solve exact.
    assert_eq!(session.live_witnesses(), witnesses);
    assert_eq!(session.deleted_count(), 0);
    let clean = compiled.solve(&frozen, &SolveOptions::new()).unwrap();
    assert_eq!(session.solve(&SolveOptions::new()).unwrap(), clean);

    // Shape 3: live view (with a cached report, so the re-solve after the
    // failure also exercises the warm-start incumbent path).
    let deleted: Vec<TupleId> = (0..db.num_tuples() as u32)
        .step_by(5)
        .map(TupleId)
        .collect();
    session.delete(&deleted);
    match session.solve(&tight) {
        Err(SolveError::BudgetExhausted { .. }) => {}
        other => panic!("expected budget exhaustion, got {other:?}"),
    }
    assert_eq!(session.deleted_count(), deleted.len());
    let mask: HashSet<TupleId> = deleted.iter().copied().collect();
    let scratch = compiled
        .solve(&db.without(&mask).freeze(), &SolveOptions::new())
        .unwrap();
    let via_session = session.solve(&SolveOptions::new()).unwrap();
    assert_eq!(via_session.resilience, scratch.resilience);
    assert_eq!(via_session.witnesses, scratch.witnesses);
}

#[test]
fn cancellation_leaves_the_session_resolvable_in_every_shape() {
    // Shapes 1 and 3: the exact query.
    let q = cq::parse_query(QVC).unwrap();
    let compiled = Engine::compile(&q);
    let db = vc_instance(24, 0.3);
    let frozen = db.freeze();
    let mut session = compiled.session(&frozen).unwrap();

    match session.solve(&SolveOptions::new().cancel_token(fired())) {
        Err(SolveError::Cancelled { .. }) => {}
        other => panic!("shape 1: expected cancellation, got {other:?}"),
    }
    let clean = compiled.solve(&frozen, &SolveOptions::new()).unwrap();
    assert_eq!(session.solve(&SolveOptions::new()).unwrap(), clean);

    let deleted: Vec<TupleId> = (0..db.num_tuples() as u32)
        .step_by(4)
        .map(TupleId)
        .collect();
    session.delete(&deleted);
    match session.solve(&SolveOptions::new().cancel_token(fired())) {
        Err(SolveError::Cancelled { .. }) => {}
        other => panic!("shape 3: expected cancellation, got {other:?}"),
    }
    let mask: HashSet<TupleId> = deleted.iter().copied().collect();
    let scratch = compiled
        .solve(&db.without(&mask).freeze(), &SolveOptions::new())
        .unwrap();
    let via_session = session.solve(&SolveOptions::new()).unwrap();
    assert_eq!(via_session.resilience, scratch.resilience);
    assert_eq!(via_session.witnesses, scratch.witnesses);

    // A deadline that has already passed behaves like an explicit cancel.
    session.restore(&deleted);
    let expired = SolveOptions::new().cancel_token(CancelToken::with_deadline(Duration::ZERO));
    match session.solve(&expired) {
        Err(SolveError::Cancelled { .. }) => {}
        other => panic!("expired deadline: expected cancellation, got {other:?}"),
    }
    assert_eq!(session.solve(&SolveOptions::new()).unwrap(), clean);

    // Shape 2: the raw-store-scanning dispatch (reduced copy per solve).
    let qc = cq::parse_query(QCOMP).unwrap();
    let compiled = Engine::compile(&qc);
    assert!(
        matches!(
            compiled.classification().complexity,
            Complexity::PTime(PtimeAlgorithm::ComponentWise)
        ),
        "test premise: {QCOMP} must dispatch component-wise, got {}",
        compiled.classification().complexity
    );
    let mut workload = Workload::new(11);
    let mut db = workload.random_graph_relation(&qc, "R", 12, 0.4);
    workload.saturate_unary_relations(&qc, &mut db, 12);
    let frozen = db.freeze();
    let mut session = compiled.session(&frozen).unwrap();
    let deleted: Vec<TupleId> = (0..db.num_tuples() as u32)
        .step_by(3)
        .map(TupleId)
        .collect();
    session.delete(&deleted);
    match session.solve(&SolveOptions::new().cancel_token(fired())) {
        // The token fires before the reduced copy is even built.
        Err(SolveError::Cancelled { partial: None }) => {}
        other => panic!("shape 2: expected pre-work cancellation, got {other:?}"),
    }
    let mask: HashSet<TupleId> = deleted.iter().copied().collect();
    let scratch = compiled
        .solve(&db.without(&mask).freeze(), &SolveOptions::new())
        .unwrap();
    let via_session = session.solve(&SolveOptions::new()).unwrap();
    assert_eq!(via_session.resilience, scratch.resilience);
    assert_eq!(via_session.witnesses, scratch.witnesses);
}

#[test]
fn whatif_batch_cancellation_does_not_disturb_the_session() {
    let q = cq::parse_query(QVC).unwrap();
    let compiled = Engine::compile(&q);
    let db = vc_instance(20, 0.3);
    let frozen = db.freeze();
    let session = compiled.session(&frozen).unwrap();
    let sets: Vec<Vec<TupleId>> = vec![
        vec![],
        vec![TupleId(0)],
        (0..db.num_tuples() as u32)
            .step_by(2)
            .map(TupleId)
            .collect(),
    ];

    // Every hypothetical reports cancellation; none of them mutates the
    // session (what-if sets are overlays by contract).
    let cancelled = session.solve_whatif_batch(&sets, &SolveOptions::new().cancel_token(fired()));
    assert_eq!(cancelled.len(), sets.len());
    for result in &cancelled {
        assert!(
            matches!(result, Err(SolveError::Cancelled { .. })),
            "expected cancellation, got {result:?}"
        );
    }
    assert_eq!(session.deleted_count(), 0);

    // The same batch afterwards answers exactly the from-scratch values.
    let results = session.solve_whatif_batch(&sets, &SolveOptions::new());
    for (set, result) in sets.iter().zip(&results) {
        let mask: HashSet<TupleId> = set.iter().copied().collect();
        let scratch = compiled
            .solve(&db.without(&mask).freeze(), &SolveOptions::new())
            .unwrap();
        let got = result.as_ref().unwrap();
        assert_eq!(got.resilience, scratch.resilience);
        assert_eq!(got.witnesses, scratch.witnesses);
    }
}

#[test]
fn mid_search_deadline_yields_sane_bounds_and_a_live_session() {
    // Dense enough that the exact search cannot finish in 150ms even in
    // release builds, while the deadline is generous enough that debug
    // builds get past witness enumeration and root bounds into the search
    // proper — so the deadline reliably fires mid-search.
    let q = cq::parse_query(QVC).unwrap();
    let compiled = Engine::compile(&q);
    let db = vc_instance(200, 0.1);
    let frozen = db.freeze();
    let mut session = compiled.session(&frozen).unwrap();
    let witnesses = session.live_witnesses();

    let opts =
        SolveOptions::new().cancel_token(CancelToken::with_deadline(Duration::from_millis(150)));
    match session.solve(&opts) {
        Err(SolveError::Cancelled {
            partial: Some(bounds),
        }) => {
            assert!(
                bounds.lower >= 1,
                "dense instance has a positive packing bound"
            );
            if let Some(upper) = bounds.upper {
                assert!(bounds.lower <= upper, "inverted interval");
            }
            assert!(bounds.nodes_explored > 0);
        }
        other => panic!("expected mid-search cancellation with bounds, got {other:?}"),
    }

    // The abandoned search left the session intact: counters agree, and
    // deleting every tuple drains the witnesses and solves instantly.
    assert_eq!(session.live_witnesses(), witnesses);
    let everything: Vec<TupleId> = (0..db.num_tuples() as u32).map(TupleId).collect();
    session.delete(&everything);
    assert_eq!(session.live_witnesses(), 0);
    let report = session.solve(&SolveOptions::new()).unwrap();
    assert_eq!(report.resilience, Resilience::Finite(0));
}

/// A flow-dispatched instance whose warm rebuild after `reset` takes
/// several milliseconds even in release builds: a random `R` with three
/// edges per constant (symmetric pairs with probability `sym`, loops on
/// every other constant when `loops`) and every unary relation saturated.
fn flow_instance(q: &cq::Query, nodes: u64, sym: f64, loops: bool) -> Database {
    let mut workload = Workload::new(3);
    let mut db = workload.random_symmetric_relation(q, "R", nodes, 3 * nodes as usize, sym);
    if loops {
        for v in (0..nodes).step_by(2) {
            db.insert_named("R", &[v, v]);
        }
    }
    workload.saturate_unary_relations(q, &mut db, nodes);
    db
}

#[test]
fn warm_flow_resolves_honour_deadlines() {
    for (name, nodes, sym, loops, method) in [
        ("q_ACconf", 1000, 0.0, false, SolveMethod::LinearFlow),
        ("q_Aperm", 4000, 0.5, false, SolveMethod::PermutationFlow),
        ("z3", 8000, 0.0, true, SolveMethod::RepFlow),
    ] {
        let q = cq::catalogue::by_name(name).unwrap().query;
        let compiled = Engine::compile(&q);
        let db = flow_instance(&q, nodes, sym, loops);
        let frozen = db.freeze();
        let mut session = compiled.session(&frozen).unwrap();
        let full = session.solve(&SolveOptions::new()).unwrap();
        assert_eq!(full.method, method, "test premise: {name} dispatch");
        let victim = full.contingency.as_ref().unwrap()[0];
        let mut mask = vec![false; db.num_tuples()];
        mask[victim.index()] = true;
        let scratch = compiled
            .solve(
                &copy_without_mask(&frozen, &mask).freeze(),
                &SolveOptions::new(),
            )
            .unwrap();
        let rho = scratch.resilience.as_finite().unwrap();

        // `reset` drops the resident network, so this resolve rebuilds it
        // from the full witness set: far longer than the 1 ms deadline.
        // (On a loaded machine the deadline can pass before the solve even
        // dispatches, which cancels without bounds; that case is retried.)
        let bounds = (0..3)
            .find_map(|_| {
                session.reset();
                session.delete(&[victim]);
                let deadline = CancelToken::with_deadline(Duration::from_millis(1));
                match session.solve(&SolveOptions::new().cancel_token(deadline)) {
                    Err(SolveError::Cancelled {
                        partial: Some(bounds),
                    }) => Some(bounds),
                    Err(SolveError::Cancelled { partial: None }) => None,
                    other => {
                        panic!("{name}: expected the warm rebuild to be cancelled, got {other:?}")
                    }
                }
            })
            .unwrap_or_else(|| panic!("{name}: deadline passed before dispatch three times"));
        assert!(
            bounds.lower <= rho,
            "{name}: partial flow {} exceeds the resilience {rho}",
            bounds.lower
        );

        // The interrupted step left no trace: the next token-free solve
        // rebuilds and answers what a from-scratch solve over the reduced
        // copy answers, with a valid minimum contingency set.
        let after = session.solve(&SolveOptions::new()).unwrap();
        assert!(session.last_solve_stats().flow_cold_rebuild, "{name}");
        assert_eq!(after.resilience, scratch.resilience, "{name}");
        assert_eq!(after.witnesses, scratch.witnesses, "{name}");
        assert_eq!(after.method, scratch.method, "{name}");
        let gamma = after.contingency.unwrap();
        assert_eq!(gamma.len(), rho, "{name}");
        let mut removed: HashSet<TupleId> = gamma.into_iter().collect();
        assert!(
            !removed.contains(&victim),
            "{name}: contingency holds a deleted tuple"
        );
        removed.insert(victim);
        assert!(
            !database::evaluate(&q, &db.without(&removed)),
            "{name}: contingency leaves a witness"
        );
    }
}
