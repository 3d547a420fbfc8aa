//! Differential tests for the deletion-aware [`SolveSession`] and parallel
//! witness enumeration:
//!
//! * any random delete/restore sequence through a session yields the same
//!   resilience and witness count as solving `Database::without(deleted)`
//!   from scratch (full re-enumeration), across the named-query catalogue;
//! * session contingency sets reference the *original* tuple ids and really
//!   falsify the live view;
//! * restore order does not matter (set semantics of the deletion state);
//! * parallel enumeration (2, 4 threads) is bit-identical to sequential on
//!   catalogue queries, over both store types.

use cq::catalogue;
use database::{
    collect_witnesses, try_relation_translation, witnesses_with_plan_into, Database, QueryPlan,
    TupleId,
};
use resilience_core::engine::{Engine, Resilience, SolveOptions};
use std::collections::HashSet;
use workloads::Workload;

/// The standard randomized instance used across the test-suite (mirrors
/// tests/engine.rs): a random `R`-graph, saturated unary relations, and a
/// deterministic sprinkling of tuples for every other non-unary relation.
fn random_instance(q: &cq::Query, seed: u64, nodes: u64, density: f64) -> Database {
    let mut workload = Workload::new(seed);
    let r_is_binary = q
        .schema()
        .relation_id("R")
        .is_some_and(|r| q.schema().arity(r) == 2);
    let mut db = if r_is_binary {
        workload.random_graph_relation(q, "R", nodes, density)
    } else {
        Database::for_query(q)
    };
    workload.saturate_unary_relations(q, &mut db, nodes);
    for rel in q.schema().relation_ids() {
        let name = q.schema().name(rel).to_string();
        let arity = q.schema().arity(rel);
        if arity >= 2 && !(name == "R" && r_is_binary) {
            for a in 0..nodes {
                for b in 0..nodes {
                    if (a * 13 + b * 7 + seed).is_multiple_of(4) {
                        let values: Vec<u64> = (0..arity as u64)
                            .map(|pos| match pos {
                                0 => a,
                                1 => b,
                                _ => (a + b + pos) % nodes.max(1),
                            })
                            .collect();
                        db.insert_named(&name, &values);
                    }
                }
            }
        }
    }
    db
}

#[test]
fn session_equals_from_scratch_on_random_delete_restore_sequences() {
    let opts = SolveOptions::new();
    for nq in catalogue::all_named_queries() {
        let compiled = Engine::compile(&nq.query);
        for seed in [5u64, 17] {
            let db = random_instance(&nq.query, seed, 5, 0.3);
            let frozen = db.freeze();
            let mut session = compiled
                .session(&frozen)
                .unwrap_or_else(|e| panic!("{}: cannot open session: {e}", nq.name));
            assert_eq!(session.total_witnesses(), session.live_witnesses());

            let sequence = Workload::new(seed ^ 0xdead).random_deletion_sequence(&nq.query, &db, 6);
            let mut deleted: HashSet<TupleId> = HashSet::new();
            for (step, &t) in sequence.iter().enumerate() {
                session.delete(&[t]);
                deleted.insert(t);
                // Interleave restores of earlier deletions: the session must
                // track the *set*, not the order.
                if step % 2 == 1 {
                    let back = sequence[step / 2];
                    session.restore(&[back]);
                    deleted.remove(&back);
                }

                let scratch = compiled.solve(&db.without(&deleted).freeze(), &opts);
                let via_session = session.solve(&opts);
                match (&via_session, &scratch) {
                    (Ok(s), Ok(f)) => {
                        assert_eq!(
                            s.resilience, f.resilience,
                            "{} seed {seed} step {step}: session vs from-scratch value",
                            nq.name
                        );
                        assert_eq!(
                            s.witnesses, f.witnesses,
                            "{} seed {seed} step {step}: session vs from-scratch witness count",
                            nq.name
                        );
                        assert_eq!(s.witnesses, session.live_witnesses());
                        // A session certificate references original ids,
                        // avoids deleted tuples, and falsifies the live view.
                        if let (Resilience::Finite(k), Some(gamma)) = (s.resilience, &s.contingency)
                        {
                            assert_eq!(gamma.len(), k, "{} step {step}", nq.name);
                            let mut removal = deleted.clone();
                            for &g in gamma {
                                assert!(
                                    !deleted.contains(&g),
                                    "{} step {step}: certificate re-deletes a deleted tuple",
                                    nq.name
                                );
                                removal.insert(g);
                            }
                            assert!(
                                !database::evaluate(&nq.query, &db.without(&removal)),
                                "{} seed {seed} step {step}: certificate does not falsify",
                                nq.name
                            );
                        }
                    }
                    (Err(_), Err(_)) => {} // both budgets exhausted: agree
                    _ => panic!(
                        "{} seed {seed} step {step}: one path failed, the other did not: \
                         session {via_session:?} vs scratch {scratch:?}",
                        nq.name
                    ),
                }
            }
        }
    }
}

#[test]
fn session_restore_order_does_not_matter() {
    let q = cq::parse_query("R(x,y), R(y,z)").unwrap();
    let compiled = Engine::compile(&q);
    let db = random_instance(&q, 9, 6, 0.35);
    let frozen = db.freeze();
    let opts = SolveOptions::new();
    let seq = Workload::new(4).random_deletion_sequence(&q, &db, 4);
    if seq.len() < 4 {
        return; // degenerate random instance
    }
    let (a, b, c, d) = (seq[0], seq[1], seq[2], seq[3]);

    let mut forward = compiled.session(&frozen).unwrap();
    forward.delete(&[a, b, c, d]);
    forward.restore(&[a, b]);

    let mut scrambled = compiled.session(&frozen).unwrap();
    scrambled.delete(&[d]);
    scrambled.delete(&[a, a, b]); // duplicate delete is a no-op
    scrambled.delete(&[c]);
    scrambled.restore(&[b, a]); // reversed restore order
    scrambled.restore(&[b]); // double restore is a no-op

    assert_eq!(forward.live_witnesses(), scrambled.live_witnesses());
    assert_eq!(forward.deleted_tuples(), scrambled.deleted_tuples());
    assert_eq!(
        forward.solve(&opts).unwrap(),
        scrambled.solve(&opts).unwrap()
    );

    let expected: HashSet<TupleId> = [c, d].into_iter().collect();
    let scratch = compiled
        .solve(&db.without(&expected).freeze(), &opts)
        .unwrap();
    let via = forward.solve(&opts).unwrap();
    assert_eq!(via.resilience, scratch.resilience);
    assert_eq!(via.witnesses, scratch.witnesses);
}

#[test]
fn warm_sessions_match_cold_sessions_on_random_delete_restore_sequences() {
    // The warm-start differential gate: a session solving every step warm
    // (replay, exact incumbent, flow-certificate reuse) agrees with a
    // session solving every step cold — same resilience, same witness
    // count, same method — across the named-query catalogue on random
    // delete/restore sequences, and every warm certificate is a valid
    // minimum contingency set of the live view.
    let warm_opts = SolveOptions::new().warm_start(true);
    let cold_opts = SolveOptions::new().warm_start(false);
    for nq in catalogue::all_named_queries() {
        let compiled = Engine::compile(&nq.query);
        for seed in [3u64, 29] {
            let db = random_instance(&nq.query, seed, 5, 0.3);
            let frozen = db.freeze();
            let mut warm = compiled.session(&frozen).unwrap();
            let mut cold = compiled.session(&frozen).unwrap();
            let sequence = Workload::new(seed ^ 0xbeef).random_deletion_sequence(&nq.query, &db, 6);
            let mut deleted: HashSet<TupleId> = HashSet::new();
            for (step, &t) in sequence.iter().enumerate() {
                warm.delete(&[t]);
                cold.delete(&[t]);
                deleted.insert(t);
                if step % 3 == 2 {
                    let back = sequence[step / 2];
                    warm.restore(&[back]);
                    cold.restore(&[back]);
                    deleted.remove(&back);
                }
                // Solve the warm session twice: the second call exercises
                // the unchanged-state replay and must be bit-identical to
                // the first.
                let w = warm.solve(&warm_opts);
                let w2 = warm.solve(&warm_opts);
                let c = cold.solve(&cold_opts);
                match (&w, &c) {
                    (Ok(w), Ok(c)) => {
                        assert_eq!(w, w2.as_ref().unwrap(), "{} step {step}: replay", nq.name);
                        assert!(warm.last_solve_stats().replayed);
                        assert_eq!(
                            w.resilience, c.resilience,
                            "{} seed {seed} step {step}: warm vs cold value",
                            nq.name
                        );
                        assert_eq!(w.witnesses, c.witnesses, "{} step {step}", nq.name);
                        assert_eq!(w.method, c.method, "{} step {step}", nq.name);
                        // Certificates may be different minimum sets, but
                        // must have equal size and really falsify.
                        if let (Resilience::Finite(k), Some(gw)) = (w.resilience, &w.contingency) {
                            assert_eq!(gw.len(), k, "{} step {step}", nq.name);
                            let mut removal = deleted.clone();
                            removal.extend(gw.iter().copied());
                            assert!(
                                !database::evaluate(&nq.query, &db.without(&removal)),
                                "{} seed {seed} step {step}: warm certificate does not falsify",
                                nq.name
                            );
                        }
                        assert_eq!(
                            w.contingency.as_ref().map(Vec::len),
                            c.contingency.as_ref().map(Vec::len),
                            "{} step {step}: certificate sizes",
                            nq.name
                        );
                    }
                    (Err(_), Err(_)) => {}
                    _ => panic!(
                        "{} seed {seed} step {step}: warm {w:?} vs cold {c:?}",
                        nq.name
                    ),
                }
            }
        }
    }
}

#[test]
fn restricted_contingency_stays_feasible_under_deletions() {
    // The monotonicity property the warm start rests on: after any further
    // deletions, the previous contingency set restricted to non-deleted
    // tuples still hits every live witness (a live witness uses no deleted
    // tuple, so whatever tuple of the set hit it is still present).
    use database::WitnessSet;
    for nq in [
        catalogue::q_chain(),
        catalogue::q_vc(),
        catalogue::q_acconf(),
    ] {
        let compiled = Engine::compile(&nq.query);
        for seed in 0..4u64 {
            let db = random_instance(&nq.query, seed, 6, 0.3);
            let ws = WitnessSet::build(&nq.query, &db);
            let report = match compiled.solve(&db.freeze(), &SolveOptions::new()) {
                Ok(r) => r,
                Err(_) => continue,
            };
            let Some(gamma) = report.contingency else {
                continue;
            };
            let sequence = Workload::new(seed ^ 0xfeed).random_deletion_sequence(&nq.query, &db, 4);
            let mut deleted: HashSet<TupleId> = HashSet::new();
            for &t in &sequence {
                deleted.insert(t);
                let live = ws.without_tuples(&deleted);
                let restricted: HashSet<TupleId> = gamma
                    .iter()
                    .copied()
                    .filter(|g| !deleted.contains(g))
                    .collect();
                assert!(
                    live.is_contingency_set(&restricted),
                    "{} seed {seed}: restricted previous contingency infeasible",
                    nq.name
                );
            }
        }
    }
}

#[test]
fn warm_start_statistics_reflect_incumbent_use() {
    // A monotone deletion sweep on an NP-complete chain query: once a step's
    // incumbent survives restriction it must register as a warm-start hit,
    // and an unchanged-state re-solve must register as a replay.
    let q = cq::parse_query("R(x,y), R(y,z)").unwrap();
    let compiled = Engine::compile(&q);
    let db = random_instance(&q, 11, 7, 0.35);
    let frozen = db.freeze();
    let opts = SolveOptions::new();
    let mut session = compiled.session(&frozen).unwrap();
    let seq = Workload::new(7).random_deletion_sequence(&q, &db, 5);
    if seq.len() < 2 {
        return;
    }
    session.solve(&opts).unwrap();
    assert!(
        !session.last_solve_stats().warm_start_hit,
        "first solve is cold"
    );
    let mut any_warm = false;
    for &t in &seq {
        session.delete(&[t]);
        session.solve(&opts).unwrap();
        any_warm |= session.last_solve_stats().warm_start_hit;
    }
    assert!(any_warm, "no deletion step warm-started");
    session.solve(&opts).unwrap();
    assert!(
        session.last_solve_stats().replayed,
        "unchanged state must replay"
    );
    // Disabling warm starts really runs cold.
    let cold_opts = SolveOptions::new().warm_start(false);
    session.solve(&cold_opts).unwrap();
    let stats = session.last_solve_stats();
    assert!(!stats.replayed && !stats.warm_start_hit && !stats.short_circuit);
}

#[test]
fn warm_flow_state_is_reused_across_flow_session_steps() {
    // Flow-dispatched sessions must keep the residual network resident:
    // after the first solve in a deleted state (which builds the warm
    // network, `flow_cold_rebuild`), every further delete/restore step must
    // repair the existing flow in place (`flow_warm_reused`) rather than
    // rebuild, while agreeing exactly with a from-scratch solve.
    for nq in [catalogue::q_acconf(), catalogue::q_perm(), catalogue::z3()] {
        let compiled = Engine::compile(&nq.query);
        let db = random_instance(&nq.query, 41, 8, 0.3);
        let frozen = db.freeze();
        let opts = SolveOptions::new();
        let mut session = compiled.session(&frozen).unwrap();
        let seq = Workload::new(41 ^ 0xf10).random_deletion_sequence(&nq.query, &db, 8);
        if seq.len() < 3 {
            continue;
        }
        // Zero-deletion solves stay on the plain cold path: no warm flow.
        session.solve(&opts).unwrap();
        let stats = session.last_solve_stats();
        assert!(
            !stats.flow_warm_reused && !stats.flow_cold_rebuild,
            "{}: zero-deletion solve must not touch warm flow state",
            nq.name
        );
        let mut deleted: HashSet<TupleId> = HashSet::new();
        let mut any_rebuild = false;
        let mut reused_steps = 0usize;
        for (step, &t) in seq.iter().enumerate() {
            if step % 3 == 2 {
                let back = *deleted.iter().next().unwrap();
                deleted.remove(&back);
                session.restore(&[back]);
            } else {
                deleted.insert(t);
                session.delete(&[t]);
            }
            let report = session.solve(&opts).unwrap();
            let stats = session.last_solve_stats();
            any_rebuild |= stats.flow_cold_rebuild;
            if stats.flow_warm_reused && !stats.flow_cold_rebuild {
                reused_steps += 1;
            }
            let scratch = compiled
                .solve(&db.without(&deleted).freeze(), &opts)
                .unwrap();
            assert_eq!(
                report.resilience, scratch.resilience,
                "{} step {step}: warm flow diverged from scratch",
                nq.name
            );
        }
        assert!(any_rebuild, "{}: no step built the warm network", nq.name);
        assert!(
            reused_steps > 0,
            "{}: no step repaired the resident flow in place",
            nq.name
        );
        // `reset` must invalidate the warm state: the next dispatched
        // deleted-state solve rebuilds from cold, never reuses.
        session.reset();
        session.delete(&[seq[0]]);
        session.solve(&opts).unwrap();
        let stats = session.last_solve_stats();
        assert!(
            !stats.flow_warm_reused,
            "{}: reset must invalidate resident flow state",
            nq.name
        );
        if !stats.replayed && !stats.short_circuit {
            assert!(
                stats.flow_cold_rebuild,
                "{}: post-reset dispatch must rebuild the warm network",
                nq.name
            );
        }
        // Disabling warm starts bypasses the warm flow layer entirely.
        session.delete(&[seq[1]]);
        let cold_opts = SolveOptions::new().warm_start(false);
        session.solve(&cold_opts).unwrap();
        let stats = session.last_solve_stats();
        assert!(
            !stats.flow_warm_reused
                && !stats.flow_cold_rebuild
                && stats.flow_paths_repaired == 0
                && stats.flow_paths_reaugmented == 0,
            "{}: warm_start(false) must leave warm flow untouched",
            nq.name
        );
    }
}

#[test]
fn parallel_enumeration_is_deterministic_on_the_catalogue() {
    // The CI determinism gate: 1-thread and N-thread enumeration must be
    // bit-identical (same witnesses, same order) for every catalogue query,
    // over both the mutable and the frozen store.
    for nq in catalogue::all_named_queries() {
        let db = random_instance(&nq.query, 23, 6, 0.3);
        let plan = QueryPlan::compile(&nq.query);
        let translation = try_relation_translation(&nq.query, &db).unwrap();
        let mut sequential = Vec::new();
        witnesses_with_plan_into(&plan, &translation, &db, &mut sequential);
        let frozen = db.freeze();
        for threads in [2usize, 4] {
            let mut parallel = Vec::new();
            collect_witnesses(&plan, &translation, &db, threads, &mut parallel, &|| false);
            assert_eq!(sequential, parallel, "{} threads {threads}", nq.name);
            collect_witnesses(
                &plan,
                &translation,
                &frozen,
                threads,
                &mut parallel,
                &|| false,
            );
            assert_eq!(
                sequential, parallel,
                "{} threads {threads} (frozen)",
                nq.name
            );
        }
    }
}

#[test]
fn parallel_enumeration_solves_catalogue_queries_identically() {
    for nq in [catalogue::q_chain(), catalogue::q_acconf(), catalogue::z3()] {
        let compiled = Engine::compile(&nq.query);
        let db = random_instance(&nq.query, 31, 6, 0.3).freeze();
        let sequential = compiled.solve(&db, &SolveOptions::new());
        let parallel = compiled.solve(&db, &SolveOptions::new().enumeration_threads(3));
        assert_eq!(sequential, parallel, "{}", nq.name);
    }
}
