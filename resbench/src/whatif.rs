//! `whatif`: deletion sessions opened during set-up, so enumeration stays
//! outside the timed phase. Each operation is one single-tuple
//! `Session::delete` or `Session::restore` followed by `Session::solve`,
//! following a seeded script; every pass resets the sessions first.

use crate::check;
use crate::gen::{self, Shape};
use crate::rng::Rng;
use crate::stats::{median, OpTimes};
use crate::trace::{per_pass_totals, write_trace, Tracer, SETUP_OP};
use crate::{describe_classes, timed_passes, Args, Outcome};
use cq::Query;
use database::{
    copy_without_mask, try_relation_translation, witnesses_with_plan_into, Database, FrozenDb,
    QueryPlan, TupleId, WitnessSet,
};
use resilience_core::engine::{
    CompiledQuery, Engine, Resilience, SharedSolveSession, SolveOptions, SolveReport,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// How a session class is solved: warm flow repair, exact search with warm
/// incumbents, or the copy / re-freeze / re-solve fallback of dispatches
/// that scan raw relations.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Flow,
    Exact,
    Fallback,
}

struct SessionSpec {
    name: &'static str,
    query: &'static str,
    kind: Kind,
    shape: Shape,
    /// Sessions of this class (each on its own instance and script).
    sessions: usize,
    steps: usize,
    /// Most tuples deleted at once by the script.
    max_deleted: usize,
}

const fn shape(nodes: u64, edges: usize, loops: f64, sym: f64, unary: f64, share: f64) -> Shape {
    Shape {
        nodes,
        edges,
        loops,
        sym,
        unary,
        share,
    }
}

fn specs() -> Vec<SessionSpec> {
    vec![
        SessionSpec {
            name: "flow.linear",
            query: "q_ACconf",
            kind: Kind::Flow,
            shape: shape(1200, 3600, 0.0, 0.0, 0.3, 0.0),
            sessions: 1,
            steps: 12,
            max_deleted: 12,
        },
        SessionSpec {
            name: "flow.permutation",
            query: "q_Aperm",
            kind: Kind::Flow,
            shape: shape(1200, 3600, 0.0, 0.5, 0.5, 0.0),
            sessions: 4,
            steps: 16,
            max_deleted: 12,
        },
        SessionSpec {
            name: "flow.rep",
            query: "z3",
            kind: Kind::Flow,
            shape: shape(1200, 3600, 0.3, 0.0, 0.5, 0.0),
            sessions: 4,
            steps: 16,
            max_deleted: 12,
        },
        SessionSpec {
            name: "exact.chain",
            query: "q_chain",
            kind: Kind::Exact,
            shape: shape(20, 40, 0.05, 0.0, 0.0, 0.0),
            sessions: 1,
            steps: 10,
            max_deleted: 4,
        },
        SessionSpec {
            name: "exact.achain",
            query: "q_achain",
            kind: Kind::Exact,
            shape: shape(100, 200, 0.05, 0.0, 0.5, 0.0),
            sessions: 1,
            steps: 10,
            max_deleted: 4,
        },
        SessionSpec {
            name: "fallback.components",
            query: "q_comp",
            kind: Kind::Fallback,
            shape: shape(300, 300, 0.0, 0.0, 0.3, 0.0),
            sessions: 2,
            steps: 6,
            max_deleted: 3,
        },
        SessionSpec {
            name: "fallback.TS3conf",
            query: "q_TS3conf",
            kind: Kind::Fallback,
            shape: shape(250, 750, 0.0, 0.1, 0.0, 0.5),
            sessions: 2,
            steps: 6,
            max_deleted: 3,
        },
    ]
}

/// Exact candidates must explore at most this many nodes on any step of
/// their script, and a total inside `EXACT_SCRIPT_NODES` over the script
/// (sizing trial at input generation): exact search cost is heavy-tailed
/// per instance, so a fixed size alone cannot bound a step's time.
const EXACT_STEP_NODES: usize = 1_500;
const EXACT_SCRIPT_NODES: (usize, usize) = (3_000, 8_000);

/// `(tuple, true)` deletes, `(tuple, false)` restores.
type Script = Vec<(TupleId, bool)>;

/// A delete/restore script over the tuples of `q`'s endogenous relations.
/// Its pattern is fixed: every third step restores the oldest deleted
/// tuple (as does any step at `max_deleted`), and deletions take turns
/// among the relations in proportion to their sizes. Only the tuples come
/// from the seed, so every seed deletes from each relation equally often
/// (deleting from some relations forces a warm-flow rebuild, and that count
/// must not depend on the seed).
fn script(q: &Query, db: &Database, steps: usize, max_deleted: usize, rng: &mut Rng) -> Script {
    let mut endo: Vec<&str> = q
        .atoms()
        .iter()
        .filter(|a| !a.exogenous)
        .map(|a| q.schema().name(a.relation))
        .collect();
    endo.sort_unstable();
    endo.dedup();
    let pools: Vec<&[TupleId]> = endo
        .iter()
        .map(|name| db.tuples_of(db.schema().relation_id(name).expect("query relation")))
        .collect();
    let total: usize = pools.iter().map(|p| p.len()).sum();
    let mut credit = vec![0.0f64; pools.len()];
    let mut deleted: std::collections::VecDeque<TupleId> = Default::default();
    let mut out = Vec::with_capacity(steps);
    for step in 0..steps {
        if !deleted.is_empty() && (deleted.len() >= max_deleted || step % 3 == 2) {
            out.push((deleted.pop_front().expect("non-empty"), false));
            continue;
        }
        for (c, p) in credit.iter_mut().zip(&pools) {
            *c += p.len() as f64 / total as f64;
        }
        let k = (0..pools.len())
            .max_by(|&a, &b| credit[a].total_cmp(&credit[b]))
            .expect("an endogenous relation");
        credit[k] -= 1.0;
        let t = loop {
            let t = pools[k][rng.below(pools[k].len() as u64) as usize];
            if !deleted.contains(&t) {
                break t;
            }
        };
        deleted.push_back(t);
        out.push((t, true));
    }
    out
}

/// Runs a script on a fresh session and reports whether every step stayed
/// within the exact node window.
fn exact_script_fits(
    compiled: &Arc<CompiledQuery>,
    db: &Database,
    steps: &[(TupleId, bool)],
) -> bool {
    let frozen = Arc::new(db.freeze());
    let opts = SolveOptions::new().node_budget(EXACT_STEP_NODES);
    let Ok(mut s) = compiled.session_shared(&frozen, &opts) else {
        return false;
    };
    if s.solve(&opts).is_err() {
        return false;
    }
    let mut total = 0;
    for &(t, del) in steps {
        if del {
            s.delete(&[t]);
        } else {
            s.restore(&[t]);
        }
        if s.solve(&opts).is_err() {
            return false;
        }
        total += s.last_solve_stats().nodes_explored;
    }
    (EXACT_SCRIPT_NODES.0..=EXACT_SCRIPT_NODES.1).contains(&total)
}

struct Live {
    spec: usize,
    kind: Kind,
    query: Query,
    compiled: Arc<CompiledQuery>,
    frozen: Arc<FrozenDb>,
    session: SharedSolveSession,
    script: Vec<(TupleId, bool)>,
}

/// One pass: reset every session and solve it untimed, then run the
/// interleaved script steps, timing each delete-or-restore plus solve.
fn pass(
    live: &mut [Live],
    order: &[(usize, usize)],
    opts: &SolveOptions,
    mut step: impl FnMut(&mut Live, usize) -> Result<SolveReport, String>,
    times: &mut Vec<f64>,
    reports: &mut Vec<SolveReport>,
) -> Result<Vec<SolveReport>, String> {
    let mut initial = Vec::new();
    for l in live.iter_mut() {
        l.session.reset();
        initial.push(l.session.solve(opts).map_err(|e| e.to_string())?);
    }
    for &(si, k) in order {
        let start = Instant::now();
        let report = step(&mut live[si], k)?;
        times.push(start.elapsed().as_secs_f64());
        reports.push(report);
    }
    Ok(initial)
}

fn untraced_step(l: &mut Live, k: usize, opts: &SolveOptions) -> Result<SolveReport, String> {
    let (t, del) = l.script[k];
    if del {
        l.session.delete(&[t]);
    } else {
        l.session.restore(&[t]);
    }
    l.session.solve(opts).map_err(|e| e.to_string())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let specs = specs();
    // Input generation (not part of set-up).
    let queries: Vec<Query> = specs.iter().map(|s| gen::catalogue(s.query)).collect();
    // (spec, instance, script) per session.
    let mut inputs: Vec<(usize, Database, Script)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let probe = Arc::new(Engine::compile(&queries[i]));
        let mut candidate = 0u64;
        for _ in 0..spec.sessions {
            let mut chosen = None;
            while chosen.is_none() && candidate < 400 {
                let mut rng = Rng::derive(args.seed, spec.name, candidate);
                candidate += 1;
                let db = gen::instance(&queries[i], spec.shape, &mut rng);
                let steps = script(&queries[i], &db, spec.steps, spec.max_deleted, &mut rng);
                if spec.kind != Kind::Exact || exact_script_fits(&probe, &db, &steps) {
                    if crate::verbose() {
                        eprintln!("{}: candidate {}", spec.name, candidate - 1);
                    }
                    chosen = Some((i, db, steps));
                }
            }
            inputs.push(chosen.ok_or(format!("{}: no candidate fits the node window", spec.name))?);
        }
    }
    let mut order: Vec<(usize, usize)> = Vec::new();
    {
        let mut next = vec![0usize; inputs.len()];
        let mut rng = Rng::derive(args.seed, "whatif.order", 0);
        let total: usize = inputs.iter().map(|s| s.2.len()).sum();
        while order.len() < total {
            let si = rng.below(inputs.len() as u64) as usize;
            if next[si] < inputs[si].2.len() {
                order.push((si, next[si]));
                next[si] += 1;
            }
        }
    }

    // Set-up: compile, freeze, open every session.
    let opts = SolveOptions::new();
    let mut tr = Tracer::new();
    tr.set_op(SETUP_OP);
    // Each generated instance is dropped once frozen, so that the peak
    // resident set holds one copy of the data, as a user's would. Dropping
    // the benchmark's input is not set-up, so it falls outside the timer.
    let mut setup_s = 0.0;
    let mut live = Vec::new();
    for (i, db, steps) in inputs {
        let t = Instant::now();
        let s = tr.begin("cq.compile");
        let compiled = Arc::new(Engine::compile(&queries[i]));
        tr.end(s);
        let s = tr.begin("database.freeze");
        let frozen = Arc::new(db.freeze());
        tr.end(s);
        let s = tr.begin("session.open");
        let session = compiled
            .session_shared(&frozen, &opts)
            .map_err(|e| e.to_string())?;
        tr.end(s);
        setup_s += t.elapsed().as_secs_f64();
        drop(db);
        live.push(Live {
            spec: i,
            kind: specs[i].kind,
            query: queries[i].clone(),
            compiled,
            frozen,
            session,
            script: steps,
        });
    }

    // Verification pass (untimed).
    let mut reports = Vec::new();
    let initial = pass(
        &mut live,
        &order,
        &opts,
        |l, k| untraced_step(l, k, &opts),
        &mut Vec::new(),
        &mut reports,
    )?;
    let problems = verify(&live, &order, &initial, &reports);

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (times, cpu_s) = timed_passes(seconds, 3, |t| {
        let mut got = Vec::new();
        pass(
            &mut live,
            &order,
            &opts,
            |l, k| untraced_step(l, k, &opts),
            t,
            &mut got,
        )?;
        compare(&got, &reports)
    })?;
    let medians = times.per_op_medians();
    let names: Vec<&'static str> = order
        .iter()
        .map(|&(si, _)| specs[live[si].spec].name)
        .collect();
    describe_classes(&names, &medians);

    let mut layers = BTreeMap::new();
    if args.trace {
        // Set-up layers the session open runs internally, replayed on the
        // same instances.
        for l in &live {
            let q = &l.compiled.classification().evidence.normalized;
            let s = tr.begin("eval.enumerate");
            let plan = QueryPlan::compile(q);
            let translation =
                try_relation_translation(q, l.frozen.as_ref()).map_err(|r| r.to_string())?;
            let mut buf = Vec::new();
            witnesses_with_plan_into(&plan, &translation, l.frozen.as_ref(), &mut buf);
            tr.end(s);
            tr.count("eval.witnesses", buf.len() as f64);
            let s = tr.begin("witness.index");
            let ws = WitnessSet::from_witnesses(q, l.frozen.as_ref(), buf);
            tr.end(s);
            std::hint::black_box(ws);
        }
        let n = order.len() as u32;
        let mut pass_no = 0u32;
        let traced = timed_passes(seconds, 3, |t| {
            let mut got = Vec::new();
            let mut i = 0u32;
            pass(
                &mut live,
                &order,
                &opts,
                |l, k| {
                    tr.set_op(pass_no * n + i);
                    i += 1;
                    traced_step(&mut tr, l, k, &opts)
                },
                t,
                &mut got,
            )?;
            pass_no += 1;
            compare(&got, &reports)
        })?;
        layers = whatif_layers(&tr, order.len(), &medians, &traced.0);
        write_trace(&tr, &args.workload, args.seed)?;
    }
    Ok(Outcome {
        times,
        cpu_s,
        setup_s,
        failed: 0,
        problems,
        layers,
    })
}

fn traced_step(
    tr: &mut Tracer,
    l: &mut Live,
    k: usize,
    opts: &SolveOptions,
) -> Result<SolveReport, String> {
    let (t, del) = l.script[k];
    let op = tr.begin("op");
    if del {
        let s = tr.begin("session.delete");
        l.session.delete(&[t]);
        tr.end(s);
    } else {
        let s = tr.begin("session.restore");
        l.session.restore(&[t]);
        tr.end(s);
    }
    let s = tr.begin(match l.kind {
        Kind::Flow => "session.solve_flow",
        Kind::Exact => "session.solve_exact",
        Kind::Fallback => "session.solve_fallback",
    });
    let report = l.session.solve(opts).map_err(|e| e.to_string());
    tr.end(s);
    tr.end(op);
    let st = l.session.last_solve_stats();
    tr.count("session.flow_paths_repaired", st.flow_paths_repaired as f64);
    tr.count(
        "session.flow_paths_reaugmented",
        st.flow_paths_reaugmented as f64,
    );
    tr.count(
        "session.flow_cold_rebuilds",
        st.flow_cold_rebuild as u8 as f64,
    );
    tr.count("session.warm_start_hits", st.warm_start_hit as u8 as f64);
    tr.count("session.short_circuits", st.short_circuit as u8 as f64);
    tr.count("session.replays", st.replayed as u8 as f64);
    tr.count("session.reduced_compactions", st.reduced_compactions as f64);
    tr.count("session.exact_nodes", st.nodes_explored as f64);
    report
}

/// Every pass must repeat the verification pass's answers.
fn compare(got: &[SolveReport], want: &[SolveReport]) -> Result<(), String> {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.resilience != w.resilience {
            return Err(format!(
                "step {i}: a repeated pass changed resilience {} to {}",
                w.resilience, g.resilience
            ));
        }
    }
    Ok(())
}

/// Each step against a from-scratch solve of the reduced instance
/// (`copy_without_mask` + `freeze`), its contingency set against the
/// benchmark's own join, and its move in ρ against the previous step.
fn verify(
    live: &[Live],
    order: &[(usize, usize)],
    initial: &[SolveReport],
    reports: &[SolveReport],
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut masks: Vec<Vec<bool>> = live
        .iter()
        .map(|l| vec![false; l.frozen.num_tuples()])
        .collect();
    let mut rho: Vec<Option<usize>> = initial.iter().map(|r| r.resilience.as_finite()).collect();
    for (l, r) in live.iter().zip(initial) {
        if let Err(e) = check::report(&l.query, l.frozen.as_ref(), r, &[]) {
            problems.push(format!("session {} opening solve: {e}", l.spec));
        }
    }
    for (&(si, k), report) in order.iter().zip(reports) {
        let l = &live[si];
        let (t, del) = l.script[k];
        masks[si][t.index()] = del;
        let mask = &masks[si];
        let label = format!("session {} step {k}", l.spec);
        let scratch = copy_without_mask(l.frozen.as_ref(), mask).freeze();
        match l.compiled.solve(&scratch, &SolveOptions::new()) {
            Ok(cold) => {
                if let Err(e) = check::session_vs_scratch(report.resilience, cold.resilience) {
                    problems.push(format!("{label}: {e}"));
                }
            }
            Err(e) => problems.push(format!("{label}: from-scratch solve failed: {e}")),
        }
        if let Err(e) = check::report(&l.query, l.frozen.as_ref(), report, mask) {
            problems.push(format!("{label}: {e}"));
        }
        match (rho[si], report.resilience) {
            (Some(before), Resilience::Finite(after)) => {
                if let Err(e) = check::session_step(before, after, del) {
                    problems.push(format!("{label}: {e}"));
                }
                rho[si] = Some(after);
            }
            _ => problems.push(format!("{label}: resilience is not finite")),
        }
    }
    problems
}

fn whatif_layers(
    tr: &Tracer,
    ops: usize,
    untraced: &[f64],
    traced: &OpTimes,
) -> BTreeMap<&'static str, f64> {
    let mut layers = BTreeMap::new();
    for (metric, span) in [
        ("cq.compile_ms", "cq.compile"),
        ("database.freeze_ms", "database.freeze"),
        ("session.open_ms", "session.open"),
        ("eval.enumerate_ms", "eval.enumerate"),
        ("witness.index_ms", "witness.index"),
    ] {
        layers.insert(metric, tr.setup_ms(span));
    }
    layers.insert(
        "eval.witnesses",
        tr.counts
            .iter()
            .filter(|c| c.0 == SETUP_OP && c.1 == "eval.witnesses")
            .map(|c| c.2)
            .sum(),
    );
    let own_ops = tr.op_self_times();
    // Median per call of the delete and restore spans.
    for (metric, span) in [
        ("session.delete_us", "session.delete"),
        ("session.restore_us", "session.restore"),
    ] {
        let mut per: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (&(op, name), &v) in &own_ops {
            if name == span {
                per.entry(op as usize % ops).or_default().push(v);
            }
        }
        let meds: Vec<f64> = per.values().map(|v| median(v)).collect();
        layers.insert(metric, median(&meds) * 1e6);
    }
    let own = per_pass_totals(&own_ops, ops);
    for (metric, span) in [
        ("session.solve_flow_ms", "session.solve_flow"),
        ("session.solve_exact_ms", "session.solve_exact"),
        ("session.solve_fallback_ms", "session.solve_fallback"),
    ] {
        layers.insert(metric, own.get(span).copied().unwrap_or(0.0) * 1e3);
    }
    for (name, v) in per_pass_totals(&tr.op_counts(), ops) {
        if name.starts_with("session.") {
            layers.insert(name, v);
        }
    }
    let layer_sum: f64 = own
        .iter()
        .filter(|(n, _)| **n != "op")
        .map(|(_, v)| v)
        .sum();
    let untraced_sum: f64 = untraced.iter().sum();
    let traced_sum: f64 = traced.per_op_medians().iter().sum();
    layers.insert(
        "trace.overhead_pct",
        (traced_sum / untraced_sum - 1.0) * 100.0,
    );
    layers.insert("trace.accounted_pct", layer_sum / untraced_sum * 100.0);
    layers
}
