//! `solve`: cold in-process solves. Each operation is one
//! `CompiledQuery::solve_with_scratch` call on one thread over a frozen
//! instance; the classes cover every dispatch shape of the engine.

use crate::check::{self, Agreement};
use crate::gen::{self, Shape};
use crate::rng::Rng;
use crate::stats::OpTimes;
use crate::trace::{per_pass_totals, write_trace, Tracer, SETUP_OP};
use crate::{describe_classes, timed_passes, Args, Outcome};
use cq::linear::{linear_order_all, pseudo_linear_order};
use cq::{Complexity, PtimeAlgorithm, Query};
use database::eval::Witness;
use database::{
    try_relation_translation, witnesses_with_plan_into, Database, FrozenDb, QueryPlan,
    ReducedScratch, ReducedSets, WitnessSet,
};
use resilience_core::engine::{
    CompiledQuery, Engine, Resilience, SolveMethod, SolveOptions, SolveReport, SolveScratch,
};
use resilience_core::exact::ExactScratch;
use resilience_core::flow_algorithms::{
    pairwise_bipartite_resilience_view, permutation_flow_live, rep_flow_live, seed_cuttable_mask,
    witness_path_flow_live, FlowScratch,
};
use resilience_core::special::{
    a3perm_r_resilience_opts, swx3perm_r_resilience_opts, ts3conf_resilience_opts,
};
use resilience_core::ExactSolver;
use std::collections::BTreeMap;
use std::time::Instant;

/// One operation class: a catalogue query, its generator shape and how many
/// distinct instances (operations) a pass holds.
pub struct Class {
    pub name: &'static str,
    pub query: &'static str,
    pub shape: Shape,
    pub ops: usize,
    /// The method the engine dispatches this class to today.
    pub method: SolveMethod,
    /// Exact classes only: accepted branch-and-bound node window of a
    /// candidate instance (see [`pick_exact`]).
    pub nodes: Option<(usize, usize)>,
}

const fn shape(nodes: u64, edges: usize, loops: f64, sym: f64, unary: f64) -> Shape {
    Shape {
        nodes,
        edges,
        loops,
        sym,
        unary,
        share: 0.0,
    }
}

pub fn classes() -> Vec<Class> {
    vec![
        Class {
            name: "linear",
            query: "q_ACconf",
            shape: shape(700, 2600, 0.0, 0.0, 0.3),
            ops: 6,
            method: SolveMethod::LinearFlow,
            nodes: None,
        },
        Class {
            name: "bipartite",
            query: "q_rats",
            shape: shape(1200, 4500, 0.0, 0.0, 0.5),
            ops: 4,
            method: SolveMethod::BipartiteCover,
            nodes: None,
        },
        Class {
            name: "permutation",
            query: "q_Aperm",
            shape: shape(1200, 4500, 0.0, 0.5, 0.5),
            ops: 3,
            method: SolveMethod::PermutationFlow,
            nodes: None,
        },
        Class {
            name: "rep",
            query: "z3",
            shape: shape(1200, 4500, 0.3, 0.0, 0.5),
            ops: 3,
            method: SolveMethod::RepFlow,
            nodes: None,
        },
        Class {
            name: "special.TS3conf",
            query: "q_TS3conf",
            shape: Shape {
                share: 0.5,
                ..shape(180, 540, 0.0, 0.1, 0.0)
            },
            ops: 4,
            method: SolveMethod::SpecialFlow("q_TS3conf"),
            nodes: None,
        },
        Class {
            name: "components",
            query: "q_comp",
            shape: shape(340, 340, 0.0, 0.0, 0.3),
            ops: 6,
            method: SolveMethod::ComponentMinimum,
            nodes: None,
        },
        Class {
            name: "exact.chain",
            query: "q_chain",
            shape: shape(20, 40, 0.05, 0.0, 0.0),
            ops: 4,
            method: SolveMethod::ExactBranchAndBound,
            nodes: Some((2_500, 3_500)),
        },
        Class {
            name: "exact.achain",
            query: "q_achain",
            shape: shape(100, 200, 0.05, 0.0, 0.5),
            ops: 4,
            method: SolveMethod::ExactBranchAndBound,
            nodes: Some((500, 900)),
        },
    ]
}

/// Draws candidate instances of an exact class from the seed until one
/// whose branch-and-bound search explores a node count inside the class
/// window. Exact search cost is heavy-tailed per instance, so a fixed size
/// alone cannot bound an operation's time. Returns the instance, its index
/// among the candidates and its node count.
pub fn pick_exact(
    seed: u64,
    class: &Class,
    q: &Query,
    compiled: &CompiledQuery,
    first: u64,
) -> Result<(Database, u64, usize), String> {
    let (lo, hi) = class.nodes.expect("exact class");
    for i in first..first + 400 {
        let db = gen::instance(q, class.shape, &mut Rng::derive(seed, class.name, i));
        let opts = SolveOptions::new().node_budget(hi);
        if let Ok(r) = compiled.solve(&db.freeze(), &opts) {
            if r.nodes_explored >= lo && r.method == SolveMethod::ExactBranchAndBound {
                return Ok((db, i, r.nodes_explored));
            }
        }
    }
    Err(format!(
        "no {} candidate within {lo}..{hi} nodes",
        class.name
    ))
}

/// The compiled artifacts a layer-by-layer replay needs, derived from the
/// public API the way `Engine::compile` derives them.
struct Replay {
    compiled: CompiledQuery,
    normalized: Query,
    plan: QueryPlan,
    linear_order: Option<Vec<usize>>,
    rep_order: Vec<usize>,
    components: Vec<CompiledQuery>,
}

impl Replay {
    fn new(compiled: CompiledQuery) -> Replay {
        let normalized = compiled.classification().evidence.normalized.clone();
        let plan = QueryPlan::compile(&normalized);
        let linear_order = linear_order_all(&normalized);
        let rep_order = linear_order
            .clone()
            .or_else(|| pseudo_linear_order(&normalized))
            .unwrap_or_else(|| (0..normalized.num_atoms()).collect());
        let components = match &compiled.classification().complexity {
            Complexity::PTime(PtimeAlgorithm::ComponentWise) => {
                let minimized = &compiled.classification().evidence.minimized;
                minimized
                    .components()
                    .iter()
                    .map(|c| Engine::compile(&minimized.subquery(c)))
                    .collect()
            }
            _ => Vec::new(),
        };
        Replay {
            compiled,
            normalized,
            plan,
            linear_order,
            rep_order,
            components,
        }
    }
}

#[derive(Default)]
struct Buffers {
    witnesses: Vec<Witness>,
    flow: FlowScratch,
    reduced: ReducedSets,
    reduced_scratch: ReducedScratch,
    exact: ExactScratch,
}

/// The engine's per-instance plan choice: a cardinality-scaled plan when
/// relation sizes are heavily skewed, else the instance-free one.
fn scaled_plan(q: &Query, db: &FrozenDb) -> Option<QueryPlan> {
    if q.num_atoms() < 2 {
        return None;
    }
    let (mut min, mut max) = (usize::MAX, 0usize);
    for a in q.atoms() {
        let size = db
            .schema()
            .relation_id(q.schema().name(a.relation))
            .map_or(0, |r| db.tuples_of(r).len());
        min = min.min(size);
        max = max.max(size);
    }
    (max >= 64 && max >= 8 * min.max(1)).then(|| QueryPlan::compile_scaled(q, db))
}

/// Solves one instance layer by layer through public functions, choosing
/// the plan and the dispatch the way the engine does, with a span around
/// every layer call.
fn replay(tr: &mut Tracer, r: &Replay, db: &FrozenDb, b: &mut Buffers) -> Resilience {
    let q = &r.normalized;
    let s = tr.begin("eval.enumerate");
    let scaled = scaled_plan(q, db);
    let translation = try_relation_translation(q, db).expect("instance covers the query");
    let mut buf = std::mem::take(&mut b.witnesses);
    witnesses_with_plan_into(
        scaled.as_ref().unwrap_or(&r.plan),
        &translation,
        db,
        &mut buf,
    );
    tr.end(s);
    tr.count("eval.witnesses", buf.len() as f64);
    let s = tr.begin("witness.index");
    let ws = WitnessSet::from_witnesses(q, db, buf);
    tr.end(s);
    let view = ws.view();
    let rho = if view.is_empty() {
        Resilience::Finite(0)
    } else if view.has_undeletable_witness() {
        Resilience::Unfalsifiable
    } else {
        let flow = |tr: &mut Tracer, name: &'static str, f: &mut dyn FnMut() -> Option<usize>| {
            let s = tr.begin(name);
            let out = f();
            tr.end(s);
            out
        };
        let exact = |tr: &mut Tracer, b: &mut Buffers| {
            let s = tr.begin("witness.reduced");
            view.reduced_into(&mut b.reduced, &mut b.reduced_scratch);
            tr.end(s);
            tr.count("witness.reduced_sets", b.reduced.len() as f64);
            tr.count("witness.reduced_witnesses", view.len() as f64);
            let s = tr.begin("exact.search");
            let out = ExactSolver::default()
                .solve_with_incumbent(&b.reduced, None, &mut b.exact)
                .expect("benchmark instances stay within the default node budget");
            tr.end(s);
            tr.count("exact.nodes", out.nodes_explored as f64);
            Resilience::from(out.resilience)
        };
        match &r.compiled.classification().complexity {
            Complexity::PTime(PtimeAlgorithm::Unfalsifiable) => Resilience::Unfalsifiable,
            Complexity::PTime(PtimeAlgorithm::ComponentWise) => {
                let s = tr.begin("engine.components");
                let mut best: Option<usize> = None;
                for sub in &r.components {
                    let rep = sub
                        .solve_with_scratch(db, &SolveOptions::new(), &mut SolveScratch::new())
                        .expect("component solve");
                    if let Resilience::Finite(k) = rep.resilience {
                        best = Some(best.map_or(k, |b: usize| b.min(k)));
                    }
                }
                tr.end(s);
                Resilience::from(best)
            }
            Complexity::PTime(PtimeAlgorithm::SjFreeLinearFlow)
            | Complexity::PTime(PtimeAlgorithm::ConfluenceFlow) => {
                let linear = r.linear_order.as_ref().and_then(|order| {
                    flow(tr, "flow.linear", &mut || {
                        seed_cuttable_mask(q, db, &mut b.flow);
                        witness_path_flow_live(db, view, order, true, &mut b.flow)
                            .map(|f| f.resilience)
                    })
                });
                match linear.or_else(|| {
                    flow(tr, "flow.bipartite", &mut || {
                        pairwise_bipartite_resilience_view(view)
                    })
                }) {
                    Some(k) => Resilience::Finite(k),
                    None => exact(tr, b),
                }
            }
            Complexity::PTime(PtimeAlgorithm::UnboundPermutation)
            | Complexity::PTime(PtimeAlgorithm::CatalogueMatch("q_perm" | "q_Aperm")) => {
                match flow(tr, "flow.permutation", &mut || {
                    seed_cuttable_mask(q, db, &mut b.flow);
                    permutation_flow_live(q, db, view, true, &mut b.flow).map(|f| f.resilience)
                }) {
                    Some(k) => Resilience::Finite(k),
                    None => exact(tr, b),
                }
            }
            Complexity::PTime(PtimeAlgorithm::RepeatedVariableFlow) => {
                match flow(tr, "flow.rep", &mut || {
                    seed_cuttable_mask(q, db, &mut b.flow);
                    rep_flow_live(q, db, view, &r.rep_order, true, &mut b.flow)
                        .map(|f| f.resilience)
                }) {
                    Some(k) => Resilience::Finite(k),
                    None => exact(tr, b),
                }
            }
            Complexity::PTime(PtimeAlgorithm::CatalogueMatch(name)) => {
                let special = flow(tr, "flow.special", &mut || {
                    match *name {
                        "q_A3perm-R" => a3perm_r_resilience_opts(q, db, true),
                        "q_Swx3perm-R" => swx3perm_r_resilience_opts(q, db, true),
                        "q_TS3conf" => ts3conf_resilience_opts(q, db, true),
                        _ => None,
                    }
                    .map(|f| f.resilience)
                });
                match special {
                    Some(k) => Resilience::Finite(k),
                    None => exact(tr, b),
                }
            }
            Complexity::NpComplete(_) | Complexity::Open => exact(tr, b),
        }
    };
    let mut buf = ws.into_witnesses();
    buf.clear();
    b.witnesses = buf;
    rho
}

struct Op {
    class: &'static str,
    query: usize,
    frozen: FrozenDb,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let classes = classes();
    // Input generation (not part of set-up): queries and instances.
    let queries: Vec<Query> = classes.iter().map(|c| gen::catalogue(c.query)).collect();
    let mut dbs: Vec<(usize, Database)> = Vec::new();
    for (ci, class) in classes.iter().enumerate() {
        if class.nodes.is_some() {
            let probe = Engine::compile(&queries[ci]);
            let mut next = 0;
            for _ in 0..class.ops {
                let (db, index, nodes) = pick_exact(args.seed, class, &queries[ci], &probe, next)?;
                if crate::verbose() {
                    eprintln!("{}: candidate {index} explores {nodes} nodes", class.name);
                }
                next = index + 1;
                dbs.push((ci, db));
            }
        } else {
            for i in 0..class.ops as u64 {
                let db = gen::instance(
                    &queries[ci],
                    class.shape,
                    &mut Rng::derive(args.seed, class.name, i),
                );
                dbs.push((ci, db));
            }
        }
    }
    Rng::derive(args.seed, "solve.order", 0).shuffle(&mut dbs);

    // Set-up: compile every query, freeze every instance.
    let mut tr = Tracer::new();
    tr.set_op(SETUP_OP);
    let t0 = Instant::now();
    let mut compiled = Vec::new();
    for q in &queries {
        let s = tr.begin("cq.compile");
        compiled.push(Engine::compile(q));
        tr.end(s);
    }
    let mut setup_s = t0.elapsed().as_secs_f64();
    // Each generated instance is dropped once frozen, so that the peak
    // resident set holds one copy of the data, as a user's would. Dropping
    // the benchmark's input is not set-up, so it falls outside the timer.
    let mut ops = Vec::new();
    for (ci, db) in dbs {
        let t = Instant::now();
        let s = tr.begin("database.freeze");
        let frozen = db.freeze();
        tr.end(s);
        setup_s += t.elapsed().as_secs_f64();
        drop(db);
        ops.push(Op {
            class: classes[ci].name,
            query: ci,
            frozen,
        });
    }

    // Verification pass (untimed): every output checked independently.
    let opts = SolveOptions::new();
    let mut scratch = SolveScratch::new();
    let mut problems = Vec::new();
    let mut expected: Vec<SolveReport> = Vec::new();
    for op in &ops {
        let report = compiled[op.query]
            .solve_with_scratch(&op.frozen, &opts, &mut scratch)
            .map_err(|e| format!("{}: {e}", op.class))?;
        if let Err(e) = check::report(&queries[op.query], &op.frozen, &report, &[]) {
            problems.push(format!("{}: {e}", op.class));
        }
        if report.method != classes[op.query].method {
            eprintln!(
                "resbench: note: {} dispatched to {:?}, not {:?}",
                op.class, report.method, classes[op.query].method
            );
        }
        expected.push(report);
    }
    let checked = Instant::now();
    problems.extend(flow_vs_exact(
        args.seed, &classes, &queries, &compiled, &ops, &expected,
    ));
    if crate::verbose() {
        eprintln!(
            "flow vs exact took {:.2} s",
            checked.elapsed().as_secs_f64()
        );
    }

    let run_ops = |times: &mut Vec<f64>, scratch: &mut SolveScratch| -> Result<(), String> {
        for (op, want) in ops.iter().zip(&expected) {
            let start = Instant::now();
            let report = compiled[op.query]
                .solve_with_scratch(&op.frozen, &opts, scratch)
                .map_err(|e| format!("{}: {e}", op.class))?;
            times.push(start.elapsed().as_secs_f64());
            if report.resilience != want.resilience || report.method != want.method {
                return Err(format!("{}: a repeated solve changed its answer", op.class));
            }
            std::hint::black_box(&report);
        }
        Ok(())
    };

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (times, cpu_s) = timed_passes(seconds, 3, |t| run_ops(t, &mut scratch))?;
    let medians = times.per_op_medians();
    describe_classes(&ops.iter().map(|o| o.class).collect::<Vec<_>>(), &medians);

    let mut layers = BTreeMap::new();
    if args.trace {
        let replays: Vec<Replay> = queries
            .iter()
            .map(|q| Replay::new(Engine::compile(q)))
            .collect();
        let mut bufs = Buffers::default();
        let n = ops.len();
        let mut pass = 0u32;
        let traced = timed_passes(seconds, 3, |t| {
            for (i, (op, want)) in ops.iter().zip(&expected).enumerate() {
                tr.set_op(pass * n as u32 + i as u32);
                let start = Instant::now();
                let s = tr.begin("op");
                let rho = replay(&mut tr, &replays[op.query], &op.frozen, &mut bufs);
                tr.end(s);
                t.push(start.elapsed().as_secs_f64());
                if rho != want.resilience {
                    return Err(format!(
                        "{}: layer replay gives {rho}, the engine {}",
                        op.class, want.resilience
                    ));
                }
            }
            pass += 1;
            Ok(())
        })?;
        layers = solve_layers(&tr, n, &medians, &traced.0);
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

/// Per-layer metrics of the traced `solve` run.
fn solve_layers(
    tr: &Tracer,
    ops: usize,
    untraced: &[f64],
    traced: &OpTimes,
) -> BTreeMap<&'static str, f64> {
    let mut layers = BTreeMap::new();
    layers.insert("cq.compile_ms", tr.setup_ms("cq.compile"));
    layers.insert("database.freeze_ms", tr.setup_ms("database.freeze"));
    let own = per_pass_totals(&tr.op_self_times(), ops);
    let counts = per_pass_totals(&tr.op_counts(), ops);
    let ms = |name: &str| own.get(name).copied().unwrap_or(0.0) * 1e3;
    for (metric, span) in [
        ("eval.enumerate_ms", "eval.enumerate"),
        ("witness.index_ms", "witness.index"),
        ("witness.reduced_ms", "witness.reduced"),
        ("flow.linear_ms", "flow.linear"),
        ("flow.bipartite_ms", "flow.bipartite"),
        ("flow.permutation_ms", "flow.permutation"),
        ("flow.rep_ms", "flow.rep"),
        ("flow.special_ms", "flow.special"),
        ("exact.search_ms", "exact.search"),
        ("engine.components_ms", "engine.components"),
    ] {
        layers.insert(metric, ms(span));
    }
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    layers.insert("eval.witnesses", count("eval.witnesses"));
    layers.insert("exact.nodes", count("exact.nodes"));
    let reduced_witnesses = count("witness.reduced_witnesses");
    if reduced_witnesses > 0.0 {
        layers.insert(
            "witness.reduced_ratio",
            count("witness.reduced_sets") / reduced_witnesses,
        );
    }
    let layer_sum: f64 = own
        .iter()
        .filter(|(name, _)| **name != "op")
        .map(|(_, v)| v)
        .sum();
    let untraced_sum: f64 = untraced.iter().sum();
    let traced_sum: f64 = traced.per_op_medians().iter().sum();
    layers.insert("engine.overhead_ms", (untraced_sum - layer_sum) * 1e3);
    layers.insert(
        "trace.overhead_pct",
        (traced_sum / untraced_sum - 1.0) * 100.0,
    );
    layers.insert("trace.accounted_pct", layer_sum / untraced_sum * 100.0);
    layers
}

/// Flow results against exact search. Each flow-dispatched operation is
/// compared where exact search finishes within a small budget; every flow
/// class is also compared on smaller draws from the same generator, where
/// it always finishes (BipartiteCover returns no contingency set, so this
/// is its only check beyond satisfiability).
fn flow_vs_exact(
    seed: u64,
    classes: &[Class],
    queries: &[Query],
    compiled: &[CompiledQuery],
    ops: &[Op],
    reports: &[SolveReport],
) -> Vec<String> {
    let mut problems = Vec::new();
    for (op, report) in ops.iter().zip(reports) {
        if classes[op.query].nodes.is_some() {
            continue;
        }
        if let Err(e) =
            check::flow_vs_exact(&queries[op.query], &op.frozen, report.resilience, 2_000)
        {
            problems.push(format!("{}: {e}", op.class));
        }
    }
    for (ci, class) in classes.iter().enumerate() {
        if class.nodes.is_some() {
            continue;
        }
        let mut agreed = 0;
        for i in 0..12u64 {
            let db = gen::instance(
                &queries[ci],
                class.shape.shrunk(8),
                &mut Rng::derive(seed, &format!("{}.small", class.name), i),
            )
            .freeze();
            let report = match compiled[ci].solve(&db, &SolveOptions::new()) {
                Ok(r) => r,
                Err(e) => {
                    problems.push(format!("{} (small draw {i}): {e}", class.name));
                    continue;
                }
            };
            if let Err(e) = check::report(&queries[ci], &db, &report, &[]) {
                problems.push(format!("{} (small draw {i}): {e}", class.name));
            }
            match check::flow_vs_exact(&queries[ci], &db, report.resilience, 500_000) {
                Ok(Agreement::Agrees) => agreed += 1,
                Ok(Agreement::Unfinished) => {}
                Err(e) => problems.push(format!("{} (small draw {i}): {e}", class.name)),
            }
            if agreed == 3 {
                break;
            }
        }
        if agreed < 3 {
            problems.push(format!(
                "{}: exact search finished on only {agreed} small draws",
                class.name
            ));
        }
    }
    problems
}
