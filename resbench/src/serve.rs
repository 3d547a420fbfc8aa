//! `serve`: an in-process `resd` (`Server`, one worker) driven over loopback
//! by one client on one connection in a closed loop: the next request goes
//! out when the previous response is in. The client follows a seeded cyclic
//! script over two tenants; every response is compared with the local
//! rendering of the same computation.

use crate::check;
use crate::gen::{self, Shape};
use crate::rng::Rng;
use crate::stats::{median, OpTimes};
use crate::trace::{write_trace, Tracer, SETUP_OP};
use crate::{describe_classes, timed_passes, Args, Outcome};
use cq::Query;
use database::snapshot::{self, WriteOptions};
use database::{FrozenDb, TupleId};
use resilience_core::engine::{
    CompiledQuery, SharedSolveSession, SolveOptions, SolveReport, SolveScratch,
};
use resilience_core::plancache::PlanCache;
use server::client::Client;
use server::jsonio::{self, json_escape, JsonValue};
use server::{dbtext, Server, ServerConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The deadline every `resolve` of the deadline operation carries, and the
/// grace past it after which an `ok` answer counts as a missed deadline.
const DEADLINE_MS: u64 = 1;
const GRACE_MS: f64 = 0.5;

/// Base queries each tenant registers (each eight times, under their own
/// ids), with the shape of the instance it solves through each. Solves are
/// most of the requests, so p50 and p90 fall on requests whose daemon work
/// (parsing, registry, solve, rendering) outweighs the loopback wake-ups.
fn bases() -> Vec<(&'static str, Shape)> {
    let s = |nodes, edges, loops, sym, unary| Shape {
        nodes,
        edges,
        loops,
        sym,
        unary,
        share: 0.0,
    };
    let mut out = Vec::new();
    for _ in 0..8 {
        out.push(("q_ACconf", s(240, 800, 0.0, 0.0, 0.3)));
        out.push(("q_Aperm", s(300, 1050, 0.0, 0.5, 0.5)));
        out.push(("z3", s(300, 1050, 0.3, 0.0, 0.5)));
        out.push(("q_rats", s(300, 1200, 0.0, 0.0, 0.5)));
    }
    out
}

/// The deadline operation's session instance (q_ACconf): large enough that
/// its warm rebuild takes several times `DEADLINE_MS + GRACE_MS`.
const DEADLINE_SHAPE: Shape = Shape {
    nodes: 1800,
    edges: 5400,
    loops: 0.0,
    sym: 0.0,
    unary: 0.3,
    share: 0.0,
};

/// Consistent renamings of the base queries' variables (and atom
/// rotations), which the plan cache maps to the same shape.
fn variant(q: &Query, rng: &mut Rng) -> String {
    let mut names: Vec<String> = (0..q.num_vars())
        .map(|i| format!("v{i}_{}", rng.below(1000)))
        .collect();
    rng.shuffle(&mut names);
    let mut atoms: Vec<String> = q
        .atoms()
        .iter()
        .map(|a| {
            let args: Vec<&str> = a.args.iter().map(|v| names[v.index()].as_str()).collect();
            let ex = if a.exogenous { "^x" } else { "" };
            format!("{}{ex}({})", q.schema().name(a.relation), args.join(","))
        })
        .collect();
    let k = rng.below(atoms.len() as u64) as usize;
    atoms.rotate_left(k);
    atoms.join(", ")
}

/// What a request is, for checking its response and naming its latency.
#[derive(Clone)]
enum Kind {
    Solve {
        tenant: usize,
        base: usize,
    },
    Reset {
        session: usize,
    },
    Mutate {
        session: usize,
        tuple: TupleId,
        delete: bool,
    },
    Resolve {
        session: usize,
    },
    Compile {
        base: usize,
    },
    Load {
        tenant: usize,
        base: usize,
        snapshot: bool,
    },
    Unload,
    Stats,
    /// The resolve with `DEADLINE_MS` on the deadline session.
    Deadline {
        session: usize,
    },
}

impl Kind {
    fn verb(&self) -> &'static str {
        match self {
            Kind::Solve { .. } => "solve",
            Kind::Reset { .. } => "reset",
            Kind::Mutate { delete: true, .. } => "delete",
            Kind::Mutate { delete: false, .. } => "restore",
            Kind::Resolve { .. } | Kind::Deadline { .. } => "resolve",
            Kind::Compile { .. } => "compile",
            Kind::Load { .. } => "load",
            Kind::Unload => "unload",
            Kind::Stats => "stats",
        }
    }
}

struct Request {
    line: String,
    kind: Kind,
}

/// Local mirror of one daemon session (all are `q_ACconf` sessions): the
/// same steps on the same instance give byte-identical events.
struct LocalSession {
    session: SharedSolveSession,
    mask: Vec<bool>,
}

struct Inputs {
    queries: Vec<Query>,
    texts: Vec<Vec<String>>,
    deadline_text: String,
    snapshots: Vec<Vec<PathBuf>>,
    requests: Vec<Request>,
}

const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = PathBuf::from(".bench_work").join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let result = run_in(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    result
}

fn generate(seed: u64, work: &std::path::Path) -> Result<Inputs, String> {
    let bases = bases();
    let queries: Vec<Query> = bases.iter().map(|(n, _)| gen::catalogue(n)).collect();
    let mut texts = Vec::new();
    let mut snapshots = Vec::new();
    // Each tenant's session instance (base 0), whose tuples the session
    // steps name.
    let mut session_dbs: Vec<FrozenDb> = Vec::new();
    for (t, _) in TENANTS.iter().enumerate() {
        let mut tx = Vec::new();
        let mut sn = Vec::new();
        for (b, (name, shape)) in bases.iter().enumerate() {
            let db = gen::instance(
                &queries[b],
                *shape,
                &mut Rng::derive(seed, &format!("serve.{t}.{name}"), b as u64),
            );
            tx.push(dbtext::to_text(&db));
            let path = work.join(format!("t{t}-{b}.snap"));
            let frozen = db.freeze();
            snapshot::write(
                &path,
                &frozen,
                &WriteOptions {
                    labels: None,
                    source_ids: None,
                },
            )
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
            sn.push(path);
            if b == 0 {
                session_dbs.push(frozen);
            }
        }
        texts.push(tx);
        snapshots.push(sn);
    }
    // The deadline operation fails on every run, so its inputs must not
    // depend on the seed: a fixed stream draws them.
    let mut fixed = Rng::derive(0, "serve.deadline", 0);
    let deadline_db = gen::instance(&queries[0], DEADLINE_SHAPE, &mut fixed);
    let deadline_text = dbtext::to_text(&deadline_db);

    let mut rng = Rng::derive(seed, "serve.script", 0);
    let mut requests = Vec::new();
    // Sessions: 0 and 1 are the tenants' q_ACconf sessions, 2 the deadline
    // session (tenant 0).
    let endo = |db: &FrozenDb, rng: &mut Rng| -> TupleId {
        let r = db.schema().relation_id("R").expect("q_ACconf has R");
        let ts = db.tuples_of(r);
        ts[rng.below(ts.len() as u64) as usize]
    };
    for (t, auth) in TENANTS.iter().enumerate() {
        for b in 0..bases.len() {
            let opts = if rng.chance(0.5) {
                ", \"options\": {\"timeout_ms\": 30000}"
            } else {
                ""
            };
            requests.push(Request {
                line: format!(
                    "{{\"op\": \"solve\", \"auth\": \"{auth}\", \"query_id\": \"q{b}\", \"db_id\": \"d{b}\", \"tag\": \"t{t}-{b}\"{opts}}}"
                ),
                kind: Kind::Solve { tenant: t, base: b },
            });
        }
        requests.push(Request {
            line: format!("{{\"op\": \"reset\", \"auth\": \"{auth}\", \"session_id\": \"s0\"}}"),
            kind: Kind::Reset { session: t },
        });
        let mut picked: Vec<TupleId> = Vec::new();
        while picked.len() < 3 {
            let d = endo(&session_dbs[t], &mut rng);
            if !picked.contains(&d) {
                picked.push(d);
            }
        }
        let steps = [
            (picked[0], true),
            (picked[1], true),
            (picked[0], false),
            (picked[2], true),
            (picked[2], false),
            (picked[1], false),
        ];
        for (tuple, delete) in steps {
            let verb = if delete { "delete" } else { "restore" };
            requests.push(Request {
                line: format!(
                    "{{\"op\": \"{verb}\", \"auth\": \"{auth}\", \"session_id\": \"s0\", \"tuple\": \"{}\"}}",
                    jsonio::render_tuple(&session_dbs[t], tuple)
                ),
                kind: Kind::Mutate { session: t, tuple, delete },
            });
            requests.push(Request {
                line: format!(
                    "{{\"op\": \"resolve\", \"auth\": \"{auth}\", \"session_id\": \"s0\"}}"
                ),
                kind: Kind::Resolve { session: t },
            });
        }
        for k in 0..4 {
            // Round robin over the four base queries: one renamed variant
            // of each per tenant and pass.
            let b = (k + t) % 4;
            requests.push(Request {
                line: format!(
                    "{{\"op\": \"compile\", \"auth\": \"{auth}\", \"query\": \"{}\", \"id\": \"variant\"}}",
                    json_escape(&variant(&queries[b], &mut rng))
                ),
                kind: Kind::Compile { base: b },
            });
        }
        // Text and snapshot loads of fixed bases, so every seed loads
        // instances of the same size.
        let b = t;
        requests.push(Request {
            line: format!(
                "{{\"op\": \"load\", \"auth\": \"{auth}\", \"query_id\": \"q{b}\", \"id\": \"scratch-text\", \"text\": \"{}\"}}",
                json_escape(&texts[t][b])
            ),
            kind: Kind::Load { tenant: t, base: b, snapshot: false },
        });
        let b = 2 + t;
        requests.push(Request {
            line: format!(
                "{{\"op\": \"load\", \"auth\": \"{auth}\", \"query_id\": \"q{b}\", \"id\": \"scratch-snap\", \"snapshot\": \"{}\"}}",
                json_escape(&snapshots[t][b].display().to_string())
            ),
            kind: Kind::Load { tenant: t, base: b, snapshot: true },
        });
        for id in ["scratch-text", "scratch-snap"] {
            requests.push(Request {
                line: format!("{{\"op\": \"unload\", \"auth\": \"{auth}\", \"db_id\": \"{id}\"}}"),
                kind: Kind::Unload,
            });
        }
    }
    requests.push(Request {
        line: "{\"op\": \"stats\"}".to_string(),
        kind: Kind::Stats,
    });
    // The deadline operation: reset, delete, then a resolve whose warm
    // rebuild outlasts its deadline.
    let auth = TENANTS[0];
    let dd = {
        let frozen = deadline_db.freeze();
        let t = endo(&frozen, &mut fixed);
        (t, jsonio::render_tuple(&frozen, t))
    };
    requests.push(Request {
        line: format!("{{\"op\": \"reset\", \"auth\": \"{auth}\", \"session_id\": \"deadline\"}}"),
        kind: Kind::Reset { session: 2 },
    });
    requests.push(Request {
        line: format!("{{\"op\": \"delete\", \"auth\": \"{auth}\", \"session_id\": \"deadline\", \"tuple\": \"{}\"}}", dd.1),
        kind: Kind::Mutate { session: 2, tuple: dd.0, delete: true },
    });
    requests.push(Request {
        line: format!(
            "{{\"op\": \"resolve\", \"auth\": \"{auth}\", \"session_id\": \"deadline\", \"options\": {{\"timeout_ms\": {DEADLINE_MS}}}}}"
        ),
        kind: Kind::Deadline { session: 2 },
    });
    Ok(Inputs {
        queries,
        texts,
        deadline_text,
        snapshots,
        requests,
    })
}

/// A request's outcome as the timed loop sees it.
struct Reply {
    raw: String,
    rtt: f64,
}

fn send(client: &mut Client, line: &str) -> Result<Reply, String> {
    let start = Instant::now();
    let raw = client.request_raw(line)?;
    Ok(Reply {
        rtt: start.elapsed().as_secs_f64(),
        raw,
    })
}

fn ok_reply(raw: &str) -> Result<JsonValue, String> {
    let v = jsonio::parse_json(raw)?;
    match v.get("ok").and_then(JsonValue::as_bool) {
        Some(true) => Ok(v),
        _ => Err(format!("request failed: {raw}")),
    }
}

/// The set-up requests: register the queries, load the instances and open
/// the sessions of both tenants, then load and open the deadline session.
/// They are made during input generation, so the timed set-up is the
/// daemon's work and the round trips.
fn setup_lines(queries: &[Query], texts: &[Vec<String>], deadline_text: &str) -> Vec<String> {
    let mut lines = Vec::new();
    for (t, auth) in TENANTS.iter().enumerate() {
        for (b, q) in queries.iter().enumerate() {
            lines.push(format!(
                "{{\"op\": \"compile\", \"auth\": \"{auth}\", \"id\": \"q{b}\", \"query\": \"{}\"}}",
                json_escape(&q.to_string())
            ));
            lines.push(format!(
                "{{\"op\": \"load\", \"auth\": \"{auth}\", \"query_id\": \"q{b}\", \"id\": \"d{b}\", \"text\": \"{}\"}}",
                json_escape(&texts[t][b])
            ));
        }
        lines.push(format!(
            "{{\"op\": \"session\", \"auth\": \"{auth}\", \"query_id\": \"q0\", \"db_id\": \"d0\", \"session_id\": \"s0\"}}"
        ));
    }
    let auth = TENANTS[0];
    lines.push(format!(
        "{{\"op\": \"load\", \"auth\": \"{auth}\", \"query_id\": \"q0\", \"id\": \"deadline\", \"text\": \"{}\"}}",
        json_escape(deadline_text)
    ));
    lines.push(format!(
        "{{\"op\": \"session\", \"auth\": \"{auth}\", \"query_id\": \"q0\", \"db_id\": \"deadline\", \"session_id\": \"deadline\"}}"
    ));
    lines
}

/// Sends the set-up requests over the client's connection.
fn setup(client: &mut Client, lines: &[String]) -> Result<(), String> {
    for line in lines {
        ok_reply(&client.request_raw(line)?)?;
    }
    Ok(())
}

/// The local side of every check: the plan cache's representatives and
/// mirrors of the daemon's three sessions. Other instances are parsed from
/// the same texts when a check needs them and dropped afterwards, so the
/// peak resident set is mostly the daemon's.
struct Local {
    cache: PlanCache,
    reps: Vec<Arc<CompiledQuery>>,
    sessions: Vec<LocalSession>,
}

/// An instance parsed from the text the daemon loads, as the daemon parses
/// it (same tuple ids).
fn parse(rep: &CompiledQuery, text: &str) -> Result<FrozenDb, String> {
    Ok(dbtext::parse_database_with_labels(rep.query(), text)?
        .0
        .freeze())
}

fn local(inputs: &Inputs) -> Result<Local, String> {
    let cache = PlanCache::new(resilience_core::plancache::DEFAULT_CAPACITY);
    let reps: Vec<_> = inputs
        .queries
        .iter()
        .map(|q| cache.compile(q).compiled)
        .collect();
    let mut sessions = Vec::new();
    for text in [
        &inputs.texts[0][0],
        &inputs.texts[1][0],
        &inputs.deadline_text,
    ] {
        let db = Arc::new(parse(&reps[0], text)?);
        sessions.push(LocalSession {
            session: reps[0]
                .session_shared(&db, &SolveOptions::new())
                .map_err(|e| e.to_string())?,
            mask: vec![false; db.num_tuples()],
        });
    }
    Ok(Local {
        cache,
        reps,
        sessions,
    })
}

/// Checks one verification-pass reply against the local computation.
/// Returns whether the reply is a missed deadline.
fn verify_reply(
    req: &Request,
    raw: &str,
    rtt: f64,
    loc: &mut Local,
    inputs: &Inputs,
    problems: &mut Vec<String>,
) -> bool {
    let mut fail = |e: String| {
        problems.push(format!(
            "{} ({}): {e}",
            req.kind.verb(),
            &req.line[..req.line.len().min(80)]
        ))
    };
    let v = match jsonio::parse_json(raw) {
        Ok(v) => v,
        Err(e) => {
            fail(format!("malformed response: {e}"));
            return false;
        }
    };
    let ok = v.get("ok").and_then(JsonValue::as_bool) == Some(true);
    if let Kind::Deadline { .. } = req.kind {
        if !ok {
            // Cancelled in time: the deadline held.
            if v.get("kind").and_then(JsonValue::as_str) != Some("cancelled") {
                fail(format!("unexpected error {raw}"));
            }
            return false;
        }
    } else if !ok {
        fail(format!("request failed: {raw}"));
        return false;
    }
    match &req.kind {
        Kind::Solve { tenant, base } => {
            let rep = &loc.reps[*base];
            let report = parse(rep, &inputs.texts[*tenant][*base]).and_then(|db| {
                let report = rep
                    .solve(&db, &SolveOptions::new())
                    .map_err(|e| e.to_string())?;
                Ok((db, report))
            });
            match report {
                Ok((db, report)) => {
                    let tag = format!("t{tenant}-{base}");
                    let local = jsonio::report_json(&tag, &db, &report);
                    if let Err(e) = check::remote_vs_local(
                        "solve",
                        jsonio::extract_raw(raw, "result").unwrap_or(""),
                        &local,
                    ) {
                        fail(e);
                    }
                    if let Err(e) = check::report(&inputs.queries[*base], &db, &report, &[]) {
                        fail(e);
                    }
                }
                Err(e) => fail(e),
            }
        }
        Kind::Reset { session } => {
            let s = &mut loc.sessions[*session];
            s.session.reset();
            s.mask.iter_mut().for_each(|m| *m = false);
            let local = jsonio::reset_event_json(s.session.live_witnesses());
            if let Err(e) = check::remote_vs_local(
                "reset",
                jsonio::extract_raw(raw, "event").unwrap_or(""),
                &local,
            ) {
                fail(e);
            }
        }
        Kind::Mutate {
            session,
            tuple,
            delete,
        } => {
            let s = &mut loc.sessions[*session];
            let changed = if *delete {
                s.session.delete(&[*tuple])
            } else {
                s.session.restore(&[*tuple])
            };
            s.mask[tuple.index()] = *delete;
            let local = jsonio::mutation_event_json(
                if *delete { "delete" } else { "restore" },
                &jsonio::render_tuple(s.session.store(), *tuple),
                changed,
                s.session.live_witnesses(),
                s.session.deleted_count(),
            );
            if let Err(e) = check::remote_vs_local(
                "mutate",
                jsonio::extract_raw(raw, "event").unwrap_or(""),
                &local,
            ) {
                fail(e);
            }
        }
        Kind::Resolve { session } | Kind::Deadline { session } => {
            let s = &mut loc.sessions[*session];
            match s.session.solve(&SolveOptions::new()) {
                Ok(report) => {
                    let stats = s.session.last_solve_stats();
                    let local = jsonio::solve_event_json(s.session.store(), &report, &stats);
                    if let Err(e) = check::remote_vs_local(
                        "resolve",
                        jsonio::extract_raw(raw, "event").unwrap_or(""),
                        &local,
                    ) {
                        fail(e);
                    }
                    check_session_step(&inputs.queries[0], s, &report, &mut fail);
                }
                Err(e) => fail(e.to_string()),
            }
            if let Kind::Deadline { .. } = req.kind {
                return rtt * 1e3 > DEADLINE_MS as f64 + GRACE_MS;
            }
        }
        Kind::Compile { base } => {
            let rep = &loc.reps[*base];
            if v.get("query").and_then(JsonValue::as_str) != Some(rep.query().to_string().as_str())
            {
                fail(format!(
                    "compile returned {raw}, the representative is {}",
                    rep.query()
                ));
            }
            let complexity = rep.classification().complexity.to_string();
            if v.get("complexity").and_then(JsonValue::as_str) != Some(complexity.as_str()) {
                fail(format!(
                    "compile complexity differs from local {complexity}"
                ));
            }
        }
        Kind::Load {
            tenant,
            base,
            snapshot,
        } => {
            let want = if *snapshot {
                snapshot::load(&inputs.snapshots[*tenant][*base], &Default::default())
                    .map(|s| s.db.num_tuples())
                    .map_err(|e| e.to_string())
            } else {
                parse(&loc.reps[*base], &inputs.texts[*tenant][*base]).map(|db| db.num_tuples())
            };
            let got = v.get("tuples").and_then(JsonValue::as_usize);
            if want.as_ref().ok() != got.as_ref() {
                fail(format!("load reports {got:?} tuples, local {want:?}"));
            }
        }
        Kind::Unload | Kind::Stats => {}
    }
    false
}

fn check_session_step(
    q: &Query,
    s: &LocalSession,
    report: &SolveReport,
    fail: &mut impl FnMut(String),
) {
    let scratch = database::copy_without_mask(s.session.store(), &s.mask).freeze();
    match s.session.compiled().solve(&scratch, &SolveOptions::new()) {
        Ok(cold) => {
            if let Err(e) = check::session_vs_scratch(report.resilience, cold.resilience) {
                fail(e);
            }
        }
        Err(e) => fail(e.to_string()),
    }
    if let Err(e) = check::report(q, s.session.store(), report, &s.mask) {
        fail(e);
    }
}

fn run_in(args: &Args, work: &std::path::Path) -> Result<Outcome, String> {
    let inputs = generate(args.seed, work)?;
    let setup_requests = setup_lines(&inputs.queries, &inputs.texts, &inputs.deadline_text);
    let mut tr = Tracer::new();
    tr.set_op(SETUP_OP);

    // Set-up: start the daemon, connect, register, load, open sessions.
    let t0 = Instant::now();
    let server = Server::bind(ServerConfig::new("127.0.0.1:0").workers(1))
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let shutdown = server.shutdown_flag();
    let daemon = std::thread::spawn(move || server.run());
    let outcome = (|| -> Result<Outcome, String> {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        setup(&mut client, &setup_requests)?;
        let setup_s = t0.elapsed().as_secs_f64();
        drop(setup_requests);

        // Verification pass.
        let mut loc = local(&inputs)?;
        let mut problems = Vec::new();
        let mut first: Vec<String> = Vec::new();
        let mut misses = 0u64;
        for req in &inputs.requests {
            let reply = send(&mut client, &req.line)?;
            if verify_reply(req, &reply.raw, reply.rtt, &mut loc, &inputs, &mut problems) {
                misses += 1;
            }
            first.push(reply.raw);
        }
        let deadline_ops = inputs
            .requests
            .iter()
            .filter(|r| matches!(r.kind, Kind::Deadline { .. }))
            .count() as u64;
        if misses != deadline_ops {
            eprintln!("resbench: note: {misses} of {deadline_ops} deadline operations missed in the verification pass");
        }

        let mut failed = 0u64;
        let run_pass = |client: &mut Client,
                        t: &mut Vec<f64>,
                        tr: Option<(&mut Tracer, u32)>,
                        failed: &mut u64|
         -> Result<(), String> {
            let mut tr = tr;
            for (i, (req, want)) in inputs.requests.iter().zip(&first).enumerate() {
                if let Some((tr, pass)) = tr.as_mut() {
                    tr.set_op(*pass * inputs.requests.len() as u32 + i as u32);
                }
                let open = tr.as_mut().map(|(tr, _)| tr.begin(rtt_span(&req.kind)));
                let reply = send(client, &req.line)?;
                if let (Some(open), Some((tr, _))) = (open, tr.as_mut()) {
                    tr.end(open);
                    tr.count("server.request_bytes", req.line.len() as f64 + 1.0);
                    tr.count("server.response_bytes", reply.raw.len() as f64 + 1.0);
                }
                t.push(reply.rtt);
                match req.kind {
                    Kind::Deadline { .. } => {
                        let ok = reply.raw.starts_with("{\"ok\": true");
                        if ok && reply.rtt * 1e3 > DEADLINE_MS as f64 + GRACE_MS {
                            *failed += 1;
                            if let Some((tr, _)) = tr.as_mut() {
                                tr.count("server.deadline_misses", 1.0);
                            }
                        }
                    }
                    Kind::Stats => {
                        if !reply.raw.starts_with("{\"ok\": true") {
                            return Err(format!("stats failed: {}", reply.raw));
                        }
                    }
                    _ => {
                        if reply.raw != *want {
                            return Err(format!(
                                "a repeated request changed its response: {} -> {}",
                                want, reply.raw
                            ));
                        }
                    }
                }
            }
            Ok(())
        };

        let seconds = if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        };
        let (times, cpu_s) =
            timed_passes(seconds, 3, |t| run_pass(&mut client, t, None, &mut failed))?;
        let medians = times.per_op_medians();
        let names: Vec<&'static str> = inputs.requests.iter().map(|r| rtt_span(&r.kind)).collect();
        describe_classes(&names, &medians);
        if crate::verbose() {
            for (r, m) in inputs.requests.iter().zip(&medians) {
                if let Kind::Deadline { .. } = r.kind {
                    eprintln!("deadline operation: median {:.3} ms", m * 1e3);
                }
            }
        }

        let mut layers = BTreeMap::new();
        if args.trace {
            let mut pass_no = 0u32;
            let mut traced_failed = 0u64;
            let traced = timed_passes(seconds, 3, |t| {
                let r = run_pass(&mut client, t, Some((&mut tr, pass_no)), &mut traced_failed);
                pass_no += 1;
                r
            })?;
            let stats_raw = client.request_raw("{\"op\": \"stats\"}")?;
            layers = serve_layers(&mut tr, &inputs, &mut loc, &medians, &traced.0, &stats_raw)?;
            write_trace(&tr, &args.workload, args.seed)?;
        }
        let _ = client.request_raw("{\"op\": \"shutdown\"}");
        Ok(Outcome {
            times,
            cpu_s,
            setup_s,
            failed,
            problems,
            layers,
        })
    })();
    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    let joined = daemon.join();
    let outcome = outcome?;
    match joined {
        Ok(Ok(())) => Ok(outcome),
        Ok(Err(e)) => Err(format!("daemon: {e}")),
        Err(_) => Err("daemon thread panicked".into()),
    }
}

fn rtt_span(kind: &Kind) -> &'static str {
    match kind.verb() {
        "solve" => "server.rtt_solve",
        "reset" => "server.rtt_reset",
        "delete" => "server.rtt_delete",
        "restore" => "server.rtt_restore",
        "resolve" => "server.rtt_resolve",
        "compile" => "server.rtt_compile",
        "load" => "server.rtt_load",
        "unload" => "server.rtt_unload",
        _ => "server.rtt_stats",
    }
}

/// Repetitions of the in-process replay of a pass's layer calls.
const LAYER_REPS: usize = 20;

/// Per-layer metrics of the traced `serve` run: client-observed latency per
/// verb, request and response sizes, and the layer calls the daemon makes
/// per request, replayed in process on the same inputs.
fn serve_layers(
    tr: &mut Tracer,
    inputs: &Inputs,
    loc: &mut Local,
    untraced: &[f64],
    traced: &OpTimes,
    stats_raw: &str,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let ops = inputs.requests.len();
    let passes = traced.passes.len();
    let mut layers = BTreeMap::new();
    // Median per request of each verb's round trip.
    let mut per: BTreeMap<(&'static str, usize), Vec<f64>> = BTreeMap::new();
    for s in tr.spans.iter().filter(|s| s.op != SETUP_OP) {
        per.entry((s.name, s.op as usize % ops))
            .or_default()
            .push((s.end_ns - s.start_ns) as f64 * 1e-9);
    }
    let mut by_verb: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), v) in per {
        by_verb.entry(name).or_default().push(median(&v));
    }
    for (name, metric) in [
        ("server.rtt_solve", "server.rtt_solve_ms"),
        ("server.rtt_delete", "server.rtt_delete_ms"),
        ("server.rtt_resolve", "server.rtt_resolve_ms"),
        ("server.rtt_restore", "server.rtt_restore_ms"),
        ("server.rtt_reset", "server.rtt_reset_ms"),
        ("server.rtt_compile", "server.rtt_compile_ms"),
        ("server.rtt_load", "server.rtt_load_ms"),
        ("server.rtt_unload", "server.rtt_unload_ms"),
        ("server.rtt_stats", "server.rtt_stats_ms"),
    ] {
        layers.insert(metric, by_verb.get(name).map_or(0.0, |v| median(v)) * 1e3);
    }
    let total = |name: &str| {
        tr.counts
            .iter()
            .filter(|c| c.1 == name)
            .map(|c| c.2)
            .sum::<f64>()
    };
    let per_pass = passes.max(1) as f64;
    layers.insert(
        "server.request_bytes",
        total("server.request_bytes") / (per_pass * ops as f64),
    );
    layers.insert(
        "server.response_bytes",
        total("server.response_bytes") / (per_pass * ops as f64),
    );
    layers.insert(
        "server.deadline_misses",
        total("server.deadline_misses") / per_pass,
    );

    // The layer calls behind each request, replayed in process
    // `LAYER_REPS` times over the whole pass. Replay `r` of request `i`
    // records its spans under op id `(passes + r) * ops + i`, after the
    // traced passes' ids.
    let mut solve_dbs: BTreeMap<(usize, usize), FrozenDb> = BTreeMap::new();
    let mut variants: BTreeMap<usize, Query> = BTreeMap::new();
    for (i, req) in inputs.requests.iter().enumerate() {
        match req.kind {
            Kind::Solve { tenant, base } => {
                let db = parse(&loc.reps[base], &inputs.texts[tenant][base])?;
                solve_dbs.insert((tenant, base), db);
            }
            Kind::Compile { .. } => {
                let text = jsonio::extract_raw(&req.line, "query").unwrap_or("\"\"");
                let text = jsonio::parse_json(text)?
                    .as_str()
                    .unwrap_or_default()
                    .to_string();
                variants.insert(i, cq::parse_query(&text).map_err(|e| e.to_string())?);
            }
            _ => {}
        }
    }
    let first = passes * ops;
    let mut scratch = SolveScratch::new();
    for r in 0..LAYER_REPS {
        for (i, req) in inputs.requests.iter().enumerate() {
            tr.set_op((first + r * ops + i) as u32);
            replay_layers(
                tr,
                req,
                inputs,
                loc,
                &solve_dbs,
                variants.get(&i),
                &mut scratch,
            )?;
        }
    }

    // Per request: the median over the replays of its layer self times,
    // in total and per layer.
    let mut sums: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut calls: BTreeMap<(&'static str, usize), Vec<f64>> = BTreeMap::new();
    let mut by_op: BTreeMap<u32, f64> = BTreeMap::new();
    for (&(op, name), &v) in &tr.self_times() {
        if op == SETUP_OP || (op as usize) < first {
            continue;
        }
        *by_op.entry(op).or_insert(0.0) += v;
        calls
            .entry((name, (op as usize - first) % ops))
            .or_default()
            .push(v);
    }
    for (op, v) in by_op {
        sums.entry((op as usize - first) % ops).or_default().push(v);
    }
    for (metric, span, scale) in [
        ("engine.solve_us", "engine.solve", 1e6),
        ("jsonio.render_us", "jsonio.render", 1e6),
        ("dbtext.parse_ms", "dbtext.parse", 1e3),
        ("snapshot.load_ms", "snapshot.load", 1e3),
        ("plancache.compile_us", "plancache.compile", 1e6),
    ] {
        let meds: Vec<f64> = calls
            .iter()
            .filter(|((name, _), _)| *name == span)
            .map(|(_, v)| median(v))
            .collect();
        layers.insert(metric, median(&meds) * scale);
    }
    let stats = jsonio::parse_json(stats_raw)?;
    let pc = stats.get("stats").and_then(|s| s.get("plan_cache"));
    let hits = pc
        .and_then(|p| p.get("hits"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    let misses = pc
        .and_then(|p| p.get("misses"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    if hits + misses > 0.0 {
        layers.insert("plancache.hit_ratio", hits / (hits + misses));
    }
    let untraced_sum: f64 = untraced.iter().sum();
    let traced_sum: f64 = traced.per_op_medians().iter().sum();
    layers.insert(
        "trace.overhead_pct",
        (traced_sum / untraced_sum - 1.0) * 100.0,
    );
    // The share of the untraced round trips that the daemon's layer calls
    // account for; the rest is the daemon's own request handling (event
    // loop, request parsing, registry) and the loopback.
    let layer_sum: f64 = sums.values().map(|v| median(v)).sum();
    layers.insert("trace.accounted_pct", layer_sum / untraced_sum * 100.0);
    Ok(layers)
}

/// The layer calls the daemon makes for one request, each in a span: the
/// solve (with one reused scratch, as a daemon worker solves) and its
/// rendering, the text parse and freeze or the snapshot load, the
/// plan-cache compile, or the session step and its event rendering.
/// `unload` and `stats` make none.
fn replay_layers(
    tr: &mut Tracer,
    req: &Request,
    inputs: &Inputs,
    loc: &mut Local,
    solve_dbs: &BTreeMap<(usize, usize), FrozenDb>,
    variant: Option<&Query>,
    scratch: &mut SolveScratch,
) -> Result<(), String> {
    let opts = SolveOptions::new();
    match &req.kind {
        Kind::Solve { tenant, base } => {
            let db = &solve_dbs[&(*tenant, *base)];
            let s = tr.begin("engine.solve");
            let report = loc.reps[*base]
                .solve_with_scratch(db, &opts, scratch)
                .map_err(|e| e.to_string())?;
            tr.end(s);
            let s = tr.begin("jsonio.render");
            std::hint::black_box(jsonio::report_json("t", db, &report));
            tr.end(s);
        }
        Kind::Load {
            tenant,
            base,
            snapshot: false,
        } => {
            let s = tr.begin("dbtext.parse");
            std::hint::black_box(parse(&loc.reps[*base], &inputs.texts[*tenant][*base])?);
            tr.end(s);
        }
        Kind::Load {
            tenant,
            base,
            snapshot: true,
        } => {
            let s = tr.begin("snapshot.load");
            let loaded = snapshot::load(&inputs.snapshots[*tenant][*base], &Default::default());
            tr.end(s);
            std::hint::black_box(loaded.map_err(|e| e.to_string())?);
        }
        Kind::Compile { .. } => {
            let q = variant.ok_or("compile request without its variant")?;
            let s = tr.begin("plancache.compile");
            std::hint::black_box(loc.cache.compile(q));
            tr.end(s);
        }
        Kind::Reset { session } => {
            let l = &mut loc.sessions[*session].session;
            let s = tr.begin("session.reset");
            l.reset();
            tr.end(s);
            let s = tr.begin("jsonio.event");
            std::hint::black_box(jsonio::reset_event_json(l.live_witnesses()));
            tr.end(s);
        }
        Kind::Mutate {
            session,
            tuple,
            delete,
        } => {
            let l = &mut loc.sessions[*session].session;
            let s = tr.begin(if *delete {
                "session.delete"
            } else {
                "session.restore"
            });
            let changed = if *delete {
                l.delete(&[*tuple])
            } else {
                l.restore(&[*tuple])
            };
            tr.end(s);
            let s = tr.begin("jsonio.event");
            std::hint::black_box(jsonio::mutation_event_json(
                req.kind.verb(),
                &jsonio::render_tuple(l.store(), *tuple),
                changed,
                l.live_witnesses(),
                l.deleted_count(),
            ));
            tr.end(s);
        }
        Kind::Resolve { session } | Kind::Deadline { session } => {
            let l = &mut loc.sessions[*session].session;
            let s = tr.begin("session.solve");
            let report = l.solve(&opts).map_err(|e| e.to_string())?;
            tr.end(s);
            let s = tr.begin("jsonio.event");
            std::hint::black_box(jsonio::solve_event_json(
                l.store(),
                &report,
                &l.last_solve_stats(),
            ));
            tr.end(s);
        }
        Kind::Unload | Kind::Stats => {}
    }
    Ok(())
}
