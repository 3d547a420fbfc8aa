//! `rescli` — a small command-line front end for the resilience library.
//!
//! ```text
//! rescli classify "<query>"              classify a query (Theorem 37 + Secs. 5-8)
//! rescli solve    "<query>" <file>       compute resilience over a database file
//! rescli batch    "<query>" <file>...    compile once, solve every file in parallel
//! rescli whatif   "<query>" <file> <script>
//!                                         interactive what-if analysis: script
//!                                         delete/restore/solve steps against one
//!                                         loaded instance (deletion-aware session)
//! rescli serve    <addr> [--workers N] [--shutdown-file PATH]
//!                        [--plan-cache-capacity N]
//!                                         start resd, the resilience service
//!                                         daemon, on <addr>
//! rescli remote   <addr> solve|batch|whatif|stats|shutdown ...
//!                                         run a subcommand against a running
//!                                         daemon (same arguments and output as
//!                                         the local subcommand); `stats` prints
//!                                         the daemon's service counters
//! rescli ijp      "<query>" [joins] [partitions]
//!                                         search for an Independent Join Path
//! rescli catalogue                        print the named-query catalogue
//! ```
//!
//! `solve` and `batch` accept `--plan-cache`: compilation goes through a
//! process-local [`PlanCache`] (canonicalize, look up, compile on miss)
//! instead of calling the engine directly — results are identical by
//! construction, and scripts can diff the two paths.
//!
//! `solve`, `batch` and `whatif` accept `--json` for machine-readable
//! output — locally and through `remote`, whose output is byte-identical to
//! the local subcommand because both render through the shared
//! `server::jsonio` module (the daemon sends the very report/event objects
//! the local path prints, and the thin client re-emits them verbatim).
//!
//! A what-if script is one command per line (`#` comments allowed):
//! `delete Rel(c1,...)`, `restore Rel(c1,...)`, `solve`, `reset`. The
//! instance is loaded and its witnesses enumerated exactly once; every
//! `solve` answers the current deletion state through the engine's
//! [`SolveSession`] live counters instead of copying the database.
//!
//! The database file format is one tuple per line, `Rel(c1,c2,...)`, with
//! `#` comments; constants are non-negative integers or arbitrary labels.
//! Labels are interned through the shared [`database::ConstPool`] and then
//! offset past the largest numeric constant of the file, so a label can
//! never collide with an explicit numeric constant.

use resilience::core::engine::{
    CompiledQuery, Engine, Resilience, SessionSolveStats, SolveOptions, SolveReport, SolveSession,
};
use resilience::core::plancache::PlanCache;
use resilience::prelude::*;
use server::client::{Client, RetryPolicy};
use server::dbtext::{parse_database, parse_database_with_labels, resolve_fact};
use server::jsonio::{
    self, json_escape, render_contingency, report_json, solve_event_json, JsonValue,
};
use server::ServerConfig;
use std::collections::HashMap;
use std::fs;
use std::process::ExitCode;
use std::sync::Arc;

/// `println!` for a command-line tool: once standard output is closed (the
/// reader of `rescli solve ... | head` went away), the process ends quietly
/// with status 0 instead of panicking; any other write error ends it with a
/// message and status 1.
macro_rules! println {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if let Err(e) = writeln!(std::io::stdout(), $($arg)*) {
            stdout_failed(e);
        }
    }};
}

fn stdout_failed(e: std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("rescli: cannot write to standard output: {e}");
    std::process::exit(1);
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  rescli classify \"<query>\"\n  rescli solve [--json] [--plan-cache] [--snapshot] \"<query>\" <database-file|file.snap>\n  \
         rescli batch [--json] [--plan-cache] \"<query>\" <database-file>...\n  \
         rescli whatif [--json] \"<query>\" <database-file> <script-file>\n  \
         rescli snapshot write [--json] \"<query>\" <database-file> <out.snap>\n  \
         rescli snapshot info [--json] <file.snap>\n  \
         rescli shard [--json] [--shards K] [--threads N] \"<query>\" <database-file>\n  \
         rescli scatter [--json] --endpoints <addr,addr,...> \"<query>\" <shard.snap>...\n  \
         rescli serve <addr> [--workers N] [--shutdown-file PATH] [--plan-cache-capacity N]\n  \
         rescli remote [--json] <addr> solve|batch|whatif|stats|shutdown ...\n  \
         rescli ijp \"<query>\" [max-joins] [max-partitions]\n  rescli catalogue"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let plan_cache = args.iter().any(|a| a == "--plan-cache");
    args.retain(|a| a != "--plan-cache");
    let snapshot = args.iter().any(|a| a == "--snapshot");
    args.retain(|a| a != "--snapshot");
    match args.first().map(|s| s.as_str()) {
        Some("classify") if args.len() == 2 => classify_cmd(&args[1]),
        Some("solve") if args.len() == 3 && snapshot => {
            snapshot_solve_cmd(&args[1], &args[2], json)
        }
        Some("solve") if args.len() == 3 => solve_cmd(&args[1], &args[2], json, plan_cache),
        Some("batch") if args.len() >= 3 => batch_cmd(&args[1], &args[2..], json, plan_cache),
        Some("whatif") if args.len() == 4 => whatif_cmd(&args[1], &args[2], &args[3], json),
        Some("snapshot") if args.len() >= 2 => snapshot_cmd(&args[1..], json),
        Some("shard") if args.len() >= 3 => shard_cmd(&args[1..], json),
        Some("scatter") if args.len() >= 3 => scatter_cmd(&args[1..], json),
        Some("serve") if args.len() >= 2 => serve_cmd(&args[1..]),
        Some("remote") if args.len() >= 3 => remote_cmd(&args[1], &args[2..], json),
        Some("ijp") if (2..=4).contains(&args.len()) => {
            let joins = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2);
            let partitions = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(10_000);
            ijp_cmd(&args[1], joins, partitions)
        }
        Some("catalogue") if args.len() == 1 => catalogue_cmd(),
        _ => usage(),
    }
}

/// Compiles a query directly, or — under `--plan-cache` — through a
/// process-local [`PlanCache`]. A fresh cache's first compile *is* the
/// direct compile of the submitted query (same plan, same query object), so
/// the two paths print identical output; the cached path additionally
/// exercises canonicalization and lookup.
fn compile_query(q: &Query, plan_cache: bool) -> Arc<CompiledQuery> {
    if plan_cache {
        PlanCache::new(resilience::core::plancache::DEFAULT_CAPACITY)
            .compile(q)
            .compiled
    } else {
        Arc::new(Engine::compile(q))
    }
}

fn parse_or_exit(text: &str) -> Result<Query, ExitCode> {
    match parse_query(text) {
        Ok(q) => Ok(q),
        Err(e) => {
            eprintln!("could not parse query: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn classify_cmd(text: &str) -> ExitCode {
    let q = match parse_or_exit(text) {
        Ok(q) => q,
        Err(code) => return code,
    };
    let c = classify(&q);
    println!("query      : {q}");
    println!("complexity : {}", c.complexity);
    println!("normal form: {}", c.evidence.normalized);
    if let Some(t) = &c.evidence.triad {
        println!("triad      : atoms {:?}", t.atoms);
    }
    for note in &c.evidence.notes {
        println!("note       : {note}");
    }
    ExitCode::SUCCESS
}

/// Reads and parses a database file. (Parsing itself — fact syntax, label
/// interning — lives in the shared [`server::dbtext`] module, so `rescli`
/// and the `resd` daemon load instances identically.)
fn load_database(q: &Query, path: &str) -> Result<Database, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_database(q, &text)
}

fn print_report_text<S: TupleStore + ?Sized>(db: &S, report: &SolveReport) {
    println!("tuples       : {}", db.num_tuples());
    match report.resilience {
        Resilience::Finite(r) => println!("resilience   : {r}  (method {:?})", report.method),
        Resilience::Unfalsifiable => {
            println!("resilience   : unbounded (the query cannot be made false)")
        }
    }
    if let Some(gamma) = &report.contingency {
        println!("contingency  : {}", render_contingency(db, gamma).join(" "));
    }
}

fn solve_cmd(text: &str, path: &str, json: bool, plan_cache: bool) -> ExitCode {
    let q = match parse_or_exit(text) {
        Ok(q) => q,
        Err(code) => return code,
    };
    let db = match load_database(&q, path) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let compiled = compile_query(&q, plan_cache);
    let report = match compiled.solve(&db.freeze(), &SolveOptions::new()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("solve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!(
            "{{\"query\": \"{}\", \"complexity\": \"{}\", \"results\": [{}]}}",
            json_escape(&q.to_string()),
            json_escape(&compiled.classification().complexity.to_string()),
            report_json(path, &db, &report)
        );
    } else {
        println!("query        : {q}");
        println!("complexity   : {}", compiled.classification().complexity);
        print_report_text(&db, &report);
    }
    ExitCode::SUCCESS
}

fn batch_cmd(text: &str, paths: &[String], json: bool, plan_cache: bool) -> ExitCode {
    let q = match parse_or_exit(text) {
        Ok(q) => q,
        Err(code) => return code,
    };
    // Compile once; load and freeze every instance; solve the whole batch
    // through the shared plan.
    let compiled: Arc<CompiledQuery> = compile_query(&q, plan_cache);
    let mut dbs = Vec::with_capacity(paths.len());
    for path in paths {
        match load_database(&q, path) {
            Ok(db) => dbs.push(db),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let frozen: Vec<_> = dbs.iter().map(|db| db.freeze()).collect();
    let reports = compiled.solve_batch(&frozen, &SolveOptions::new());

    let mut failed = false;
    if json {
        let mut rows = Vec::with_capacity(reports.len());
        for ((path, db), report) in paths.iter().zip(&dbs).zip(&reports) {
            match report {
                Ok(report) => rows.push(report_json(path, db, report)),
                Err(e) => {
                    rows.push(format!(
                        "{{\"file\": \"{}\", \"error\": \"{}\"}}",
                        json_escape(path),
                        json_escape(&e.to_string())
                    ));
                    failed = true;
                }
            }
        }
        println!(
            "{{\"query\": \"{}\", \"complexity\": \"{}\", \"results\": [{}]}}",
            json_escape(&q.to_string()),
            json_escape(&compiled.classification().complexity.to_string()),
            rows.join(", ")
        );
    } else {
        println!("query        : {q}");
        println!("complexity   : {}", compiled.classification().complexity);
        println!("instances    : {}", paths.len());
        for ((path, db), report) in paths.iter().zip(&dbs).zip(&reports) {
            match report {
                Ok(report) => {
                    let value = match report.resilience {
                        Resilience::Finite(r) => r.to_string(),
                        Resilience::Unfalsifiable => "unbounded".to_string(),
                    };
                    println!(
                        "{path:<30} tuples {:>5}  resilience {value:>9}  ({:?})",
                        db.num_tuples(),
                        report.method
                    );
                }
                Err(e) => {
                    println!("{path:<30} error: {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `rescli solve --snapshot "<query>" <file.snap>`: load a columnar
/// snapshot (mmap where available, buffered otherwise) and solve it without
/// re-freezing. Output matches `rescli solve` on the originating text file
/// byte-for-byte.
fn snapshot_solve_cmd(text: &str, path: &str, json: bool) -> ExitCode {
    let q = match parse_or_exit(text) {
        Ok(q) => q,
        Err(code) => return code,
    };
    let snap = match database::snapshot::load(std::path::Path::new(path), &Default::default()) {
        Ok(snap) => snap,
        Err(e) => {
            eprintln!("cannot load snapshot {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if snap.db.schema() != q.schema() {
        eprintln!("snapshot {path} was written for a different schema");
        return ExitCode::FAILURE;
    }
    let compiled = Engine::compile(&q);
    let report = match compiled.solve(&snap.db, &SolveOptions::new()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("solve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!(
            "{{\"query\": \"{}\", \"complexity\": \"{}\", \"results\": [{}]}}",
            json_escape(&q.to_string()),
            json_escape(&compiled.classification().complexity.to_string()),
            report_json(path, &snap.db, &report)
        );
    } else {
        println!("query        : {q}");
        println!("complexity   : {}", compiled.classification().complexity);
        println!(
            "snapshot     : {} bytes, {}",
            snap.file_len,
            if snap.mapped { "mmap" } else { "buffered" }
        );
        print_report_text(&snap.db, &report);
    }
    ExitCode::SUCCESS
}

/// `rescli snapshot write|info`.
fn snapshot_cmd(args: &[String], json: bool) -> ExitCode {
    match args.first().map(|s| s.as_str()) {
        Some("write") if args.len() == 4 => snapshot_write_cmd(&args[1], &args[2], &args[3], json),
        Some("info") if args.len() == 2 => snapshot_info_cmd(&args[1], json),
        _ => usage(),
    }
}

fn snapshot_write_cmd(text: &str, db_path: &str, out: &str, json: bool) -> ExitCode {
    let q = match parse_or_exit(text) {
        Ok(q) => q,
        Err(code) => return code,
    };
    let file_text = match fs::read_to_string(db_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {db_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (db, labels) = match parse_database_with_labels(&q, &file_text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let frozen = db.freeze();
    let opts = database::snapshot::WriteOptions {
        labels: Some(&labels),
        source_ids: None,
    };
    match database::snapshot::write(std::path::Path::new(out), &frozen, &opts) {
        Ok(stats) => {
            if json {
                println!(
                    "{{\"snapshot\": \"{}\", \"bytes\": {}, \"sections\": {}, \"tuples\": {}}}",
                    json_escape(out),
                    stats.file_len,
                    stats.sections,
                    stats.tuples,
                );
            } else {
                println!("snapshot     : {out}");
                println!("bytes        : {}", stats.file_len);
                println!("sections     : {}", stats.sections);
                println!("tuples       : {}", stats.tuples);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write snapshot {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn snapshot_info_cmd(path: &str, json: bool) -> ExitCode {
    let info = match database::snapshot::info(std::path::Path::new(path)) {
        Ok(info) => info,
        Err(e) => {
            eprintln!("cannot read snapshot {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        let sections: Vec<String> = info
            .sections
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"kind\": {}, \"offset\": {}, \"count\": {}, \"elem_size\": {}}}",
                    json_escape(s.name),
                    s.kind,
                    s.offset,
                    s.count,
                    s.elem_size,
                )
            })
            .collect();
        println!(
            "{{\"snapshot\": \"{}\", \"version\": {}, \"bytes\": {}, \"tuples\": {}, \
             \"relations\": {}, \"labels\": {}, \"source_ids\": {}, \"sections\": [{}]}}",
            json_escape(path),
            info.version,
            info.file_len,
            info.tuples,
            info.relations,
            info.has_labels,
            info.has_source_ids,
            sections.join(", ")
        );
    } else {
        println!("snapshot     : {path}");
        println!("version      : {}", info.version);
        println!("bytes        : {}", info.file_len);
        println!("tuples       : {}", info.tuples);
        println!("relations    : {}", info.relations);
        println!("labels       : {}", info.has_labels);
        println!("source ids   : {}", info.has_source_ids);
        for s in &info.sections {
            println!(
                "  section {:<14} offset {:>10}  count {:>10}  elem {:>2} B",
                s.name, s.offset, s.count, s.elem_size
            );
        }
    }
    ExitCode::SUCCESS
}

/// `rescli shard [--shards K] [--threads N] "<query>" <database-file>`:
/// partition the instance by join-connected component, solve the shards in
/// parallel in-process, and print the merged report (identical to the
/// whole-instance solve by the gather laws in `resilience::core::shard`).
fn shard_cmd(args: &[String], json: bool) -> ExitCode {
    let mut shards_k: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => shards_k = Some(n),
                None => return usage(),
            },
            "--threads" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => threads = Some(n),
                None => return usage(),
            },
            _ => positional.push(arg),
        }
    }
    let [text, path] = positional.as_slice() else {
        return usage();
    };
    let q = match parse_or_exit(text) {
        Ok(q) => q,
        Err(code) => return code,
    };
    let db = match load_database(&q, path) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let k = shards_k.unwrap_or(hw.max(2));
    let threads = threads.unwrap_or(hw);
    let frozen = db.freeze();
    let compiled = Engine::compile(&q);
    let shards: Vec<resilience::core::shard::ShardInstance> =
        database::shard::partition_shards(&frozen, k)
            .into_iter()
            .map(Into::into)
            .collect();
    let outcome = match resilience::core::shard::solve_sharded(
        &compiled,
        &shards,
        &SolveOptions::new(),
        threads,
    ) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("sharded solve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!(
            "{{\"query\": \"{}\", \"complexity\": \"{}\", \"shards\": {}, \
             \"query_components\": {}, \"results\": [{}]}}",
            json_escape(&q.to_string()),
            json_escape(&compiled.classification().complexity.to_string()),
            outcome.shards,
            outcome.query_components,
            report_json(path, &frozen, &outcome.report)
        );
    } else {
        println!("query        : {q}");
        println!("complexity   : {}", compiled.classification().complexity);
        println!(
            "shards       : {} ({} query components)",
            outcome.shards, outcome.query_components
        );
        print_report_text(&frozen, &outcome.report);
    }
    ExitCode::SUCCESS
}

/// `rescli scatter --endpoints <a,b> "<query>" <shard.snap>...`: scatter the
/// shard snapshots across running `resd` daemons and gather the merged
/// report (see `server::scatter`).
fn scatter_cmd(args: &[String], json: bool) -> ExitCode {
    let mut endpoints: Vec<String> = Vec::new();
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--endpoints" => match it.next() {
                Some(list) => {
                    endpoints = list.split(',').map(|s| s.trim().to_string()).collect();
                }
                None => return usage(),
            },
            _ => positional.push(arg),
        }
    }
    if endpoints.is_empty() || positional.len() < 2 {
        return usage();
    }
    let q = match parse_or_exit(positional[0]) {
        Ok(q) => q,
        Err(code) => return code,
    };
    let paths: Vec<&std::path::Path> = positional[1..]
        .iter()
        .map(|p| std::path::Path::new(p.as_str()))
        .collect();
    match server::scatter::scatter_solve(&q, &endpoints, &paths, None) {
        Ok(merged) => {
            if json {
                println!(
                    "{{\"query\": \"{}\", \"results\": [{}]}}",
                    json_escape(&q.to_string()),
                    merged.to_json()
                );
            } else {
                println!("query        : {q}");
                println!(
                    "shards       : {} across {} endpoints ({} query components)",
                    merged.shards,
                    endpoints.len(),
                    merged.components
                );
                match merged.resilience {
                    Some(r) => println!("resilience   : {r}  (method {})", merged.method),
                    None => {
                        println!("resilience   : unbounded (the query cannot be made false)")
                    }
                }
                if let Some(gamma) = &merged.contingency {
                    println!("contingency  : {}", gamma.join(" "));
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("scatter failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One parsed what-if script step.
#[derive(Debug)]
enum WhatIfOp {
    Delete(String, Vec<u64>),
    Restore(String, Vec<u64>),
    Solve,
    Reset,
}

/// Parses a what-if script: one command per line, `#` comments, blank lines
/// ignored. Labels resolve through the same map as the database file.
fn parse_whatif_script(
    q: &Query,
    labels: &HashMap<String, u64>,
    text: &str,
) -> Result<Vec<WhatIfOp>, String> {
    let mut ops = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        if line == "solve" {
            ops.push(WhatIfOp::Solve);
            continue;
        }
        if line == "reset" {
            ops.push(WhatIfOp::Reset);
            continue;
        }
        let (verb, rest) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| format!("line {lineno}: expected delete/restore/solve/reset"))?;
        let (rel, values) =
            resolve_fact(q, labels, rest).map_err(|e| format!("line {lineno}: {e}"))?;
        match verb {
            "delete" => ops.push(WhatIfOp::Delete(rel, values)),
            "restore" => ops.push(WhatIfOp::Restore(rel, values)),
            other => return Err(format!("line {lineno}: unknown command {other}")),
        }
    }
    Ok(ops)
}

/// Text line of a `delete`/`restore` step (shared by the local session
/// runner and the remote client, which rebuilds it from the daemon's event).
fn whatif_mutation_line(
    is_delete: bool,
    rendered: &str,
    changed: usize,
    live: usize,
    deleted_count: usize,
) -> String {
    let verb = if is_delete { "delete" } else { "restore" };
    format!(
        "{verb:<8} {rendered:<20} {changed} witnesses {} -> live {live} (deleted tuples: {deleted_count})",
        if is_delete { "killed" } else { "revived" },
    )
}

/// Text line of a `reset` step.
fn whatif_reset_line(live: usize) -> String {
    format!("reset    all tuples restored, live witnesses {live}")
}

/// The warm-start marker of a solve step's text line.
fn warm_marker(stats: &SessionSolveStats) -> &'static str {
    if stats.replayed {
        " [replayed]"
    } else if stats.short_circuit {
        " [warm: short-circuit]"
    } else if stats.incumbent_reused {
        " [warm: incumbent reused]"
    } else if stats.warm_start_hit {
        " [warm]"
    } else {
        ""
    }
}

/// Text line of a `solve` step from its plain fields.
fn whatif_solve_line(
    value: &str,
    witnesses: usize,
    method: &str,
    warm: &str,
    gamma: &str,
) -> String {
    format!("solve    resilience {value:<9} witnesses {witnesses:<6} ({method}){warm} {gamma}")
}

/// Runs a parsed script against a session, rendering one output line (text)
/// or one JSON object per step. JSON events come from the shared
/// [`server::jsonio`] renderers — the very same functions the daemon uses,
/// so local and remote `--json` output cannot drift.
fn run_whatif_ops(
    session: &mut SolveSession<'_>,
    db: &Database,
    ops: &[WhatIfOp],
    json: bool,
) -> Result<Vec<String>, String> {
    let opts = SolveOptions::new();
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            WhatIfOp::Delete(rel, values) | WhatIfOp::Restore(rel, values) => {
                let is_delete = matches!(op, WhatIfOp::Delete(..));
                let verb = if is_delete { "delete" } else { "restore" };
                let rel_id = db.schema().relation_id(rel).expect("validated at parse");
                let t = db
                    .lookup(rel_id, values)
                    .ok_or_else(|| format!("{verb}: no such tuple {rel}{values:?}"))?;
                let changed = if is_delete {
                    session.delete(&[t])
                } else {
                    session.restore(&[t])
                };
                let rendered = jsonio::render_tuple(db, t);
                if json {
                    out.push(jsonio::mutation_event_json(
                        verb,
                        &rendered,
                        changed,
                        session.live_witnesses(),
                        session.deleted_count(),
                    ));
                } else {
                    out.push(whatif_mutation_line(
                        is_delete,
                        &rendered,
                        changed,
                        session.live_witnesses(),
                        session.deleted_count(),
                    ));
                }
            }
            WhatIfOp::Reset => {
                session.reset();
                if json {
                    out.push(jsonio::reset_event_json(session.live_witnesses()));
                } else {
                    out.push(whatif_reset_line(session.live_witnesses()));
                }
            }
            WhatIfOp::Solve => {
                let report = session.solve(&opts).map_err(|e| format!("solve: {e}"))?;
                let stats = session.last_solve_stats();
                if json {
                    out.push(solve_event_json(db, &report, &stats));
                } else {
                    let value = match report.resilience {
                        Resilience::Finite(k) => k.to_string(),
                        Resilience::Unfalsifiable => "unbounded".to_string(),
                    };
                    let gamma = report
                        .contingency
                        .as_deref()
                        .map(|g| render_contingency(db, g).join(" "))
                        .unwrap_or_default();
                    out.push(whatif_solve_line(
                        &value,
                        report.witnesses,
                        &format!("{:?}", report.method),
                        warm_marker(&stats),
                        &gamma,
                    ));
                }
            }
        }
    }
    Ok(out)
}

fn whatif_cmd(text: &str, db_path: &str, script_path: &str, json: bool) -> ExitCode {
    let q = match parse_or_exit(text) {
        Ok(q) => q,
        Err(code) => return code,
    };
    let file_text = match fs::read_to_string(db_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {db_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (db, labels) = match parse_database_with_labels(&q, &file_text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let script_text = match fs::read_to_string(script_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {script_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ops = match parse_whatif_script(&q, &labels, &script_text) {
        Ok(ops) => ops,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let compiled = Engine::compile(&q);
    let frozen = db.freeze();
    // Large instances parallelize the one-time witness enumeration; the
    // per-step deletes/restores/solves are incremental either way.
    let threads = if db.num_tuples() >= 2048 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        1
    };
    let session_opts = SolveOptions::new().enumeration_threads(threads);
    let mut session = match compiled.session_opts(&frozen, &session_opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open session: {e}");
            return ExitCode::FAILURE;
        }
    };

    if !json {
        println!("query        : {q}");
        println!("complexity   : {}", compiled.classification().complexity);
        println!("tuples       : {}", db.num_tuples());
        println!("witnesses    : {}", session.total_witnesses());
    }
    match run_whatif_ops(&mut session, &db, &ops, json) {
        Ok(lines) => {
            if json {
                println!(
                    "{{\"query\": \"{}\", \"complexity\": \"{}\", \"tuples\": {}, \
                     \"witnesses\": {}, \"events\": [{}]}}",
                    json_escape(&q.to_string()),
                    json_escape(&compiled.classification().complexity.to_string()),
                    db.num_tuples(),
                    session.total_witnesses(),
                    lines.join(", ")
                );
            } else {
                for line in lines {
                    println!("{line}");
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `rescli serve <addr> [--workers N] [--shutdown-file PATH]
/// [--plan-cache-capacity N]`: start resd, the resilience service daemon,
/// in the foreground.
fn serve_cmd(args: &[String]) -> ExitCode {
    let addr = &args[0];
    if addr.starts_with("--") {
        return usage();
    }
    let mut config = ServerConfig::new(addr.clone());
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => config = config.workers(n),
                None => return usage(),
            },
            "--shutdown-file" => match it.next() {
                Some(path) => config = config.shutdown_file(path),
                None => return usage(),
            },
            "--plan-cache-capacity" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => config = config.plan_cache_capacity(n),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    match server::serve(config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `rescli remote <addr> <subcommand> ...`: run a subcommand against a
/// running daemon, with the same arguments and (byte-identical) output as
/// the local subcommand.
fn remote_cmd(addr: &str, rest: &[String], json: bool) -> ExitCode {
    match rest.first().map(|s| s.as_str()) {
        Some("solve") if rest.len() == 3 => remote_solve(addr, &rest[1], &rest[2], json),
        Some("batch") if rest.len() >= 3 => remote_batch(addr, &rest[1], &rest[2..], json),
        Some("whatif") if rest.len() == 4 => {
            remote_whatif(addr, &rest[1], &rest[2], &rest[3], json)
        }
        Some("stats") if rest.len() == 1 => remote_stats(addr, json),
        Some("shutdown") if rest.len() == 1 => match connect(addr) {
            Ok(mut client) => match client.shutdown() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("shutdown: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(code) => code,
        },
        _ => usage(),
    }
}

/// Connects with the standard retry policy: transient connect failures,
/// `overloaded` refusals and dropped connections are retried with
/// exponential backoff (honouring the server's `retry_after_ms` hint)
/// before an error is reported. Session state does not survive a
/// reconnect, but `remote whatif` only mutates a session after its
/// stateless preamble, and a mid-session failure aborts the run anyway.
fn connect(addr: &str) -> Result<Client, ExitCode> {
    Client::connect_retrying(addr, RetryPolicy::standard()).map_err(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        ExitCode::FAILURE
    })
}

/// Compile the query and upload one database (already-read text); the
/// shared preamble of every remote subcommand. Callers read the file once —
/// `remote whatif` also validates the same text locally, and reading twice
/// could race a concurrent file change and desynchronize the label maps.
/// Returns `(client, query_id, query_display, complexity, db_id, tuples)`.
#[allow(clippy::type_complexity)]
fn remote_preamble(
    addr: &str,
    text: &str,
    db_text: &str,
) -> Result<(Client, String, String, String, String, usize), ExitCode> {
    let mut client = connect(addr)?;
    let (qid, qdisp, complexity) = client.compile(text).map_err(|e| {
        eprintln!("could not parse query: {e}");
        ExitCode::FAILURE
    })?;
    let (db_id, tuples) = client.load_text(&qid, db_text).map_err(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })?;
    Ok((client, qid, qdisp, complexity, db_id, tuples))
}

/// Reads one database file for a remote subcommand, reporting errors the
/// way the local subcommands do.
fn read_db_file(path: &str) -> Result<String, ExitCode> {
    fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        ExitCode::FAILURE
    })
}

/// Prints one parsed report object in the local `solve` text layout.
fn print_remote_report_text(result: &JsonValue) {
    if let Some(tuples) = result.get("tuples").and_then(JsonValue::as_usize) {
        println!("tuples       : {tuples}");
    }
    let method = result
        .get("method")
        .and_then(JsonValue::as_str)
        .unwrap_or("?");
    if result.get("unfalsifiable").and_then(JsonValue::as_bool) == Some(true) {
        println!("resilience   : unbounded (the query cannot be made false)");
    } else if let Some(r) = result.get("resilience").and_then(JsonValue::as_usize) {
        println!("resilience   : {r}  (method {method})");
    }
    if let Some(gamma) = result.get("contingency").and_then(JsonValue::as_array) {
        let facts: Vec<&str> = gamma.iter().filter_map(JsonValue::as_str).collect();
        println!("contingency  : {}", facts.join(" "));
    }
}

fn remote_solve(addr: &str, text: &str, path: &str, json: bool) -> ExitCode {
    let db_text = match read_db_file(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let (mut client, qid, qdisp, complexity, db_id, _tuples) =
        match remote_preamble(addr, text, &db_text) {
            Ok(parts) => parts,
            Err(code) => return code,
        };
    let request = format!(
        "{{\"op\": \"solve\", \"query_id\": \"{}\", \"db_id\": \"{}\", \"tag\": \"{}\"}}",
        json_escape(&qid),
        json_escape(&db_id),
        json_escape(path),
    );
    let (resp, raw) = match client.request(&request) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("solve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        // The daemon rendered the report with the same shared renderer the
        // local path uses; re-emit its raw text verbatim.
        let row = jsonio::extract_raw(&raw, "result").unwrap_or("null");
        println!(
            "{{\"query\": \"{}\", \"complexity\": \"{}\", \"results\": [{row}]}}",
            json_escape(&qdisp),
            json_escape(&complexity),
        );
    } else {
        println!("query        : {qdisp}");
        println!("complexity   : {complexity}");
        if let Some(result) = resp.get("result") {
            print_remote_report_text(result);
        }
    }
    ExitCode::SUCCESS
}

/// One text line of counters from a parsed `{"verb": n, ...}` object.
fn counters_line(v: Option<&JsonValue>) -> String {
    match v {
        Some(JsonValue::Obj(fields)) if !fields.is_empty() => fields
            .iter()
            .map(|(k, v)| format!("{k} {}", v.as_usize().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join(", "),
        _ => "(none)".to_string(),
    }
}

/// `rescli remote <addr> stats`: print the daemon's service counters.
/// `--json` re-emits the server-rendered `stats` object verbatim —
/// byte-identical to the daemon's in-process rendering, since both are the
/// shared [`jsonio::stats_json`].
fn remote_stats(addr: &str, json: bool) -> ExitCode {
    let mut client = match connect(addr) {
        Ok(client) => client,
        Err(code) => return code,
    };
    let (resp, raw) = match client.request("{\"op\": \"stats\"}") {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("stats failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!("{}", jsonio::extract_raw(&raw, "stats").unwrap_or("{}"));
        return ExitCode::SUCCESS;
    }
    let stats = resp.get("stats").cloned().unwrap_or(JsonValue::Null);
    let uptime = stats
        .get("uptime_ms")
        .and_then(JsonValue::as_usize)
        .unwrap_or(0);
    println!("uptime       : {uptime} ms");
    println!("requests     : {}", counters_line(stats.get("requests")));
    println!("errors       : {}", counters_line(stats.get("errors")));
    if let Some(cache) = stats.get("plan_cache") {
        let field = |key: &str| cache.get(key).and_then(JsonValue::as_usize).unwrap_or(0);
        println!(
            "plan cache   : entries {}/{}, hits {}, misses {}, collisions {}, evictions {}, bypasses {}",
            field("entries"),
            field("capacity"),
            field("hits"),
            field("misses"),
            field("collisions"),
            field("evictions"),
            field("bypasses"),
        );
    }
    ExitCode::SUCCESS
}

fn remote_batch(addr: &str, text: &str, paths: &[String], json: bool) -> ExitCode {
    let first_text = match read_db_file(&paths[0]) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let (mut client, qid, qdisp, complexity, first_db, _tuples) =
        match remote_preamble(addr, text, &first_text) {
            Ok(parts) => parts,
            Err(code) => return code,
        };
    let mut db_ids = vec![first_db];
    for path in &paths[1..] {
        let file_text = match read_db_file(path) {
            Ok(t) => t,
            Err(code) => return code,
        };
        match client.load_text(&qid, &file_text) {
            Ok((id, _)) => db_ids.push(id),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let ids: Vec<String> = db_ids
        .iter()
        .map(|id| format!("\"{}\"", json_escape(id)))
        .collect();
    let tags: Vec<String> = paths
        .iter()
        .map(|p| format!("\"{}\"", json_escape(p)))
        .collect();
    let request = format!(
        "{{\"op\": \"batch\", \"query_id\": \"{}\", \"db_ids\": [{}], \"tags\": [{}]}}",
        json_escape(&qid),
        ids.join(", "),
        tags.join(", "),
    );
    let (resp, raw) = match client.request(&request) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("batch failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rows = resp.get("results").and_then(JsonValue::as_array);
    let failed = rows.is_some_and(|rows| rows.iter().any(|r| r.get("error").is_some()));
    if json {
        let results = jsonio::extract_raw(&raw, "results").unwrap_or("[]");
        println!(
            "{{\"query\": \"{}\", \"complexity\": \"{}\", \"results\": {results}}}",
            json_escape(&qdisp),
            json_escape(&complexity),
        );
    } else {
        println!("query        : {qdisp}");
        println!("complexity   : {complexity}");
        println!("instances    : {}", paths.len());
        for (path, row) in paths.iter().zip(rows.into_iter().flatten()) {
            if let Some(e) = row.get("error").and_then(JsonValue::as_str) {
                println!("{path:<30} error: {e}");
                continue;
            }
            let tuples = row.get("tuples").and_then(JsonValue::as_usize).unwrap_or(0);
            let method = row.get("method").and_then(JsonValue::as_str).unwrap_or("?");
            let value = match row.get("resilience").and_then(JsonValue::as_usize) {
                Some(r) => r.to_string(),
                None => "unbounded".to_string(),
            };
            println!("{path:<30} tuples {tuples:>5}  resilience {value:>9}  ({method})");
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn remote_whatif(addr: &str, text: &str, db_path: &str, script_path: &str, json: bool) -> ExitCode {
    // Parse query, database and script locally first: full validation with
    // the same error messages as the local subcommand, and the local label
    // resolution (identical to the daemon's, both run the shared
    // `dbtext` parser over the same text) turns script facts into the
    // numeric form sent over the wire.
    let q = match parse_or_exit(text) {
        Ok(q) => q,
        Err(code) => return code,
    };
    let file_text = match fs::read_to_string(db_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {db_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let labels = match parse_database_with_labels(&q, &file_text) {
        Ok((_, labels)) => labels,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let script_text = match fs::read_to_string(script_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {script_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ops = match parse_whatif_script(&q, &labels, &script_text) {
        Ok(ops) => ops,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    // Upload the very text that was validated above — one read, one parse
    // on each side, so the label maps cannot diverge.
    let (mut client, qid, qdisp, complexity, db_id, tuples) =
        match remote_preamble(addr, text, &file_text) {
            Ok(parts) => parts,
            Err(code) => return code,
        };
    let (session_resp, _) = match client.request(&format!(
        "{{\"op\": \"session\", \"query_id\": \"{}\", \"db_id\": \"{}\"}}",
        json_escape(&qid),
        json_escape(&db_id),
    )) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("cannot open session: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sid = session_resp
        .get("session_id")
        .and_then(JsonValue::as_str)
        .unwrap_or("s0")
        .to_string();
    let witnesses = session_resp
        .get("witnesses")
        .and_then(JsonValue::as_usize)
        .unwrap_or(0);

    if !json {
        println!("query        : {qdisp}");
        println!("complexity   : {complexity}");
        println!("tuples       : {tuples}");
        println!("witnesses    : {witnesses}");
    }
    let mut events: Vec<String> = Vec::with_capacity(ops.len());
    for op in &ops {
        let request = match op {
            WhatIfOp::Delete(rel, values) | WhatIfOp::Restore(rel, values) => {
                let verb = if matches!(op, WhatIfOp::Delete(..)) {
                    "delete"
                } else {
                    "restore"
                };
                let fact = format!(
                    "{rel}({})",
                    values
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                );
                format!(
                    "{{\"op\": \"{verb}\", \"session_id\": \"{}\", \"tuple\": \"{}\"}}",
                    json_escape(&sid),
                    json_escape(&fact),
                )
            }
            WhatIfOp::Reset => format!(
                "{{\"op\": \"reset\", \"session_id\": \"{}\"}}",
                json_escape(&sid)
            ),
            WhatIfOp::Solve => format!(
                "{{\"op\": \"resolve\", \"session_id\": \"{}\"}}",
                json_escape(&sid)
            ),
        };
        let (resp, raw) = match client.request(&request) {
            Ok(ok) => ok,
            Err(e) => {
                let prefix = if matches!(op, WhatIfOp::Solve) {
                    "solve: "
                } else {
                    ""
                };
                eprintln!("{prefix}{e}");
                return ExitCode::FAILURE;
            }
        };
        if json {
            events.push(
                jsonio::extract_raw(&raw, "event")
                    .unwrap_or("{}")
                    .to_string(),
            );
        } else {
            let event = resp.get("event").cloned().unwrap_or(JsonValue::Null);
            println!("{}", remote_event_text_line(&event));
        }
    }
    if json {
        println!(
            "{{\"query\": \"{}\", \"complexity\": \"{}\", \"tuples\": {tuples}, \
             \"witnesses\": {witnesses}, \"events\": [{}]}}",
            json_escape(&qdisp),
            json_escape(&complexity),
            events.join(", ")
        );
    }
    ExitCode::SUCCESS
}

/// Rebuilds the local what-if text line from one parsed daemon event.
fn remote_event_text_line(event: &JsonValue) -> String {
    let live = event
        .get("live_witnesses")
        .and_then(JsonValue::as_usize)
        .unwrap_or(0);
    match event.get("op").and_then(JsonValue::as_str) {
        Some("delete") | Some("restore") => {
            let is_delete = event.get("op").and_then(JsonValue::as_str) == Some("delete");
            whatif_mutation_line(
                is_delete,
                event
                    .get("tuple")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?"),
                event
                    .get("witnesses_changed")
                    .and_then(JsonValue::as_usize)
                    .unwrap_or(0),
                live,
                event
                    .get("deleted_count")
                    .and_then(JsonValue::as_usize)
                    .unwrap_or(0),
            )
        }
        Some("reset") => whatif_reset_line(live),
        _ => {
            let value = match event.get("resilience").and_then(JsonValue::as_usize) {
                Some(k) => k.to_string(),
                None => "unbounded".to_string(),
            };
            let witnesses = event
                .get("witnesses")
                .and_then(JsonValue::as_usize)
                .unwrap_or(0);
            let method = event
                .get("method")
                .and_then(JsonValue::as_str)
                .unwrap_or("?");
            let solver = event.get("solver");
            let flag = |key: &str| -> bool {
                solver
                    .and_then(|s| s.get(key))
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false)
            };
            let count = |key: &str| -> u64 {
                solver
                    .and_then(|s| s.get(key))
                    .and_then(JsonValue::as_usize)
                    .unwrap_or(0) as u64
            };
            let stats = SessionSolveStats {
                replayed: flag("replayed"),
                warm_start_hit: flag("warm_start_hit"),
                incumbent_reused: flag("incumbent_reused"),
                short_circuit: flag("short_circuit"),
                nodes_explored: solver
                    .and_then(|s| s.get("nodes_explored"))
                    .and_then(JsonValue::as_usize)
                    .unwrap_or(0),
                flow_warm_reused: flag("flow_warm_reused"),
                flow_paths_repaired: count("flow_paths_repaired"),
                flow_paths_reaugmented: count("flow_paths_reaugmented"),
                flow_cold_rebuild: flag("flow_cold_rebuild"),
                reduced_compactions: count("reduced_compactions"),
            };
            let gamma = event
                .get("contingency")
                .and_then(JsonValue::as_array)
                .map(|facts| {
                    facts
                        .iter()
                        .filter_map(JsonValue::as_str)
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .unwrap_or_default();
            whatif_solve_line(&value, witnesses, method, warm_marker(&stats), &gamma)
        }
    }
}

fn ijp_cmd(text: &str, joins: usize, partitions: usize) -> ExitCode {
    let q = match parse_or_exit(text) {
        Ok(q) => q,
        Err(code) => return code,
    };
    println!("searching for an Independent Join Path for {q}");
    println!("(up to {joins} joins, {partitions} partitions per join count)");
    match ijp::search_ijp(&q, joins, partitions) {
        Some(found) => {
            println!(
                "found after {} partitions with {} joins; distinguished relation {} (resilience {})",
                found.partitions_tried,
                found.joins,
                found.certificate.relation,
                found.certificate.resilience
            );
            println!("database:\n{}", found.database);
            ExitCode::SUCCESS
        }
        None => {
            println!("no IJP found within the budget");
            ExitCode::FAILURE
        }
    }
}

fn catalogue_cmd() -> ExitCode {
    for nq in catalogue::all_named_queries() {
        let c = classify(&nq.query);
        println!(
            "{:<18} {:<12} {}",
            nq.name,
            format!("{:?}", nq.paper_class),
            c.complexity
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_do_not_collide_with_large_numeric_constants() {
        // Regression: the old loader started label interning at the fixed
        // constant 1,000,000, so the label "alpha" aliased an explicit
        // 1000001 in the same file and the two tuples below collapsed into
        // one, changing the resilience.
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let text = "R(1000001, 7)\nR(alpha, 7)\nR(7, 9)\n";
        let db = parse_database(&q, text).unwrap();
        assert_eq!(db.num_tuples(), 3, "label collided with numeric constant");
        let r = db.schema().relation_id("R").unwrap();
        assert_eq!(db.tuples_of(r).len(), 3);
    }

    #[test]
    fn repeated_labels_intern_to_the_same_constant() {
        let q = parse_query("R(x,y)").unwrap();
        let db = parse_database(&q, "R(alice, bob)\nR(alice, bob)\nR(bob, alice)\n").unwrap();
        // The duplicate fact deduplicates; alice/bob are stable across lines.
        assert_eq!(db.num_tuples(), 2);
    }

    #[test]
    fn labels_are_offset_past_the_file_maximum() {
        let q = parse_query("R(x,y)").unwrap();
        let db = parse_database(&q, "R(42, alpha)\nR(7, beta)\n").unwrap();
        let r = db.schema().relation_id("R").unwrap();
        // Numbers stay verbatim; alpha interns first => 43, beta => 44.
        assert!(db.contains(r, &[42u64, 43]));
        assert!(db.contains(r, &[7u64, 44]));
    }

    #[test]
    fn parse_errors_are_reported_with_line_numbers() {
        let q = parse_query("R(x,y)").unwrap();
        assert!(parse_database(&q, "R(1, 2\n")
            .unwrap_err()
            .contains("line 1"));
        assert!(parse_database(&q, "# ok\nZ(1, 2)\n")
            .unwrap_err()
            .contains("line 2"));
        assert!(parse_database(&q, "R(1, )\n")
            .unwrap_err()
            .contains("empty"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let q = parse_query("R(x,y)").unwrap();
        let db = parse_database(&q, "# header\n\nR(1, 2) # trailing\n").unwrap();
        assert_eq!(db.num_tuples(), 1);
    }

    #[test]
    fn whatif_script_runs_delete_solve_restore() {
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let (db, labels) = parse_database_with_labels(&q, "R(1,2)\nR(2,3)\nR(3,3)\n").unwrap();
        let script = "solve\ndelete R(3,3)\nsolve\nrestore R(3,3)\n# comment\nsolve\n";
        let ops = parse_whatif_script(&q, &labels, script).unwrap();
        assert_eq!(ops.len(), 5);
        let compiled = Engine::compile(&q);
        let frozen = db.freeze();
        let mut session = compiled.session(&frozen).unwrap();
        let lines = run_whatif_ops(&mut session, &db, &ops, true).unwrap();
        assert!(lines[0].contains("\"resilience\": 2"));
        assert!(lines[1].contains("\"op\": \"delete\""));
        assert!(lines[1].contains("\"witnesses_changed\": 2"));
        assert!(lines[2].contains("\"resilience\": 1"));
        assert!(lines[4].contains("\"resilience\": 2"));
    }

    #[test]
    fn whatif_json_reports_solver_stats() {
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let (db, labels) = parse_database_with_labels(&q, "R(1,2)\nR(2,3)\nR(3,3)\n").unwrap();
        // solve twice (second is a replay), then delete + solve (the
        // restricted previous contingency short-circuits the exact search).
        let script = "solve\nsolve\ndelete R(3,3)\nsolve\n";
        let ops = parse_whatif_script(&q, &labels, script).unwrap();
        let compiled = Engine::compile(&q);
        let frozen = db.freeze();
        let mut session = compiled.session(&frozen).unwrap();
        let lines = run_whatif_ops(&mut session, &db, &ops, true).unwrap();
        assert!(lines[0].contains("\"solver\": {\"warm_start_hit\": false"));
        assert!(lines[0].contains("\"replayed\": false"));
        assert!(lines[1].contains("\"replayed\": true"));
        // The singleton witness forces R(3,3) into the first contingency
        // set; after deleting it the restriction matches the fresh packing
        // lower bound, so the search is skipped entirely.
        assert!(lines[3].contains("\"short_circuit\": true"), "{}", lines[3]);
        assert!(lines[3].contains("\"nodes_explored\": 0"));
        // Text mode surfaces the warm markers too.
        let mut cold = compiled.session(&frozen).unwrap();
        let text = run_whatif_ops(&mut cold, &db, &ops, false).unwrap();
        assert!(text[1].contains("[replayed]"), "{}", text[1]);
        assert!(text[3].contains("[warm"), "{}", text[3]);
    }

    #[test]
    fn whatif_script_resolves_labels_like_the_loader() {
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let (db, labels) = parse_database_with_labels(&q, "R(a,b)\nR(b,c)\nR(7,9)\n").unwrap();
        let ops = parse_whatif_script(&q, &labels, "delete R(a,b)\nsolve\n").unwrap();
        let compiled = Engine::compile(&q);
        let frozen = db.freeze();
        let mut session = compiled.session(&frozen).unwrap();
        let lines = run_whatif_ops(&mut session, &db, &ops, false).unwrap();
        assert_eq!(lines.len(), 2);
        // Unknown labels are parse errors, not silent fresh constants.
        assert!(parse_whatif_script(&q, &labels, "delete R(zz,b)\n")
            .unwrap_err()
            .contains("label zz"));
        // Unknown relations too.
        assert!(parse_whatif_script(&q, &labels, "delete Z(1,2)\n")
            .unwrap_err()
            .contains("relation Z"));
        // Malformed parenthesis order is a parse error, not a panic.
        assert!(parse_whatif_script(&q, &labels, "delete R)2(\n")
            .unwrap_err()
            .contains("line 1"));
        assert!(parse_database(&q, "R)2(\n").unwrap_err().contains("line 1"));
    }

    #[test]
    fn whatif_session_matches_batch_of_reduced_files() {
        // A delete script must answer exactly what `solve` answers on the
        // physically reduced file.
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let (db, labels) =
            parse_database_with_labels(&q, "R(1,2)\nR(2,3)\nR(3,3)\nR(3,4)\nR(4,4)\n").unwrap();
        let (reduced_db, _) =
            parse_database_with_labels(&q, "R(1,2)\nR(2,3)\nR(3,4)\nR(4,4)\n").unwrap();
        let compiled = Engine::compile(&q);
        let frozen = db.freeze();
        let mut session = compiled.session(&frozen).unwrap();
        let ops = parse_whatif_script(&q, &labels, "delete R(3,3)\nsolve\n").unwrap();
        let lines = run_whatif_ops(&mut session, &db, &ops, true).unwrap();
        let scratch = compiled
            .solve(&reduced_db.freeze(), &SolveOptions::new())
            .unwrap();
        let expected = match scratch.resilience {
            Resilience::Finite(k) => format!("\"resilience\": {k}"),
            Resilience::Unfalsifiable => "\"resilience\": null".to_string(),
        };
        assert!(lines[1].contains(&expected), "{} vs {expected}", lines[1]);
        assert!(lines[1].contains(&format!("\"witnesses\": {}", scratch.witnesses)));
    }

    #[test]
    fn report_json_is_well_formed_for_both_outcomes() {
        let q = parse_query("R(x,y), R(y,z)").unwrap();
        let db = parse_database(&q, "R(1,2)\nR(2,3)\nR(3,3)\n").unwrap();
        let compiled = Engine::compile(&q);
        let report = compiled.solve(&db.freeze(), &SolveOptions::new()).unwrap();
        let json = report_json("test.db", &db, &report);
        assert!(json.contains("\"resilience\": 2"));
        assert!(json.contains("\"unfalsifiable\": false"));
        assert!(json.contains("\"contingency\": ["));

        let q2 = parse_query("R^x(x,y)").unwrap();
        let db2 = parse_database(&q2, "R(1,2)\n").unwrap();
        let compiled2 = Engine::compile(&q2);
        let report2 = compiled2
            .solve(&db2.freeze(), &SolveOptions::new())
            .unwrap();
        let json2 = report_json("test.db", &db2, &report2);
        assert!(json2.contains("\"resilience\": null"));
        assert!(json2.contains("\"unfalsifiable\": true"));
    }
}
