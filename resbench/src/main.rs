//! The repository's benchmark: one command runs a named workload from a
//! seed, measures the end-to-end metrics with tracing off (`--trace 0`) or
//! the per-layer metrics from a traced run (`--trace 1`), checks every
//! output independently of the solver under test, and prints one JSON
//! object as the last line of standard output.
//!
//! ```text
//! resbench --workload solve|whatif|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! See `README.md` for the workloads, the statistics and the checks.

mod check;
mod gen;
mod rng;
mod serve;
mod solve;
mod stats;
mod trace;
mod whatif;

use stats::OpTimes;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back for printing.
pub struct Outcome {
    /// Per-operation times of the timed passes.
    pub times: OpTimes,
    /// Process CPU seconds over the timed passes.
    pub cpu_s: f64,
    /// The one cold set-up of this process, in seconds.
    pub setup_s: f64,
    /// Operations that failed in the timed passes.
    pub failed: u64,
    /// Problems the output checks found (empty = correct).
    pub problems: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Every per-layer metric, with its unit. A traced run prints all of them;
/// a layer its workload never calls reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("cq.compile_ms", "ms"),
    ("database.freeze_ms", "ms"),
    ("eval.enumerate_ms", "ms"),
    ("eval.witnesses", "count"),
    ("witness.index_ms", "ms"),
    ("witness.reduced_ms", "ms"),
    ("witness.reduced_ratio", "ratio"),
    ("flow.linear_ms", "ms"),
    ("flow.bipartite_ms", "ms"),
    ("flow.permutation_ms", "ms"),
    ("flow.rep_ms", "ms"),
    ("flow.special_ms", "ms"),
    ("exact.search_ms", "ms"),
    ("exact.nodes", "count"),
    ("engine.components_ms", "ms"),
    ("engine.overhead_ms", "ms"),
    ("session.open_ms", "ms"),
    ("session.delete_us", "us"),
    ("session.restore_us", "us"),
    ("session.solve_flow_ms", "ms"),
    ("session.solve_exact_ms", "ms"),
    ("session.solve_fallback_ms", "ms"),
    ("session.flow_paths_repaired", "count"),
    ("session.flow_paths_reaugmented", "count"),
    ("session.flow_cold_rebuilds", "count"),
    ("session.warm_start_hits", "count"),
    ("session.short_circuits", "count"),
    ("session.replays", "count"),
    ("session.reduced_compactions", "count"),
    ("session.exact_nodes", "count"),
    ("server.rtt_solve_ms", "ms"),
    ("server.rtt_delete_ms", "ms"),
    ("server.rtt_resolve_ms", "ms"),
    ("server.rtt_restore_ms", "ms"),
    ("server.rtt_reset_ms", "ms"),
    ("server.rtt_compile_ms", "ms"),
    ("server.rtt_load_ms", "ms"),
    ("server.rtt_unload_ms", "ms"),
    ("server.rtt_stats_ms", "ms"),
    ("server.request_bytes", "B"),
    ("server.response_bytes", "B"),
    ("engine.solve_us", "us"),
    ("jsonio.render_us", "us"),
    ("dbtext.parse_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("plancache.compile_us", "us"),
    ("plancache.hit_ratio", "ratio"),
    ("server.deadline_misses", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.accounted_pct", "%"),
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(0.1),
        trace: trace.unwrap_or(false),
    })
}

/// Runs `pass` (which appends one time per operation, in operation order)
/// as whole passes until `seconds` have elapsed and at least `min_passes`
/// ran. Returns the times and the process CPU seconds they took.
pub fn timed_passes(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut(&mut Vec<f64>) -> Result<(), String>,
) -> Result<(OpTimes, f64), String> {
    let mut times = OpTimes::default();
    let cpu0 = stats::process_cpu_s();
    let start = Instant::now();
    while times.passes.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let mut t = Vec::new();
        pass(&mut t)?;
        if let Some(first) = times.passes.first() {
            assert_eq!(first.len(), t.len(), "every pass runs the same operations");
        }
        times.passes.push(t);
    }
    Ok((times, stats::process_cpu_s() - cpu0))
}

/// Whether per-class summaries go to standard error (sizing aid).
pub fn verbose() -> bool {
    std::env::var_os("RESBENCH_VERBOSE").is_some()
}

/// Prints each class's operation count, median time, share of the pass
/// time and rank range among the sorted per-op medians, so p50 and p90 can
/// be placed.
pub fn describe_classes(classes: &[&'static str], medians: &[f64]) {
    if !verbose() {
        return;
    }
    let mut order: Vec<usize> = (0..medians.len()).collect();
    order.sort_by(|&a, &b| medians[a].total_cmp(&medians[b]));
    let total: f64 = medians.iter().sum();
    let mut by_class: BTreeMap<&str, (Vec<f64>, usize, usize)> = BTreeMap::new();
    for (rank, &i) in order.iter().enumerate() {
        let e = by_class
            .entry(classes[i])
            .or_insert((Vec::new(), usize::MAX, 0));
        e.0.push(medians[i]);
        e.1 = e.1.min(rank);
        e.2 = e.2.max(rank);
    }
    let n = medians.len();
    eprintln!("sum of per-op medians {:.3} ms", total * 1e3);
    eprintln!(
        "class                       ops   med_ms  time%  ranks (p50 at {:.1}, p90 at {:.1})",
        0.5 * (n - 1) as f64,
        0.9 * (n - 1) as f64
    );
    for (c, (v, lo, hi)) in by_class {
        eprintln!(
            "{c:26} {:4} {:8.3} {:6.1}  {lo}..{hi}",
            v.len(),
            stats::median(&v) * 1e3,
            v.iter().sum::<f64>() / total * 100.0,
        );
    }
    let mut line = String::from("sorted classes:");
    for &i in &order {
        let _ = write!(line, " {}", classes[i]);
    }
    eprintln!("{line}");
}

fn print_result(args: &Args, out: &Outcome) {
    let medians = out.times.per_op_medians();
    let ops = medians.len();
    let passes = out.times.passes.len();
    let attempted = (ops * passes) as u64;
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for &(name, unit) in LAYER_METRICS {
            metrics.push((name, out.layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        let sum: f64 = medians.iter().sum();
        metrics.push(("ops_per_s", ops as f64 / sum, "ops/s"));
        metrics.push(("op_p50_ms", stats::quantile(&medians, 0.5) * 1e3, "ms"));
        metrics.push(("op_p90_ms", stats::quantile(&medians, 0.9) * 1e3, "ms"));
        metrics.push((
            "cpu_ms_per_op",
            out.cpu_s * 1e3 / attempted.max(1) as f64,
            "ms",
        ));
        metrics.push(("setup_s", out.setup_s, "s"));
        metrics.push(("peak_rss_mb", stats::peak_rss_mib(), "MiB"));
    }
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        out.problems.is_empty(),
        out.failed
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("resbench: {e}");
            std::process::exit(2);
        }
    };
    let calibration_before = stats::calibration_ms();
    let outcome = match args.workload.as_str() {
        "solve" => solve::run(&args),
        "whatif" => whatif::run(&args),
        "serve" => serve::run(&args),
        other => Err(format!("unknown workload {other} (solve, whatif, serve)")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("resbench: {e}");
            std::process::exit(1);
        }
    };
    for p in &outcome.problems {
        eprintln!("resbench: check failed: {p}");
    }
    let calibration_after = stats::calibration_ms();
    println!(
        "calibration_ms before={calibration_before:.3} after={calibration_after:.3} passes={}",
        outcome.times.passes.len()
    );
    print_result(&args, &outcome);
}
