//! In-memory spans for the traced run. Each span has a name, a start, an
//! end and a parent; the spans (and counts) of one operation share its id.
//! Nothing is written until [`Tracer::write_jsonl`] at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Operation id of the spans and counts recorded during set-up.
pub const SETUP_OP: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub op: u32,
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// `(op, name, value)` counts recorded at the same boundaries.
    pub counts: Vec<(u32, &'static str, f64)>,
    stack: Vec<u32>,
    op: u32,
}

/// Handle of an open span.
#[must_use]
pub struct Open(u32);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new operation: later spans and counts carry its id.
    pub fn set_op(&mut self, op: u32) {
        debug_assert!(
            self.stack.is_empty(),
            "an operation changed with spans open"
        );
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.stack.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn end(&mut self, open: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((self.op, name, value));
    }

    /// Self time of every span (its duration minus its children's), summed
    /// per `(op, name)`, in seconds.
    pub fn self_times(&self) -> BTreeMap<(u32, &'static str), f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry((s.op, s.name)).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Self times of the operations' spans (set-up excluded), keyed like
    /// [`per_pass_totals`] takes them.
    pub fn op_self_times(&self) -> BTreeMap<(u32, &'static str), f64> {
        let mut own = self.self_times();
        own.retain(|(op, _), _| *op != SETUP_OP);
        own
    }

    /// Counts of the operations (set-up excluded), summed per `(op, name)`.
    pub fn op_counts(&self) -> BTreeMap<(u32, &'static str), f64> {
        let mut out = BTreeMap::new();
        for &(op, name, v) in self.counts.iter().filter(|c| c.0 != SETUP_OP) {
            *out.entry((op, name)).or_insert(0.0) += v;
        }
        out
    }

    /// Total duration of the set-up spans named `name`, in milliseconds.
    pub fn setup_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == SETUP_OP && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
            .sum()
    }

    /// Writes every span and count as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        for (op, name, value) in &self.counts {
            let _ = writeln!(
                out,
                "{{\"count\": \"{name}\", \"op\": {op}, \"value\": {value}}}"
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Sums, over the operations of a pass, each operation's median (across
/// passes) of a per-op value. Keys are `(pass * ops + index, name)`.
pub fn per_pass_totals(
    values: &BTreeMap<(u32, &'static str), f64>,
    ops: usize,
) -> BTreeMap<&'static str, f64> {
    let mut per: BTreeMap<(&'static str, usize), Vec<f64>> = BTreeMap::new();
    for (&(op, name), &v) in values {
        per.entry((name, op as usize % ops)).or_default().push(v);
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for ((name, _), vs) in per {
        *out.entry(name).or_insert(0.0) += crate::stats::median(&vs);
    }
    out
}

/// Writes a run's spans to `.bench_trace/<workload>-seed<seed>.jsonl` in
/// the working directory.
pub fn write_trace(tr: &Tracer, workload: &str, seed: u64) -> Result<(), String> {
    let path =
        std::path::PathBuf::from(".bench_trace").join(format!("{workload}-seed{seed}.jsonl"));
    tr.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_op(7);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(inner);
        t.end(outer);
        let own = t.self_times();
        assert!(own[&(7, "inner")] >= 0.005);
        assert!(own[&(7, "outer")] < own[&(7, "inner")]);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
