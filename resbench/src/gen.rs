//! Seeded random instances with fixed degrees. Every binary relation is
//! the union of `edges / nodes` random permutations of the constants (so
//! every constant has the same in- and out-degree, before duplicates and
//! self-pairs collapse), plus exactly `loops · nodes` loops `(v, v)` and
//! exactly `sym · edges` reversed edges, which the permutation and
//! repeated-variable queries need. Every unary relation holds exactly
//! `unary · nodes` random constants. Fixing the counts and degrees keeps
//! the cost of an instance nearly the same from one seed to the next, so
//! the seed changes the inputs without changing the workload.

use crate::rng::Rng;
use cq::Query;
use database::Database;

#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub nodes: u64,
    /// Edges per binary relation, rounded down to a multiple of `nodes`.
    pub edges: usize,
    /// Share of the constants with a loop `(v, v)` per binary relation.
    pub loops: f64,
    /// Share of the edges also inserted reversed.
    pub sym: f64,
    /// Share of the constants in each unary relation.
    pub unary: f64,
    /// Share of the edges of a later binary relation copied from the first
    /// binary relation (queries such as `q_TS3conf` need the same pair in
    /// two relations).
    pub share: f64,
}

impl Shape {
    /// The same generator at `1/k` of the size (for cross-checks that need
    /// exact search to finish).
    pub fn shrunk(self, k: u64) -> Shape {
        Shape {
            nodes: (self.nodes / k).max(4),
            edges: (self.edges / k as usize).max(4),
            ..self
        }
    }
}

pub fn instance(q: &Query, shape: Shape, rng: &mut Rng) -> Database {
    let mut db = Database::for_query(q);
    let n = shape.nodes;
    let pick = |rng: &mut Rng, share: f64| -> Vec<u64> {
        let mut all: Vec<u64> = (0..n).collect();
        rng.shuffle(&mut all);
        all.truncate((share * n as f64).round() as usize);
        all
    };
    let rels: Vec<_> = q.schema().relation_ids().collect();
    let mut pool: Vec<(u64, u64)> = Vec::new();
    for rel in rels {
        match q.schema().arity(rel) {
            1 => {
                for v in pick(rng, shape.unary) {
                    db.insert(rel, &[v]);
                }
            }
            2 => {
                let degree = (shape.edges as u64 / n).max(1);
                let mut edges: Vec<(u64, u64)> = Vec::new();
                for _ in 0..degree {
                    let mut perm: Vec<u64> = (0..n).collect();
                    rng.shuffle(&mut perm);
                    edges.extend(
                        (0..n)
                            .map(|v| (v, perm[v as usize]))
                            .filter(|(a, b)| a != b),
                    );
                }
                rng.shuffle(&mut edges);
                if pool.is_empty() {
                    pool = edges.clone();
                } else {
                    // Replace a `share` of the edges by edges of the first
                    // binary relation.
                    let copied = (shape.share * edges.len() as f64).round() as usize;
                    let mut from = pool.clone();
                    rng.shuffle(&mut from);
                    for (e, f) in edges.iter_mut().zip(from).take(copied) {
                        *e = f;
                    }
                }
                let reversed = (shape.sym * edges.len() as f64).round() as usize;
                for (i, &(a, b)) in edges.iter().enumerate() {
                    db.insert(rel, &[a, b]);
                    if i < reversed {
                        db.insert(rel, &[b, a]);
                    }
                }
                for v in pick(rng, shape.loops) {
                    db.insert(rel, &[v, v]);
                }
            }
            a => panic!("generator supports unary and binary relations, got arity {a}"),
        }
    }
    db
}

/// A query from the paper's catalogue by name.
pub fn catalogue(name: &str) -> Query {
    cq::catalogue::by_name(name)
        .unwrap_or_else(|| panic!("{name} is not in the catalogue"))
        .query
}
