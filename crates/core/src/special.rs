//! Dedicated polynomial algorithms for the named three-R-atom PTIME queries
//! of Sections 3.3 and 8: `q_A3perm-R` (Proposition 13), `q_Swx3perm-R`
//! (Proposition 44) and `q_TS3conf` (Proposition 41).
//!
//! These queries cannot use the plain witness-path construction because the
//! same `R`-tuple may appear at several positions of a witness; the paper
//! designs bespoke flow graphs whose min cuts respect the "delete once, pay
//! once" semantics. The implementations below follow the proofs; the test
//! suite and benchmark E8 cross-validate them against the exact solver on
//! randomized instances.

use crate::flow_algorithms::{seed_cuttable_mask, FlowConstruction, FlowResult, FlowScratch};
use cq::Query;
use database::{Constant, TupleId, TupleStore, WitnessSet};
use flow::{FlowInterrupted, FlowNetwork, MinCut, INF};
use std::collections::{HashMap, HashSet};

/// Solves the dedicated construction of catalogue query `name`
/// (`q_A3perm-R`, `q_Swx3perm-R` or `q_TS3conf`), polling `stop` inside the
/// max-flow run; `Err` carries the flow routed before it fired, a lower
/// bound on the resilience. `Ok(None)` when `name` is none of the three or
/// the instance lacks a relation the construction names.
pub(crate) fn solve<S: TupleStore + ?Sized>(
    name: &str,
    q: &Query,
    db: &S,
    want_contingency: bool,
    stop: &mut dyn FnMut() -> bool,
) -> Result<Option<FlowResult>, FlowInterrupted> {
    let relation = |name| resolve_name(q, name).and_then(|name| db.schema().relation_id(name));
    let left = match name {
        "q_TS3conf" => return ts3conf(q, db, want_contingency, stop),
        "q_A3perm-R" => relation("A").map(PermLeft::Unary),
        "q_Swx3perm-R" => relation("S").map(PermLeft::BinarySecond),
        _ => None,
    };
    match (left, relation("R")) {
        (Some(left), Some(r_rel)) => perm_r_flow(db, left, r_rel, want_contingency, stop).map(Some),
        _ => Ok(None),
    }
}

/// Resilience of `q_A3perm-R :- A(x), R(x,y), R(y,z), R(z,y)` (Proposition 13),
/// with optional contingency extraction.
///
/// 2-way tuples (`R(a,b)` whose inverse `R(b,a)` is also present, loops
/// included) become unit-capacity pair edges on the right; `A`-tuples become
/// unit-capacity edges on the left; 1-way `R`-tuples act as infinite-weight
/// connectors (an `A`-tuple is always at least as good a choice).
pub fn a3perm_r_resilience_opts<S: TupleStore + ?Sized>(
    q: &Query,
    db: &S,
    want_contingency: bool,
) -> Option<FlowResult> {
    solve("q_A3perm-R", q, db, want_contingency, &mut || false)
        .expect("the never-stop callback cannot interrupt the run")
}

/// Resilience of `q_Swx3perm-R :- S(w,x), R(x,y), R(y,z), R(z,y)`
/// (Proposition 44), with optional contingency extraction. Identical to
/// [`a3perm_r_resilience_opts`] except that the left-hand tuples are the
/// binary `S(e, a)` tuples (joining on their second attribute) and 1-way
/// `R`-tuples now cost 1 (they are not dominated by `S`).
pub fn swx3perm_r_resilience_opts<S: TupleStore + ?Sized>(
    q: &Query,
    db: &S,
    want_contingency: bool,
) -> Option<FlowResult> {
    solve("q_Swx3perm-R", q, db, want_contingency, &mut || false)
        .expect("the never-stop callback cannot interrupt the run")
}

/// Which relation anchors the left end of the permutation-plus-R query and
/// how its tuples join variable `x`.
enum PermLeft {
    /// `A(x)`: the anchor value is the single attribute.
    Unary(cq::RelId),
    /// `S(w, x)`: the anchor value is the second attribute and 1-way
    /// `R`-tuples are *not* dominated, so they carry capacity 1.
    BinarySecond(cq::RelId),
}

fn resolve_name<'n>(q: &Query, name: &'n str) -> Option<&'n str> {
    // The catalogue queries use literal names A/S/R; a structurally
    // isomorphic user query may use different names, in which case the caller
    // should map names before calling. We simply check the name exists.
    q.schema().relation_id(name).map(|_| name)
}

fn perm_r_flow<S: TupleStore + ?Sized>(
    db: &S,
    left: PermLeft,
    r_rel: cq::RelId,
    want_contingency: bool,
    stop: &mut dyn FnMut() -> bool,
) -> Result<FlowResult, FlowInterrupted> {
    // Classify R-tuples into 2-way pairs and 1-way tuples.
    let mut two_way_pairs: HashSet<(Constant, Constant)> = HashSet::new();
    let mut one_way: Vec<TupleId> = Vec::new();
    for &t in db.tuples_of(r_rel) {
        let v = db.values_of(t);
        let (a, b) = (v[0], v[1]);
        if db.contains_values(r_rel, &[b, a]) {
            let key = if a <= b { (a, b) } else { (b, a) };
            two_way_pairs.insert(key);
        } else {
            one_way.push(t);
        }
    }

    let mut network = FlowNetwork::new();
    let s = network.add_node();
    let t_sink = network.add_node();

    // Left-hand tuples: one unit edge each.
    let mut left_edge: HashMap<TupleId, flow::EdgeId> = HashMap::new();
    // Anchor value -> right endpoint of each left tuple edge.
    let mut left_out: Vec<(TupleId, Constant, flow::NodeId)> = Vec::new();
    let (left_rel, anchor_pos, one_way_cap) = match left {
        PermLeft::Unary(rel) => (rel, 0usize, INF),
        PermLeft::BinarySecond(rel) => (rel, 1usize, 1u64),
    };
    for &lt in db.tuples_of(left_rel) {
        let vals = db.values_of(lt);
        let anchor = vals[anchor_pos];
        let n_in = network.add_node();
        let n_out = network.add_node();
        let e = network.add_edge(n_in, n_out, 1);
        network.add_edge(s, n_in, INF);
        left_edge.insert(lt, e);
        left_out.push((lt, anchor, n_out));
    }

    // Pair nodes: one unit edge each, connected to the sink.
    let mut pair_edge: HashMap<(Constant, Constant), flow::EdgeId> = HashMap::new();
    let mut pair_in: HashMap<(Constant, Constant), flow::NodeId> = HashMap::new();
    for &pair in &two_way_pairs {
        let n_in = network.add_node();
        let n_out = network.add_node();
        let e = network.add_edge(n_in, n_out, 1);
        network.add_edge(n_out, t_sink, INF);
        pair_edge.insert(pair, e);
        pair_in.insert(pair, n_in);
    }

    // Connectors from left tuples to pairs: either the anchor belongs to the
    // pair, or a (1-way) R-tuple leads from the anchor into the pair.
    let mut one_way_edge: HashMap<TupleId, flow::EdgeId> = HashMap::new();
    for &(lt, anchor, n_out) in &left_out {
        let _ = lt;
        for &pair in &two_way_pairs {
            let (u, v) = pair;
            let direct = anchor == u || anchor == v;
            let via_one_way: Option<TupleId> = one_way.iter().copied().find(|&ot| {
                let vals = db.values_of(ot);
                vals[0] == anchor && (vals[1] == u || vals[1] == v)
            });
            if direct {
                network.add_edge(n_out, pair_in[&pair], INF);
            } else if let Some(ot) = via_one_way {
                let e = network.add_edge(n_out, pair_in[&pair], one_way_cap);
                if one_way_cap == 1 {
                    one_way_edge.insert(ot, e);
                }
            }
        }
    }

    if !want_contingency {
        return Ok(FlowResult {
            resilience: network.augment(s, t_sink, stop)?.0 as usize,
            contingency: Vec::new(),
        });
    }
    let cut = MinCut::compute(&mut network, s, t_sink, stop)?;

    // Translate the cut back to tuples: a cut left edge deletes that left
    // tuple; a cut pair edge deletes one tuple of the pair; a cut 1-way edge
    // deletes that 1-way R-tuple.
    let mut contingency: Vec<TupleId> = Vec::new();
    for (&lt, &e) in &left_edge {
        if cut.cut_edges.contains(&e) {
            contingency.push(lt);
        }
    }
    for (&pair, &e) in &pair_edge {
        if cut.cut_edges.contains(&e) {
            if let Some(t) = db.lookup_values(r_rel, &[pair.0, pair.1]) {
                contingency.push(t);
            }
        }
    }
    for (&ot, &e) in &one_way_edge {
        if cut.cut_edges.contains(&e) {
            contingency.push(ot);
        }
    }
    contingency.sort_unstable();
    contingency.dedup();
    Ok(FlowResult {
        resilience: cut.value as usize,
        contingency,
    })
}

/// Resilience of `q_TS3conf :- T^x(x,y), R(x,y), R(z,y), R(z,w), S^x(z,w)`
/// (Proposition 41), with optional contingency extraction.
///
/// Any `R(a,b)` with both `T(a,b)` and `S(a,b)` present forms a witness on
/// its own (taking `z = x = a`, `w = y = b`) and is forced into every
/// contingency set. After removing the forced tuples, the query behaves like
/// a linear query and the witness-path flow is exact (Lemma 55-style
/// argument in the paper). The forced tuples still have to be identified
/// when only the value is wanted (they contribute to it); only the flow-cut
/// translation is skipped.
///
/// The post-reduction instance is expressed as a *deletion-aware view*: the
/// witnesses of `D \ forced` are exactly the witnesses of `D` using no
/// forced tuple ([`WitnessSet::without_tuples`]), so no database copy or
/// re-enumeration happens, and the flow's contingency tuples reference the
/// original store directly (the old implementation had to translate ids back
/// by value).
pub fn ts3conf_resilience_opts<S: TupleStore + ?Sized>(
    q: &Query,
    db: &S,
    want_contingency: bool,
) -> Option<FlowResult> {
    solve("q_TS3conf", q, db, want_contingency, &mut || false)
        .expect("the never-stop callback cannot interrupt the run")
}

fn ts3conf<S: TupleStore + ?Sized>(
    q: &Query,
    db: &S,
    want_contingency: bool,
    stop: &mut dyn FnMut() -> bool,
) -> Result<Option<FlowResult>, FlowInterrupted> {
    let (Some(t_rel), Some(s_rel), Some(r_rel)) = (
        db.schema().relation_id("T"),
        db.schema().relation_id("S"),
        db.schema().relation_id("R"),
    ) else {
        return Ok(None);
    };

    let mut forced: Vec<TupleId> = Vec::new();
    for &rt in db.tuples_of(r_rel) {
        let v = db.values_of(rt);
        if db.contains_values(t_rel, &[v[0], v[1]]) && db.contains_values(s_rel, &[v[0], v[1]]) {
            forced.push(rt);
        }
    }
    let forced_set: HashSet<TupleId> = forced.iter().copied().collect();

    let Some(order) = cq::linear::linear_order_all(q) else {
        return Ok(None);
    };
    let ws = WitnessSet::build(q, db).without_tuples(&forced_set);
    // The forced tuples are deleted from the view, so the witness-path flow
    // never creates nodes for them: cutting is decided among the survivors
    // only, exactly as on a physically reduced instance.
    let mut scratch = FlowScratch::new();
    seed_cuttable_mask(q, db, &mut scratch);
    let Some(flow) = FlowConstruction::WitnessPath { order: &order }.solve(
        db,
        ws.view(),
        want_contingency,
        &mut scratch,
        stop,
        None,
    )?
    else {
        return Ok(None);
    };
    if !want_contingency {
        return Ok(Some(FlowResult {
            resilience: forced.len() + flow.resilience,
            contingency: Vec::new(),
        }));
    }
    let mut contingency = forced;
    contingency.extend(flow.contingency);
    contingency.sort_unstable();
    contingency.dedup();
    Ok(Some(FlowResult {
        resilience: contingency.len(),
        contingency,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactSolver;
    use cq::catalogue;
    use cq::parse_query;
    use database::Database;

    fn build_db(q: &Query, rows: &[(&str, &[u64])]) -> Database {
        let mut db = Database::for_query(q);
        for (rel, vals) in rows {
            db.insert_named(rel, vals);
        }
        db
    }

    #[test]
    fn a3perm_r_simple_instances_match_exact() {
        let q = catalogue::q_a3perm_r().query;
        // A couple of hand-built instances with 2-way pairs, loops and 1-way
        // connectors.
        let db = build_db(
            &q,
            &[
                ("A", &[1]),
                ("A", &[2]),
                ("R", &[1, 2]),
                ("R", &[2, 3]),
                ("R", &[3, 2]),
                ("R", &[2, 2]),
            ],
        );
        let flow = a3perm_r_resilience_opts(&q, &db, true).unwrap();
        let exact = ExactSolver::new().resilience_value(&q, &db).unwrap();
        assert_eq!(flow.resilience, exact);
    }

    #[test]
    fn a3perm_r_loop_only_instance() {
        let q = catalogue::q_a3perm_r().query;
        let db = build_db(&q, &[("A", &[1]), ("R", &[1, 1])]);
        let flow = a3perm_r_resilience_opts(&q, &db, true).unwrap();
        let exact = ExactSolver::new().resilience_value(&q, &db).unwrap();
        assert_eq!(flow.resilience, exact);
        assert_eq!(flow.resilience, 1);
    }

    #[test]
    fn a3perm_r_no_witness_is_zero() {
        let q = catalogue::q_a3perm_r().query;
        let db = build_db(&q, &[("A", &[1]), ("R", &[1, 2]), ("R", &[2, 3])]);
        let flow = a3perm_r_resilience_opts(&q, &db, true).unwrap();
        assert_eq!(flow.resilience, 0);
        assert!(!database::evaluate(&q, &db));
    }

    #[test]
    fn swx3perm_r_matches_exact_on_small_instance() {
        let q = catalogue::q_swx3perm_r().query;
        let db = build_db(
            &q,
            &[
                ("S", &[10, 1]),
                ("S", &[11, 1]),
                ("S", &[12, 2]),
                ("R", &[1, 2]),
                ("R", &[2, 3]),
                ("R", &[3, 2]),
                ("R", &[2, 2]),
            ],
        );
        let flow = swx3perm_r_resilience_opts(&q, &db, true).unwrap();
        let exact = ExactSolver::new().resilience_value(&q, &db).unwrap();
        assert_eq!(flow.resilience, exact);
    }

    #[test]
    fn ts3conf_forced_tuples_and_flow_match_exact() {
        let q = catalogue::q_ts3conf().query;
        let db = build_db(
            &q,
            &[
                ("T", &[1, 2]),
                ("S", &[1, 2]),
                ("R", &[1, 2]), // forced: T(1,2) and S(1,2) both present
                ("T", &[3, 4]),
                ("R", &[3, 4]),
                ("R", &[5, 4]),
                ("R", &[5, 6]),
                ("S", &[5, 6]),
            ],
        );
        let flow = ts3conf_resilience_opts(&q, &db, true).unwrap();
        let exact = ExactSolver::new().resilience_value(&q, &db).unwrap();
        assert_eq!(flow.resilience, exact);
    }

    #[test]
    fn ts3conf_no_forced_tuples() {
        let q = catalogue::q_ts3conf().query;
        let db = build_db(
            &q,
            &[
                ("T", &[1, 2]),
                ("R", &[1, 2]),
                ("R", &[3, 2]),
                ("R", &[3, 4]),
                ("S", &[3, 4]),
            ],
        );
        let flow = ts3conf_resilience_opts(&q, &db, true).unwrap();
        let exact = ExactSolver::new().resilience_value(&q, &db).unwrap();
        assert_eq!(flow.resilience, exact);
    }

    #[test]
    fn a3perm_r_crafted_one_way_connector() {
        // Witness through a 1-way tuple: A(5), R(5,1) one-way, pair {1,2}.
        let q = parse_query("A(x), R(x,y), R(y,z), R(z,y)").unwrap();
        let db = build_db(
            &q,
            &[("A", &[5]), ("R", &[5, 1]), ("R", &[1, 2]), ("R", &[2, 1])],
        );
        let flow = a3perm_r_resilience_opts(&q, &db, true).unwrap();
        let exact = ExactSolver::new().resilience_value(&q, &db).unwrap();
        assert_eq!(flow.resilience, exact);
        assert_eq!(flow.resilience, 1);
    }
}
