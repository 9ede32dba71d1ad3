//! Answer-quality counts on a pinned guard corpus.
//!
//! The four counts (`rs_gap_total`, `cp_growth_total`, `makespan_total`,
//! `spills_total`) are exact: they catch a "speed-up" that is really a
//! worse answer. They are computed on one pinned corpus, the same in every
//! workload and every seed, so that they compare programs rather than
//! seeds; a seed-drawn corpus small enough to check in every run spreads
//! these sums by more than any useful bound. The guard runs after the
//! timed phase and is not timed.

use crate::gen::{random_dag, Rng};
use crate::oracle::Oracle;
use rs_core::request::{RsOp, RsRequest, RsResponse};
use rs_serve::Dispatcher;

/// Fixed seed of the guard corpus.
const GUARD_SEED: u64 = 0x0006_0A8D_2004;

/// DAGs whose reduction and pipeline answers the guard scores.
pub const GUARD_REDUCE_DAGS: usize = 48;

/// DAGs on which the guard compares Greedy-k with the exact search.
pub const GUARD_EXACT_DAGS: usize = 160;

/// The four answer-quality counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Quality {
    /// Σ (ExactRs − Greedy-k RS) over the instances ExactRs proves.
    pub rs_gap_total: u64,
    /// Σ critical-path growth added by `reduce` with spill fallback.
    pub cp_growth_total: i64,
    /// Σ pipeline makespan over the pipelines that fit.
    pub makespan_total: i64,
    /// Σ values spilled by `reduce` plus Σ allocator spills of `pipeline`.
    pub spills_total: u64,
}

fn float_of(resp: &RsResponse) -> Option<&rs_core::request::TypeResult> {
    resp.result
        .as_ref()?
        .types
        .iter()
        .find(|t| t.reg_type == "float")
}

/// Runs the guard corpus through a fresh cache-less dispatcher, checking
/// every answer with `oracle`.
pub fn guard(oracle: &mut Oracle) -> Quality {
    let mut d = Dispatcher::new();
    let mut q = Quality::default();
    let mut rng = Rng::new(GUARD_SEED);

    // Reduction and scheduling quality on DAGs of 16–39 ops.
    for i in 0..GUARD_REDUCE_DAGS {
        let dag = random_dag(&mut rng, 16 + i % 24, 8, i);
        let mut analyze = RsRequest::new(RsOp::Analyze, dag.text.clone());
        analyze.reg_type = Some("float".into());
        let a = d.dispatch(&analyze);
        oracle.check("guard analyze", &analyze, &a);
        let Some(rs) = float_of(&a).map(|t| t.saturation) else {
            continue;
        };

        let mut reduce = RsRequest::new(RsOp::Reduce, dag.text.clone());
        reduce.reg_type = Some("float".into());
        reduce.registers = Some((rs * 2 / 3).max(1));
        reduce.spill = true;
        reduce.emit_ddg = true;
        let r = d.dispatch(&reduce);
        if oracle.check("guard reduce", &reduce, &r) {
            if let Some(red) = float_of(&r).and_then(|t| t.reduce.as_ref()) {
                q.cp_growth_total += red.cp_after - red.cp_before;
                q.spills_total += red.spilled.len() as u64;
            }
        }

        let mut pipeline = RsRequest::new(RsOp::Pipeline, dag.text);
        pipeline.reg_type = Some("float".into());
        pipeline.registers = Some(rs.saturating_sub(2).max(1));
        let p = d.dispatch(&pipeline);
        if oracle.check("guard pipeline", &pipeline, &p) {
            if let Some(m) = p.result.as_ref().and_then(|r| r.makespan) {
                q.makespan_total += m;
            }
            if let Some(alloc) = float_of(&p).and_then(|t| t.alloc) {
                q.spills_total += alloc.spills as u64;
            }
        }
    }

    // Greedy-k against the exact combinatorial search on DAGs of 10–16 ops.
    for i in 0..GUARD_EXACT_DAGS {
        let dag = random_dag(&mut rng, 10 + i % 7, 5, i);
        let mut exact = RsRequest::new(RsOp::Analyze, dag.text);
        exact.reg_type = Some("float".into());
        exact.exact = true;
        let e = d.dispatch(&exact);
        if oracle.check("guard exact", &exact, &e) {
            if let Some(t) = float_of(&e) {
                if let Some(x) = t.exact.as_ref().filter(|x| x.proven_optimal) {
                    q.rs_gap_total += (x.saturation - t.saturation) as u64;
                }
            }
        }
    }
    q
}
