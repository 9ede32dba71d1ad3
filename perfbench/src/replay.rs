//! Stage replays for the traced run.
//!
//! A replay re-executes one request by calling each layer's public entry
//! point directly, in the order the dispatcher calls them, with a span
//! around every call. Its answer must equal the dispatcher's; the spans
//! give the per-layer self times.

use crate::oracle::result_bytes;
use crate::trace::Tracer;
use rs_core::exact::ExactRs;
use rs_core::ilp::RsIlp;
use rs_core::model::{Ddg, RegType};
use rs_core::parse::parse_ddg;
use rs_core::reduce::ReduceOutcome;
use rs_core::request::{reg_type_from_name, RsOp, RsRequest, RsResponse, TypeResult};
use rs_core::spill::SpillPass;
use rs_core::{Cancel, RsEngine};
use rs_graph::{max_antichain, TransitiveClosure};
use rs_lp::{presolve, solve, solve_relaxation, PresolveOutcome};
use rs_sched::{ListScheduler, RegisterAllocator, Resources};
use rs_serve::Dispatcher;
use std::time::{Duration, Instant};

/// Presolve rounds used by `rs_lp::solve` before its search.
const PRESOLVE_ROUNDS: usize = 4;

/// One request dispatched twice on the same dispatcher, bare and inside a
/// `serve.dispatch` span; the tracing overhead is the difference.
pub struct Paired {
    /// The answer of the traced dispatch.
    pub traced: RsResponse,
    /// Duration of the traced dispatch's span.
    pub traced_ms: f64,
    /// The answer of the bare dispatch.
    pub bare: RsResponse,
    /// Duration of the bare dispatch.
    pub bare_ms: f64,
}

impl Paired {
    /// Both answers must agree whenever both are `ok`.
    pub fn agree(&self) -> Result<(), String> {
        if self.traced.ok && self.bare.ok && result_bytes(&self.traced) != result_bytes(&self.bare)
        {
            return Err("traced and bare dispatch answer differently".into());
        }
        Ok(())
    }
}

/// Dispatches `req` bare and traced, the order alternating with `rid` so
/// that neither side gains from the other's warm caches.
pub fn paired_dispatch(d: &mut Dispatcher, tr: &mut Tracer, rid: u64, req: &RsRequest) -> Paired {
    let bare = |d: &mut Dispatcher| {
        let t = Instant::now();
        let resp = d.dispatch(req);
        (resp, t.elapsed().as_secs_f64() * 1e3)
    };
    let traced = |d: &mut Dispatcher, tr: &mut Tracer| {
        let span = tr.enter("serve.dispatch", rid);
        let resp = d.dispatch(req);
        tr.exit(span);
        (resp, tr.duration_ms(span))
    };
    let ((bare, bare_ms), (traced, traced_ms)) = if rid & 1 == 0 {
        let b = bare(d);
        (b, traced(d, tr))
    } else {
        let t = traced(d, tr);
        (bare(d), t)
    };
    Paired {
        traced,
        traced_ms,
        bare,
        bare_ms,
    }
}

/// Work counters gathered at the replayed call boundaries.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub parse_bytes: u64,
    pub reduce_calls: u64,
    pub reduce_fits: u64,
    pub reduce_arcs: u64,
    pub alloc_calls: u64,
    pub alloc_spills: u64,
    pub exact_calls: u64,
    pub exact_leaves: u64,
    pub exact_pruned: u64,
    pub exact_proven: u64,
    pub ilp_models: u64,
    pub ilp_rows: u64,
    pub ilp_cols: u64,
    pub presolve_rows_removed: u64,
    pub milp_calls: u64,
    pub milp_proven: u64,
    pub nodes: u64,
    pub lp_solves: u64,
    pub pivots: u64,
    pub dse_pivots: u64,
    pub strong_branch_probes: u64,
    pub warm_hits: u64,
    pub warm_solves: u64,
    pub propagation_fathoms: u64,
    pub cuts_added: u64,
    pub cut_rounds: u64,
    pub root_gap_closed_sum: f64,
    pub root_gap_closed_n: u64,
}

/// Replays requests on its own warm engine.
#[derive(Default)]
pub struct Replayer {
    engine: RsEngine,
    /// Counters summed over every replay.
    pub counters: Counters,
}

fn type_of(resp: &RsResponse, t: RegType) -> Result<&TypeResult, String> {
    let name = rs_core::request::reg_type_name(t);
    resp.result
        .as_ref()
        .and_then(|r| r.types.iter().find(|x| x.reg_type == name))
        .ok_or_else(|| format!("dispatcher answer has no `{name}` type"))
}

fn differ(what: &str, replay: impl std::fmt::Debug, dispatcher: impl std::fmt::Debug) -> String {
    format!("replayed {what} {replay:?} != dispatcher {dispatcher:?}")
}

impl Replayer {
    /// Replays `req` inside span tree `rid` and compares with `resp`.
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        rid: u64,
        req: &RsRequest,
        resp: &RsResponse,
    ) -> Result<(), String> {
        let root = tr.enter("replay", rid);
        let out = self.replay_inner(tr, rid, req, resp);
        tr.exit(root);
        out
    }

    fn replay_inner(
        &mut self,
        tr: &mut Tracer,
        rid: u64,
        req: &RsRequest,
        resp: &RsResponse,
    ) -> Result<(), String> {
        self.counters.parse_bytes += req.ddg.len() as u64;
        let mut ddg = tr
            .span("core.parse", rid, || parse_ddg(&req.ddg))
            .map_err(|e| format!("replayed parse failed: {e}"))?;
        let types: Vec<RegType> = match req.reg_type.as_deref() {
            Some(name) => vec![reg_type_from_name(name).ok_or("unknown register type")?],
            None => ddg.reg_types(),
        };
        match req.op {
            RsOp::Analyze => self.analyze(tr, rid, req, resp, &ddg, &types),
            RsOp::Reduce => {
                let budget = req.registers.unwrap_or(1);
                for &t in &types {
                    let (fits, rs_after, arcs) =
                        self.reduce(tr, rid, &mut ddg, t, budget, req.spill);
                    let want = type_of(resp, t)?
                        .reduce
                        .as_ref()
                        .ok_or("no reduce result")?;
                    if (fits, rs_after, arcs) != (want.fits, want.rs_after, want.arcs_added) {
                        return Err(differ(
                            "reduce (fits, rs_after, arcs)",
                            (fits, rs_after, arcs),
                            (want.fits, want.rs_after, want.arcs_added),
                        ));
                    }
                }
                Ok(())
            }
            RsOp::Pipeline => self.pipeline(tr, rid, req, resp, &mut ddg, &types),
        }
    }

    fn analyze(
        &mut self,
        tr: &mut Tracer,
        rid: u64,
        req: &RsRequest,
        resp: &RsResponse,
        ddg: &Ddg,
        types: &[RegType],
    ) -> Result<(), String> {
        let closure = tr.span("graph.closure", rid, || TransitiveClosure::new(ddg.graph()));
        for &t in types {
            let values = ddg.values(t);
            tr.span("graph.antichain", rid, || {
                max_antichain(&values, |a, b| a != b && closure.reaches(a, b))
            });
            let a = tr.span("core.engine.analyze", rid, || self.engine.analyze(ddg, t));
            let want = type_of(resp, t)?;
            if a.saturation != want.saturation {
                return Err(differ("Greedy-k RS", a.saturation, want.saturation));
            }
            if req.exact || req.ilp {
                // One deadline covers both solvers, as in the dispatcher.
                let cancel = match req.timeout_ms {
                    Some(ms) => Cancel::with_deadline(Instant::now() + Duration::from_millis(ms)),
                    None => Cancel::new(),
                };
                if req.exact {
                    self.exact(tr, rid, ddg, t, &cancel, want)?;
                }
                if req.ilp && !values.is_empty() {
                    self.ilp(tr, rid, ddg, t, &cancel, want)?;
                }
            }
        }
        Ok(())
    }

    fn exact(
        &mut self,
        tr: &mut Tracer,
        rid: u64,
        ddg: &Ddg,
        t: RegType,
        cancel: &Cancel,
        want: &TypeResult,
    ) -> Result<(), String> {
        let mut solver = ExactRs::with_threads(1);
        solver.cancel = cancel.clone();
        let e = tr.span("core.exact", rid, || solver.saturation(ddg, t));
        let c = &mut self.counters;
        c.exact_calls += 1;
        c.exact_leaves += e.leaves_evaluated as u64;
        c.exact_pruned += e.pruned as u64;
        c.exact_proven += u64::from(e.proven_optimal);
        if let Some(w) = want.exact.as_ref() {
            if e.proven_optimal && w.proven_optimal && e.saturation != w.saturation {
                return Err(differ("ExactRs", e.saturation, w.saturation));
            }
        }
        Ok(())
    }

    fn ilp(
        &mut self,
        tr: &mut Tracer,
        rid: u64,
        ddg: &Ddg,
        t: RegType,
        cancel: &Cancel,
        want: &TypeResult,
    ) -> Result<(), String> {
        let mut ilp = RsIlp::with_threads(1);
        ilp.milp.cancel = cancel.clone();
        let (model, _) = tr.span("core.ilp.emit", rid, || ilp.build_model(ddg, t));
        let c = &mut self.counters;
        c.ilp_models += 1;
        c.ilp_rows += model.num_constraints() as u64;
        c.ilp_cols += model.num_vars() as u64;
        let pre = tr.span("lp.presolve", rid, || presolve(&model, PRESOLVE_ROUNDS));
        if let PresolveOutcome::Reduced { stats, .. } = &pre {
            self.counters.presolve_rows_removed += stats.rows_removed as u64;
        }
        tr.span("lp.simplex.root", rid, || solve_relaxation(&model));
        let sol = tr.span("lp.milp", rid, || solve(&model, &ilp.milp));
        let c = &mut self.counters;
        c.milp_calls += 1;
        let Ok(sol) = sol else {
            return Ok(()); // interrupted before an incumbent: nothing to compare
        };
        let st = &sol.stats;
        c.milp_proven += u64::from(st.proven_optimal);
        c.nodes += st.nodes as u64;
        c.lp_solves += st.lp_solves as u64;
        c.pivots += st.pivots as u64;
        c.dse_pivots += st.dse_pivots as u64;
        c.strong_branch_probes += st.strong_branch_probes as u64;
        c.warm_hits += st.warm_hits as u64;
        c.warm_solves += st.warm_solves as u64;
        c.propagation_fathoms += st.propagation_fathoms as u64;
        c.cuts_added += st.cuts_added as u64;
        c.cut_rounds += st.cut_rounds as u64;
        // Share of the root gap (to the proven optimum) the cut loop closed.
        let open = st.root_bound_pre_cuts - sol.objective;
        if st.proven_optimal && open > 1e-6 {
            let closed = (st.root_bound_pre_cuts - st.root_bound_post_cuts) / open;
            c.root_gap_closed_sum += closed.clamp(0.0, 1.0);
            c.root_gap_closed_n += 1;
        }
        let rs = sol.objective.round() as usize;
        if let Some(w) = want.ilp.as_ref() {
            if st.proven_optimal && w.proven_optimal && rs != w.saturation {
                return Err(differ("intLP RS", rs, w.saturation));
            }
        }
        Ok(())
    }

    /// Mirrors the dispatcher's per-type reduction; returns
    /// `(fits, rs_after, arcs_added)`.
    fn reduce(
        &mut self,
        tr: &mut Tracer,
        rid: u64,
        ddg: &mut Ddg,
        t: RegType,
        budget: usize,
        spill: bool,
    ) -> (bool, usize, usize) {
        let engine = &mut self.engine;
        let out = tr.span("core.reduce", rid, || engine.reduce(ddg, t, budget));
        let verdict = match out {
            ReduceOutcome::AlreadyFits { rs } => (true, rs, 0),
            ReduceOutcome::Reduced {
                rs_after,
                added_arcs,
                ..
            } => (true, rs_after, added_arcs.len()),
            ReduceOutcome::Failed {
                best_rs,
                added_arcs,
                ..
            } => {
                let spilled = if spill {
                    tr.span("core.reduce", rid, || {
                        SpillPass::new().spill_to_fit(ddg, t, budget)
                    })
                } else {
                    None
                };
                match spilled {
                    Some(res) => {
                        *ddg = res.ddg;
                        (true, res.rs_after, res.reduction_arcs)
                    }
                    None => (false, best_rs, added_arcs.len()),
                }
            }
        };
        let c = &mut self.counters;
        c.reduce_calls += 1;
        c.reduce_fits += u64::from(verdict.0);
        c.reduce_arcs += verdict.2 as u64;
        verdict
    }

    fn pipeline(
        &mut self,
        tr: &mut Tracer,
        rid: u64,
        req: &RsRequest,
        resp: &RsResponse,
        ddg: &mut Ddg,
        types: &[RegType],
    ) -> Result<(), String> {
        let budget = req.registers.unwrap_or(1);
        let mut all_fit = true;
        for &t in types {
            all_fit &= self.reduce(tr, rid, ddg, t, budget, false).0;
        }
        let want = resp.result.as_ref().ok_or("no pipeline result")?;
        if !all_fit {
            return match want.makespan {
                None => Ok(()),
                Some(m) => Err(differ("makespan", None::<i64>, Some(m))),
            };
        }
        let resources = match req.issue {
            Some(1) => Resources::single_issue(),
            Some(8) => Resources::wide_issue(),
            _ => Resources::four_issue(),
        };
        let sched = tr.span("sched.list", rid, || {
            ListScheduler::new(resources).schedule(ddg)
        });
        if want.makespan != Some(sched.makespan) {
            return Err(differ("makespan", Some(sched.makespan), want.makespan));
        }
        for &t in types {
            let alloc = tr.span("sched.allocator", rid, || {
                RegisterAllocator::new().allocate(ddg, t, &sched.sigma, budget)
            });
            self.counters.alloc_calls += 1;
            self.counters.alloc_spills += alloc.spilled.len() as u64;
            let w = type_of(resp, t)?.alloc.ok_or("no allocation")?;
            if (alloc.registers_used, alloc.spilled.len()) != (w.registers_used, w.spills) {
                return Err(differ(
                    "allocation (registers, spills)",
                    (alloc.registers_used, alloc.spilled.len()),
                    (w.registers_used, w.spills),
                ));
            }
        }
        Ok(())
    }
}
