//! `batch_heuristic`: one client, one warm cache-less dispatcher, closed
//! loop over whole passes of the pinned pool. Each DAG is sent as a
//! Greedy-k `analyze`, then a `reduce` with spill fallback and a
//! `pipeline`, both at the analyzed float RS minus the DAG's cut. rs-lp
//! does no work here.

use crate::gen::{batch_pool, pass_order, BatchItem};
use crate::oracle::Oracle;
use crate::replay::{paired_dispatch, Replayer};
use crate::report::Report;
use crate::stats::{median, slot_medians, tail_percentile};
use crate::trace::Tracer;
use crate::{time_setup, Args};
use rs_core::request::{RsOp, RsRequest, RsResponse};
use rs_serve::Dispatcher;
use std::time::Instant;

fn float_rs(resp: &RsResponse) -> Option<usize> {
    resp.result
        .as_ref()?
        .types
        .iter()
        .find(|t| t.reg_type == "float")
        .map(|t| t.saturation)
}

/// The follow-up requests for `item` once its float RS is known.
fn follow_ups(item: &BatchItem, rs: usize) -> [RsRequest; 2] {
    let budget = rs.saturating_sub(item.cut).max(1);
    let mut reduce = RsRequest::new(RsOp::Reduce, item.dag.text.clone());
    reduce.reg_type = Some("float".into());
    reduce.registers = Some(budget);
    reduce.spill = true;
    reduce.emit_ddg = true;
    let mut pipeline = RsRequest::new(RsOp::Pipeline, item.dag.text.clone());
    pipeline.reg_type = Some("float".into());
    pipeline.registers = Some(budget);
    pipeline.issue = Some(item.issue);
    [reduce, pipeline]
}

/// One timed request of the loop.
struct Sent {
    req: RsRequest,
    resp: RsResponse,
    ms: f64,
}

/// Sends the requests of one DAG, timing each call only.
fn send_dag(d: &mut Dispatcher, item: &BatchItem) -> Vec<Sent> {
    let analyze = RsRequest::new(RsOp::Analyze, item.dag.text.clone());
    let t = Instant::now();
    let resp = d.dispatch(&analyze);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let rs = float_rs(&resp);
    let mut out = vec![Sent {
        req: analyze,
        resp,
        ms,
    }];
    if let Some(rs) = rs {
        for req in follow_ups(item, rs) {
            let t = Instant::now();
            let resp = d.dispatch(&req);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.push(Sent { req, resp, ms });
        }
    }
    out
}

/// Loop results.
struct Loop {
    dags: usize,
    passes: u64,
    latencies: Vec<f64>,
    /// Latencies per request of the pool (DAG index × 3 + position).
    by_slot: Vec<Vec<f64>>,
    ok: u64,
    busy_s: f64,
}

/// Runs whole passes over the pool, each in its own seeded order, until
/// `seconds` of request time have elapsed (at least `min_passes`),
/// checking every answer between requests (untimed). Whole passes keep
/// the instance mix of a run the same whatever the seed or the speed.
fn closed_loop(
    d: &mut Dispatcher,
    pool: &[BatchItem],
    seed: u64,
    seconds: f64,
    oracle: &mut Oracle,
) -> Loop {
    let mut l = Loop {
        dags: 0,
        passes: 0,
        latencies: Vec::new(),
        by_slot: vec![Vec::new(); pool.len() * 3],
        ok: 0,
        busy_s: 0.0,
    };
    loop {
        for i in pass_order(seed, l.passes, pool.len()) {
            let item = &pool[i];
            for (k, s) in send_dag(d, item).into_iter().enumerate() {
                l.busy_s += s.ms / 1e3;
                l.latencies.push(s.ms);
                l.by_slot[i * 3 + k].push(s.ms);
                l.ok += u64::from(s.resp.ok);
                oracle.check(&item.dag.name, &s.req, &s.resp);
            }
            l.dags += 1;
        }
        l.passes += 1;
        if l.busy_s >= seconds {
            return l;
        }
    }
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, oracle: &mut Oracle, report: &mut Report) {
    let (setup_s, (pool, mut d)) = time_setup(
        || {
            let pool = batch_pool();
            let mut d = Dispatcher::new();
            // Warm the engine's scratch on the first block's analyses.
            for item in pool.iter().take(12) {
                d.dispatch(&RsRequest::new(RsOp::Analyze, item.dag.text.clone()));
            }
            (pool, d)
        },
        drop,
    );

    if !args.trace {
        let l = closed_loop(&mut d, &pool, args.seed, args.seconds, oracle);
        let n = l.latencies.len();
        let lat = slot_medians(&l.by_slot);
        let slots = lat.len();
        let (p, p99) = tail_percentile(&lat);
        report.set_noted("setup_s", setup_s, "median of 5 set-ups".into());
        report.set_noted(
            "dags_per_s",
            l.dags as f64 / l.busy_s,
            format!(
                "{} DAGs in {} passes over {} pinned, 3 requests each",
                l.dags,
                l.passes,
                pool.len()
            ),
        );
        let per = format!(
            "{slots} requests, each the median of its {} sends",
            l.passes
        );
        report.set_noted("latency_p50_ms", median(&lat), per.clone());
        report.set_noted("latency_p99_ms", p99, format!("p{p:.2} of {per}"));
        report.set_noted(
            "decided_share",
            l.ok as f64 / n as f64,
            format!("{} of {n} ok", l.ok),
        );
        report.set_noted(
            "serve_max_rate_rps",
            n as f64 / l.busy_s,
            "closed loop: requests per busy second of one worker".into(),
        );
        return;
    }

    // Traced run: one pass in which every request is dispatched bare and
    // traced, then replayed stage by stage.
    let mut tr = Tracer::new();
    let mut rp = Replayer::default();
    let (mut rid, mut path_ms, mut untraced_ms) = (0u64, 0.0, 0.0);
    for i in pass_order(args.seed, 0, pool.len()) {
        let item = &pool[i];
        let mut reqs = vec![RsRequest::new(RsOp::Analyze, item.dag.text.clone())];
        let mut k = 0;
        while k < reqs.len() {
            let p = paired_dispatch(&mut d, &mut tr, rid, &reqs[k]);
            path_ms += p.traced_ms;
            untraced_ms += p.bare_ms;
            if k == 0 {
                if let Some(rs) = float_rs(&p.traced) {
                    reqs.extend(follow_ups(item, rs));
                }
            }
            oracle.check(&item.dag.name, &reqs[k], &p.traced);
            oracle.record("traced vs bare", p.agree());
            let verdict = rp.replay(&mut tr, rid, &reqs[k], &p.traced);
            oracle.record("stage replay", verdict);
            rid += 1;
            k += 1;
        }
    }
    report.set_layers(&tr.layer_totals(), rid, &rp.counters);
    report.set_noted(
        "trace.overhead_ratio",
        path_ms / untraced_ms - 1.0,
        format!("{rid} requests, each dispatched traced and bare"),
    );
    crate::write_spans(args, &tr);
}
