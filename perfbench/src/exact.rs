//! `exact_intlp`: one client, closed loop, every request an `analyze`
//! with `exact`, `ilp` and `stats` on the float type under a per-request
//! deadline. Nearly all the time goes to model emission, simplex,
//! branch-and-bound and cuts. Capped requests stay in the run: they count
//! against `decided_share` and report their time past the deadline.

use crate::gen::{exact_pool, exact_request, pass_order, EXACT_TIMEOUT_MS};
use crate::oracle::Oracle;
use crate::replay::{paired_dispatch, Replayer};
use crate::report::Report;
use crate::stats::{median, slot_medians, tail_percentile};
use crate::trace::Tracer;
use crate::{time_setup, Args};
use rs_core::request::{codes, RsRequest};
use rs_serve::Dispatcher;
use std::time::Instant;

/// Complete passes' results.
struct Passes {
    latencies: Vec<f64>,
    /// Latencies per pool instance.
    by_slot: Vec<Vec<f64>>,
    ok: u64,
    capped: u64,
    overshoot_ms: Vec<f64>,
    busy_s: f64,
    passes: u64,
}

/// Runs complete passes over the pool, each in its own seeded order,
/// until `seconds` of request time have elapsed. Whole passes keep the
/// instance mix of a run identical whatever the seed or the speed.
fn passes(
    d: &mut Dispatcher,
    reqs: &[RsRequest],
    seed: u64,
    seconds: f64,
    oracle: &mut Oracle,
) -> Passes {
    let mut p = Passes {
        latencies: Vec::new(),
        by_slot: vec![Vec::new(); reqs.len()],
        ok: 0,
        capped: 0,
        overshoot_ms: Vec::new(),
        busy_s: 0.0,
        passes: 0,
    };
    loop {
        for i in pass_order(seed, p.passes, reqs.len()) {
            let t = Instant::now();
            let resp = d.dispatch(&reqs[i]);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            p.busy_s += ms / 1e3;
            p.latencies.push(ms);
            p.by_slot[i].push(ms);
            p.ok += u64::from(resp.ok);
            if resp
                .error
                .as_ref()
                .is_some_and(|e| e.code == codes::TIMEOUT)
            {
                p.capped += 1;
                p.overshoot_ms.push((ms - EXACT_TIMEOUT_MS as f64).max(0.0));
                if p.passes == 0 {
                    println!(
                        "capped: {} answered after {ms:.1} ms (deadline {EXACT_TIMEOUT_MS} ms)",
                        reqs[i].id.as_deref().unwrap_or("?")
                    );
                }
            }
            oracle.check(reqs[i].id.as_deref().unwrap_or("exact"), &reqs[i], &resp);
        }
        p.passes += 1;
        if p.busy_s >= seconds {
            return p;
        }
    }
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, oracle: &mut Oracle, report: &mut Report) {
    let (setup_s, (reqs, mut d)) = time_setup(
        || {
            let pool = exact_pool();
            let reqs: Vec<RsRequest> = pool.iter().map(exact_request).collect();
            let mut d = Dispatcher::new();
            // Warm the engine and solver buffers on the smallest instances.
            for req in reqs.iter().step_by(7).take(4) {
                d.dispatch(req);
            }
            (reqs, d)
        },
        drop,
    );

    if !args.trace {
        let p = passes(&mut d, &reqs, args.seed, args.seconds, oracle);
        let n = p.latencies.len();
        let lat = slot_medians(&p.by_slot);
        let per = format!(
            "{} instances, each the median of its {} sends",
            lat.len(),
            p.passes
        );
        let (pct, p99) = tail_percentile(&lat);
        report.set_noted("setup_s", setup_s, "median of 5 set-ups".into());
        report.set_noted(
            "dags_per_s",
            n as f64 / p.busy_s,
            format!("{} passes over {} pinned instances", p.passes, reqs.len()),
        );
        report.set_noted("latency_p50_ms", median(&lat), per.clone());
        report.set_noted("latency_p99_ms", p99, format!("p{pct:.2} of {per}"));
        report.set_noted(
            "decided_share",
            p.ok as f64 / n as f64,
            format!(
                "{} of {n} ok; {} capped at {EXACT_TIMEOUT_MS} ms, worst {:.1} ms past it",
                p.ok,
                p.capped,
                p.overshoot_ms.iter().copied().fold(0.0, f64::max)
            ),
        );
        report.set_noted(
            "serve_max_rate_rps",
            n as f64 / p.busy_s,
            "closed loop: requests per busy second of one worker".into(),
        );
        return;
    }

    // Traced run: one pass in which every request is dispatched bare and
    // traced, then replayed stage by stage. The bare dispatches give the
    // deadline overshoot.
    let mut tr = Tracer::new();
    let mut rp = Replayer::default();
    let (mut path_ms, mut untraced_ms) = (0.0, 0.0);
    let mut overshoot_ms = Vec::new();
    for (rid, i) in pass_order(args.seed, 0, reqs.len()).into_iter().enumerate() {
        let rid = rid as u64;
        let p = paired_dispatch(&mut d, &mut tr, rid, &reqs[i]);
        path_ms += p.traced_ms;
        untraced_ms += p.bare_ms;
        if p.bare
            .error
            .as_ref()
            .is_some_and(|e| e.code == codes::TIMEOUT)
        {
            overshoot_ms.push((p.bare_ms - EXACT_TIMEOUT_MS as f64).max(0.0));
        }
        let what = reqs[i].id.as_deref().unwrap_or("exact");
        oracle.check(what, &reqs[i], &p.traced);
        oracle.check(what, &reqs[i], &p.bare);
        oracle.record("traced vs bare", p.agree());
        let verdict = rp.replay(&mut tr, rid, &reqs[i], &p.traced);
        oracle.record("stage replay", verdict);
    }
    report.set_layers(&tr.layer_totals(), reqs.len() as u64, &rp.counters);
    report.set_noted(
        "lp.milp.deadline_overshoot_ms",
        overshoot_ms.iter().copied().fold(0.0, f64::max),
        format!(
            "worst of {} capped requests; all: {:?}",
            overshoot_ms.len(),
            overshoot_ms
                .iter()
                .map(|x| (x * 10.0).round() / 10.0)
                .collect::<Vec<_>>()
        ),
    );
    report.set_noted(
        "trace.overhead_ratio",
        path_ms / untraced_ms - 1.0,
        format!("{} requests, each dispatched traced and bare", reqs.len()),
    );
    crate::write_spans(args, &tr);
}
