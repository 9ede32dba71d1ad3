//! `serve_open_loop`: JSON request lines sent to an in-process
//! `ServePool` on a fixed schedule, whatever the pool's progress. One
//! generator thread (this one) plus the pool's workers use at most the
//! machine's cores. Latency is timed from each request's due time; the
//! generator's lateness is reported separately.
//!
//! The run has two parts: a fixed offered rate for the latency metrics,
//! repeated [`FIXED_REPS`] times over the same lines and schedule, and a
//! rate ladder that finds the highest offered rate meeting
//! [`P99_LIMIT_MS`] without a growing backlog.

use crate::gen::{
    serve_content, serve_pool, serve_stream, to_line, Rng, ServeItem, ServeKind,
    SERVE_FIXED_POOL_LEN, SERVE_FIXED_POOL_SEED, SERVE_LADDER_POOL_LEN, SERVE_LADDER_POOL_SEED,
};
use crate::oracle::{result_bytes, Oracle};
use crate::replay::Replayer;
use crate::report::Report;
use crate::stats::{backlog_growing, median, tail_percentile};
use crate::trace::Tracer;
use crate::{time_setup, Args};
use rs_core::request::{codes, RsRequest, RsResponse};
use rs_serve::{Dispatcher, Job, MemoCache, ResponseSink, ServeConfig, ServePool, ServeStats};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Offered rate of the latency phase, requests per second.
pub const FIXED_RATE: f64 = 50.0;

/// p99 latency limit of the rate ladder, milliseconds.
pub const P99_LIMIT_MS: f64 = 100.0;

/// Share of the run's seconds spent at the fixed rate; the rest is the
/// ladder.
const FIXED_SHARE: f64 = 0.6;

/// Repetitions of the fixed-rate phase, each on a fresh warmed pool. They
/// send the same lines on the same schedule, so queueing repeats; a
/// request's latency is the smallest of its repetitions, which drops the
/// interference a shared host adds to single requests (CPU steal, a
/// halted vCPU woken by the request) and keeps what the program does.
const FIXED_REPS: usize = 3;

/// Ladder rungs: geometric growth until a rung fails, then bisection.
const LADDER_RUNGS: usize = 5;

/// Offered rate of the first ladder rung, requests per second.
const LADDER_START: f64 = 200.0;

/// Growth factor between ladder rungs before the first failure.
const LADDER_STEP: f64 = 1.4;

/// Upper end of the ladder, requests per second.
const LADDER_MAX_RATE: f64 = 2000.0;

/// Warm-up requests sent to every new pool before its phase starts.
const WARM_LINES: usize = 12;

/// Serve workers: every core but the generator's.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .saturating_sub(1)
        .max(1)
}

/// Responses received so far and each response with its arrival instant.
type Received = (usize, Vec<Option<(Instant, RsResponse)>>);

/// Records each response with the instant it was emitted.
struct Collector {
    done: Mutex<Received>,
    all_done: Condvar,
}

impl Collector {
    fn new(n: usize) -> Self {
        Collector {
            done: Mutex::new((0, vec![None; n])),
            all_done: Condvar::new(),
        }
    }

    /// Blocks until `n` responses arrived, then takes them in order.
    fn wait_all(&self) -> Vec<(Instant, RsResponse)> {
        let mut g = self.done.lock().expect("collector lock");
        while g.0 < g.1.len() {
            g = self.all_done.wait(g).expect("collector lock");
        }
        std::mem::take(&mut g.1)
            .into_iter()
            .map(|x| x.expect("every request answered"))
            .collect()
    }
}

impl ResponseSink for Collector {
    fn emit(&self, seq: u64, response: &RsResponse, _json: &str) {
        let now = Instant::now();
        let mut g = self.done.lock().expect("collector lock");
        if let Some(slot) = g.1.get_mut(seq as usize) {
            if slot.is_none() {
                *slot = Some((now, response.clone()));
                g.0 += 1;
            }
        }
        if g.0 == g.1.len() {
            self.all_done.notify_all();
        }
    }
}

/// A pool with a fresh cache, warmed on contents outside the stream.
fn warm_pool(seed: u64) -> ServePool {
    let pool = ServePool::new(&ServeConfig {
        workers: workers(),
        queue: 1 << 16,
        ..ServeConfig::default()
    });
    let mut rng = Rng::substream(seed, 0x5741_524D);
    let sink = Arc::new(Collector::new(WARM_LINES));
    for i in 0..WARM_LINES {
        let (_, req) = serve_content(&mut rng, i);
        let sink: Arc<dyn ResponseSink> = sink.clone();
        pool.submit(Job::new(i as u64, to_line(&req), sink));
    }
    sink.wait_all();
    pool
}

/// One open-loop phase at one offered rate.
struct Phase {
    rate: f64,
    /// Due time → response, in due order.
    latency_ms: Vec<f64>,
    /// Submit time − due time.
    late_ms: Vec<f64>,
    /// Submit → response minus the dispatcher's own time.
    queue_wait_ms: Vec<f64>,
    responses: Vec<RsResponse>,
    /// First due time → last response (the clock stops at the last
    /// response, not at pool shutdown).
    wall_s: f64,
    shutdown_ms: f64,
    stats: ServeStats,
}

impl Phase {
    fn ok(&self) -> usize {
        self.responses.iter().filter(|r| r.ok).count()
    }

    /// Whether the rung meets the latency limit with no growing backlog;
    /// a failed or refused request misses the limit.
    fn passes(&self) -> bool {
        let lat: Vec<f64> = self
            .latency_ms
            .iter()
            .zip(&self.responses)
            .map(|(&l, r)| if r.ok { l } else { f64::INFINITY })
            .collect();
        tail_percentile(&lat).1 <= P99_LIMIT_MS && !backlog_growing(&lat, P99_LIMIT_MS)
    }
}

/// Sends the first `rate × seconds` stream lines to `pool` on schedule,
/// waits for every response, then shuts the pool down.
fn open_loop(pool: ServePool, items: &[ServeItem], rate: f64, seconds: f64) -> Phase {
    let n = ((rate * seconds).round() as usize).clamp(1, items.len());
    let sink = Arc::new(Collector::new(n));
    let start = Instant::now() + Duration::from_millis(2);
    let mut due = Vec::with_capacity(n);
    let mut submitted = Vec::with_capacity(n);
    for (i, it) in items.iter().take(n).enumerate() {
        let at = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        let now = Instant::now();
        let sink: Arc<dyn ResponseSink> = sink.clone();
        pool.submit(Job {
            seq: i as u64,
            line: it.line.clone(),
            sink,
            enqueued: now,
        });
        due.push(at);
        submitted.push(now);
    }
    let done = sink.wait_all();
    let last = done.iter().map(|(t, _)| *t).max().unwrap_or(start);
    let t = Instant::now();
    let stats = pool.shutdown();
    let shutdown_ms = t.elapsed().as_secs_f64() * 1e3;
    let ms = |a: Instant, b: Instant| a.saturating_duration_since(b).as_secs_f64() * 1e3;
    let mut p = Phase {
        rate,
        latency_ms: Vec::with_capacity(n),
        late_ms: Vec::with_capacity(n),
        queue_wait_ms: Vec::with_capacity(n),
        responses: Vec::with_capacity(n),
        wall_s: last.saturating_duration_since(start).as_secs_f64(),
        shutdown_ms,
        stats,
    };
    for (i, (at, resp)) in done.into_iter().enumerate() {
        p.latency_ms.push(ms(at, due[i]));
        p.late_ms.push(ms(submitted[i], due[i]));
        p.queue_wait_ms
            .push((ms(at, submitted[i]) - resp.millis).max(0.0));
        p.responses.push(resp);
    }
    p
}

/// Runs the rate ladder and returns the highest offered rate that meets
/// [`P99_LIMIT_MS`], with the number of rungs run. Rungs start at
/// [`LADDER_START`], grow by [`LADDER_STEP`] until one fails, then bisect.
/// The answer is interpolated between the highest passing rung and the
/// lowest failing rung above it, on log p99 against rate, so it is not
/// quantized to the rungs that happened to run.
fn ladder(
    seed: u64,
    items: &[ServeItem],
    rung_s: f64,
    checker: &mut Checker,
    oracle: &mut Oracle,
) -> (f64, usize) {
    // (offered rate, p99 of the answered requests, verdict)
    let mut rungs: Vec<(f64, f64, bool)> = Vec::new();
    let mut rate = LADDER_START;
    for _ in 0..LADDER_RUNGS {
        let phase = open_loop(warm_pool(seed), items, rate, rung_s);
        let ok = phase.passes();
        let p99 = tail_percentile(&phase.latency_ms).1;
        println!(
            "rung {rate:>8.1} req/s: {} (p99 {p99:.2} ms, {} of {} ok)",
            if ok { "pass" } else { "fail" },
            phase.ok(),
            phase.responses.len()
        );
        checker.check(items, &phase, oracle);
        rungs.push((rate, p99, ok));
        let pass = rungs.iter().filter(|r| r.2).map(|r| r.0).reduce(f64::max);
        let fail = rungs.iter().filter(|r| !r.2).map(|r| r.0).reduce(f64::min);
        rate = match (pass, fail) {
            (Some(p), Some(f)) => (p * f).sqrt(),
            (Some(p), None) => (p * LADDER_STEP).min(LADDER_MAX_RATE),
            (None, Some(f)) => f / LADDER_STEP,
            (None, None) => unreachable!("every rung passes or fails"),
        };
    }
    (interpolate_max_rate(&rungs), rungs.len())
}

/// The highest passing rate, moved towards the lowest failing rate above
/// it by where [`P99_LIMIT_MS`] falls between their p99s on a log scale.
/// A failing rung whose p99 is within the limit (it failed on backlog or
/// on refused requests) gives no room to interpolate.
fn interpolate_max_rate(rungs: &[(f64, f64, bool)]) -> f64 {
    let Some(&(rp, lp, _)) = rungs
        .iter()
        .filter(|r| r.2)
        .max_by(|a, b| a.0.total_cmp(&b.0))
    else {
        return 0.0;
    };
    let above = rungs
        .iter()
        .filter(|r| !r.2 && r.0 > rp)
        .min_by(|a, b| a.0.total_cmp(&b.0));
    match above {
        Some(&(rf, lf, _)) if lf > P99_LIMIT_MS && lp > 0.0 && lp < P99_LIMIT_MS => {
            let t = ((P99_LIMIT_MS / lp).ln() / (lf / lp).ln()).clamp(0.0, 1.0);
            rp + t * (rf - rp)
        }
        _ => rp,
    }
}

/// Checks served responses: each against a direct dispatch of the same
/// request (whose own answer the oracle checks), and every cache hit
/// against the cold answer of its phase. The direct answers are kept
/// across phases, keyed by the stream position of the first occurrence.
#[derive(Default)]
struct Checker {
    direct: Dispatcher,
    reference: BTreeMap<usize, (bool, String)>,
}

impl Checker {
    fn check(&mut self, items: &[ServeItem], phase: &Phase, oracle: &mut Oracle) {
        let mut cold: BTreeMap<usize, String> = BTreeMap::new();
        for (i, resp) in phase.responses.iter().enumerate() {
            let item = &items[i];
            let first = item.repeat_of.unwrap_or(i);
            let what = format!("serve {:?} r{i} @{:.0}/s", item.kind, phase.rate);
            if !resp.ok {
                // Shed under overload is a refusal, not an answer.
                if resp
                    .error
                    .as_ref()
                    .is_some_and(|e| e.code == codes::OVERLOADED)
                {
                    continue;
                }
                oracle.check(&what, &item.request, resp);
                continue;
            }
            let direct = &mut self.direct;
            let (ref_ok, ref_bytes) = self.reference.entry(first).or_insert_with(|| {
                let r = direct.dispatch(&items[first].request);
                oracle.check("direct dispatch", &items[first].request, &r);
                (r.ok, result_bytes(&r))
            });
            let bytes = result_bytes(resp);
            let verdict = if *ref_ok && *ref_bytes != bytes {
                Err("served result differs from a direct dispatch".to_string())
            } else {
                Ok(())
            };
            oracle.record(&what, verdict);
            if resp.cache.hit {
                let verdict = match cold.get(&first) {
                    Some(c) if *c != bytes => Err("cache hit differs from the cold answer".into()),
                    _ => Ok(()),
                };
                oracle.record(&what, verdict);
            } else {
                cold.entry(first).or_insert(bytes);
            }
        }
    }
}

/// Prints the dispatcher's own time per request kind (cold answers).
fn print_service_times(items: &[ServeItem], phase: &Phase) {
    for kind in [
        ServeKind::Analyze,
        ServeKind::Reduce,
        ServeKind::Pipeline,
        ServeKind::Exact,
    ] {
        let ms: Vec<f64> = phase
            .responses
            .iter()
            .zip(items)
            .filter(|(r, it)| it.kind == kind && !r.cache.hit)
            .map(|(r, _)| r.millis)
            .collect();
        let (p, tail) = tail_percentile(&ms);
        println!(
            "service {kind:?}: n={} p50 {:.3} ms, p{p:.1} {tail:.3} ms, max {:.3} ms",
            ms.len(),
            median(&ms),
            ms.iter().copied().fold(0.0, f64::max)
        );
    }
}

/// Runs the fixed-rate phase [`FIXED_REPS`] times over `items`, the first
/// on `pool`, each checked.
fn fixed_phases(
    pool: ServePool,
    seed: u64,
    items: &[ServeItem],
    rep_s: f64,
    oracle: &mut Oracle,
) -> Vec<Phase> {
    let mut checker = Checker::default();
    let mut pool = Some(pool);
    (0..FIXED_REPS)
        .map(|_| {
            let pool = pool.take().unwrap_or_else(|| warm_pool(seed));
            let phase = open_loop(pool, items, FIXED_RATE, rep_s);
            checker.check(items, &phase, oracle);
            phase
        })
        .collect()
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, oracle: &mut Oracle, report: &mut Report) {
    let rep_s = args.seconds * FIXED_SHARE / FIXED_REPS as f64;
    let rung_s = args.seconds * (1.0 - FIXED_SHARE) / LADDER_RUNGS as f64;
    let fixed_len = (FIXED_RATE * rep_s).round() as usize;
    let ladder_len = (LADDER_MAX_RATE * rung_s).ceil() as usize;
    let (setup_s, ((fixed_items, ladder_items), pool)) = time_setup(
        || {
            let fixed = serve_pool(SERVE_FIXED_POOL_SEED, SERVE_FIXED_POOL_LEN);
            let ladder = serve_pool(SERVE_LADDER_POOL_SEED, SERVE_LADDER_POOL_LEN);
            (
                (
                    serve_stream(args.seed, fixed_len, &fixed),
                    serve_stream(args.seed ^ 0x1ADD, ladder_len, &ladder),
                ),
                warm_pool(args.seed),
            )
        },
        |(_, pool)| {
            pool.shutdown();
        },
    );
    let reps = fixed_phases(pool, args.seed, &fixed_items, rep_s, oracle);

    if !args.trace {
        print_service_times(&fixed_items, &reps[0]);
        let mut checker = Checker::default();
        let (max_rate, rungs) = ladder(args.seed, &ladder_items, rung_s, &mut checker, oracle);
        let n = fixed_items.len().min(reps[0].latency_ms.len());
        let lat: Vec<f64> = (0..n)
            .map(|i| {
                reps.iter()
                    .map(|r| r.latency_ms[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let per = format!("{n} requests, each the least of {FIXED_REPS} repetitions");
        let (pct, p99) = tail_percentile(&lat);
        let sent: usize = reps.iter().map(|r| r.responses.len()).sum();
        let ok: usize = reps.iter().map(Phase::ok).sum();
        let wall: f64 = reps.iter().map(|r| r.wall_s).sum();
        report.set_noted("setup_s", setup_s, "median of 5 set-ups".into());
        report.set_noted(
            "dags_per_s",
            sent as f64 / wall,
            format!("{sent} requests offered at {FIXED_RATE} req/s"),
        );
        report.set_noted("latency_p50_ms", median(&lat), per.clone());
        report.set_noted("latency_p99_ms", p99, format!("p{pct:.2} of {per}"));
        report.set_noted(
            "decided_share",
            ok as f64 / sent as f64,
            format!("{ok} of {sent} ok"),
        );
        report.set_noted(
            "serve_max_rate_rps",
            max_rate,
            format!("{rungs} rungs, p99 limit {P99_LIMIT_MS} ms, interpolated"),
        );
        return;
    }

    // Traced run. Pool-level numbers come from the open loops, measured
    // from outside. The JSON and dispatch split comes from sending the
    // same lines through two directly driven dispatchers with caches of
    // their own: one bare through `process_line`, one with spans around
    // decoding + dispatch + encoding and around the dispatch alone; the
    // order alternates line by line.
    let fixed = &reps[0];
    let n = fixed.responses.len();
    let mut bare_d = Dispatcher::with_cache(Arc::new(MemoCache::with_capacity(1024)));
    let mut d = Dispatcher::with_cache(Arc::new(MemoCache::with_capacity(1024)));
    let mut tr = Tracer::new();
    let mut rp = Replayer::default();
    let (mut path_ms, mut untraced_ms) = (0.0, 0.0);
    let mut hit_ms = Vec::new();
    for (i, it) in fixed_items[..n].iter().enumerate() {
        let rid = i as u64;
        let mut bare = || {
            let t = Instant::now();
            let (resp, json) = rs_serve::process_line(&mut bare_d, &it.line);
            std::hint::black_box(json);
            (resp, t.elapsed().as_secs_f64() * 1e3)
        };
        let mut traced = |tr: &mut Tracer| {
            let outer = tr.enter("serve.request", rid);
            let value = serde_json::from_str(&it.line).expect("generated lines are JSON");
            let req = RsRequest::from_value(&value).expect("generated lines are requests");
            let inner = tr.enter("serve.dispatch", rid);
            let resp = d.dispatch(&req);
            tr.exit(inner);
            let json = serde_json::to_string(&resp).expect("responses serialize");
            std::hint::black_box(json);
            tr.exit(outer);
            (req, resp, tr.duration_ms(outer))
        };
        let ((bare_resp, bare_ms), (req, resp, ms)) = if i & 1 == 0 {
            let b = bare();
            (b, traced(&mut tr))
        } else {
            let t = traced(&mut tr);
            (bare(), t)
        };
        path_ms += ms;
        untraced_ms += bare_ms;
        if resp.cache.hit {
            hit_ms.push(ms);
        } else {
            let verdict = rp.replay(&mut tr, rid, &req, &resp);
            oracle.record("stage replay", verdict);
        }
        for other in [&fixed.responses[i], &bare_resp] {
            let verdict = if other.ok && resp.ok && result_bytes(other) != result_bytes(&resp) {
                Err("traced direct answer differs from the served or bare one".to_string())
            } else {
                Ok(())
            };
            oracle.record("serve vs direct", verdict);
        }
    }
    report.set_layers(&tr.layer_totals(), n as u64, &rp.counters);
    let hits: u64 = reps.iter().map(|r| r.stats.cache_hits).sum();
    let misses: u64 = reps.iter().map(|r| r.stats.cache_misses).sum();
    report.set_noted(
        "serve.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        format!("{hits} hits, {misses} misses in the open loops"),
    );
    report.set_noted(
        "serve.cache.hit_p50_ms",
        median(&hit_ms),
        format!("n={} hits, decode + lookup + encode", hit_ms.len()),
    );
    let all = |f: fn(&Phase) -> &Vec<f64>| -> Vec<f64> {
        reps.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let waits = all(|r| &r.queue_wait_ms);
    let late = all(|r| &r.late_ms);
    let (qp, q99) = tail_percentile(&waits);
    let m = waits.len();
    report.set("serve.pool.queue_wait_p50_ms", median(&waits));
    report.set_noted(
        "serve.pool.queue_wait_p99_ms",
        q99,
        format!("p{qp:.2}, n={m}"),
    );
    report.set(
        "serve.pool.shed",
        reps.iter().map(|r| r.stats.shed).sum::<u64>() as f64,
    );
    let shutdowns: Vec<f64> = reps.iter().map(|r| r.shutdown_ms).collect();
    report.set_noted(
        "serve.pool.shutdown_ms",
        median(&shutdowns),
        format!("median of {FIXED_REPS} pools"),
    );
    let (lp, l99) = tail_percentile(&late);
    report.set_noted("loadgen.late_p99_ms", l99, format!("p{lp:.2}, n={m}"));
    report.set_noted(
        "trace.overhead_ratio",
        path_ms / untraced_ms - 1.0,
        format!("{n} lines, each sent traced and bare"),
    );
    crate::write_spans(args, &tr);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_rate_interpolates_between_bracketing_rungs() {
        // Pass at 400 with p99 10 ms, fail at 500 with p99 1000 ms: the
        // 100 ms limit lies halfway on the log scale.
        let rungs = [
            (200.0, 5.0, true),
            (400.0, 10.0, true),
            (500.0, 1000.0, false),
        ];
        assert!((interpolate_max_rate(&rungs) - 450.0).abs() < 1e-9);
        // A failure on backlog alone (p99 within the limit) pins the
        // answer to the highest passing rung.
        let rungs = [(400.0, 10.0, true), (500.0, 60.0, false)];
        assert_eq!(interpolate_max_rate(&rungs), 400.0);
        // Failing rungs below the highest pass do not bracket it.
        let rungs = [(300.0, 500.0, false), (400.0, 10.0, true)];
        assert_eq!(interpolate_max_rate(&rungs), 400.0);
        assert_eq!(interpolate_max_rate(&[(200.0, 500.0, false)]), 0.0);
    }
}
