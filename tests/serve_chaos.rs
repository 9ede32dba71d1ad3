//! The service pool's delivery contract, under load and under injected
//! faults.
//!
//! A [`ServePool`] is driven with several passes over a small corpus of
//! random DAGs plus one malformed line mid-stream. Plain load must answer
//! every line exactly once, fail only the malformed one, and serve repeat
//! passes from the memoization cache. Under chaos — injected panics,
//! delays, and spurious errors, plus per-request deadlines tight enough to
//! time out the exact solvers and to trip the watchdog — every request must
//! still get exactly one well-typed answer, every timeout must carry its
//! partial result, the stats ledger must balance, and the pool must shut
//! down cleanly.

use rs_bench::common::random_cases;
use rs_core::model::Target;
use rs_core::parse::print_ddg;
use rs_core::request::{codes, RsOp, RsRequest, RsResponse};
use rs_serve::{FaultPlan, Job, ResponseSink, ServeConfig, ServePool, ServeStats};
use std::sync::{Arc, Mutex};

/// Collects every answer per sequence number, so exactly-once delivery can
/// be checked after shutdown.
struct AnswerSink {
    answers: Mutex<Vec<Vec<RsResponse>>>,
}

impl ResponseSink for AnswerSink {
    fn emit(&self, seq: u64, response: &RsResponse, _json: &str) {
        self.answers.lock().expect("answers")[seq as usize].push(response.clone());
    }
}

/// `passes` passes over one analyze request per random DAG (12 and 16
/// ops, two of each), shaped by `shape(index, request)`, with one
/// malformed line inserted halfway through the stream.
fn stream(passes: usize, shape: impl Fn(usize, &mut RsRequest)) -> Vec<String> {
    let lines: Vec<String> = random_cases(&[12, 16], 2, Target::superscalar())
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let mut req = RsRequest::new(RsOp::Analyze, print_ddg(&case.ddg));
            req.id = Some(format!("c{i}"));
            shape(i, &mut req);
            serde_json::to_string(&req).expect("requests serialize")
        })
        .collect();
    let mut stream: Vec<String> = Vec::with_capacity(lines.len() * passes + 1);
    for _ in 0..passes {
        stream.extend(lines.iter().cloned());
    }
    stream.insert(stream.len() / 2, "{ not json".to_string());
    stream
}

/// Submits every line to a fresh pool, shuts it down, and returns each
/// answer, checked to be the only one for its line, with the final stats.
fn run(cfg: &ServeConfig, lines: Vec<String>) -> (Vec<RsResponse>, ServeStats) {
    let total = lines.len();
    let pool = ServePool::new(cfg);
    let sink = Arc::new(AnswerSink {
        answers: Mutex::new(vec![Vec::new(); total]),
    });
    for (seq, line) in lines.into_iter().enumerate() {
        let job = Job::new(seq as u64, line, Arc::clone(&sink) as Arc<dyn ResponseSink>);
        assert!(pool.submit(job), "pool rejected submission {seq}");
    }
    let stats = pool.shutdown();
    let answers = std::mem::take(&mut *sink.answers.lock().expect("answers"));
    let answers = answers
        .into_iter()
        .enumerate()
        .map(|(seq, mut got)| {
            assert_eq!(got.len(), 1, "request {seq} must be answered exactly once");
            got.pop().expect("one answer")
        })
        .collect();
    assert_eq!(stats.requests, total as u64);
    assert_eq!(stats.ok + stats.failed, stats.requests);
    (answers, stats)
}

#[test]
fn repeat_passes_hit_the_cache_and_only_the_malformed_line_fails() {
    let cfg = ServeConfig {
        workers: 2,
        queue: 32,
        cache_capacity: 4096,
        ..ServeConfig::default()
    };
    let (answers, stats) = run(&cfg, stream(4, |_, _| {}));
    let failed: Vec<usize> = (0..answers.len()).filter(|&i| !answers[i].ok).collect();
    assert_eq!(failed.len(), 1, "only the malformed line fails: {failed:?}");
    assert_eq!(stats.failed, 1);
    let hits = answers.iter().filter(|a| a.cache.hit).count() as u64;
    assert!(
        hits > 0 && hits == stats.cache_hits,
        "repeat passes must hit the cache ({hits} answers, {} in stats)",
        stats.cache_hits
    );
}

#[test]
fn every_request_gets_one_well_typed_answer_under_faults() {
    let lines = stream(4, |i, req| {
        // Every request takes the execution path, not the cache.
        req.cache = false;
        match i % 3 {
            // A tight deadline over the exact solvers: timeout pressure on
            // the deepest cancellation points.
            0 => {
                req.exact = true;
                req.ilp = true;
                req.timeout_ms = Some(2);
            }
            // A deadline the injected 30 ms delays blow through: exercises
            // shedding and the watchdog.
            1 => req.timeout_ms = Some(25),
            _ => {}
        }
    });
    let cfg = ServeConfig {
        workers: 2,
        queue: 16,
        cache_capacity: 1024,
        // Trips the watchdog inside the injected delays.
        grace_ms: 10,
        faults: Some(Arc::new(
            FaultPlan::from_spec("panic=7,delay=5:30,error=11").expect("fault spec"),
        )),
    };
    let (answers, stats) = run(&cfg, lines);

    let known = [
        codes::REQUEST,
        codes::PARSE,
        codes::TIMEOUT,
        codes::OVERLOADED,
        codes::PANIC,
        codes::ENGINE,
        codes::INFEASIBLE,
    ];
    let mut timeouts = 0u64;
    for (seq, resp) in answers.iter().enumerate() {
        if resp.ok {
            assert!(resp.result.is_some(), "ok answer {seq} carries a result");
            continue;
        }
        let err = resp
            .error
            .as_ref()
            .unwrap_or_else(|| panic!("failed answer {seq} must carry a typed error"));
        assert!(
            known.contains(&err.code.as_str()),
            "answer {seq} has unknown error code `{}`",
            err.code
        );
        if err.code == codes::TIMEOUT {
            assert!(
                resp.result.is_some(),
                "timeout answer {seq} must attach its partial result"
            );
            timeouts += 1;
        }
    }
    // The ledger balances: nothing lost, nothing double-counted.
    assert!(stats.timeouts + stats.shed <= stats.failed);
    assert_eq!(timeouts, stats.timeouts);
    assert!(stats.failed >= 1, "at least the malformed line fails");
}
