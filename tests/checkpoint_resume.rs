//! End-to-end checkpoint/resume: interrupted searches continue exactly.
//!
//! The unit suites in `rs-lp` prove interrupt-resume equivalence on
//! synthetic MILPs; this suite checks the same guarantee on the paper's
//! actual Section-3 saturation intLPs through the `rs-core` solver API
//! ([`RsIlp::saturation_resumable`]), plus the wire journey a resume token
//! takes in practice: embedded as an escaped string field inside response
//! JSON, parsed back out, and fed to a fresh solver.

use rs_core::ilp::RsIlp;
use rs_core::model::{RegType, Target};
use rs_core::SearchCheckpoint;
use rs_kernels::random::{random_ddg, RandomDagConfig};
use serde::Deserialize;

/// A seeded random kernel with a non-trivial float saturation model (the
/// same instance family the bench-grid test in `parallel_milp.rs` pins).
fn kernel() -> rs_core::model::Ddg {
    let cfg = RandomDagConfig::sized(12, 0xBEEF + 12 + 7919);
    let ddg = random_ddg(&cfg, Target::superscalar());
    assert!(ddg.values(RegType::FLOAT).len() >= 2, "fixture regressed");
    ddg
}

#[test]
fn interrupted_resume_chain_matches_uninterrupted_on_rs_models() {
    let ddg = kernel();
    let full = RsIlp::new()
        .saturation(&ddg, RegType::FLOAT)
        .expect("model solves");
    assert!(full.proven_optimal);

    // Re-run the same search in slices: interrupt every few nodes, carry
    // the checkpoint to the next attempt. Node budgets are cumulative
    // across a resume chain, so each slice raises the limit. Every step is
    // well short of the 17-node tree: a slice whose last round empties the
    // frontier is a finished search, not an interruption.
    for step in [1usize, 5, 8] {
        let mut solver = RsIlp::new();
        solver.milp.node_limit = 0;
        let mut resume: Option<SearchCheckpoint> = None;
        let mut slices = 0;
        let run = loop {
            solver.milp.node_limit += step;
            let run = solver.saturation_resumable(&ddg, RegType::FLOAT, resume.as_ref());
            match run.checkpoint {
                Some(ck) => {
                    assert_eq!(ck.resumed_chain() as usize, slices);
                    resume = Some(ck);
                    slices += 1;
                    assert!(slices < 10_000, "chain failed to converge");
                }
                None => break run,
            }
        };
        let sliced = run.result.expect("resumed chain completes");
        assert!(sliced.proven_optimal, "step {step}");
        assert_eq!(sliced.saturation, full.saturation, "step {step}");
        assert_eq!(
            sliced.saturating_values, full.saturating_values,
            "step {step}: different witness"
        );
        // Same tree: cumulative node count and the running trace digest
        // survive every interruption byte-for-byte.
        assert_eq!(
            sliced.milp_stats.nodes, full.milp_stats.nodes,
            "step {step}: node count diverged"
        );
        assert_eq!(
            sliced.milp_stats.trace_digest, full.milp_stats.trace_digest,
            "step {step}: trace digest diverged"
        );
        assert!(
            sliced.milp_stats.resumed,
            "step {step}: chain never resumed"
        );
        assert!(slices >= 1, "step {step}: budget never interrupted");
    }
}

#[test]
fn resume_token_is_rejected_across_accelerator_config_changes() {
    // A checkpoint's frontier is only meaningful for the exact tree its
    // config grows: the fingerprint covers the semantic knobs that shape
    // it — integral bound rounding and the integrality tolerance — so a
    // token minted under the default engine must cold-start, never splice,
    // when either is changed.
    let ddg = kernel();
    let mut solver = RsIlp::new();
    solver.milp.node_limit = 2;
    let ck = solver
        .saturation_resumable(&ddg, RegType::FLOAT, None)
        .checkpoint
        .expect("tiny budget interrupts");

    let full = RsIlp::new()
        .saturation(&ddg, RegType::FLOAT)
        .expect("model solves");
    let mut fractional = RsIlp::new();
    fractional.milp.integral_objective = false;
    let mut tighter = RsIlp::new();
    tighter.milp.int_tol = 1e-7;
    for (name, fresh) in [
        ("fractional dual bounds", fractional),
        ("tighter integrality tolerance", tighter),
    ] {
        let run = fresh.saturation_resumable(&ddg, RegType::FLOAT, Some(&ck));
        let sol = run.result.expect("cold restart completes");
        assert!(
            !sol.milp_stats.resumed,
            "{name}: drifted config must not resume a foreign token"
        );
        assert!(sol.proven_optimal, "{name}");
        // Different tree shape, same answer.
        assert_eq!(sol.saturation, full.saturation, "{name}");
    }

    // Control: the unchanged config resumes the token it minted.
    let mut same = RsIlp::new();
    same.milp.node_limit = 100_000;
    let sol = same
        .saturation_resumable(&ddg, RegType::FLOAT, Some(&ck))
        .result
        .expect("resume completes");
    assert!(sol.milp_stats.resumed, "control: same config must resume");
    assert_eq!(sol.saturation, full.saturation);
}

#[test]
fn previous_version_resume_token_cold_starts() {
    // A token minted by the previous checkpoint wire version (same
    // payload, older version field — as a client might persist across an
    // upgrade) must be ignored, not misread: the solve starts cold and
    // returns the same answer as a fresh one.
    let ddg = kernel();
    let mut solver = RsIlp::new();
    solver.milp.node_limit = 2;
    let ck = solver
        .saturation_resumable(&ddg, RegType::FLOAT, None)
        .checkpoint
        .expect("tiny budget interrupts");
    let tag = format!("\"version\":{}", rs_lp::milp::CHECKPOINT_VERSION);
    let json = ck.to_json();
    assert!(json.contains(&tag), "token names its wire version");
    let old = SearchCheckpoint::from_json(&json.replace(&tag, "\"version\":2"))
        .expect("a previous-version token still parses");

    let full = RsIlp::new()
        .saturation(&ddg, RegType::FLOAT)
        .expect("model solves");
    let sol = RsIlp::new()
        .saturation_resumable(&ddg, RegType::FLOAT, Some(&old))
        .result
        .expect("cold restart completes");
    assert!(!sol.milp_stats.resumed, "old-version token must cold-start");
    assert!(sol.proven_optimal);
    assert_eq!(sol.saturation, full.saturation);
    assert_eq!(sol.saturating_values, full.saturating_values);
    assert_eq!(sol.milp_stats.trace_digest, full.milp_stats.trace_digest);
}

#[test]
fn resume_token_survives_embedding_in_response_json() {
    let ddg = kernel();
    // Interrupt almost immediately: the checkpoint carries a non-empty
    // frontier (and, depending on timing, incumbent floats as bit
    // patterns — content that must survive JSON string escaping).
    let mut solver = RsIlp::new();
    solver.milp.node_limit = 2;
    let run = solver.saturation_resumable(&ddg, RegType::FLOAT, None);
    let ck = run.checkpoint.expect("tiny budget interrupts");
    let token = ck.to_json();

    // The journey a token takes in practice: stored as an opaque string
    // field of a result, serialized to a response line, parsed back by a
    // client, and handed to a fresh solver process.
    let carried = rs_core::request::SolveResult {
        saturation: 0,
        proven_optimal: false,
        bound: None,
        resume: Some(token),
        resumed: false,
    };
    let line = serde_json::to_string(&carried).expect("results serialize");
    assert!(line.contains("\\\""), "token JSON arrives escaped");
    let value = serde_json::from_str(&line).expect("line parses");
    let back = rs_core::request::SolveResult::from_value(&value).expect("result parses");
    let restored =
        SearchCheckpoint::from_json(&back.resume.expect("token survives")).expect("token parses");

    let mut fresh = RsIlp::new();
    fresh.milp.node_limit = 100_000;
    let resumed = fresh
        .saturation_resumable(&ddg, RegType::FLOAT, Some(&restored))
        .result
        .expect("resumed solve completes");
    let full = RsIlp::new()
        .saturation(&ddg, RegType::FLOAT)
        .expect("model solves");
    assert!(resumed.proven_optimal);
    assert_eq!(resumed.saturation, full.saturation);
    assert_eq!(resumed.milp_stats.nodes, full.milp_stats.nodes);
    assert_eq!(
        resumed.milp_stats.trace_digest,
        full.milp_stats.trace_digest
    );
    assert!(resumed.milp_stats.resumed);
}
