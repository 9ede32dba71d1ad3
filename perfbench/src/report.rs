//! Metric names, units, and the result line.

use crate::replay::Counters;
use crate::trace::LayerTotal;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("dags_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("serve_max_rate_rps", "1/s"),
    ("rs_gap_total", "count"),
    ("cp_growth_total", "count"),
    ("makespan_total", "count"),
    ("spills_total", "count"),
];

/// Per-layer metrics, printed by every traced run (0 for a layer the
/// workload does not reach). `self_ms` values are milliseconds of self
/// time per traced request; `calls` are totals over the traced phase;
/// other counts are per call of their layer.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("core.parse.calls", "count"),
    ("core.parse.self_ms", "ms"),
    ("core.parse.mb_per_s", "MB/s"),
    ("graph.closure.self_ms", "ms"),
    ("graph.antichain.self_ms", "ms"),
    ("core.engine.analyze.calls", "count"),
    ("core.engine.analyze.self_ms", "ms"),
    ("core.reduce.self_ms", "ms"),
    ("core.reduce.arcs_added", "count"),
    ("core.reduce.fit_ratio", "ratio"),
    ("sched.list.self_ms", "ms"),
    ("sched.allocator.self_ms", "ms"),
    ("sched.allocator.spills", "count"),
    ("core.exact.self_ms", "ms"),
    ("core.exact.leaves", "count"),
    ("core.exact.pruned", "count"),
    ("core.exact.proven_ratio", "ratio"),
    ("core.ilp.emit.self_ms", "ms"),
    ("core.ilp.rows", "count"),
    ("core.ilp.cols", "count"),
    ("lp.presolve.self_ms", "ms"),
    ("lp.presolve.rows_removed", "count"),
    ("lp.presolve.propagation_fathoms", "count"),
    ("lp.simplex.root.self_ms", "ms"),
    ("lp.milp.self_ms", "ms"),
    ("lp.milp.nodes", "count"),
    ("lp.milp.lp_solves", "count"),
    ("lp.milp.pivots", "count"),
    ("lp.milp.dse_pivots", "count"),
    ("lp.milp.strong_branch_probes", "count"),
    ("lp.milp.warm_hit_ratio", "ratio"),
    ("lp.milp.proven_ratio", "ratio"),
    ("lp.milp.deadline_overshoot_ms", "ms"),
    ("lp.cuts.added", "count"),
    ("lp.cuts.rounds", "count"),
    ("lp.cuts.root_gap_closed", "ratio"),
    ("serve.json.self_ms", "ms"),
    ("serve.dispatch.calls", "count"),
    ("serve.dispatch.self_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.hit_p50_ms", "ms"),
    ("serve.pool.queue_wait_p50_ms", "ms"),
    ("serve.pool.queue_wait_p99_ms", "ms"),
    ("serve.pool.shed", "count"),
    ("serve.pool.shutdown_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// One run's metrics plus the oracle's tally.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, String>,
    /// Operations whose answers were checked.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
}

impl Report {
    /// Sets metric `name`, which must be one of the declared metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Sets metric `name` with a note (sample count, percentile used)
    /// for the human-readable listing.
    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.set(name, value);
        self.notes.insert(name, note);
    }

    /// Fills the per-layer self-time, call, and counter metrics.
    pub fn set_layers(
        &mut self,
        totals: &BTreeMap<&'static str, LayerTotal>,
        traced_requests: u64,
        c: &Counters,
    ) {
        let per_req = traced_requests.max(1) as f64;
        let get = |name: &str| totals.get(name).copied().unwrap_or_default();
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let self_ms = [
            ("core.parse.self_ms", "core.parse"),
            ("graph.closure.self_ms", "graph.closure"),
            ("graph.antichain.self_ms", "graph.antichain"),
            ("core.engine.analyze.self_ms", "core.engine.analyze"),
            ("core.reduce.self_ms", "core.reduce"),
            ("sched.list.self_ms", "sched.list"),
            ("sched.allocator.self_ms", "sched.allocator"),
            ("core.exact.self_ms", "core.exact"),
            ("core.ilp.emit.self_ms", "core.ilp.emit"),
            ("lp.presolve.self_ms", "lp.presolve"),
            ("lp.simplex.root.self_ms", "lp.simplex.root"),
            ("lp.milp.self_ms", "lp.milp"),
            ("serve.json.self_ms", "serve.request"),
            ("serve.dispatch.self_ms", "serve.dispatch"),
        ];
        for (metric, span) in self_ms {
            self.set(metric, get(span).self_ms / per_req);
        }
        let parse = get("core.parse");
        self.set("core.parse.calls", parse.calls as f64);
        let parse_s = parse.self_ms / 1e3;
        self.set(
            "core.parse.mb_per_s",
            if parse_s > 0.0 {
                c.parse_bytes as f64 / 1e6 / parse_s
            } else {
                0.0
            },
        );
        self.set(
            "core.engine.analyze.calls",
            get("core.engine.analyze").calls as f64,
        );
        self.set("serve.dispatch.calls", get("serve.dispatch").calls as f64);
        self.set(
            "core.reduce.arcs_added",
            ratio(c.reduce_arcs, c.reduce_calls),
        );
        self.set(
            "core.reduce.fit_ratio",
            ratio(c.reduce_fits, c.reduce_calls),
        );
        self.set(
            "sched.allocator.spills",
            ratio(c.alloc_spills, c.alloc_calls),
        );
        self.set("core.exact.leaves", ratio(c.exact_leaves, c.exact_calls));
        self.set("core.exact.pruned", ratio(c.exact_pruned, c.exact_calls));
        self.set(
            "core.exact.proven_ratio",
            ratio(c.exact_proven, c.exact_calls),
        );
        self.set("core.ilp.rows", ratio(c.ilp_rows, c.ilp_models));
        self.set("core.ilp.cols", ratio(c.ilp_cols, c.ilp_models));
        self.set(
            "lp.presolve.rows_removed",
            ratio(c.presolve_rows_removed, c.ilp_models),
        );
        self.set(
            "lp.presolve.propagation_fathoms",
            ratio(c.propagation_fathoms, c.milp_calls),
        );
        self.set("lp.milp.nodes", ratio(c.nodes, c.milp_calls));
        self.set("lp.milp.lp_solves", ratio(c.lp_solves, c.milp_calls));
        self.set("lp.milp.pivots", ratio(c.pivots, c.milp_calls));
        self.set("lp.milp.dse_pivots", ratio(c.dse_pivots, c.milp_calls));
        self.set(
            "lp.milp.strong_branch_probes",
            ratio(c.strong_branch_probes, c.milp_calls),
        );
        self.set("lp.milp.warm_hit_ratio", ratio(c.warm_hits, c.warm_solves));
        self.set("lp.milp.proven_ratio", ratio(c.milp_proven, c.milp_calls));
        self.set("lp.cuts.added", ratio(c.cuts_added, c.milp_calls));
        self.set("lp.cuts.rounds", ratio(c.cut_rounds, c.milp_calls));
        self.set(
            "lp.cuts.root_gap_closed",
            if c.root_gap_closed_n == 0 {
                0.0
            } else {
                c.root_gap_closed_sum / c.root_gap_closed_n as f64
            },
        );
    }

    /// Prints every metric of `list` (declared order) as a readable line,
    /// then the result object as the last line of standard output.
    pub fn print(&self, list: &[(&'static str, &'static str)]) {
        let mut json = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let v = *self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let note = self
                .notes
                .get(name)
                .map_or(String::new(), |n| format!("  ({n})"));
            println!("metric {name:<34} {v:>14.4} {unit}{note}");
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
    }

    /// Sets every declared per-layer metric not yet set to 0.
    pub fn zero_unset_layers(&mut self) {
        for (name, _) in PER_LAYER {
            self.values.entry(name).or_insert(0.0);
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
