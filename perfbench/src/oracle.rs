//! The answer oracle. Every response a workload receives goes through one
//! of these checks; a wrong answer counts as a failed operation and is
//! printed.

use rs_core::request::{codes, RsOp, RsRequest, RsResponse, RsResult, TypeResult};
use rs_serve::Dispatcher;

/// Wrong answers printed per run (the rest are only counted).
const PRINT_LIMIT: usize = 20;

/// Collects verdicts; re-analyses reduced DAGs on its own dispatcher.
pub struct Oracle {
    checker: Dispatcher,
    /// Answers checked.
    pub checked: u64,
    /// Answers found wrong.
    pub wrong: u64,
}

impl Default for Oracle {
    fn default() -> Self {
        Self::new()
    }
}

impl Oracle {
    /// An oracle with a fresh, cache-less checking dispatcher.
    pub fn new() -> Self {
        Oracle {
            checker: Dispatcher::new(),
            checked: 0,
            wrong: 0,
        }
    }

    /// Records the verdict on one answer, printing it when wrong.
    pub fn record(&mut self, what: &str, verdict: Result<(), String>) -> bool {
        self.checked += 1;
        match verdict {
            Ok(()) => true,
            Err(e) => {
                self.wrong += 1;
                if self.wrong as usize <= PRINT_LIMIT {
                    println!("WRONG ANSWER [{what}]: {e}");
                }
                false
            }
        }
    }

    /// Checks `resp` as the answer to `req` and records the verdict.
    /// Analyses that ran out of their deadline (code `timeout`) are
    /// accepted when their partial result is consistent; any other error
    /// is wrong.
    pub fn check(&mut self, what: &str, req: &RsRequest, resp: &RsResponse) -> bool {
        let verdict = self.verdict(req, resp);
        self.record(what, verdict)
    }

    fn verdict(&mut self, req: &RsRequest, resp: &RsResponse) -> Result<(), String> {
        if !resp.ok {
            let code = resp.error.as_ref().map_or("?", |e| e.code.as_str());
            if code != codes::TIMEOUT || req.timeout_ms.is_none() {
                return Err(format!("request failed with code `{code}`"));
            }
        }
        let result = resp
            .result
            .as_ref()
            .ok_or_else(|| "response carries no result".to_string())?;
        match req.op {
            RsOp::Analyze => check_analyze(result),
            RsOp::Reduce => {
                let budget = req.registers.unwrap_or(0);
                check_reduce(result, budget)?;
                self.reanalyze_fits(result, budget)
            }
            RsOp::Pipeline => check_pipeline(result, req.registers.unwrap_or(0)),
        }
    }

    /// A `fits:true` reduction must re-analyse to at most its budget.
    fn reanalyze_fits(&mut self, result: &RsResult, budget: usize) -> Result<(), String> {
        let fits = result
            .types
            .iter()
            .any(|t| t.reduce.as_ref().is_some_and(|r| r.fits));
        if !fits {
            return Ok(());
        }
        let Some(text) = result.ddg_out.as_ref() else {
            return Err("fits:true reduce without the reduced DAG".into());
        };
        let mut again = RsRequest::new(RsOp::Analyze, text.clone());
        again.cache = false;
        let resp = self.checker.dispatch(&again);
        let Some(res) = resp.result.filter(|_| resp.ok) else {
            return Err("reduced DAG does not re-analyse".into());
        };
        for t in &result.types {
            if !t.reduce.as_ref().is_some_and(|r| r.fits) {
                continue;
            }
            let Some(re) = res.types.iter().find(|x| x.reg_type == t.reg_type) else {
                continue; // the type's values were all spilled away
            };
            if re.saturation > budget {
                return Err(format!(
                    "fits:true reduce of `{}` re-analyses to RS {} > budget {budget}",
                    t.reg_type, re.saturation
                ));
            }
        }
        Ok(())
    }
}

fn check_type_analysis(t: &TypeResult) -> Result<(), String> {
    let ty = &t.reg_type;
    if t.saturation > t.values {
        return Err(format!(
            "{ty}: RS {} exceeds its {} values",
            t.saturation, t.values
        ));
    }
    if t.saturating.len() != t.saturation {
        return Err(format!(
            "{ty}: RS {} with a witness of {} values",
            t.saturation,
            t.saturating.len()
        ));
    }
    let greedy = t.saturation;
    if let Some(e) = &t.exact {
        if e.bound.is_some_and(|b| b < e.saturation) {
            return Err(format!("{ty}: ExactRs bound below its own incumbent"));
        }
        if e.proven_optimal && greedy > e.saturation {
            return Err(format!(
                "{ty}: Greedy-k RS {greedy} exceeds proven ExactRs {}",
                e.saturation
            ));
        }
    }
    if let Some(l) = &t.ilp {
        if l.bound.is_some_and(|b| b < l.saturation) {
            return Err(format!("{ty}: intLP bound below its own incumbent"));
        }
        if l.proven_optimal && greedy > l.saturation {
            return Err(format!(
                "{ty}: Greedy-k RS {greedy} exceeds proven intLP RS {}",
                l.saturation
            ));
        }
    }
    if let (Some(e), Some(l)) = (&t.exact, &t.ilp) {
        if e.proven_optimal && l.proven_optimal && e.saturation != l.saturation {
            return Err(format!(
                "{ty}: ExactRs {} != intLP RS {} (both proven)",
                e.saturation, l.saturation
            ));
        }
        // Each proven value must lie within the other's proven bounds.
        let upper = |s: &rs_core::request::SolveResult| {
            if s.proven_optimal {
                s.saturation
            } else {
                s.bound.unwrap_or(usize::MAX)
            }
        };
        if e.saturation > upper(l) || l.saturation > upper(e) {
            return Err(format!(
                "{ty}: ExactRs {} and intLP {} contradict each other's bounds",
                e.saturation, l.saturation
            ));
        }
    }
    Ok(())
}

/// Checks an analysis result: RS within the value count, witness size,
/// Greedy-k ≤ ExactRs and ≤ intLP when proven, ExactRs == intLP when both
/// prove.
pub fn check_analyze(result: &RsResult) -> Result<(), String> {
    if result.types.is_empty() {
        return Err("analysis reports no register type".into());
    }
    result.types.iter().try_for_each(check_type_analysis)
}

/// Checks a reduction result against its budget.
pub fn check_reduce(result: &RsResult, budget: usize) -> Result<(), String> {
    for t in &result.types {
        let r = t
            .reduce
            .as_ref()
            .ok_or_else(|| format!("{}: reduce result missing", t.reg_type))?;
        if r.budget != budget {
            return Err(format!("{}: budget echoed as {}", t.reg_type, r.budget));
        }
        if r.fits && r.rs_after > budget {
            return Err(format!(
                "{}: fits:true with RS {} > budget {budget}",
                t.reg_type, r.rs_after
            ));
        }
        if r.spilled.is_empty() && r.cp_after < r.cp_before {
            return Err(format!(
                "{}: serialization shortened the critical path {} -> {}",
                t.reg_type, r.cp_before, r.cp_after
            ));
        }
    }
    Ok(())
}

/// Checks a pipeline result: a schedule exists exactly when every type
/// fits, is no shorter than the critical path, and allocates within the
/// budget.
pub fn check_pipeline(result: &RsResult, budget: usize) -> Result<(), String> {
    check_reduce(result, budget)?;
    let all_fit = result
        .types
        .iter()
        .all(|t| t.reduce.as_ref().is_some_and(|r| r.fits));
    match result.makespan {
        None if all_fit => Err("every type fits but no schedule was made".into()),
        None => Ok(()),
        Some(_) if !all_fit => Err("scheduled although a type does not fit".into()),
        Some(m) => {
            if m < result.critical_path {
                return Err(format!(
                    "makespan {m} below the critical path {}",
                    result.critical_path
                ));
            }
            for t in &result.types {
                let a = t
                    .alloc
                    .ok_or_else(|| format!("{}: no allocation", t.reg_type))?;
                if a.registers_used > budget {
                    return Err(format!(
                        "{}: allocation uses {} > budget {budget}",
                        t.reg_type, a.registers_used
                    ));
                }
            }
            Ok(())
        }
    }
}

/// The result part of a response as bytes, for byte-identity checks
/// (cache hits against cold answers, serve against direct dispatch).
pub fn result_bytes(resp: &RsResponse) -> String {
    serde_json::to_string(&resp.result).expect("results serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rs_core::request::SolveResult;

    const TWO_CHAINS: &str = "op a load float\nop sa store none\nflow a sa 4 float\n\
                              op b load float\nop sb store none\nflow b sb 4 float\n";

    fn exact_answer() -> (RsRequest, RsResponse) {
        let mut req = RsRequest::new(RsOp::Analyze, TWO_CHAINS);
        req.exact = true;
        req.ilp = true;
        req.timeout_ms = Some(5_000);
        let resp = Dispatcher::new().dispatch(&req);
        (req, resp)
    }

    fn float_mut(resp: &mut RsResponse) -> &mut TypeResult {
        resp.result
            .as_mut()
            .unwrap()
            .types
            .iter_mut()
            .find(|t| t.reg_type == "float")
            .unwrap()
    }

    #[test]
    fn accepts_the_program_answers() {
        let mut oracle = Oracle::new();
        let (req, resp) = exact_answer();
        assert!(oracle.check("exact", &req, &resp));
        let mut red = RsRequest::new(RsOp::Reduce, TWO_CHAINS);
        red.registers = Some(1);
        red.emit_ddg = true;
        red.spill = true;
        let resp = Dispatcher::new().dispatch(&red);
        assert!(oracle.check("reduce", &red, &resp));
        let mut pipe = RsRequest::new(RsOp::Pipeline, TWO_CHAINS);
        pipe.registers = Some(2);
        let resp = Dispatcher::new().dispatch(&pipe);
        assert!(oracle.check("pipeline", &pipe, &resp));
        assert_eq!((oracle.checked, oracle.wrong), (3, 0));
    }

    #[test]
    fn rejects_planted_wrong_answers() {
        let mut oracle = Oracle::new();
        let (req, good) = exact_answer();

        // ExactRs and intLP disagree although both claim a proof.
        let mut bad = good.clone();
        float_mut(&mut bad).ilp = Some(SolveResult {
            saturation: 1,
            proven_optimal: true,
            bound: None,
            resume: None,
            resumed: false,
        });
        assert!(!oracle.check("planted", &req, &bad));

        // Greedy-k above a proven exact value.
        let mut bad = good.clone();
        let t = float_mut(&mut bad);
        t.saturation += 1;
        t.saturating.push("ghost".into());
        t.values += 1;
        assert!(!oracle.check("planted", &req, &bad));

        // A reduce claiming to fit above its budget.
        let mut red = RsRequest::new(RsOp::Reduce, TWO_CHAINS);
        red.registers = Some(1);
        red.emit_ddg = true;
        let mut bad = Dispatcher::new().dispatch(&red);
        let r = float_mut(&mut bad).reduce.as_mut().unwrap();
        r.fits = true;
        r.rs_after = 2;
        assert!(!oracle.check("planted", &red, &bad));

        // A failed request is a wrong answer, not a capped one.
        let mut bad = good.clone();
        bad.ok = false;
        bad.error = Some(rs_core::request::RsError::new(codes::ENGINE, "boom"));
        assert!(!oracle.check("planted", &req, &bad));
        assert_eq!(oracle.wrong, 4);
    }
}
