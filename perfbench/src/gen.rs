//! Seeded input generation. Every workload's inputs are a pure function
//! of its seed; the program under test only ever sees the `.ddg` text and
//! the JSON request lines made here.

use rs_core::model::{Ddg, RegType, Target};
use rs_core::parse::print_ddg;
use rs_core::request::{RsOp, RsRequest};
use rs_kernels::random::{random_ddg, RandomDagConfig};

/// SplitMix64: small, fast, and fully specified here, so a stream never
/// changes because a dependency changed its generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A generator for substream `index` of `seed`.
    pub fn substream(seed: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.range(0, i);
            xs.swap(i, j);
        }
    }
}

/// One generated DAG, as the program will receive it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dag {
    /// `random-<ops>-<n>` or the kernel name and target.
    pub name: String,
    /// The `.ddg` text.
    pub text: String,
    /// Float-typed values in the DAG (an upper bound on its float RS).
    pub float_values: usize,
}

impl Dag {
    fn from_ddg(name: String, ddg: &Ddg) -> Self {
        Dag {
            name,
            text: print_ddg(ddg),
            float_values: ddg.values(RegType::FLOAT).len(),
        }
    }
}

/// A random DAG of `ops` operations whose shape (layer count, density,
/// value share, target) is drawn from `rng`.
pub fn random_dag(rng: &mut Rng, ops: usize, max_layers: usize, tag: usize) -> Dag {
    let cfg = RandomDagConfig {
        ops,
        layers: rng.range(2, max_layers.min(ops / 2).max(2)),
        edge_prob: 0.08 + 0.22 * rng.unit(),
        value_ratio: 0.55 + 0.25 * rng.unit(),
        seed: rng.next_u64(),
    };
    let target = if rng.chance(0.5) {
        Target::vliw()
    } else {
        Target::superscalar()
    };
    Dag::from_ddg(format!("random-{ops}-{tag}"), &random_ddg(&cfg, target))
}

/// The named kernels of at most `max_ops` operations (the virtual `⊥`
/// excluded), on both targets.
pub fn named_kernels(max_ops: usize) -> Vec<Dag> {
    let mut out = Vec::new();
    for (tname, target) in [("ss", Target::superscalar()), ("vliw", Target::vliw())] {
        for k in rs_kernels::corpus() {
            let ddg = (k.build)(target.clone());
            if ddg.num_ops() - 1 <= max_ops {
                out.push(Dag::from_ddg(format!("{}-{tname}", k.name), &ddg));
            }
        }
    }
    out
}

// ---------------------------------------------------------------- batch

/// DAG sizes of one `batch_heuristic` block; each block holds every size
/// once (in random order) plus one named kernel.
pub const BATCH_SIZES: [usize; 11] = [16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96];

/// Blocks in the pinned `batch_heuristic` pool.
pub const BATCH_BLOCKS: usize = 12;

/// Fixed seed of the pinned `batch_heuristic` pool.
pub const BATCH_POOL_SEED: u64 = 0x0BA7_C420_2004;

/// One `batch_heuristic` DAG and the knobs of its three requests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchItem {
    /// The DAG.
    pub dag: Dag,
    /// `reduce` and `pipeline` budgets are the analyzed float RS minus this.
    pub cut: usize,
    /// Pipeline issue width.
    pub issue: u64,
}

/// The pinned `batch_heuristic` pool: [`BATCH_BLOCKS`] blocks of one
/// random DAG per size in [`BATCH_SIZES`] (varied layer count and density)
/// plus one named kernel, each with a drawn budget cut (1–4 below the
/// analyzed RS) and issue width. Reduction cost varies by two orders of
/// magnitude between DAGs of one size, so a pool drawn afresh per seed
/// moves `dags_per_s` and the tail by more than a run can resolve; the
/// pool is pinned and the seed draws the order of every pass instead.
pub fn batch_pool() -> Vec<BatchItem> {
    let kernels = named_kernels(usize::MAX);
    let mut rng = Rng::new(BATCH_POOL_SEED);
    let mut out = Vec::with_capacity(BATCH_BLOCKS * (BATCH_SIZES.len() + 1));
    for b in 0..BATCH_BLOCKS {
        let mut dags: Vec<Dag> = BATCH_SIZES
            .iter()
            .map(|&ops| random_dag(&mut rng, ops, 12, b))
            .collect();
        dags.push(kernels[rng.range(0, kernels.len() - 1)].clone());
        for dag in dags {
            out.push(BatchItem {
                dag,
                cut: rng.range(1, 4),
                issue: [1, 4, 8][rng.range(0, 2)],
            });
        }
    }
    out
}

/// The order of pass `pass` over a pool of `len` instances for `seed`.
pub fn pass_order(seed: u64, pass: u64, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    Rng::substream(seed, 0x1000 + pass).shuffle(&mut order);
    order
}

// ---------------------------------------------------------------- exact

/// Per-request deadline of every `exact_intlp` request.
pub const EXACT_TIMEOUT_MS: u64 = 500;

/// Fixed seed of the pinned `exact_intlp` instance pool.
pub const EXACT_POOL_SEED: u64 = 0x0005_EED0_2004;

/// Random DAGs per size in the pinned pool (sizes 10..=16).
pub const EXACT_PER_SIZE: usize = 15;

/// The pinned `exact_intlp` pool: random DAGs of 10–16 ops (stratified by
/// size) plus the named kernels of at most 18 ops. Solve times are
/// heavy-tailed (sub-millisecond to capped), so a pool drawn afresh per
/// seed would move `dags_per_s` by more than any bound a run can hold; the
/// pool is pinned and the seed draws the order of every pass instead.
pub fn exact_pool() -> Vec<Dag> {
    let mut rng = Rng::new(EXACT_POOL_SEED);
    let mut out = Vec::new();
    for i in 0..EXACT_PER_SIZE {
        for ops in 10..=16 {
            out.push(random_dag(&mut rng, ops, 5, i));
        }
    }
    out.extend(named_kernels(18));
    out
}

/// The request of an `exact_intlp` analysis, with the DAG's name as id.
pub fn exact_request(dag: &Dag) -> RsRequest {
    let mut req = RsRequest::new(RsOp::Analyze, dag.text.clone());
    req.id = Some(dag.name.clone());
    req.reg_type = Some("float".into());
    req.exact = true;
    req.ilp = true;
    req.stats = true;
    req.threads = 1;
    req.cache = false;
    req.timeout_ms = Some(EXACT_TIMEOUT_MS);
    req
}

// ---------------------------------------------------------------- serve

/// Share of serve requests that repeat an earlier request's content.
pub const SERVE_REPEAT_SHARE: f64 = 0.25;

/// Deadline of the small exact requests in the serve mix.
pub const SERVE_EXACT_TIMEOUT_MS: u64 = 250;

/// Request kinds of the serve mix, for reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeKind {
    /// Greedy-k analyze.
    Analyze,
    /// Reduce with spill fallback.
    Reduce,
    /// Reduce, schedule, allocate.
    Pipeline,
    /// Exact (combinatorial search) analyze with a deadline.
    Exact,
}

/// One serve request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeItem {
    /// What the request asks for.
    pub kind: ServeKind,
    /// The request (its `id` is the stream position).
    pub request: RsRequest,
    /// The JSON line sent to the pool.
    pub line: String,
    /// Stream position of the first request with this content, if this
    /// one repeats it.
    pub repeat_of: Option<usize>,
}

/// Request contents in the pinned pool of the serve latency phase: the
/// number of first occurrences in one of its repetitions, so every seed's
/// latency phase sends the same contents.
pub const SERVE_FIXED_POOL_LEN: usize = 150;

/// Request contents in the pinned pool of the serve rate ladder.
pub const SERVE_LADDER_POOL_LEN: usize = 450;

/// Fixed seed of the pinned latency-phase pool.
pub const SERVE_FIXED_POOL_SEED: u64 = 0x05E2_7E00_2004;

/// Fixed seed of the pinned ladder pool.
pub const SERVE_LADDER_POOL_SEED: u64 = 0x05E2_7E01_2004;

/// One request content of the serve mix: 80 % Greedy-k analyses of
/// 16–48-op DAGs, 7 % reduce with spill fallback, 7 % pipeline (both at
/// 2–6 registers below the DAG's float value count), and 6 % small exact
/// requests (combinatorial search on 10–12 ops under a deadline; the
/// intLP is left to `exact_intlp`, where one capped solve would otherwise
/// stall the single worker for its whole deadline and decide the run).
pub fn serve_content(rng: &mut Rng, tag: usize) -> (ServeKind, RsRequest) {
    let roll = rng.unit();
    if roll < 0.06 {
        let ops = rng.range(10, 12);
        let dag = random_dag(rng, ops, 4, tag);
        let mut req = RsRequest::new(RsOp::Analyze, dag.text);
        req.reg_type = Some("float".into());
        req.exact = true;
        req.timeout_ms = Some(SERVE_EXACT_TIMEOUT_MS);
        return (ServeKind::Exact, req);
    }
    if roll >= 0.20 {
        let ops = rng.range(32, 64);
        let dag = random_dag(rng, ops, 8, tag);
        return (ServeKind::Analyze, RsRequest::new(RsOp::Analyze, dag.text));
    }
    let ops = rng.range(16, 32);
    let dag = random_dag(rng, ops, 8, tag);
    let budget = dag.float_values.saturating_sub(rng.range(2, 6)).max(1);
    if roll < 0.13 {
        let mut req = RsRequest::new(RsOp::Reduce, dag.text);
        req.reg_type = Some("float".into());
        req.registers = Some(budget);
        req.spill = true;
        req.emit_ddg = true;
        (ServeKind::Reduce, req)
    } else {
        let mut req = RsRequest::new(RsOp::Pipeline, dag.text);
        req.reg_type = Some("float".into());
        req.registers = Some(budget);
        (ServeKind::Pipeline, req)
    }
}

/// A pinned serve pool of `len` request contents drawn from `pool_seed`.
pub fn serve_pool(pool_seed: u64, len: usize) -> Vec<(ServeKind, RsRequest)> {
    let mut rng = Rng::new(pool_seed);
    (0..len).map(|i| serve_content(&mut rng, i)).collect()
}

/// The `serve_open_loop` stream of `len` request lines for `seed`: each
/// line either repeats the content of a seed-drawn earlier line (a share
/// of [`SERVE_REPEAT_SHARE`]; a cache hit once the first answer is in) or
/// takes the next content of a seeded walk over `pool`.
pub fn serve_stream(seed: u64, len: usize, pool: &[(ServeKind, RsRequest)]) -> Vec<ServeItem> {
    let mut rng = Rng::substream(seed, 0x2000);
    let mut walk: Vec<usize> = Vec::new();
    let mut walks = 0;
    let mut out: Vec<ServeItem> = Vec::with_capacity(len);
    for i in 0..len {
        let id = Some(format!("r{i}"));
        if i > 0 && rng.chance(SERVE_REPEAT_SHARE) {
            let j = rng.range(0, i - 1);
            let first = out[j].repeat_of.unwrap_or(j);
            let mut request = out[first].request.clone();
            request.id = id;
            out.push(ServeItem {
                kind: out[first].kind,
                line: to_line(&request),
                request,
                repeat_of: Some(first),
            });
            continue;
        }
        if walk.is_empty() {
            walk = pass_order(seed, walks, pool.len());
            walk.reverse();
            walks += 1;
        }
        let (kind, mut request) = pool[walk.pop().expect("pool is not empty")].clone();
        request.id = id;
        out.push(ServeItem {
            kind,
            line: to_line(&request),
            request,
            repeat_of: None,
        });
    }
    out
}

/// Serializes a request as one JSON line.
pub fn to_line(req: &RsRequest) -> String {
    serde_json::to_string(req).expect("requests serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes a batch run sends first: its first pass over the pool.
    fn batch_bytes(seed: u64) -> Vec<u8> {
        let pool = batch_pool();
        let mut out = Vec::new();
        for i in pass_order(seed, 0, pool.len()) {
            let it = &pool[i];
            out.extend_from_slice(it.dag.text.as_bytes());
            out.extend_from_slice(format!("|{}|{}\n", it.cut, it.issue).as_bytes());
        }
        out
    }

    fn serve_bytes(seed: u64) -> Vec<u8> {
        serve_stream(seed, 400, &serve_pool(SERVE_LADDER_POOL_SEED, 450))
            .iter()
            .flat_map(|it| format!("{}\n", it.line).into_bytes())
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        assert_eq!(batch_bytes(7), batch_bytes(7));
        assert_eq!(serve_bytes(7), serve_bytes(7));
        assert_eq!(pass_order(7, 0, 50), pass_order(7, 0, 50));
        let a: Vec<String> = exact_pool().into_iter().map(|d| d.text).collect();
        let b: Vec<String> = exact_pool().into_iter().map(|d| d.text).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_streams() {
        assert_ne!(batch_bytes(7), batch_bytes(8));
        assert_ne!(serve_bytes(7), serve_bytes(8));
        assert_ne!(pass_order(7, 0, 50), pass_order(8, 0, 50));
        assert_ne!(pass_order(7, 0, 50), pass_order(7, 1, 50));
    }

    #[test]
    fn batch_blocks_hold_every_size_once() {
        let stream = batch_pool();
        assert_eq!(stream.len(), BATCH_BLOCKS * (BATCH_SIZES.len() + 1));
        let block = &stream[..BATCH_SIZES.len() + 1];
        let mut sizes: Vec<usize> = block
            .iter()
            .filter(|it| it.dag.name.starts_with("random-"))
            .map(|it| it.dag.name.split('-').nth(1).unwrap().parse().unwrap())
            .collect();
        sizes.sort_unstable();
        assert_eq!(sizes, BATCH_SIZES.to_vec());
    }

    #[test]
    fn serve_repeats_share_content_with_their_first_occurrence() {
        let stream = serve_stream(11, 600, &serve_pool(SERVE_LADDER_POOL_SEED, 450));
        let repeats = stream.iter().filter(|it| it.repeat_of.is_some()).count();
        assert!(repeats > 100 && repeats < 200, "{repeats}");
        for it in &stream {
            if let Some(j) = it.repeat_of {
                assert_eq!(stream[j].request.cache_key(), it.request.cache_key());
                assert!(stream[j].repeat_of.is_none());
            }
        }
        for kind in [
            ServeKind::Analyze,
            ServeKind::Reduce,
            ServeKind::Pipeline,
            ServeKind::Exact,
        ] {
            assert!(stream.iter().any(|it| it.kind == kind), "{kind:?}");
        }
    }
}
