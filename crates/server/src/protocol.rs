//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! Every request is one JSON object on one line with a `"kind"` field and an
//! optional client-chosen `"id"` that is echoed back verbatim. Adder-shaped
//! requests (`analyze`, `simulate`, `compare`) accept the same configuration
//! vocabulary as the CLI: `width` + `cell`/`cells`, and `p`/`pa`/`pb`/`cin`
//! input probabilities. See `docs/SERVER.md` for a worked example per kind.

use std::fmt::Write as _;
use std::str::FromStr;

use sealpaa_cells::{AdderChain, Cell, InputProfile, StandardCell, TruthTable};
use sealpaa_trace::{SynthKind, TraceRecord};

use crate::json::{Json, JsonObject};

/// The maximum accepted line length (1 MiB) — a guard against unbounded
/// memory growth from a misbehaving client.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The most records a `profile` request may ask a synthetic generator for —
/// a bound on worker time, mirroring [`MAX_LINE_BYTES`]'s bound on memory.
pub const MAX_PROFILE_RECORDS: u64 = 1 << 24;

/// The most sub-requests one `batch` request may carry — a bound on worker
/// time per request line (the line limit already bounds its bytes).
pub const MAX_BATCH_ITEMS: usize = 1024;

/// One parsed request: the echoed `id` plus the typed body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed back verbatim (any JSON value).
    pub id: Option<Json>,
    /// The request proper.
    pub body: RequestBody,
}

/// The typed request kinds the daemon serves.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// The paper's O(N) analytical method.
    Analyze(AdderSpec),
    /// Bit-true simulation (exhaustive or Monte-Carlo).
    Simulate(SimulateSpec),
    /// Proposed method vs. the 2^k-term inclusion–exclusion baseline.
    Compare(AdderSpec),
    /// GeAr low-latency adder analysis.
    Gear(GearSpec),
    /// Block-based adder analysis: the exact error-distance PMF/CDF and
    /// derived statistics of a heterogeneous block configuration.
    Blocks(BlocksSpec),
    /// Budgeted hybrid-adder design-space exploration.
    Dse(DseSpec),
    /// Workload-trace bit statistics: empirical per-bit probabilities and
    /// the independence-violation score.
    Profile(ProfileSpec),
    /// Analytical datapath error propagation: predicted output error
    /// moments and SNR for a whole adder graph (FIR, conv2d, multiplier) —
    /// no simulation in the loop.
    Datapath(DatapathSpec),
    /// Several compute sub-requests answered in one response, routed through
    /// the canonical cache as a group (duplicate configurations compute
    /// once).
    Batch(BatchSpec),
    /// Server counters (served inline, never queued).
    Stats,
    /// Graceful shutdown: drain in-flight jobs, answer, stop.
    Shutdown,
}

impl RequestBody {
    /// The wire name of this request kind.
    pub fn kind(&self) -> &'static str {
        match self {
            RequestBody::Analyze(_) => "analyze",
            RequestBody::Simulate(_) => "simulate",
            RequestBody::Compare(_) => "compare",
            RequestBody::Gear(_) => "gear",
            RequestBody::Blocks(_) => "blocks",
            RequestBody::Dse(_) => "dse",
            RequestBody::Profile(_) => "profile",
            RequestBody::Datapath(_) => "datapath",
            RequestBody::Batch(_) => "batch",
            RequestBody::Stats => "stats",
            RequestBody::Shutdown => "shutdown",
        }
    }
}

/// A `batch` request: an ordered list of compute sub-requests. The response
/// carries one sub-response per item, in item order, each echoing the item's
/// own `id` — so a client can fan a sweep into one line and reassemble it
/// without counting on ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpec {
    /// The sub-requests, in wire order.
    pub items: Vec<BatchItem>,
}

/// One entry of a `batch` request. A malformed entry does not fail the
/// batch: it is carried as its parse error and answered with a per-item
/// error sub-response.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchItem {
    /// The item's own correlation id, echoed in its sub-response.
    pub id: Option<Json>,
    /// What the item asks for: its own parse, or a back-reference to an
    /// earlier identical item.
    pub body: BatchBody,
}

/// The payload of one batch item.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchBody {
    /// A freshly parsed sub-request, or the message explaining why it did
    /// not parse.
    Parsed(Result<RequestBody, String>),
    /// Byte-identical (apart from `id`) to the item at this index. The
    /// common batch shape — one configuration fanned out under many ids —
    /// parses once, canonicalizes once, and computes at most once; every
    /// duplicate rides the original's resolution.
    DuplicateOf(usize),
}

/// How many recent *distinct* rows a batch parse compares each new row
/// against. Homogeneous batches dedup against a single entry; the bound
/// keeps an adversarial all-distinct batch linear.
const BATCH_DEDUP_WINDOW: usize = 8;

impl BatchSpec {
    fn from_json(doc: &Json) -> Result<BatchSpec, String> {
        let rows = doc
            .get("requests")
            .and_then(Json::as_array)
            .ok_or("\"requests\" (an array of request objects) is required")?;
        if rows.is_empty() {
            return Err("\"requests\" must list at least one sub-request".to_owned());
        }
        if rows.len() > MAX_BATCH_ITEMS {
            return Err(format!(
                "\"requests\" lists {} sub-requests but the limit is {MAX_BATCH_ITEMS}",
                rows.len()
            ));
        }
        let mut items: Vec<BatchItem> = Vec::with_capacity(rows.len());
        // Indices (into `rows`/`items`) of the most recent distinct rows;
        // back-references therefore always point at an original, never at
        // another duplicate.
        let mut recent: Vec<usize> = Vec::new();
        for (index, row) in rows.iter().enumerate() {
            let body = match recent
                .iter()
                .copied()
                .find(|&j| json_equal_ignoring_id(row, &rows[j]))
            {
                Some(j) => BatchBody::DuplicateOf(j),
                None => {
                    if recent.len() == BATCH_DEDUP_WINDOW {
                        recent.remove(0);
                    }
                    recent.push(index);
                    BatchBody::Parsed(batch_item_body(row))
                }
            };
            items.push(BatchItem {
                id: row.get("id").cloned(),
                body,
            });
        }
        Ok(BatchSpec { items })
    }
}

/// Structural equality of two raw request documents with the `id` field
/// masked out — the cheap filter behind [`BatchBody::DuplicateOf`] and the
/// per-connection request memo. Field order matters, so
/// differently-spelled equivalent documents simply miss the filter: a miss
/// only costs a fresh parse, never correctness. (NaN-valued numbers
/// compare unequal and therefore never dedup, which is the safe direction.)
pub(crate) fn json_equal_ignoring_id(a: &Json, b: &Json) -> bool {
    let (Json::Object(a), Json::Object(b)) = (a, b) else {
        return false;
    };
    let mut a = a.iter().filter(|(k, _)| k.as_str() != "id");
    let mut b = b.iter().filter(|(k, _)| k.as_str() != "id");
    loop {
        match (a.next(), b.next()) {
            (None, None) => return true,
            (Some(x), Some(y)) if x == y => {}
            _ => return false,
        }
    }
}

/// Parses one batch entry. Control kinds and nested batches are rejected by
/// name *before* parsing, so a nested-batch bomb cannot recurse.
fn batch_item_body(row: &Json) -> Result<RequestBody, String> {
    if !matches!(row, Json::Object(_)) {
        return Err("a sub-request must be a JSON object".to_owned());
    }
    match row.get("kind").and_then(Json::as_str) {
        None => return Err("missing string field \"kind\"".to_owned()),
        Some(kind @ ("batch" | "stats" | "shutdown")) => {
            return Err(format!("kind {kind:?} is not allowed inside a batch"));
        }
        Some(_) => {}
    }
    body_from_doc(row)
}

/// A multi-bit adder configuration: the per-stage cells plus the input
/// profile, exactly the inputs of the paper's analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct AdderSpec {
    /// The (possibly hybrid) chain, LSB first.
    pub chain: AdderChain,
    /// Per-bit input probabilities.
    pub profile: InputProfile<f64>,
}

/// How to simulate.
#[derive(Debug, Clone, PartialEq)]
pub enum SimMode {
    /// Enumerate all `2^(2N+1)` input combinations.
    Exhaustive,
    /// Draw random samples (deterministic for a fixed `(seed, threads)`).
    MonteCarlo {
        /// Number of samples.
        samples: u64,
        /// RNG seed.
        seed: u64,
        /// Internal worker threads of the simulator itself (defaults to
        /// the machine's available parallelism when the request omits it;
        /// pin it explicitly for machine-independent sample streams).
        threads: usize,
    },
}

/// A `simulate` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateSpec {
    /// The adder under test.
    pub adder: AdderSpec,
    /// Simulation regime.
    pub mode: SimMode,
}

/// A `gear` request: GeAr(N, R, P) plus input probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct GearSpec {
    /// Operand width.
    pub n: usize,
    /// Result bits per sub-adder.
    pub r: usize,
    /// Prediction/overlap bits per sub-adder.
    pub overlap: usize,
    /// Constant `P(bit = 1)` for all operand bits.
    pub p: f64,
    /// External carry-in probability.
    pub cin: f64,
    /// Also report each fallible sub-adder's `P(E_j)`.
    pub blocks: bool,
}

/// A `blocks` request: a heterogeneous block configuration plus input
/// probabilities. The result is purely behavioral (error-distance
/// statistics, no power/area), which is what lets the cache key fold
/// behaviorally equivalent configurations together.
#[derive(Debug, Clone, PartialEq)]
pub struct BlocksSpec {
    /// The block configuration (operand width is `config.width()`).
    pub config: sealpaa_blocks::BlockConfig,
    /// Per-bit input probabilities.
    pub profile: InputProfile<f64>,
    /// Also report the cumulative distribution alongside the PMF.
    pub cdf: bool,
}

impl BlocksSpec {
    fn from_json(doc: &Json) -> Result<BlocksSpec, String> {
        let spec = doc
            .get("config")
            .and_then(Json::as_str)
            .ok_or("\"config\" (a string like \"4:0:accurate,2:2:lpaa1\") is required")?;
        let config: sealpaa_blocks::BlockConfig = spec
            .parse()
            .map_err(|e: sealpaa_blocks::ParseBlockConfigError| format!("\"config\": {e}"))?;
        let width = config.width();
        let p = prob_field(doc, "p")?.unwrap_or(0.5);
        let pa = prob_list(doc, "pa", width)?.unwrap_or_else(|| vec![p; width]);
        let pb = prob_list(doc, "pb", width)?.unwrap_or_else(|| vec![p; width]);
        let cin = prob_field(doc, "cin")?.unwrap_or(p);
        let profile = InputProfile::new(pa, pb, cin).map_err(|e| e.to_string())?;
        Ok(BlocksSpec {
            config,
            profile,
            cdf: doc.get("cdf").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

/// A `dse` request: search per-stage cell assignments for the minimum error
/// probability under an optional power/area budget (the CLI's `sealpaa dse`
/// as a service).
#[derive(Debug, Clone, PartialEq)]
pub struct DseSpec {
    /// Candidate cells selectable at each stage.
    pub candidates: Vec<Cell>,
    /// Per-bit input probabilities (the search width is the profile width).
    pub profile: InputProfile<f64>,
    /// Maximum total power in nW (`None` = unconstrained).
    pub budget_power: Option<f64>,
    /// Maximum total area in GE (`None` = unconstrained).
    pub budget_area: Option<f64>,
    /// Worker threads for the search. Results are identical for any thread
    /// count (the exploration merges in lexicographic design order), so this
    /// is deliberately NOT part of the canonical cache key.
    pub threads: usize,
    /// Also report the error/power/area Pareto frontier.
    pub pareto: bool,
}

/// Where a `profile` request's trace records come from.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileSource {
    /// Generate the trace server-side with a synthetic workload family.
    /// Fully determined by `(kind, records, seed)`, so these requests are
    /// cacheable.
    Synth {
        /// The workload family.
        kind: SynthKind,
        /// Number of records to generate (capped at
        /// [`MAX_PROFILE_RECORDS`]).
        records: u64,
        /// Generator seed.
        seed: u64,
    },
    /// Records shipped inline as `[a, b]` or `[a, b, cin]` rows. Inline
    /// traces are deliberately NOT cached: a canonical key would have to
    /// hash the full payload, and the line limit already bounds their size.
    Inline(Vec<TraceRecord>),
}

/// A `profile` request: stream a workload trace into per-bit statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSpec {
    /// Operand width of the trace.
    pub width: usize,
    /// The trace itself.
    pub source: ProfileSource,
}

/// The adder-graph topologies a `datapath` request may ask about. Each
/// expands to a [`sealpaa_propagate::topologies`] graph server-side, so the
/// wire carries only the shape parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum DatapathTopology {
    /// A transposed-form FIR filter with the given taps.
    Fir {
        /// The filter coefficients, oldest sample first.
        coefficients: Vec<u64>,
    },
    /// A 2-D convolution with the given (rectangular) kernel.
    Conv2d {
        /// Kernel rows, each the same length.
        kernel: Vec<Vec<u64>>,
    },
    /// A shift-add multiplier of the request's `width`.
    Multiplier,
}

/// A `datapath` request: compose per-adder error models through a whole
/// datapath graph and report the predicted output error moments and SNR.
#[derive(Debug, Clone, PartialEq)]
pub struct DatapathSpec {
    /// What graph to build.
    pub topology: DatapathTopology,
    /// The adder cell every add node uses.
    pub cell: Cell,
    /// Input/sample/pixel bits.
    pub width: usize,
    /// Constant `P(bit = 1)` for every input bit.
    pub p: f64,
    /// Also compose the full output error PMF (narrow adders only).
    pub pmf: bool,
}

impl DatapathSpec {
    fn from_json(doc: &Json) -> Result<DatapathSpec, String> {
        let width = doc
            .get("width")
            .and_then(Json::as_u64)
            .ok_or("\"width\" (a positive integer) is required")? as usize;
        if width == 0 || width > 32 {
            return Err("\"width\" must be 1..=32".to_owned());
        }
        let cell_name = doc
            .get("cell")
            .and_then(Json::as_str)
            .ok_or("\"cell\" (a cell name) is required")?;
        let cell = resolve_cell(cell_name)?;
        let coeff = |v: &Json, what: &str| -> Result<u64, String> {
            v.as_u64()
                .ok_or_else(|| format!("{what} must be a non-negative integer"))
        };
        let topology = match doc.get("topology").and_then(Json::as_str).unwrap_or("fir") {
            "fir" => {
                let rows = doc
                    .get("coefficients")
                    .and_then(Json::as_array)
                    .ok_or("\"coefficients\" (an array of taps) is required for \"fir\"")?;
                let coefficients: Vec<u64> = rows
                    .iter()
                    .map(|v| coeff(v, "every \"coefficients\" entry"))
                    .collect::<Result<_, _>>()?;
                if coefficients.is_empty() || coefficients.iter().all(|&c| c == 0) {
                    return Err("\"coefficients\" needs a non-zero tap".to_owned());
                }
                DatapathTopology::Fir { coefficients }
            }
            "conv2d" => {
                let rows = doc.get("kernel").and_then(Json::as_array).ok_or(
                    "\"kernel\" (an array of coefficient rows) is required for \"conv2d\"",
                )?;
                let kernel: Vec<Vec<u64>> = rows
                    .iter()
                    .map(|row| {
                        row.as_array()
                            .ok_or_else(|| "every \"kernel\" row must be an array".to_owned())?
                            .iter()
                            .map(|v| coeff(v, "every \"kernel\" coefficient"))
                            .collect()
                    })
                    .collect::<Result<_, _>>()?;
                let cols = kernel.first().map_or(0, Vec::len);
                if cols == 0 || kernel.iter().any(|r| r.len() != cols) {
                    return Err("\"kernel\" rows must be non-empty and equal length".to_owned());
                }
                if kernel.iter().flatten().all(|&c| c == 0) {
                    return Err("\"kernel\" needs a non-zero coefficient".to_owned());
                }
                DatapathTopology::Conv2d { kernel }
            }
            "multiplier" => DatapathTopology::Multiplier,
            other => {
                return Err(format!(
                    "unknown topology {other:?} (expected fir, conv2d or multiplier)"
                ))
            }
        };
        Ok(DatapathSpec {
            topology,
            cell,
            width,
            p: prob_field(doc, "p")?.unwrap_or(0.5),
            pmf: doc.get("pmf").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

impl Request {
    /// Parses one request line, enforcing the default [`MAX_LINE_BYTES`]
    /// length limit.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, unknown kinds,
    /// or invalid configuration values.
    pub fn parse(line: &str) -> Result<Request, String> {
        Request::parse_with_limit(line, MAX_LINE_BYTES)
    }

    /// Parses one request line against a caller-chosen length limit. This
    /// check is a backstop for callers that hand over pre-assembled lines —
    /// the daemon additionally enforces the same limit *while reading*, so
    /// an oversized line is never buffered in the first place.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for oversized lines, malformed
    /// JSON, unknown kinds, or invalid configuration values.
    pub fn parse_with_limit(line: &str, max_line_bytes: usize) -> Result<Request, String> {
        if line.len() > max_line_bytes {
            return Err(format!(
                "request exceeds {max_line_bytes} bytes; split it or shrink the profile"
            ));
        }
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        if !matches!(doc, Json::Object(_)) {
            return Err("a request must be a JSON object".to_owned());
        }
        let id = doc.get("id").cloned();
        let body = body_from_doc(&doc)?;
        Ok(Request { id, body })
    }
}

/// Parses a request object's body by its `"kind"` — shared by the top-level
/// parser, the per-item parser inside `batch`, and the transport loops
/// (which parse the document themselves to feed the request memo).
pub(crate) fn body_from_doc(doc: &Json) -> Result<RequestBody, String> {
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing string field \"kind\"")?;
    Ok(match kind {
        "analyze" => RequestBody::Analyze(AdderSpec::from_json(doc)?),
        "simulate" => RequestBody::Simulate(SimulateSpec::from_json(doc)?),
        "compare" => RequestBody::Compare(AdderSpec::from_json(doc)?),
        "gear" => RequestBody::Gear(GearSpec::from_json(doc)?),
        "blocks" => RequestBody::Blocks(BlocksSpec::from_json(doc)?),
        "dse" => RequestBody::Dse(DseSpec::from_json(doc)?),
        "profile" => RequestBody::Profile(ProfileSpec::from_json(doc)?),
        "datapath" => RequestBody::Datapath(DatapathSpec::from_json(doc)?),
        "batch" => RequestBody::Batch(BatchSpec::from_json(doc)?),
        "stats" => RequestBody::Stats,
        "shutdown" => RequestBody::Shutdown,
        other => {
            return Err(format!(
                "unknown kind {other:?} (expected analyze, simulate, compare, gear, blocks, \
                 dse, profile, datapath, batch, stats or shutdown)"
            ))
        }
    })
}

/// Resolves a cell name: `accurate`/`accufa`, `lpaa1`…`lpaa7`, or a custom
/// truth table `SSSSSSSS/CCCCCCCC` (row 0 first; same syntax as the CLI).
///
/// # Errors
///
/// Returns a message for unknown names or malformed tables.
pub fn resolve_cell(spec: &str) -> Result<Cell, String> {
    if let Ok(std_cell) = StandardCell::from_str(spec) {
        return Ok(std_cell.cell());
    }
    if spec.contains('/') {
        let table = TruthTable::from_str(spec).map_err(|e| e.to_string())?;
        return Ok(Cell::custom(format!("custom({spec})"), table));
    }
    Err(format!(
        "unknown cell {spec:?} (use accurate, lpaa1..lpaa7, or SSSSSSSS/CCCCCCCC)"
    ))
}

fn prob_field(doc: &Json, key: &str) -> Result<Option<f64>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let p = v
                .as_f64()
                .ok_or_else(|| format!("\"{key}\" must be a number"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("\"{key}\" must lie in [0, 1], got {p}"));
            }
            Ok(Some(p))
        }
    }
}

fn prob_list(doc: &Json, key: &str, width: usize) -> Result<Option<Vec<f64>>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let items = v
                .as_array()
                .ok_or_else(|| format!("\"{key}\" must be an array of numbers"))?;
            if items.len() != width {
                return Err(format!(
                    "\"{key}\" lists {} values but the adder has {width} stages",
                    items.len()
                ));
            }
            let mut out = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let p = item
                    .as_f64()
                    .ok_or_else(|| format!("\"{key}\"[{i}] must be a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("\"{key}\"[{i}] must lie in [0, 1], got {p}"));
                }
                out.push(p);
            }
            Ok(Some(out))
        }
    }
}

impl AdderSpec {
    /// Builds the chain + profile from the request object's `width`,
    /// `cell`/`cells`, and `p`/`pa`/`pb`/`cin` fields.
    ///
    /// # Errors
    ///
    /// Returns a message for missing or inconsistent fields.
    pub fn from_json(doc: &Json) -> Result<AdderSpec, String> {
        let cells: Vec<Cell> = match (doc.get("cell"), doc.get("cells")) {
            (Some(_), Some(_)) => {
                return Err("\"cell\" and \"cells\" are mutually exclusive".to_owned())
            }
            (Some(one), None) => {
                let name = one.as_str().ok_or("\"cell\" must be a string")?;
                let width = doc
                    .get("width")
                    .and_then(Json::as_u64)
                    .ok_or("\"width\" (a positive integer) is required with \"cell\"")?
                    as usize;
                if width == 0 || width > 64 {
                    return Err("\"width\" must be 1..=64".to_owned());
                }
                vec![resolve_cell(name)?; width]
            }
            (None, Some(many)) => {
                let names = many
                    .as_array()
                    .ok_or("\"cells\" must be an array of cell names")?;
                if names.is_empty() || names.len() > 64 {
                    return Err("\"cells\" must list 1..=64 stages".to_owned());
                }
                if let Some(w) = doc.get("width").and_then(Json::as_u64) {
                    if w as usize != names.len() {
                        return Err(format!(
                            "\"width\" is {w} but \"cells\" lists {} stages",
                            names.len()
                        ));
                    }
                }
                names
                    .iter()
                    .map(|n| {
                        n.as_str()
                            .ok_or_else(|| "\"cells\" entries must be strings".to_owned())
                            .and_then(resolve_cell)
                    })
                    .collect::<Result<_, _>>()?
            }
            (None, None) => return Err("one of \"cell\" or \"cells\" is required".to_owned()),
        };
        let width = cells.len();
        let p = prob_field(doc, "p")?.unwrap_or(0.5);
        let pa = prob_list(doc, "pa", width)?.unwrap_or_else(|| vec![p; width]);
        let pb = prob_list(doc, "pb", width)?.unwrap_or_else(|| vec![p; width]);
        let cin = prob_field(doc, "cin")?.unwrap_or(p);
        let profile = InputProfile::new(pa, pb, cin).map_err(|e| e.to_string())?;
        Ok(AdderSpec {
            chain: AdderChain::from_stages(cells),
            profile,
        })
    }
}

impl SimulateSpec {
    fn from_json(doc: &Json) -> Result<SimulateSpec, String> {
        let adder = AdderSpec::from_json(doc)?;
        let exhaustive = match doc.get("mode").and_then(Json::as_str) {
            Some("exhaustive") => true,
            Some("monte_carlo") => false,
            None => doc.get("samples").is_none(),
            Some(other) => {
                return Err(format!(
                    "unknown mode {other:?} (expected exhaustive or monte_carlo)"
                ))
            }
        };
        let mode = if exhaustive {
            // The Monte-Carlo fields would be ignored, so a request that
            // names one is refused rather than answered (and cached) as if
            // it had not.
            if let Some(key) = ["samples", "seed", "threads"]
                .into_iter()
                .find(|key| doc.get(key).is_some())
            {
                return Err(format!("\"{key}\" is meaningless with mode \"exhaustive\""));
            }
            SimMode::Exhaustive
        } else {
            SimMode::MonteCarlo {
                samples: doc
                    .get("samples")
                    .map(|v| {
                        v.as_u64()
                            .ok_or("\"samples\" must be a non-negative integer")
                    })
                    .transpose()?
                    .unwrap_or(1_000_000),
                seed: doc
                    .get("seed")
                    .map(|v| v.as_u64().ok_or("\"seed\" must be a non-negative integer"))
                    .transpose()?
                    .unwrap_or(0xDAC1_7ADD),
                threads: doc
                    .get("threads")
                    .map(|v| {
                        v.as_u64()
                            .filter(|&t| t > 0)
                            .ok_or("\"threads\" must be a positive integer")
                    })
                    .transpose()?
                    .map_or_else(sealpaa_sim::default_threads, |t| t as usize),
            }
        };
        Ok(SimulateSpec { adder, mode })
    }
}

impl GearSpec {
    fn from_json(doc: &Json) -> Result<GearSpec, String> {
        let int = |key: &str| -> Result<usize, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .map(|v| v as usize)
                .ok_or_else(|| format!("\"{key}\" (a non-negative integer) is required"))
        };
        let n = int("n")?;
        if n == 0 || n > 64 {
            return Err("\"n\" must be 1..=64".to_owned());
        }
        Ok(GearSpec {
            n,
            r: int("r")?,
            overlap: int("overlap")?,
            p: prob_field(doc, "p")?.unwrap_or(0.5),
            cin: prob_field(doc, "cin")?.unwrap_or(0.0),
            blocks: doc.get("blocks").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

impl DseSpec {
    fn from_json(doc: &Json) -> Result<DseSpec, String> {
        let width = doc
            .get("width")
            .and_then(Json::as_u64)
            .ok_or("\"width\" (a positive integer) is required")? as usize;
        if width == 0 || width > 64 {
            return Err("\"width\" must be 1..=64".to_owned());
        }
        let candidates: Vec<Cell> = match doc.get("candidates") {
            None | Some(Json::Null) => vec![
                resolve_cell("lpaa1")?,
                resolve_cell("lpaa2")?,
                resolve_cell("lpaa5")?,
                sealpaa_explore::accurate_cell_with_proxy_costs(),
            ],
            Some(v) => {
                let names = v
                    .as_array()
                    .ok_or("\"candidates\" must be an array of cell names")?;
                if names.is_empty() {
                    return Err("\"candidates\" must list at least one cell".to_owned());
                }
                names
                    .iter()
                    .map(|n| {
                        let name = n
                            .as_str()
                            .ok_or_else(|| "\"candidates\" entries must be strings".to_owned())?;
                        // As in the CLI: the accurate cell joins a budgeted
                        // search with the estimated costs from DESIGN.md.
                        if name.eq_ignore_ascii_case("accurate")
                            || name.eq_ignore_ascii_case("accufa")
                        {
                            Ok(sealpaa_explore::accurate_cell_with_proxy_costs())
                        } else {
                            resolve_cell(name)
                        }
                    })
                    .collect::<Result<_, _>>()?
            }
        };
        let p = prob_field(doc, "p")?.unwrap_or(0.5);
        let pa = prob_list(doc, "pa", width)?.unwrap_or_else(|| vec![p; width]);
        let pb = prob_list(doc, "pb", width)?.unwrap_or_else(|| vec![p; width]);
        let cin = prob_field(doc, "cin")?.unwrap_or(p);
        let profile = InputProfile::new(pa, pb, cin).map_err(|e| e.to_string())?;
        let budget = |key: &str| -> Result<Option<f64>, String> {
            match doc.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => {
                    let cap = v
                        .as_f64()
                        .ok_or_else(|| format!("\"{key}\" must be a number"))?;
                    if !cap.is_finite() || cap < 0.0 {
                        return Err(format!(
                            "\"{key}\" must be a non-negative number, got {cap}"
                        ));
                    }
                    Ok(Some(cap))
                }
            }
        };
        Ok(DseSpec {
            candidates,
            profile,
            budget_power: budget("budget_power")?,
            budget_area: budget("budget_area")?,
            threads: doc
                .get("threads")
                .map(|v| {
                    v.as_u64()
                        .filter(|&t| t > 0)
                        .ok_or("\"threads\" must be a positive integer")
                })
                .transpose()?
                .map_or_else(sealpaa_sim::default_threads, |t| t as usize),
            pareto: doc.get("pareto").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

impl ProfileSpec {
    fn from_json(doc: &Json) -> Result<ProfileSpec, String> {
        let width = doc
            .get("width")
            .and_then(Json::as_u64)
            .ok_or("\"width\" (a positive integer) is required")? as usize;
        if width == 0 || width > 64 {
            return Err("\"width\" must be 1..=64".to_owned());
        }
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let source = match (doc.get("synth"), doc.get("trace")) {
            (Some(_), Some(_)) => {
                return Err("\"synth\" and \"trace\" are mutually exclusive".to_owned())
            }
            (Some(v), None) => {
                let name = v.as_str().ok_or("\"synth\" must be a workload name")?;
                let kind: SynthKind = name.parse().map_err(|_| {
                    format!(
                        "unknown workload {name:?} (expected uniform, gaussian-sum, \
                         random-walk or image-gradient)"
                    )
                })?;
                let records = doc
                    .get("records")
                    .map(|v| {
                        v.as_u64()
                            .filter(|&r| r > 0)
                            .ok_or("\"records\" must be a positive integer")
                    })
                    .transpose()?
                    .unwrap_or(1 << 16);
                if records > MAX_PROFILE_RECORDS {
                    return Err(format!("\"records\" must be at most {MAX_PROFILE_RECORDS}"));
                }
                let seed = doc
                    .get("seed")
                    .map(|v| v.as_u64().ok_or("\"seed\" must be a non-negative integer"))
                    .transpose()?
                    .unwrap_or(0);
                ProfileSource::Synth {
                    kind,
                    records,
                    seed,
                }
            }
            (None, Some(v)) => {
                let rows = v
                    .as_array()
                    .ok_or("\"trace\" must be an array of [a, b] or [a, b, cin] rows")?;
                if rows.is_empty() {
                    return Err("\"trace\" must list at least one record".to_owned());
                }
                let mut records = Vec::with_capacity(rows.len());
                for (i, row) in rows.iter().enumerate() {
                    let parts = row
                        .as_array()
                        .ok_or_else(|| format!("\"trace\"[{i}] must be an array"))?;
                    if parts.len() != 2 && parts.len() != 3 {
                        return Err(format!(
                            "\"trace\"[{i}] must be [a, b] or [a, b, cin], got {} items",
                            parts.len()
                        ));
                    }
                    let operand = |j: usize, name: &str| -> Result<u64, String> {
                        let value = parts[j].as_u64().ok_or_else(|| {
                            format!("\"trace\"[{i}][{j}] ({name}) must be a non-negative integer")
                        })?;
                        if value & !mask != 0 {
                            return Err(format!(
                                "\"trace\"[{i}][{j}] ({name}) does not fit width {width}"
                            ));
                        }
                        Ok(value)
                    };
                    let a = operand(0, "a")?;
                    let b = operand(1, "b")?;
                    let cin = match parts.get(2) {
                        None => false,
                        Some(Json::Bool(flag)) => *flag,
                        Some(v) => match v.as_u64() {
                            Some(0) => false,
                            Some(1) => true,
                            _ => {
                                return Err(format!(
                                    "\"trace\"[{i}][2] (cin) must be 0, 1, true or false"
                                ))
                            }
                        },
                    };
                    records.push(TraceRecord::new(a, b, cin));
                }
                ProfileSource::Inline(records)
            }
            (None, None) => return Err("one of \"synth\" or \"trace\" is required".to_owned()),
        };
        Ok(ProfileSpec { width, source })
    }
}

/// Renders a success response line directly around an already-rendered
/// `result` payload — the cache-hit fast path. Byte-identical to
/// `ok_response(id, kind, cached, micros, result).render()` when
/// `result.render() == rendered_result`, without parsing the payload back
/// into a tree only to re-render it. `kind` must be one of the static
/// request-kind identifiers (never needs JSON escaping).
#[must_use]
pub fn render_ok_response(
    id: Option<&Json>,
    kind: &str,
    cached: bool,
    micros: u64,
    rendered_result: &str,
) -> String {
    let mut out = String::with_capacity(rendered_result.len() + 80);
    out.push('{');
    if let Some(id) = id {
        out.push_str("\"id\":");
        out.push_str(&id.render());
        out.push(',');
    }
    let _ = write!(
        out,
        "\"ok\":true,\"kind\":\"{kind}\",\"cached\":{cached},\"micros\":{micros},\"result\":"
    );
    out.push_str(rendered_result);
    out.push('}');
    out
}

/// Renders one successful `batch` sub-response around an already-rendered
/// `result` payload — the same fast path as [`render_ok_response`], minus
/// `micros` (the batch reports one aggregate latency).
#[must_use]
pub fn render_sub_ok_response(
    id: Option<&Json>,
    kind: &str,
    cached: bool,
    rendered_result: &str,
) -> String {
    let mut out = String::with_capacity(rendered_result.len() + 64);
    write_sub_ok_response(&mut out, id, kind, cached, rendered_result);
    out
}

/// Appends one successful `batch` sub-response directly onto `out` —
/// exactly the bytes of [`render_sub_ok_response`], without the
/// intermediate allocation. Used when assembling a large batch response in
/// place.
pub fn write_sub_ok_response(
    out: &mut String,
    id: Option<&Json>,
    kind: &str,
    cached: bool,
    rendered_result: &str,
) {
    out.push('{');
    if let Some(id) = id {
        out.push_str("\"id\":");
        out.push_str(&id.render());
        out.push(',');
    }
    let _ = write!(
        out,
        "\"ok\":true,\"kind\":\"{kind}\",\"cached\":{cached},\"result\":"
    );
    out.push_str(rendered_result);
    out.push('}');
}

/// Renders a whole successful `batch` response around already-rendered,
/// comma-joined sub-responses: the envelope and the aggregate result object
/// are spliced in one pass, byte-identical to building
/// `{"count":…,"computed":…,"results":[…]}` as a tree and wrapping it with
/// [`ok_response`], without ever copying the (potentially large) joined
/// sub-responses twice.
#[must_use]
pub fn render_batch_ok_response(
    id: Option<&Json>,
    cached: bool,
    micros: u64,
    count: u64,
    computed: u64,
    joined_subs: &str,
) -> String {
    let mut out = String::with_capacity(joined_subs.len() + 160);
    out.push('{');
    if let Some(id) = id {
        out.push_str("\"id\":");
        out.push_str(&id.render());
        out.push(',');
    }
    let _ = write!(
        out,
        "\"ok\":true,\"kind\":\"batch\",\"cached\":{cached},\"micros\":{micros},\"result\":\
         {{\"count\":{count},\"computed\":{computed},\"results\":["
    );
    out.push_str(joined_subs);
    out.push_str("]}}");
    out
}

/// Builds a success response line (without the trailing newline).
pub fn ok_response(id: Option<&Json>, kind: &str, cached: bool, micros: u64, result: Json) -> Json {
    let mut obj = JsonObject::default();
    if let Some(id) = id {
        obj = obj.field("id", id.clone());
    }
    obj.field("ok", true)
        .field("kind", kind)
        .field("cached", cached)
        .field("micros", micros)
        .field("result", result)
        .build()
}

/// Builds one successful sub-response object of a `batch` response — the
/// same shape as a top-level success minus `micros` (the batch reports one
/// aggregate latency).
pub fn sub_ok_response(id: Option<&Json>, kind: &str, cached: bool, result: Json) -> Json {
    let mut obj = JsonObject::default();
    if let Some(id) = id {
        obj = obj.field("id", id.clone());
    }
    obj.field("ok", true)
        .field("kind", kind)
        .field("cached", cached)
        .field("result", result)
        .build()
}

/// Builds an error response line (without the trailing newline).
pub fn error_response(id: Option<&Json>, message: &str) -> Json {
    let mut obj = JsonObject::default();
    if let Some(id) = id {
        obj = obj.field("id", id.clone());
    }
    obj.field("ok", false).field("error", message).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_request_kind() {
        let cases = [
            (
                r#"{"kind":"analyze","width":4,"cell":"lpaa1","p":0.1}"#,
                "analyze",
            ),
            (
                r#"{"kind":"simulate","cells":["lpaa1","accurate"],"samples":1000,"seed":7}"#,
                "simulate",
            ),
            (r#"{"kind":"compare","width":3,"cell":"lpaa5"}"#, "compare"),
            (r#"{"kind":"gear","n":8,"r":2,"overlap":2}"#, "gear"),
            (
                r#"{"kind":"blocks","config":"4:0:accurate,2:2:lpaa1","p":0.3,"cdf":true}"#,
                "blocks",
            ),
            (
                r#"{"kind":"dse","width":4,"p":0.3,"budget_power":3000,"threads":2}"#,
                "dse",
            ),
            (
                r#"{"kind":"profile","width":8,"synth":"random-walk","records":4096,"seed":7}"#,
                "profile",
            ),
            (
                r#"{"kind":"profile","width":4,"trace":[[3,5],[15,0,1],[7,7,true]]}"#,
                "profile",
            ),
            (
                r#"{"kind":"datapath","width":8,"cell":"lpaa5","coefficients":[1,2,1]}"#,
                "datapath",
            ),
            (
                r#"{"kind":"datapath","topology":"conv2d","width":8,"cell":"lpaa2","kernel":[[1,2],[2,4]],"pmf":true}"#,
                "datapath",
            ),
            (
                r#"{"kind":"datapath","topology":"multiplier","width":6,"cell":"lpaa1","p":0.3}"#,
                "datapath",
            ),
            (
                r#"{"kind":"batch","requests":[{"kind":"analyze","width":2,"cell":"lpaa1"}]}"#,
                "batch",
            ),
            (r#"{"kind":"stats"}"#, "stats"),
            (r#"{"kind":"shutdown"}"#, "shutdown"),
        ];
        for (line, kind) in cases {
            let req = Request::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(req.body.kind(), kind);
        }
    }

    #[test]
    fn id_is_preserved_any_json_type() {
        let req = Request::parse(r#"{"id":17,"kind":"stats"}"#).expect("valid");
        assert_eq!(req.id, Some(Json::Number(17.0)));
        let req = Request::parse(r#"{"id":"abc","kind":"stats"}"#).expect("valid");
        assert_eq!(req.id, Some(Json::from("abc")));
        let req = Request::parse(r#"{"kind":"stats"}"#).expect("valid");
        assert_eq!(req.id, None);
    }

    #[test]
    fn analyze_profile_fields() {
        let req = Request::parse(
            r#"{"kind":"analyze","width":2,"cell":"lpaa1","pa":[0.1,0.2],"pb":[0.3,0.4],"cin":0.9}"#,
        )
        .expect("valid");
        let RequestBody::Analyze(spec) = req.body else {
            panic!("wrong kind")
        };
        assert_eq!(*spec.profile.pa(1), 0.2);
        assert_eq!(*spec.profile.pb(0), 0.3);
        assert_eq!(*spec.profile.p_cin(), 0.9);
        assert_eq!(spec.chain.width(), 2);
    }

    #[test]
    fn custom_truth_table_cells_resolve() {
        let accurate = TruthTable::accurate().to_spec_string();
        let req = Request::parse(&format!(
            r#"{{"kind":"analyze","width":2,"cell":"{accurate}"}}"#
        ))
        .expect("valid");
        let RequestBody::Analyze(spec) = req.body else {
            panic!("wrong kind")
        };
        assert!(spec.chain.is_accurate());
    }

    #[test]
    fn simulate_mode_selection() {
        let exhaustive =
            Request::parse(r#"{"kind":"simulate","width":3,"cell":"lpaa1"}"#).expect("valid");
        let RequestBody::Simulate(s) = exhaustive.body else {
            panic!()
        };
        assert_eq!(s.mode, SimMode::Exhaustive);

        let mc = Request::parse(
            r#"{"kind":"simulate","width":3,"cell":"lpaa1","samples":10,"threads":2}"#,
        )
        .expect("valid");
        let RequestBody::Simulate(s) = mc.body else {
            panic!()
        };
        assert_eq!(
            s.mode,
            SimMode::MonteCarlo {
                samples: 10,
                seed: 0xDAC1_7ADD,
                threads: 2
            }
        );
    }

    #[test]
    fn dse_defaults_match_the_cli() {
        let req = Request::parse(r#"{"kind":"dse","width":3}"#).expect("valid");
        let RequestBody::Dse(spec) = req.body else {
            panic!("wrong kind")
        };
        let names: Vec<&str> = spec.candidates.iter().map(Cell::name).collect();
        assert_eq!(names, ["LPAA 1", "LPAA 2", "LPAA 5", "AccuFA (est.)"]);
        assert_eq!(spec.profile.width(), 3);
        assert_eq!(spec.budget_power, None);
        assert_eq!(spec.budget_area, None);
        assert_eq!(spec.threads, sealpaa_sim::default_threads());
        assert!(!spec.pareto);
        // The estimated-cost accurate cell is searchable under a budget.
        assert!(spec.candidates[3].characteristics().is_some());
    }

    #[test]
    fn batch_carries_per_item_errors_without_failing_the_batch() {
        let req = Request::parse(
            r#"{"id":"sweep","kind":"batch","requests":[
                {"id":1,"kind":"analyze","width":2,"cell":"lpaa1"},
                {"id":2,"kind":"analyze","width":0,"cell":"lpaa1"},
                {"id":3,"kind":"gear","n":8,"r":2,"overlap":2}
            ]}"#,
        )
        .expect("batch parses despite the bad item");
        assert_eq!(req.id, Some(Json::from("sweep")));
        let RequestBody::Batch(spec) = req.body else {
            panic!("wrong kind")
        };
        assert_eq!(spec.items.len(), 3);
        assert_eq!(spec.items[0].id, Some(Json::Number(1.0)));
        assert!(parsed(&spec.items[0]).is_ok());
        let err = parsed(&spec.items[1])
            .as_ref()
            .expect_err("width 0 is invalid");
        assert!(err.contains("1..=64"), "{err}");
        assert_eq!(
            parsed(&spec.items[2]).as_ref().map(RequestBody::kind),
            Ok("gear")
        );
    }

    /// Unwraps a batch item expected to carry its own parse (not a
    /// back-reference).
    fn parsed(item: &BatchItem) -> &Result<RequestBody, String> {
        match &item.body {
            BatchBody::Parsed(result) => result,
            BatchBody::DuplicateOf(j) => panic!("unexpected duplicate of item {j}"),
        }
    }

    #[test]
    fn batch_duplicates_back_reference_their_original() {
        let req = Request::parse(
            r#"{"kind":"batch","requests":[
                {"id":1,"kind":"analyze","width":2,"cell":"lpaa1"},
                {"id":2,"kind":"analyze","width":2,"cell":"lpaa1"},
                {"id":3,"kind":"analyze","width":3,"cell":"lpaa1"},
                {"id":4,"kind":"analyze","width":2,"cell":"lpaa1"}
            ]}"#,
        )
        .expect("valid batch");
        let RequestBody::Batch(spec) = req.body else {
            panic!("wrong kind")
        };
        assert!(parsed(&spec.items[0]).is_ok());
        assert_eq!(spec.items[1].body, BatchBody::DuplicateOf(0));
        assert!(parsed(&spec.items[2]).is_ok(), "width differs: no dedup");
        assert_eq!(spec.items[3].body, BatchBody::DuplicateOf(0));
        // Ids stay per-item even when the request body is shared.
        assert_eq!(spec.items[3].id, Some(Json::Number(4.0)));
    }

    #[test]
    fn batch_dedup_is_field_order_sensitive() {
        // Reordered keys are *not* treated as duplicates: the comparison is
        // structural on the raw rows, so only byte-identical shapes share a
        // parse. Both items still resolve to the same request.
        let req = Request::parse(
            r#"{"kind":"batch","requests":[
                {"kind":"analyze","width":2,"cell":"lpaa1"},
                {"kind":"analyze","cell":"lpaa1","width":2}
            ]}"#,
        )
        .expect("valid batch");
        let RequestBody::Batch(spec) = req.body else {
            panic!("wrong kind")
        };
        assert_eq!(parsed(&spec.items[0]), parsed(&spec.items[1]));
    }

    #[test]
    fn batch_rejects_control_and_nested_kinds_per_item() {
        let req = Request::parse(
            r#"{"kind":"batch","requests":[
                {"kind":"shutdown"},
                {"kind":"stats"},
                {"kind":"batch","requests":[{"kind":"stats"}]},
                17
            ]}"#,
        )
        .expect("the batch itself is well-formed");
        let RequestBody::Batch(spec) = req.body else {
            panic!("wrong kind")
        };
        for (item, needle) in spec.items.iter().zip([
            "not allowed inside a batch",
            "not allowed inside a batch",
            "not allowed inside a batch",
            "must be a JSON object",
        ]) {
            let err = parsed(item).as_ref().expect_err("rejected item");
            assert!(err.contains(needle), "{err} (wanted {needle})");
        }
    }

    #[test]
    fn batch_structural_errors_fail_the_whole_request() {
        for (line, needle) in [
            (r#"{"kind":"batch"}"#, "\"requests\""),
            (r#"{"kind":"batch","requests":{}}"#, "\"requests\""),
            (r#"{"kind":"batch","requests":[]}"#, "at least one"),
        ] {
            let err = Request::parse(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
        let too_many: Vec<String> = (0..=MAX_BATCH_ITEMS)
            .map(|_| r#"{"kind":"stats"}"#.to_owned())
            .collect();
        let line = format!(r#"{{"kind":"batch","requests":[{}]}}"#, too_many.join(","));
        let err = Request::parse(&line).expect_err("over the item limit");
        assert!(err.contains("limit is"), "{err}");
    }

    #[test]
    fn sub_ok_response_has_the_pinned_shape() {
        let sub = sub_ok_response(
            Some(&Json::Number(4.0)),
            "analyze",
            true,
            Json::object().field("x", 1u64).build(),
        );
        let parsed = Json::parse(&sub.render()).expect("own output parses");
        assert_eq!(parsed.get("id").and_then(Json::as_u64), Some(4));
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("analyze"));
        assert_eq!(parsed.get("cached").and_then(Json::as_bool), Some(true));
        assert!(
            parsed.get("micros").is_none(),
            "sub-responses carry no micros"
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_messages() {
        for (line, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"id":1}"#, "kind"),
            (r#"{"kind":"frobnicate"}"#, "unknown kind"),
            // The advertised vocabulary includes every served kind.
            (r#"{"kind":"frobnicate"}"#, "profile"),
            (r#"{"kind":"frobnicate"}"#, "batch"),
            (r#"{"kind":"analyze"}"#, "\"cell\""),
            (r#"{"kind":"analyze","cell":"lpaa1"}"#, "\"width\""),
            (r#"{"kind":"analyze","width":0,"cell":"lpaa1"}"#, "1..=64"),
            (
                r#"{"kind":"analyze","width":2,"cell":"nope"}"#,
                "unknown cell",
            ),
            (
                r#"{"kind":"analyze","width":2,"cell":"lpaa1","p":1.5}"#,
                "[0, 1]",
            ),
            (
                r#"{"kind":"analyze","width":3,"cell":"lpaa1","pa":[0.5]}"#,
                "3 stages",
            ),
            (
                r#"{"kind":"analyze","width":2,"cell":"lpaa1","cells":["lpaa1","lpaa1"]}"#,
                "mutually exclusive",
            ),
            (
                r#"{"kind":"simulate","width":2,"cell":"lpaa1","mode":"quantum"}"#,
                "unknown mode",
            ),
            (
                r#"{"kind":"simulate","width":4,"cell":"lpaa1","mode":"exhaustive","samples":10}"#,
                "\"samples\" is meaningless with mode \"exhaustive\"",
            ),
            (
                r#"{"kind":"simulate","width":4,"cell":"lpaa1","threads":3,"seed":9}"#,
                "\"seed\" is meaningless with mode \"exhaustive\"",
            ),
            (
                r#"{"kind":"simulate","width":4,"cell":"lpaa1","threads":3}"#,
                "\"threads\" is meaningless with mode \"exhaustive\"",
            ),
            (
                r#"{"kind":"simulate","width":4,"cell":"lpaa1","mode":"exhaustive","seed":9}"#,
                "\"seed\" is meaningless with mode \"exhaustive\"",
            ),
            (
                r#"{"kind":"simulate","width":4,"cell":"lpaa1","mode":"exhaustive","threads":2}"#,
                "\"threads\" is meaningless with mode \"exhaustive\"",
            ),
            (r#"{"kind":"gear","n":8}"#, "\"r\""),
            (
                r#"{"kind":"gear","n":0,"r":1,"overlap":0}"#,
                "\"n\" must be 1..=64",
            ),
            (
                r#"{"kind":"gear","n":65,"r":1,"overlap":0}"#,
                "\"n\" must be 1..=64",
            ),
            (r#"{"kind":"blocks"}"#, "\"config\""),
            (r#"{"kind":"blocks","config":"4:9:accurate"}"#, "\"config\""),
            (
                r#"{"kind":"blocks","config":"2:0:accurate,2:1:accurate","pa":[0.5]}"#,
                "4 stages",
            ),
            (r#"{"kind":"dse"}"#, "\"width\""),
            (r#"{"kind":"dse","width":0}"#, "1..=64"),
            (
                r#"{"kind":"dse","width":4,"candidates":[]}"#,
                "at least one",
            ),
            (
                r#"{"kind":"dse","width":4,"threads":0}"#,
                "positive integer",
            ),
            (
                r#"{"kind":"simulate","width":4,"cell":"lpaa1","mode":"monte_carlo","threads":0}"#,
                "positive integer",
            ),
            (
                r#"{"kind":"dse","width":4,"budget_power":-1}"#,
                "non-negative",
            ),
            (r#"{"kind":"profile"}"#, "\"width\""),
            (
                r#"{"kind":"profile","width":65,"synth":"uniform"}"#,
                "1..=64",
            ),
            (r#"{"kind":"profile","width":4}"#, "\"synth\" or \"trace\""),
            (
                r#"{"kind":"profile","width":4,"synth":"uniform","trace":[[1,2]]}"#,
                "mutually exclusive",
            ),
            (
                r#"{"kind":"profile","width":4,"synth":"polka"}"#,
                "unknown workload",
            ),
            (
                r#"{"kind":"profile","width":4,"synth":"uniform","records":0}"#,
                "positive integer",
            ),
            (
                r#"{"kind":"profile","width":4,"synth":"uniform","records":999999999999}"#,
                "at most",
            ),
            (r#"{"kind":"profile","width":4,"trace":[]}"#, "at least one"),
            (
                r#"{"kind":"profile","width":4,"trace":[[1,2,3,4]]}"#,
                "[a, b] or [a, b, cin]",
            ),
            (
                r#"{"kind":"profile","width":4,"trace":[[16,2]]}"#,
                "does not fit width",
            ),
            (r#"{"kind":"profile","width":4,"trace":[[1,2,7]]}"#, "cin"),
            (r#"{"kind":"datapath","cell":"lpaa1"}"#, "\"width\""),
            (r#"{"kind":"datapath","width":8}"#, "\"cell\""),
            (
                r#"{"kind":"datapath","width":33,"cell":"lpaa1","coefficients":[1]}"#,
                "1..=32",
            ),
            (
                r#"{"kind":"datapath","width":8,"cell":"lpaa1"}"#,
                "\"coefficients\"",
            ),
            (
                r#"{"kind":"datapath","width":8,"cell":"lpaa1","coefficients":[0,0]}"#,
                "non-zero tap",
            ),
            (
                r#"{"kind":"datapath","topology":"conv2d","width":8,"cell":"lpaa1","kernel":[[1,2],[3]]}"#,
                "equal length",
            ),
            (
                r#"{"kind":"datapath","topology":"torus","width":8,"cell":"lpaa1"}"#,
                "unknown topology",
            ),
        ] {
            let err = Request::parse(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err} (wanted {needle})");
        }
    }

    #[test]
    fn responses_round_trip_through_the_parser() {
        let ok = ok_response(
            Some(&Json::Number(3.0)),
            "analyze",
            true,
            125,
            Json::object().field("error_probability", 0.25).build(),
        );
        let parsed = Json::parse(&ok.render()).expect("own output parses");
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("micros").and_then(Json::as_u64), Some(125));
        assert_eq!(
            parsed
                .get("result")
                .and_then(|r| r.get("error_probability"))
                .and_then(Json::as_f64),
            Some(0.25)
        );

        let err = error_response(None, "boom \"quoted\"");
        let parsed = Json::parse(&err.render()).expect("own output parses");
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some("boom \"quoted\"")
        );
    }

    #[test]
    fn oversized_lines_are_rejected() {
        let huge = format!(
            r#"{{"kind":"stats","pad":"{}"}}"#,
            "x".repeat(MAX_LINE_BYTES)
        );
        assert!(Request::parse(&huge)
            .expect_err("too big")
            .contains("bytes"));
    }
}
