//! In-process engine calls: the public entry point each request kind
//! dispatches to inside the daemon (whose own dispatcher is crate-private).
//! Used to recompute sampled `cold_route` answers and, in the traced run,
//! to time each engine as its own layer.

use sealpaa_server::json::Json;
use sealpaa_server::protocol::{DatapathTopology, ProfileSource, RequestBody, SimMode};

/// Each engine request kind, the span (and per-layer metric stem) of the
/// engine it runs, and that engine's public entry point.
pub const ENGINE_KINDS: &[(&str, &str, &str)] = &[
    ("analyze", "core.analyze", "sealpaa_core::analyze"),
    ("simulate", "sim.simulate", "sealpaa_sim::monte_carlo"),
    (
        "compare",
        "inclexcl.compare",
        "sealpaa_core::analyze + sealpaa_inclexcl::error_probability",
    ),
    ("gear", "gear.error", "sealpaa_gear::error_probability"),
    (
        "blocks",
        "blocks.distribution",
        "sealpaa_blocks::error_distance_distribution",
    ),
    (
        "dse",
        "explore.dse",
        "sealpaa_explore::exhaustive_best_with",
    ),
    (
        "profile",
        "trace.profile",
        "sealpaa_trace::generate + TraceStats::from_records",
    ),
    (
        "datapath",
        "propagate.predict",
        "sealpaa_propagate::predict",
    ),
];

/// The span name of the engine a request kind runs.
pub fn span_name(kind: &str) -> &'static str {
    ENGINE_KINDS
        .iter()
        .find(|(k, _, _)| *k == kind)
        .map_or("engine.none", |(_, span, _)| span)
}

/// Result fields (dotted paths into the answer's `result`) and the values
/// the engine produces for them.
pub type Expected = Vec<(&'static str, Json)>;

/// Runs the engine behind `body` and returns the answer fields it fixes.
pub fn compute(body: &RequestBody) -> Result<Expected, String> {
    let num = Json::Number;
    let text = |e: &dyn std::fmt::Display| e.to_string();
    Ok(match body {
        RequestBody::Analyze(spec) => {
            let a = sealpaa_core::analyze(&spec.chain, &spec.profile).map_err(|e| text(&e))?;
            vec![("error_probability", num(a.error_probability()))]
        }
        RequestBody::Simulate(spec) => {
            let SimMode::MonteCarlo {
                samples,
                seed,
                threads,
            } = spec.mode
            else {
                return Err("only Monte-Carlo simulation is recomputed".to_owned());
            };
            let config = sealpaa_sim::MonteCarloConfig {
                samples,
                seed,
                threads,
                backend: None,
            };
            let r = sealpaa_sim::monte_carlo(&spec.adder.chain, &spec.adder.profile, config)
                .map_err(|e| text(&e))?;
            vec![
                ("error_samples", num(r.error_samples as f64)),
                ("error_probability", num(r.error_probability())),
            ]
        }
        RequestBody::Compare(spec) => {
            let a = sealpaa_core::analyze(&spec.chain, &spec.profile).map_err(|e| text(&e))?;
            let (baseline, terms) = sealpaa_inclexcl::error_probability(&spec.chain, &spec.profile)
                .map_err(|e| text(&e))?;
            vec![
                ("proposed", num(a.error_probability())),
                ("inclusion_exclusion", num(baseline)),
                ("terms", num(terms as f64)),
            ]
        }
        RequestBody::Gear(spec) => {
            let config = sealpaa_gear::GearConfig::new(spec.n, spec.r, spec.overlap)
                .map_err(|e| text(&e))?;
            let pa = vec![spec.p; spec.n];
            let p = sealpaa_gear::error_probability(&config, &pa, &pa, spec.cin)
                .map_err(|e| text(&e))?;
            vec![("error_probability", num(p))]
        }
        RequestBody::Blocks(spec) => {
            let d = sealpaa_blocks::error_distance_distribution(&spec.config, &spec.profile)
                .map_err(|e| text(&e))?;
            vec![("error_rate", num(d.error_rate())), ("mean", num(d.mean()))]
        }
        RequestBody::Dse(spec) => {
            let budget = sealpaa_explore::Budget {
                max_power_nw: spec.budget_power,
                max_area_ge: spec.budget_area,
            };
            let best = sealpaa_explore::exhaustive_best_with(
                &spec.candidates,
                &spec.profile,
                &budget,
                spec.threads,
            )
            .map_err(|e| text(&e))?
            .ok_or("no design fits the budget")?;
            vec![
                ("best.chain", Json::String(best.chain.to_string())),
                (
                    "best.error_probability",
                    num(best.evaluation.error_probability),
                ),
            ]
        }
        RequestBody::Profile(spec) => {
            let ProfileSource::Synth {
                kind,
                records,
                seed,
            } = &spec.source
            else {
                return Err("only synthetic profiles are recomputed".to_owned());
            };
            let trace = sealpaa_trace::generate(*kind, spec.width, *records as usize, *seed)
                .map_err(|e| text(&e))?;
            let stats = sealpaa_trace::TraceStats::from_records(spec.width, &trace)
                .map_err(|e| text(&e))?;
            vec![
                ("records", num(stats.records() as f64)),
                (
                    "independence_violation",
                    num(stats.independence_violation()),
                ),
            ]
        }
        RequestBody::Datapath(spec) => {
            use sealpaa_propagate::topologies;
            let topo = match &spec.topology {
                DatapathTopology::Fir { coefficients } => {
                    topologies::fir(&spec.cell, coefficients, spec.width)
                }
                DatapathTopology::Conv2d { kernel } => {
                    topologies::conv2d(&spec.cell, kernel, spec.width)
                }
                DatapathTopology::Multiplier => topologies::multiplier(&spec.cell, spec.width),
            }
            .map_err(|e| text(&e))?;
            let inputs: Vec<(&str, Vec<f64>)> = topo
                .inputs
                .iter()
                .map(|name| {
                    let bits = topo
                        .datapath
                        .signals()
                        .find(|&s| {
                            matches!(topo.datapath.kind(s),
                                     sealpaa_datapath::NodeKind::Input { name: n } if n == name)
                        })
                        .map_or(spec.width, |s| topo.datapath.width(s));
                    (name.as_str(), vec![spec.p; bits])
                })
                .collect();
            let prediction =
                sealpaa_propagate::predict(&topo.datapath, topo.output, &inputs, spec.pmf)
                    .map_err(|e| text(&e))?;
            vec![("mse", num(prediction.moments.error_second))]
        }
        RequestBody::Batch(_) | RequestBody::Stats | RequestBody::Shutdown => {
            return Err(format!("{} runs no engine", body.kind()));
        }
    })
}

/// Whether an answer's `result` agrees with `expected`: strings exactly,
/// numbers to a relative 1e-12 (both sides come from the same engine; the
/// slack only absorbs decimal round trips).
pub fn matches(result: &Json, expected: &Expected) -> bool {
    expected.iter().all(|(path, want)| {
        let got = path.split('.').try_fold(result, |d, k| d.get(k));
        match (got, want) {
            (Some(Json::Number(a)), Json::Number(b)) => {
                a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
            }
            (Some(a), b) => a == b,
            (None, _) => false,
        }
    })
}
