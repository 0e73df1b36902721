//! Service-level benchmark of the netsched decision path.
//!
//! ```text
//! perfbench --workload <clos10k_single|fabric6_paper|mesh64_ingest>
//!           --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Every workload drives `SchedulerService` through its public API, checks
//! every decision, and prints one line per metric followed by a JSON result
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics of
//! the traced replay with `--trace 1` (spans go to `<out-dir>/trace-*.jsonl`).
//! See `README.md` next to this package for the workloads and the metrics.

mod clos;
mod fabric;
mod harness;
mod mesh;
mod replay;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{median_or_zero, metric, Metric, Outcome, Tracer};
use replay::Replay;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// The seed the baseline was recorded at.
pub const PRIMARY_SEED: u64 = 1;
/// Held back for validating later claims only.
pub const VALIDATION_SEED: u64 = 20_251;

/// Every workload this program runs. `BENCHMARK.json` gates all but
/// `clos10k_single`, whose timings follow the host's speed phases too
/// closely for a bound (see `README.md`); it runs by hand.
pub const WORKLOADS: [&str; 3] = ["clos10k_single", "fabric6_paper", "mesh64_ingest"];

/// Every end-to-end metric, in output order, with its unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("decision_p50_ms", "ms"),
    ("decision_p95_ms", "ms"),
    ("decisions_per_s", "1/s"),
    ("ingest_samples_per_s", "1/s"),
    ("top1_accuracy", "share"),
    ("top2_accuracy", "share"),
    ("speedup_vs_default", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, in output order, with its unit.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("telemetry.publish_ms", "ms"),
    ("telemetry.ingest_round_ms", "ms"),
    ("telemetry.samples_per_round", "count"),
    ("telemetry.epochs_published", "count"),
    ("telemetry.index_ms", "ms"),
    ("fetcher.adopt_us", "us"),
    ("fetcher.new_epoch_share", "share"),
    ("cluster.feasibility_ms", "ms"),
    ("cluster.rebuild_share", "share"),
    ("cluster.feasible_nodes", "count"),
    ("cluster.bind_us", "us"),
    ("context.rank_ms", "ms"),
    ("context.ranked_nodes", "count"),
    ("features.row_ns", "ns"),
    ("mlcore.predict_row_ns", "ns"),
    ("mlcore.full_score_ms", "ms"),
    ("mlcore.fit_ms", "ms"),
    ("builder.manifest_us", "us"),
    ("trace.overhead_share", "share"),
    ("trace.unaccounted_share", "share"),
    ("trace.decision_p50_ms", "ms"),
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The per-layer metrics the traced replay's spans and probes give, common
/// to every workload.
pub fn layer_metrics(out: &mut Outcome, tracer: &Tracer, replay: &mut Replay) {
    let untraced_p50 = out
        .end_to_end
        .iter()
        .find(|m| m.name == "decision_p50_ms")
        .map_or(0.0, |m| m.value);
    let traced_p50_ms = tracer.median_ns(harness::ROOT) / 1e6;
    let layers = &mut replay.layers;
    out.per_layer.extend([
        metric(
            "telemetry.index_ms",
            tracer.median_ns("telemetry.index") / 1e6,
            "ms",
        ),
        metric(
            "fetcher.adopt_us",
            tracer.median_ns("fetcher.adopt") / 1e3,
            "us",
        ),
        metric(
            "cluster.feasibility_ms",
            tracer.median_ns("cluster.feasibility") / 1e6,
            "ms",
        ),
        metric("cluster.feasible_nodes", mean(&layers.feasible), "count"),
        metric(
            "context.rank_ms",
            tracer.median_ns("context.rank") / 1e6,
            "ms",
        ),
        metric("context.ranked_nodes", mean(&layers.ranked), "count"),
        metric("features.row_ns", median_or_zero(&mut layers.row_ns), "ns"),
        metric(
            "mlcore.predict_row_ns",
            median_or_zero(&mut layers.predict_row_ns),
            "ns",
        ),
        metric(
            "mlcore.full_score_ms",
            median_or_zero(&mut layers.full_score_ms),
            "ms",
        ),
        metric(
            "builder.manifest_us",
            tracer.median_ns("builder.manifest") / 1e3,
            "us",
        ),
        metric(
            "trace.overhead_share",
            if untraced_p50 > 0.0 {
                traced_p50_ms / untraced_p50 - 1.0
            } else {
                0.0
            },
            "share",
        ),
        metric(
            "trace.unaccounted_share",
            tracer.unaccounted_share(),
            "share",
        ),
        metric("trace.decision_p50_ms", traced_p50_ms, "ms"),
    ]);
    out.stages = tracer.stage_table();
}

/// Order `metrics` like `spec` and check that the names and units match it
/// exactly.
fn conform(metrics: &[Metric], spec: &[(&str, &str)]) -> Result<Vec<Metric>, String> {
    let mut ordered = Vec::with_capacity(spec.len());
    for &(name, unit) in spec {
        let m = metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if m.unit != unit {
            return Err(format!("metric {name} has unit {} not {unit}", m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", m.value));
        }
        ordered.push(m.clone());
    }
    if metrics.len() != spec.len() {
        return Err(format!(
            "{} metrics measured, {} declared",
            metrics.len(),
            spec.len()
        ));
    }
    Ok(ordered)
}

fn json_metrics(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let load_threads = match args.workload.as_str() {
        "clos10k_single" => clos::LOAD_THREADS,
        "fabric6_paper" => fabric::LOAD_THREADS,
        _ => mesh::LOAD_THREADS,
    };
    let cores = cores();
    println!(
        "workload {} seed {} cores {cores} load_threads {load_threads}",
        args.workload, args.seed
    );
    if load_threads > cores {
        eprintln!("perfbench: {load_threads} load threads exceed the {cores} available core(s)");
        return ExitCode::from(3);
    }
    // Nothing the benchmark calls should write reports, but if anything
    // did, it lands in the benchmark's own output directory.
    std::env::set_var("NETSCHED_RESULTS_DIR", &args.out_dir);

    let (outcome, tracer) = match args.workload.as_str() {
        "clos10k_single" => clos::run(&args),
        "fabric6_paper" => fabric::run(&args),
        _ => mesh::run(&args),
    };

    for (key, value) in &outcome.notes {
        println!("note {key}: {value}");
    }
    let failed_share = outcome.checks.failed as f64 / outcome.checks.attempted.max(1) as f64;
    println!(
        "failed_share {failed_share} share ({} of {} decisions)",
        outcome.checks.failed, outcome.checks.attempted
    );
    for (check, count) in &outcome.checks.reasons {
        println!("failed check {check}: {count}");
    }
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    if !outcome.stages.is_empty() {
        println!("stage                  count     p50_us     p95_us   total_ms");
        for row in &outcome.stages {
            println!(
                "{:<20} {:>7} {:>10.3} {:>10.3} {:>10.1}",
                row.name, row.count, row.p50_us, row.p95_us, row.total_ms
            );
        }
    }
    if let Some(tracer) = &tracer {
        let path = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("spans written to {}", path.display());
    }

    let reported = if args.trace {
        conform(&outcome.per_layer, &PER_LAYER)
    } else {
        conform(&outcome.end_to_end, &END_TO_END)
    };
    let reported = match reported {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.failed == 0 && outcome.checks.attempted > 0,
        outcome.checks.attempted.max(1),
        outcome.checks.failed,
        json_metrics(&reported)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the metrics
    /// this program reports, and the workloads it gates.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let declared = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[start..].find(']').expect("array end") + start;
            text[start..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).map(|i| i + f.len() + 2);
                        at.map_or(String::new(), |i| {
                            let rest = &entry[i..];
                            let open = rest.find('"').expect("value") + 1;
                            let close = rest[open..].find('"').expect("close") + open;
                            rest[open..close].to_string()
                        })
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |spec: &[(&str, &str)]| -> Vec<(String, String)> {
            spec.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, ["fabric6_paper", "mesh64_ingest"]);
        assert_ne!(PRIMARY_SEED, VALIDATION_SEED);
    }
}
