//! Bench: per-row vs batch inference latency of each model family.
//!
//! The scheduler ranks every feasible candidate per decision, so inference
//! latency bounds decision throughput. Inference is batch-first: one
//! contiguous candidate × feature matrix walks the packed trees in groups
//! (every row through several trees at once), instead of re-walking the
//! whole ensemble once per candidate. This bench measures a 16-candidate
//! decision for all three paper families:
//!
//! * `per_row_16/<family>` — 16 sequential `predict_from_features` calls
//!   (the pre-refactor decision shape).
//! * `batch_16/<family>` — one `predict_batch_into` call over the same 16
//!   rows. Predictions are bit-identical to the per-row path (pinned by
//!   `tests/model_batch.rs`); only wall-clock changes.
//! * `single_row/<family>` — one-candidate floor, for reference.
//! * `features_64x24/{per_row,job_row}` — feature construction for one
//!   burst of 24 jobs over 64 nodes (the `mesh64_ingest` shape): every row
//!   through `construct_into_matrix`, against the decision path's job row
//!   built once per job (`job_row_into`) and copied into 64 candidate rows
//!   (`candidate_row_into`). The two matrices must be bit-identical.
//!
//! Medians are printed criterion-style and written to
//! `results/BENCH_model.json`. Run `-- --smoke` for a 1-round smoke (used by
//! CI to keep the batch path from bitrotting; no JSON is written).

use bench::measure;
use mlcore::{FeatureMatrix, ModelKind};
use netsched_core::features::{FeatureSchema, FeatureVector};
use netsched_core::predictor::CompletionTimePredictor;
use netsched_core::request::JobRequest;
use sparksim::WorkloadKind;
use std::hint::black_box;
use telemetry::NodeTelemetry;

/// The number of candidate nodes per ranked decision this bench models.
const CANDIDATES: usize = 16;

/// A 16-candidate feature matrix: one row per candidate node with
/// telemetry varied across realistic ranges, constructed through the same
/// schema path the scheduling context uses.
fn candidate_matrix(predictor: &CompletionTimePredictor, job: &JobRequest) -> FeatureMatrix {
    let schema = predictor.schema();
    let mut matrix = FeatureMatrix::with_capacity(schema.len(), CANDIDATES);
    matrix.reset(schema.len());
    for i in 0..CANDIDATES {
        let f = i as f64;
        let node = NodeTelemetry {
            cpu_load: 0.25 * f,
            memory_available_bytes: 2e9 + 3e8 * f,
            tx_rate: 1e5 * f,
            rx_rate: 2e5 * f,
        };
        let rtt_stats = (0.004 * (f + 1.0), 0.010 * (f + 1.0), 0.002 * f);
        schema.construct_into_matrix(&mut matrix, &node, rtt_stats, job);
    }
    matrix
}

/// Nodes and jobs of the `features_64x24` burst.
const BURST_NODES: usize = 64;
const BURST_JOBS: usize = 24;

/// Per-node telemetry and RTT statistics of the 64-node burst world.
fn burst_nodes() -> Vec<(NodeTelemetry, (f64, f64, f64))> {
    (0..BURST_NODES)
        .map(|i| {
            let f = i as f64;
            let node = NodeTelemetry {
                cpu_load: 0.1 * f,
                memory_available_bytes: 1e9 + 1e8 * f,
                tx_rate: 3e4 * f,
                rx_rate: 5e4 * f,
            };
            (node, (0.001 * (f + 1.0), 0.030 + 0.001 * f, 0.0005 * f))
        })
        .collect()
}

/// Build the burst's 24 × 64 rows into `matrix`, every row cell by cell.
fn burst_per_row(
    schema: &FeatureSchema,
    nodes: &[(NodeTelemetry, (f64, f64, f64))],
    jobs: &[JobRequest],
    matrix: &mut FeatureMatrix,
) {
    matrix.reset(schema.len());
    for job in jobs {
        for (node, rtt_stats) in nodes {
            schema.construct_into_matrix(matrix, node, *rtt_stats, job);
        }
    }
}

/// Build the same rows from one job row per job plus telemetry columns.
fn burst_job_row(
    schema: &FeatureSchema,
    nodes: &[(NodeTelemetry, (f64, f64, f64))],
    jobs: &[JobRequest],
    job_row: &mut FeatureVector,
    matrix: &mut FeatureMatrix,
) {
    matrix.reset(schema.len());
    for job in jobs {
        schema.job_row_into(job_row, job);
        for (node, rtt_stats) in nodes {
            schema.candidate_row_into(matrix, job_row, node, *rtt_stats);
        }
    }
}

struct FamilyResult {
    kind: ModelKind,
    single_row_ns: f64,
    per_row_16_ns: f64,
    batch_16_ns: f64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Paper scale in full mode: ~3600 training rows (the paper's dataset
    // size) with the default model configs (RF: 200 trees × depth 20 → a
    // multi-MB ensemble that no longer fits in cache, which is exactly the
    // regime the batch path exists for). Smoke mode shrinks both so CI just
    // guards the path against bitrot.
    let (rounds, train_rows) = if smoke { (1, 300) } else { (10, 3600) };
    let logger = bench::synthetic_logger(train_rows, 11);
    let data = logger.to_dataset();
    let model_config = if smoke {
        bench::bench_model_config()
    } else {
        mlcore::ModelConfig {
            forest: mlcore::RandomForestConfig {
                workers: simcore::parallel::default_workers(),
                ..Default::default()
            },
            ..Default::default()
        }
    };
    let job = JobRequest::named("bench-sort", WorkloadKind::Sort, 250_000, 2);

    let schema = logger.schema();
    let nodes = burst_nodes();
    let jobs: Vec<JobRequest> = (0..BURST_JOBS)
        .map(|i| {
            let kind = WorkloadKind::ALL[i % WorkloadKind::ALL.len()];
            JobRequest::named(format!("burst-{i}"), kind, 100_000 + 5_000 * i as u64, 2)
        })
        .collect();
    let mut per_row = FeatureMatrix::new(schema.len());
    let mut split = FeatureMatrix::new(schema.len());
    let mut job_row = FeatureVector::new();
    let features_per_row_ns = measure("model_inference/features_64x24/per_row", rounds, || {
        burst_per_row(schema, &nodes, black_box(&jobs), &mut per_row);
        black_box(per_row.n_rows())
    });
    let features_job_row_ns = measure("model_inference/features_64x24/job_row", rounds, || {
        burst_job_row(schema, &nodes, black_box(&jobs), &mut job_row, &mut split);
        black_box(split.n_rows())
    });
    // The job-row path must build the very same floats.
    burst_per_row(schema, &nodes, &jobs, &mut per_row);
    burst_job_row(schema, &nodes, &jobs, &mut job_row, &mut split);
    assert_eq!(per_row.n_rows(), BURST_NODES * BURST_JOBS);
    let bits = |m: &FeatureMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&per_row),
        bits(&split),
        "job-row and per-row feature matrices diverged"
    );
    println!(
        "model_inference/features_64x24: job-row speedup over per-row construction: {:.2}x",
        features_per_row_ns / features_job_row_ns.max(1.0)
    );

    let mut results: Vec<FamilyResult> = Vec::new();
    for kind in ModelKind::ALL {
        let mut rng = simcore::rng::Rng::seed_from_u64(5);
        let model = mlcore::TrainedModel::train(kind, &model_config, &data, &mut rng);
        let predictor = CompletionTimePredictor::new(logger.schema().clone(), model)
            .expect("logger schema matches its own training data");
        let matrix = candidate_matrix(&predictor, &job);
        let rows: Vec<Vec<f64>> = (0..CANDIDATES).map(|i| matrix.row(i).to_vec()).collect();

        let single_row_ns = measure(
            &format!("model_inference/single_row/{kind}"),
            rounds,
            || black_box(predictor.predict_from_features(black_box(&rows[0]))),
        );

        let per_row_16_ns = measure(
            &format!("model_inference/per_row_16/{kind}"),
            rounds,
            || {
                let mut acc = 0.0;
                for row in &rows {
                    acc += predictor.predict_from_features(black_box(row));
                }
                black_box(acc)
            },
        );

        let mut out: Vec<f64> = Vec::with_capacity(CANDIDATES);
        let batch_16_ns = measure(&format!("model_inference/batch_16/{kind}"), rounds, || {
            predictor.predict_batch_into(black_box(&matrix), &mut out);
            black_box(out.len())
        });

        // The two paths must agree exactly before their timings mean anything.
        predictor.predict_batch_into(&matrix, &mut out);
        for (row, &batched) in rows.iter().zip(&out) {
            assert_eq!(
                batched,
                predictor.predict_from_features(row),
                "{kind}: batch and per-row predictions diverged"
            );
        }

        println!(
            "model_inference/{kind}: batch speedup over {CANDIDATES} per-row calls: {:.2}x",
            per_row_16_ns / batch_16_ns.max(1.0)
        );
        results.push(FamilyResult {
            kind,
            single_row_ns,
            per_row_16_ns,
            batch_16_ns,
        });
    }

    if smoke {
        println!("smoke mode: skipping results/BENCH_model.json");
        return;
    }

    let mut json = format!(
        "{{\n  \"cores\": {},\n  \"candidates\": {CANDIDATES},\n  \"features_64x24_per_row_ns\": {features_per_row_ns:.0},\n  \"features_64x24_job_row_ns\": {features_job_row_ns:.0}",
        simcore::parallel::default_workers()
    );
    for r in &results {
        let key = match r.kind {
            ModelKind::Linear => "linear",
            ModelKind::RandomForest => "random_forest",
            ModelKind::GradientBoosting => "gradient_boosting",
        };
        json.push_str(&format!(
            ",\n  \"{key}_single_row_ns\": {:.0},\n  \"{key}_per_row_16_ns\": {:.0},\n  \"{key}_batch_16_ns\": {:.0},\n  \"{key}_batch_speedup\": {:.2}",
            r.single_row_ns,
            r.per_row_16_ns,
            r.batch_16_ns,
            r.per_row_16_ns / r.batch_16_ns.max(1.0),
        ));
    }
    json.push_str("\n}\n");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_model.json"
    );
    if let Some(parent) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, json).expect("write BENCH_model.json");
    println!("(medians written to results/BENCH_model.json)");
}
