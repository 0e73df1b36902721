//! Differential test of the typed feature-column plan.
//!
//! Feature rows are built from columns resolved once per schema, and the
//! decision path splits each row into a per-decision job half and per-node
//! telemetry columns. Both must reproduce, bit for bit, the original
//! constructor, which string-matched every column name for every cell. That
//! constructor is kept here, verbatim, as the reference.

use netsched::core::features::{FeatureGroup, FeatureSchema, FeatureVector};
use netsched::core::request::JobRequest;
use netsched::mlcore::FeatureMatrix;
use netsched::simcore::rng::Rng;
use netsched::simcore::SimTime;
use netsched::sparksim::{WorkloadKind, WorkloadRequest};
use netsched::telemetry::{ClusterSnapshot, NodeTelemetry};
use proptest::prelude::*;

/// The reference: one cell by string-matching its column name.
fn feature_value(
    name: &str,
    node: &NodeTelemetry,
    rtt_stats: (f64, f64, f64),
    job: &JobRequest,
) -> f64 {
    let (rtt_mean, rtt_max, rtt_std) = rtt_stats;
    match name {
        "rtt_mean_s" => rtt_mean,
        "rtt_max_s" => rtt_max,
        "rtt_std_s" => rtt_std,
        "tx_rate_bps" => node.tx_rate,
        "rx_rate_bps" => node.rx_rate,
        "cpu_load" => node.cpu_load,
        "memory_available_bytes" => node.memory_available_bytes,
        "input_records" => job.workload.input_records as f64,
        "executor_count" => job.workload.executor_count as f64,
        "executor_cores" => job.workload.executor_cores as f64,
        "executor_memory_gb" => {
            job.workload.executor_memory_bytes as f64 / (1024.0 * 1024.0 * 1024.0)
        }
        "shuffle_partitions" => job.workload.shuffle_partitions as f64,
        other => {
            if let Some(app) = other.strip_prefix("app_") {
                if app == job.app_type() {
                    1.0
                } else {
                    0.0
                }
            } else {
                0.0
            }
        }
    }
}

fn reference_row(
    schema: &FeatureSchema,
    node: &NodeTelemetry,
    rtt_stats: (f64, f64, f64),
    job: &JobRequest,
) -> Vec<u64> {
    schema
        .names()
        .iter()
        .map(|name| feature_value(name, node, rtt_stats, job).to_bits())
        .collect()
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// A float that is often NaN (two payloads), ±∞, ±0, subnormal or extreme.
fn float(rng: &mut Rng) -> f64 {
    const SPECIAL: [f64; 11] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 4.0,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
    ];
    match rng.gen_range(4) {
        0 => f64::from_bits(0xfff8_0000_0000_1234),
        1 => rng.uniform(-1e12, 1e12),
        _ => SPECIAL[rng.gen_range(SPECIAL.len() as u64) as usize],
    }
}

fn node_telemetry(rng: &mut Rng) -> NodeTelemetry {
    NodeTelemetry {
        cpu_load: float(rng),
        memory_available_bytes: float(rng),
        tx_rate: float(rng),
        rx_rate: float(rng),
    }
}

/// A job of `kind` with an extreme or ordinary configuration.
fn job(rng: &mut Rng, kind: WorkloadKind) -> JobRequest {
    let u64s = [0, 1, u64::MAX, (1 << 53) + 1, rng.next_u64()];
    let u32s = [0, 1, u32::MAX, rng.next_u32()];
    let pick64 = |rng: &mut Rng| u64s[rng.gen_range(u64s.len() as u64) as usize];
    let input_records = pick64(rng);
    let executor_memory_bytes = pick64(rng);
    let pick32 = |rng: &mut Rng| u32s[rng.gen_range(u32s.len() as u64) as usize];
    let workload = WorkloadRequest {
        kind,
        input_records,
        executor_count: pick32(rng),
        executor_memory_bytes,
        executor_cores: pick32(rng),
        shuffle_partitions: pick32(rng),
    };
    JobRequest::new("j", workload)
}

/// A random subset of the standard columns in random order, loaded through
/// the archive path, or a group-restricted schema.
fn schema(rng: &mut Rng) -> FeatureSchema {
    if rng.gen_bool(0.25) {
        let groups: Vec<FeatureGroup> =
            [FeatureGroup::Network, FeatureGroup::Node, FeatureGroup::Job]
                .into_iter()
                .filter(|_| rng.gen_bool(0.5))
                .collect();
        return FeatureSchema::with_groups(&groups);
    }
    let standard = FeatureSchema::standard();
    let mut order: Vec<usize> = (0..standard.len()).collect();
    rng.shuffle(&mut order);
    order.truncate(rng.gen_range_usize(0, standard.len() + 1));
    let names: Vec<String> = order.iter().map(|&i| standard.names()[i].clone()).collect();
    let groups: Vec<FeatureGroup> = order.iter().map(|&i| standard.groups()[i]).collect();
    let json = format!(
        r#"{{"names":{},"groups":{}}}"#,
        serde_json::to_string(&names).unwrap(),
        serde_json::to_string(&groups).unwrap()
    );
    serde_json::from_str(&json).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `construct`, `construct_into`, `construct_into_matrix` and the
    /// job-row + telemetry-column path all equal the string-matching
    /// reference, bit for bit.
    #[test]
    fn typed_columns_match_the_string_matching_reference(seed in 0u64..u64::MAX) {
        let mut rng = Rng::seed_from_u64(seed);
        let schema = schema(&mut rng);
        let mut vector = FeatureVector::new();
        let mut job_row = FeatureVector::new();
        let mut per_cell = FeatureMatrix::new(schema.len());
        let mut split = FeatureMatrix::new(schema.len());
        for kind in WorkloadKind::ALL {
            let job = job(&mut rng, kind);
            schema.job_row_into(&mut job_row, &job);
            let blank = reference_row(&schema, &NodeTelemetry::default(), (0.0, 0.0, 0.0), &job);
            prop_assert_eq!(bits(&job_row), blank);
            for _ in 0..4 {
                let node = node_telemetry(&mut rng);
                let rtt_stats = (float(&mut rng), float(&mut rng), float(&mut rng));
                let expected = reference_row(&schema, &node, rtt_stats, &job);
                schema.construct_into(&mut vector, &node, rtt_stats, &job);
                prop_assert_eq!(bits(&vector), expected.clone());
                schema.construct_into_matrix(&mut per_cell, &node, rtt_stats, &job);
                prop_assert_eq!(bits(per_cell.row(per_cell.n_rows() - 1)), expected.clone());
                schema.candidate_row_into(&mut split, &job_row, &node, rtt_stats);
                prop_assert_eq!(bits(split.row(split.n_rows() - 1)), expected);
            }

            // Through a snapshot: telemetry and RTT statistics resolved by name.
            let mut snap = ClusterSnapshot::at(SimTime::from_secs(1));
            snap.insert_node("a", node_telemetry(&mut rng));
            snap.insert_rtt("a", "b", float(&mut rng));
            snap.insert_rtt("a", "c", float(&mut rng));
            for name in ["a", "b"] {
                let node = snap.node(name).copied().unwrap_or_default();
                let expected = reference_row(&schema, &node, snap.rtt_stats_from(name), &job);
                prop_assert_eq!(bits(&schema.construct(&snap, name, &job)), expected);
            }
        }
    }
}
