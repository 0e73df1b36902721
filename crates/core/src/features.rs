//! The Feature Constructor (Table 1).
//!
//! For each candidate node the constructor combines the latest telemetry
//! snapshot with the static job configuration into a fixed-width feature
//! vector:
//!
//! | Feature | Description | Type |
//! |---|---|---|
//! | `rtt_mean`, `rtt_max`, `rtt_std` | RTT statistics from the candidate node to all peers | Network |
//! | `tx_rate`, `rx_rate` | transmit / receive throughput (bytes/s) | Network |
//! | `cpu_load` | load average (runnable processes) | Node |
//! | `memory_available` | available memory (bytes) | Node |
//! | `app_*` (one-hot) | categorical application type | Job |
//! | `input_records` | input data size | Job |
//! | `executor_count`, `executor_cores`, `executor_memory_gb`, `shuffle_partitions` | resource configuration | Job |
//!
//! The schema is fixed and versioned by position so a model trained offline
//! keeps working when re-loaded by a long-running scheduler.
//!
//! **Typed column plan.** A schema's serialized form is its column names and
//! groups. Each name is resolved once, when the schema is built or loaded,
//! into a typed column, and the positions of the telemetry (network and
//! node) columns are recorded. Rows are then filled without comparing
//! strings: job columns by a `match` over the typed column, telemetry
//! columns by copying the candidate's seven telemetry values to their
//! recorded positions. Loading rejects an archive whose names and groups
//! differ in length, that repeats a column, names a column the constructor
//! does not know, or tags a column with the wrong group — a misspelled name
//! would otherwise feed the model an all-zero feature.
//!
//! A decision ranks many candidates for one job, so the hot path splits a
//! row in two: [`FeatureSchema::job_row_into`] fills the job columns once per
//! decision (telemetry columns read 0, as for an unscraped node), and
//! [`FeatureSchema::candidate_row_into`] copies that row per candidate and
//! overwrites only the telemetry columns. Every construction path is built
//! from these two halves, so all paths produce bit-identical rows.

use crate::request::JobRequest;
use mlcore::FeatureMatrix;
use serde::{Deserialize, Serialize};
use sparksim::WorkloadKind;
use telemetry::{ClusterSnapshot, NodeTelemetry};

/// Which group a feature belongs to (Table 1's Type column). Used by the
/// ablation experiments to drop whole groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureGroup {
    /// Network telemetry (RTT, throughput).
    Network,
    /// Host telemetry (CPU, memory).
    Node,
    /// Static job configuration.
    Job,
}

/// One resolved feature column: what a schema name means (see
/// [`Column::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Column {
    RttMean,
    RttMax,
    RttStd,
    TxRate,
    RxRate,
    CpuLoad,
    MemoryAvailable,
    App(WorkloadKind),
    InputRecords,
    ExecutorCount,
    ExecutorCores,
    ExecutorMemoryGb,
    ShufflePartitions,
}

impl Column {
    /// Every column, in the standard (Table 1) order.
    fn standard() -> impl Iterator<Item = Column> {
        use Column::*;
        [
            RttMean,
            RttMax,
            RttStd,
            TxRate,
            RxRate,
            CpuLoad,
            MemoryAvailable,
        ]
        .into_iter()
        .chain(WorkloadKind::ALL.map(App))
        .chain([
            InputRecords,
            ExecutorCount,
            ExecutorCores,
            ExecutorMemoryGb,
            ShufflePartitions,
        ])
    }

    /// The column's name in a schema.
    fn name(self) -> String {
        match self {
            Column::RttMean => "rtt_mean_s".into(),
            Column::RttMax => "rtt_max_s".into(),
            Column::RttStd => "rtt_std_s".into(),
            Column::TxRate => "tx_rate_bps".into(),
            Column::RxRate => "rx_rate_bps".into(),
            Column::CpuLoad => "cpu_load".into(),
            Column::MemoryAvailable => "memory_available_bytes".into(),
            Column::App(kind) => format!("app_{}", kind.as_str()),
            Column::InputRecords => "input_records".into(),
            Column::ExecutorCount => "executor_count".into(),
            Column::ExecutorCores => "executor_cores".into(),
            Column::ExecutorMemoryGb => "executor_memory_gb".into(),
            Column::ShufflePartitions => "shuffle_partitions".into(),
        }
    }

    /// The column's Table 1 group.
    fn group(self) -> FeatureGroup {
        match self {
            Column::RttMean | Column::RttMax | Column::RttStd | Column::TxRate | Column::RxRate => {
                FeatureGroup::Network
            }
            Column::CpuLoad | Column::MemoryAvailable => FeatureGroup::Node,
            _ => FeatureGroup::Job,
        }
    }

    /// Resolve a schema name (load time only).
    fn from_name(name: &str) -> Option<Column> {
        Column::standard().find(|column| column.name() == name)
    }

    /// Where a telemetry column reads from in [`telemetry_values`]; `None`
    /// for a job column.
    fn telemetry_source(self) -> Option<usize> {
        Some(match self {
            Column::RttMean => 0,
            Column::RttMax => 1,
            Column::RttStd => 2,
            Column::TxRate => 3,
            Column::RxRate => 4,
            Column::CpuLoad => 5,
            Column::MemoryAvailable => 6,
            _ => return None,
        })
    }

    /// The value of a job column. Telemetry columns read 0, the value of
    /// missing (default) telemetry.
    #[inline]
    fn job_value(self, job: &JobRequest) -> f64 {
        let workload = &job.workload;
        match self {
            Column::App(kind) if kind == workload.kind => 1.0,
            Column::InputRecords => workload.input_records as f64,
            Column::ExecutorCount => workload.executor_count as f64,
            Column::ExecutorCores => workload.executor_cores as f64,
            Column::ExecutorMemoryGb => {
                workload.executor_memory_bytes as f64 / (1024.0 * 1024.0 * 1024.0)
            }
            Column::ShufflePartitions => workload.shuffle_partitions as f64,
            // Another application's one-hot column, or a telemetry column.
            _ => 0.0,
        }
    }
}

/// A candidate's telemetry columns, indexed by [`Column::telemetry_source`].
#[inline]
fn telemetry_values(node: &NodeTelemetry, rtt_stats: (f64, f64, f64)) -> [f64; 7] {
    let (rtt_mean, rtt_max, rtt_std) = rtt_stats;
    [
        rtt_mean,
        rtt_max,
        rtt_std,
        node.tx_rate,
        node.rx_rate,
        node.cpu_load,
        node.memory_available_bytes,
    ]
}

/// A named, grouped feature schema with a stable column order.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSchema {
    names: Vec<String>,
    groups: Vec<FeatureGroup>,
    /// `names` resolved to typed columns when the schema is built or loaded.
    /// Derived state — not serialized, like `telemetry`.
    columns: Vec<Column>,
    /// `(row position, telemetry source)` of every telemetry column.
    telemetry: Vec<(usize, usize)>,
}

/// The serialized form: names and groups only; the columns are resolved
/// (and the archive validated) on load.
#[derive(Serialize, Deserialize)]
struct SchemaArchive {
    names: Vec<String>,
    groups: Vec<FeatureGroup>,
}

impl Serialize for FeatureSchema {
    fn serialize_value(&self) -> serde::Value {
        SchemaArchive {
            names: self.names.clone(),
            groups: self.groups.clone(),
        }
        .serialize_value()
    }
}

impl Deserialize for FeatureSchema {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let archive = SchemaArchive::deserialize_value(v)?;
        FeatureSchema::resolve(&archive.names, &archive.groups).map_err(serde::Error::custom)
    }
}

/// One constructed feature vector (aligned with a [`FeatureSchema`]).
pub type FeatureVector = Vec<f64>;

impl Default for FeatureSchema {
    fn default() -> Self {
        Self::standard()
    }
}

impl FeatureSchema {
    /// The full Table 1 schema.
    pub fn standard() -> Self {
        Self::from_columns(Column::standard().collect())
    }

    /// A schema restricted to the given groups (ablation variants).
    pub fn with_groups(groups_to_keep: &[FeatureGroup]) -> Self {
        Self::from_columns(
            Column::standard()
                .filter(|column| groups_to_keep.contains(&column.group()))
                .collect(),
        )
    }

    /// Assemble a schema from its columns, recording where its telemetry
    /// columns sit.
    fn from_columns(columns: Vec<Column>) -> Self {
        FeatureSchema {
            names: columns.iter().map(|column| column.name()).collect(),
            groups: columns.iter().map(|column| column.group()).collect(),
            telemetry: columns
                .iter()
                .enumerate()
                .filter_map(|(at, column)| Some((at, column.telemetry_source()?)))
                .collect(),
            columns,
        }
    }

    /// Resolve a loaded archive's names into columns, rejecting archives
    /// the constructor cannot honour.
    fn resolve(names: &[String], groups: &[FeatureGroup]) -> Result<Self, String> {
        if names.len() != groups.len() {
            return Err(format!(
                "feature schema has {} names but {} groups",
                names.len(),
                groups.len()
            ));
        }
        let mut columns = Vec::with_capacity(names.len());
        for (name, &group) in names.iter().zip(groups) {
            let column = Column::from_name(name)
                .ok_or_else(|| format!("unknown feature column `{name}`"))?;
            if columns.contains(&column) {
                return Err(format!("feature column `{name}` appears twice"));
            }
            if column.group() != group {
                return Err(format!(
                    "feature column `{name}` is tagged {group:?}, not {:?}",
                    column.group()
                ));
            }
            columns.push(column);
        }
        // The archive's names and groups are exactly the columns' own.
        Ok(Self::from_columns(columns))
    }

    /// Column names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Column groups in order.
    pub fn groups(&self) -> &[FeatureGroup] {
        &self.groups
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Index of a named feature.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Build the feature vector for `candidate_node` given the telemetry
    /// snapshot and the job request. Missing telemetry falls back to zeros,
    /// mirroring how a Prometheus query returns empty vectors for unscraped
    /// instances.
    pub fn construct(
        &self,
        snapshot: &ClusterSnapshot,
        candidate_node: &str,
        job: &JobRequest,
    ) -> FeatureVector {
        let node = snapshot.node(candidate_node).copied().unwrap_or_default();
        let rtt_stats = snapshot.rtt_stats_from(candidate_node);
        let mut out = Vec::with_capacity(self.len());
        self.construct_into(&mut out, &node, rtt_stats, job);
        out
    }

    /// Allocation-free feature construction from pre-resolved telemetry.
    /// `out` is cleared and refilled; reuse it across candidates to avoid
    /// per-candidate allocation.
    pub fn construct_into(
        &self,
        out: &mut FeatureVector,
        node: &NodeTelemetry,
        rtt_stats: (f64, f64, f64),
        job: &JobRequest,
    ) {
        self.job_row_into(out, job);
        self.write_telemetry(out, node, rtt_stats);
    }

    /// Append one candidate's feature row to a contiguous [`FeatureMatrix`]
    /// (the batch-inference input). The matrix stride must match the schema
    /// width; rows are constructed in place, no temporary `Vec`.
    pub fn construct_into_matrix(
        &self,
        matrix: &mut FeatureMatrix,
        node: &NodeTelemetry,
        rtt_stats: (f64, f64, f64),
        job: &JobRequest,
    ) {
        assert_eq!(
            matrix.n_features(),
            self.len(),
            "matrix stride must match the schema width"
        );
        let row = matrix.add_row();
        for (slot, column) in row.iter_mut().zip(&self.columns) {
            *slot = column.job_value(job);
        }
        self.write_telemetry(row, node, rtt_stats);
    }

    /// Fill `row` with the job half of a feature row, once per decision: the
    /// job columns hold `job`'s values and the telemetry columns read 0, so
    /// the row equals [`FeatureSchema::construct_into`] over default
    /// telemetry. Reuse `row` across decisions to avoid allocation.
    pub fn job_row_into(&self, row: &mut FeatureVector, job: &JobRequest) {
        row.clear();
        row.extend(self.columns.iter().map(|column| column.job_value(job)));
    }

    /// Append one candidate's feature row to `matrix`: a copy of `job_row`
    /// (from [`FeatureSchema::job_row_into`]) with only the telemetry columns
    /// overwritten. Bit-identical to [`FeatureSchema::construct_into_matrix`]
    /// for the same node and job.
    pub fn candidate_row_into(
        &self,
        matrix: &mut FeatureMatrix,
        job_row: &[f64],
        node: &NodeTelemetry,
        rtt_stats: (f64, f64, f64),
    ) {
        assert_eq!(
            matrix.n_features(),
            self.len(),
            "matrix stride must match the schema width"
        );
        matrix.push_row(job_row);
        let last = matrix.n_rows() - 1;
        self.write_telemetry(matrix.row_mut(last), node, rtt_stats);
    }

    /// Overwrite the telemetry columns of a full-width row.
    #[inline]
    fn write_telemetry(&self, row: &mut [f64], node: &NodeTelemetry, rtt_stats: (f64, f64, f64)) {
        let values = telemetry_values(node, rtt_stats);
        for &(at, source) in &self.telemetry {
            row[at] = values[source];
        }
    }

    /// Build the full candidate × feature matrix for one decision, in
    /// candidate order. `matrix` is reset to this schema's stride and
    /// refilled; reuse it across decisions to avoid allocation.
    pub fn construct_batch_into(
        &self,
        matrix: &mut FeatureMatrix,
        snapshot: &ClusterSnapshot,
        candidates: &[String],
        job: &JobRequest,
    ) {
        matrix.reset(self.len());
        for candidate in candidates {
            let node = snapshot.node(candidate).copied().unwrap_or_default();
            self.construct_into_matrix(matrix, &node, snapshot.rtt_stats_from(candidate), job);
        }
    }

    /// Build a vector per candidate node, in the given order.
    pub fn construct_all(
        &self,
        snapshot: &ClusterSnapshot,
        candidates: &[String],
        job: &JobRequest,
    ) -> Vec<FeatureVector> {
        candidates
            .iter()
            .map(|node| self.construct(snapshot, node, job))
            .collect()
    }

    /// Markdown rendering of the schema (used by the Table 1 harness binary).
    pub fn to_markdown_table(&self) -> String {
        let mut out = String::from("| Feature | Type |\n|---|---|\n");
        for (name, group) in self.names.iter().zip(&self.groups) {
            let group = match group {
                FeatureGroup::Network => "Network",
                FeatureGroup::Node => "Node",
                FeatureGroup::Job => "Job",
            };
            out.push_str(&format!("| {name} | {group} |\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;
    use telemetry::NodeTelemetry;

    fn snapshot() -> ClusterSnapshot {
        let mut snap = ClusterSnapshot::at(SimTime::from_secs(100));
        snap.insert_node(
            "node-1",
            NodeTelemetry {
                cpu_load: 2.5,
                memory_available_bytes: 6e9,
                tx_rate: 1e6,
                rx_rate: 2e6,
            },
        );
        snap.insert_node(
            "node-2",
            NodeTelemetry {
                cpu_load: 0.5,
                memory_available_bytes: 7e9,
                tx_rate: 0.0,
                rx_rate: 0.0,
            },
        );
        snap.insert_rtt("node-1", "node-2", 0.010);
        snap.insert_rtt("node-1", "node-3", 0.070);
        snap.insert_rtt("node-2", "node-1", 0.011);
        snap
    }

    fn job() -> JobRequest {
        JobRequest::named("sort-x", WorkloadKind::Sort, 250_000, 3)
    }

    #[test]
    fn standard_schema_has_expected_columns() {
        let schema = FeatureSchema::standard();
        assert!(!schema.is_empty());
        // 7 telemetry + 5 one-hot app + 5 job config = 17.
        assert_eq!(schema.len(), 17);
        assert_eq!(schema.names().len(), schema.groups().len());
        assert_eq!(schema.index_of("cpu_load"), Some(5));
        assert_eq!(schema.index_of("does_not_exist"), None);
        let network = schema
            .groups()
            .iter()
            .filter(|g| **g == FeatureGroup::Network)
            .count();
        let node = schema
            .groups()
            .iter()
            .filter(|g| **g == FeatureGroup::Node)
            .count();
        let jobg = schema
            .groups()
            .iter()
            .filter(|g| **g == FeatureGroup::Job)
            .count();
        assert_eq!((network, node, jobg), (5, 2, 10));
    }

    #[test]
    fn construct_reads_telemetry_and_job_config() {
        let schema = FeatureSchema::standard();
        let vec = schema.construct(&snapshot(), "node-1", &job());
        assert_eq!(vec.len(), schema.len());
        let get = |name: &str| vec[schema.index_of(name).unwrap()];
        assert!((get("rtt_mean_s") - 0.040).abs() < 1e-9);
        assert_eq!(get("rtt_max_s"), 0.070);
        assert!(get("rtt_std_s") > 0.0);
        assert_eq!(get("tx_rate_bps"), 1e6);
        assert_eq!(get("rx_rate_bps"), 2e6);
        assert_eq!(get("cpu_load"), 2.5);
        assert_eq!(get("memory_available_bytes"), 6e9);
        assert_eq!(get("app_sort"), 1.0);
        assert_eq!(get("app_join"), 0.0);
        assert_eq!(get("input_records"), 250_000.0);
        assert_eq!(get("executor_count"), 3.0);
        assert_eq!(get("executor_memory_gb"), 1.0);
        assert_eq!(get("shuffle_partitions"), 8.0);
    }

    #[test]
    fn unknown_node_falls_back_to_zeros() {
        let schema = FeatureSchema::standard();
        let vec = schema.construct(&snapshot(), "node-99", &job());
        let get = |name: &str| vec[schema.index_of(name).unwrap()];
        assert_eq!(get("cpu_load"), 0.0);
        assert_eq!(get("rtt_mean_s"), 0.0);
        // Job features are still present.
        assert_eq!(get("input_records"), 250_000.0);
    }

    #[test]
    fn construct_into_matches_construct_and_reuses_buffer() {
        let schema = FeatureSchema::standard();
        let snap = snapshot();
        let job = job();
        let mut buffer = FeatureVector::new();
        for node in ["node-1", "node-2", "node-99"] {
            let telemetry = snap.node(node).copied().unwrap_or_default();
            schema.construct_into(&mut buffer, &telemetry, snap.rtt_stats_from(node), &job);
            assert_eq!(buffer, schema.construct(&snap, node, &job), "{node}");
        }
    }

    #[test]
    fn matrix_construction_matches_vector_construction() {
        let schema = FeatureSchema::standard();
        let snap = snapshot();
        let job = job();
        let candidates = vec![
            "node-2".to_string(),
            "node-1".to_string(),
            "node-99".to_string(),
        ];
        let mut matrix = FeatureMatrix::new(0);
        schema.construct_batch_into(&mut matrix, &snap, &candidates, &job);
        assert_eq!(matrix.n_rows(), 3);
        assert_eq!(matrix.n_features(), schema.len());
        for (i, candidate) in candidates.iter().enumerate() {
            assert_eq!(
                matrix.row(i),
                schema.construct(&snap, candidate, &job),
                "{candidate}"
            );
        }
        // Refilling reuses the buffer and replaces the rows.
        schema.construct_batch_into(&mut matrix, &snap, &candidates[..1], &job);
        assert_eq!(matrix.n_rows(), 1);
    }

    #[test]
    fn construct_all_orders_by_candidates() {
        let schema = FeatureSchema::standard();
        let candidates = vec!["node-2".to_string(), "node-1".to_string()];
        let vecs = schema.construct_all(&snapshot(), &candidates, &job());
        assert_eq!(vecs.len(), 2);
        let cpu = schema.index_of("cpu_load").unwrap();
        assert_eq!(vecs[0][cpu], 0.5);
        assert_eq!(vecs[1][cpu], 2.5);
    }

    #[test]
    fn group_restricted_schemas() {
        let network_only = FeatureSchema::with_groups(&[FeatureGroup::Network]);
        assert_eq!(network_only.len(), 5);
        assert!(network_only
            .names()
            .iter()
            .all(|n| n.starts_with("rtt") || n.contains("rate")));
        let no_network = FeatureSchema::with_groups(&[FeatureGroup::Node, FeatureGroup::Job]);
        assert_eq!(no_network.len(), 12);
        let vec = no_network.construct(&snapshot(), "node-1", &job());
        assert_eq!(vec.len(), 12);
        let empty = FeatureSchema::with_groups(&[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn one_hot_is_exclusive_across_workloads() {
        let schema = FeatureSchema::standard();
        for kind in WorkloadKind::ALL {
            let job = JobRequest::named("j", kind, 1000, 2);
            let vec = schema.construct(&snapshot(), "node-1", &job);
            let hot: f64 = WorkloadKind::ALL
                .iter()
                .map(|k| vec[schema.index_of(&format!("app_{}", k.as_str())).unwrap()])
                .sum();
            assert_eq!(hot, 1.0, "exactly one app indicator set for {kind}");
        }
    }

    /// The serialized schema, byte for byte as archives store it.
    const STANDARD_JSON: &str = concat!(
        r#"{"names":["rtt_mean_s","rtt_max_s","rtt_std_s","tx_rate_bps","rx_rate_bps","#,
        r#""cpu_load","memory_available_bytes","app_sort","app_pagerank","app_join","#,
        r#""app_groupby","app_wordcount","input_records","executor_count","executor_cores","#,
        r#""executor_memory_gb","shuffle_partitions"],"groups":["Network","Network","#,
        r#""Network","Network","Network","Node","Node","Job","Job","Job","Job","Job","Job","#,
        r#""Job","Job","Job","Job"]}"#
    );

    #[test]
    fn archives_are_unchanged_and_round_trip() {
        let standard = FeatureSchema::standard();
        assert_eq!(serde_json::to_string(&standard).unwrap(), STANDARD_JSON);
        for schema in [
            standard,
            FeatureSchema::with_groups(&[FeatureGroup::Network, FeatureGroup::Job]),
            FeatureSchema::with_groups(&[]),
        ] {
            let json = serde_json::to_string(&schema).unwrap();
            let loaded: FeatureSchema = serde_json::from_str(&json).unwrap();
            assert_eq!(loaded, schema);
        }
        // Any order of known, distinct, correctly grouped columns loads.
        let permuted =
            r#"{"names":["app_join","cpu_load","rtt_max_s"],"groups":["Job","Node","Network"]}"#;
        let loaded: FeatureSchema = serde_json::from_str(permuted).unwrap();
        let vec = loaded.construct(&snapshot(), "node-1", &job());
        assert_eq!(vec, vec![0.0, 2.5, 0.070]);
    }

    #[test]
    fn tampered_schema_archives_are_rejected_on_load() {
        let load = |json: &str| serde_json::from_str::<FeatureSchema>(json).map(|_| ());
        let err = |json: &str| load(json).unwrap_err().to_string();
        assert!(load(STANDARD_JSON).is_ok());
        // A names/groups length mismatch.
        let short = STANDARD_JSON.replace(r#","shuffle_partitions""#, "");
        assert!(
            err(&short).contains("16 names but 17 groups"),
            "{}",
            err(&short)
        );
        // A misspelled (unknown) column would silently read 0 forever.
        let typo = STANDARD_JSON.replace("cpu_load", "cpu_lod");
        assert!(err(&typo).contains("unknown feature column `cpu_lod`"));
        let unknown_app = STANDARD_JSON.replace("app_join", "app_kmeans");
        assert!(err(&unknown_app).contains("`app_kmeans`"));
        // A repeated column.
        let twice = STANDARD_JSON.replace("rtt_max_s", "rtt_mean_s");
        assert!(err(&twice).contains("`rtt_mean_s` appears twice"));
        // A column tagged with another group.
        let regrouped = r#"{"names":["cpu_load"],"groups":["Job"]}"#;
        assert!(err(regrouped).contains("tagged Job, not Node"));
    }

    #[test]
    fn markdown_table_lists_every_feature() {
        let schema = FeatureSchema::standard();
        let md = schema.to_markdown_table();
        for name in schema.names() {
            assert!(md.contains(name.as_str()));
        }
        assert!(md.contains("| Feature | Type |"));
        assert!(md.contains("Network"));
        assert!(md.contains("Node"));
        assert!(md.contains("Job"));
    }
}
