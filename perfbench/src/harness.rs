//! Shared pieces of every workload: latency statistics, the in-memory span
//! tracer, per-decision correctness checks, decision quality, and the
//! result record `main` prints.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use cluster::{ClusterState, NodeId};
use netsched_core::{JobRequest, NodeRanking};

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every checked decision and the checks it failed.
    pub checks: Checks,
    /// The end-to-end metrics (service calls, never traced spans).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (filled by the traced run only).
    pub per_layer: Vec<Metric>,
    /// Run context printed next to the results: cores, worker counts,
    /// world sizes, model kinds.
    pub notes: Vec<(&'static str, String)>,
    /// The traced run's stage table.
    pub stages: Vec<StageRow>,
}

impl Outcome {
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }
}

/// Nearest-rank percentile (`q` in 0..=100) of `samples`, sorting them.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentiles need at least one sample");
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = (q / 100.0 * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The median, or 0 for a layer that recorded nothing.
pub fn median_or_zero(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One traced stage: name, decision it belongs to, causing span, and its
/// interval in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub decision: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory while the run lasts and written out when it ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }
}

/// The root span name every workload's replayed decision (or burst) uses.
pub const ROOT: &str = "decision";

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, decision: u64, parent: Option<u32>) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            decision,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        let end = self.now_ns();
        self.spans[span as usize].end_ns = end;
    }

    /// Durations (ns) of every span with `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Median duration of the spans named `name`, in nanoseconds (0 when
    /// none were recorded).
    pub fn median_ns(&self, name: &str) -> f64 {
        median_or_zero(&mut self.durations(name))
    }

    /// Share of the root spans' total time that no child span covers.
    pub fn unaccounted_share(&self) -> f64 {
        let mut root_total = 0u64;
        let mut child_total = 0u64;
        for span in &self.spans {
            if span.name == ROOT {
                root_total += span.duration_ns();
            } else if let Some(parent) = span.parent {
                if self.spans[parent as usize].name == ROOT {
                    child_total += span.duration_ns();
                }
            }
        }
        if root_total == 0 {
            0.0
        } else {
            root_total.saturating_sub(child_total) as f64 / root_total as f64
        }
    }

    /// The stage table: per span name, count, median, p95 and total time.
    pub fn stage_table(&self) -> Vec<StageRow> {
        let mut names: Vec<&'static str> = Vec::new();
        for span in &self.spans {
            if !names.contains(&span.name) {
                names.push(span.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let mut d = self.durations(name);
                let total: f64 = d.iter().sum();
                StageRow {
                    name,
                    count: d.len(),
                    p50_us: median(&mut d) / 1e3,
                    p95_us: percentile(&mut d, 95.0) / 1e3,
                    total_ms: total / 1e6,
                }
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"decision\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.decision, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One row of the traced stage table.
#[derive(Debug, Clone)]
pub struct StageRow {
    pub name: &'static str,
    pub count: usize,
    pub p50_us: f64,
    pub p95_us: f64,
    pub total_ms: f64,
}

/// Per-decision correctness accounting.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: BTreeMap<&'static str, u64>,
}

impl Checks {
    /// Count one checked decision; `failures` names every check it failed.
    pub fn record(&mut self, failures: &[&'static str]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
        }
        for &name in failures {
            *self.reasons.entry(name).or_default() += 1;
        }
    }
}

/// The checks every decision of every workload runs, outside the timed
/// spans. Returns the names of the checks that failed.
pub fn check_decision(
    ranking: &NodeRanking,
    used_model: bool,
    request: &JobRequest,
    cluster: &ClusterState,
    reference: &NodeRanking,
) -> Vec<&'static str> {
    let mut failed = Vec::new();
    let driver = request.driver_resources();
    match ranking.best() {
        None => {
            if cluster.nodes().iter().any(|n| n.fits(&driver)) {
                failed.push("no_pick_while_feasible");
            }
        }
        Some(best) => {
            if !cluster
                .node_by_id(best.node)
                .is_some_and(|n| n.fits(&driver))
            {
                failed.push("pick_infeasible");
            }
        }
    }
    if !used_model {
        failed.push("model_not_used");
    }
    if ranking.best().map(|r| r.node) != reference.best().map(|r| r.node) {
        failed.push("top1_differs_from_reference");
    }
    failed
}

/// Decision quality against per-decision ground truth: either recorded
/// completion times (the FABRIC testbed) or the naive reference's
/// predictions (worlds without recorded runs).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Quality {
    pub evaluated: u64,
    pub top1: u64,
    pub top2: u64,
    /// Sum of ln(default pick's time / service pick's time).
    pub log_speedup: f64,
    pub speedups: u64,
}

impl Quality {
    /// Score one decision. `time_of` gives the ground-truth completion of a
    /// node (`None` when unknown) and `best` the fastest candidate's; the hit
    /// rule is tie-aware: a node scores when its time equals `best`.
    pub fn score(
        &mut self,
        service: &[NodeId],
        default_pick: Option<NodeId>,
        best: f64,
        time_of: impl Fn(NodeId) -> Option<f64>,
    ) {
        if service.is_empty() || !best.is_finite() {
            return;
        }
        self.evaluated += 1;
        let is_fastest = |n: &NodeId| time_of(*n) == Some(best);
        if service.first().is_some_and(is_fastest) {
            self.top1 += 1;
        }
        if service.iter().take(2).any(is_fastest) {
            self.top2 += 1;
        }
        if let (Some(t_default), Some(t_service)) =
            (default_pick.and_then(&time_of), time_of(service[0]))
        {
            if t_default > 0.0 && t_service > 0.0 {
                self.log_speedup += (t_default / t_service).ln();
                self.speedups += 1;
            }
        }
    }

    pub fn top1_accuracy(&self) -> f64 {
        self.top1 as f64 / self.evaluated.max(1) as f64
    }

    pub fn top2_accuracy(&self) -> f64 {
        self.top2 as f64 / self.evaluated.max(1) as f64
    }

    pub fn speedup(&self) -> f64 {
        if self.speedups == 0 {
            1.0
        } else {
            (self.log_speedup / self.speedups as f64).exp()
        }
    }

    pub fn metrics(&self) -> [Metric; 3] {
        [
            metric("top1_accuracy", self.top1_accuracy(), "share"),
            metric("top2_accuracy", self.top2_accuracy(), "share"),
            metric("speedup_vs_default", self.speedup(), "ratio"),
        ]
    }
}

/// Score a decision against the naive reference's predictions, for worlds
/// without recorded runs: the reference's first node is the predicted
/// fastest.
pub fn score_predicted(
    quality: &mut Quality,
    service: &NodeRanking,
    default_pick: Option<NodeId>,
    reference: &NodeRanking,
) {
    let first_two: Vec<NodeId> = service.ranked.iter().take(2).map(|r| r.node).collect();
    let best = reference
        .best()
        .map_or(f64::INFINITY, |r| r.predicted_seconds);
    quality.score(&first_two, default_pick, best, |node| {
        reference
            .position_of(node)
            .map(|i| reference.ranked[i].predicted_seconds)
    });
}

/// The latency end-to-end metrics from per-decision samples (ms).
pub fn latency_metrics(samples_ms: &mut [f64]) -> [Metric; 2] {
    [
        metric("decision_p50_ms", percentile(samples_ms, 50.0), "ms"),
        metric("decision_p95_ms", percentile(samples_ms, 95.0), "ms"),
    ]
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 95.0), 95.0);
        assert_eq!(percentile(&mut [3.0], 95.0), 3.0);
    }

    #[test]
    fn unaccounted_share_counts_root_time_outside_children() {
        let mut t = Tracer::default();
        t.spans.push(Span {
            name: ROOT,
            decision: 0,
            parent: None,
            start_ns: 0,
            end_ns: 100,
        });
        t.spans.push(Span {
            name: "a",
            decision: 0,
            parent: Some(0),
            start_ns: 10,
            end_ns: 70,
        });
        assert!((t.unaccounted_share() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn quality_is_tie_aware() {
        let mut q = Quality::default();
        let times = [3.0, 1.0, 1.0];
        let time_of = |n: NodeId| times.get(n.index()).copied();
        // Picks node 2, tied with node 1 for fastest.
        q.score(
            &[NodeId::from_index(2), NodeId::from_index(0)],
            Some(NodeId::from_index(0)),
            1.0,
            time_of,
        );
        assert_eq!((q.top1, q.top2, q.evaluated), (1, 1, 1));
        assert!((q.speedup() - 3.0).abs() < 1e-12);
    }
}
