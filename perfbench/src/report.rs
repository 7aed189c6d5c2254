//! The metric names, the collected values, and the printed result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper1000", "ring_wide", "train_cnn"];

/// End-to-end metrics `(name, unit)`, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("round_s.p50", "s"),
    ("subgroup_s.p50", "s"),
    ("subgroup_s.p90", "s"),
    ("updates_per_s", "1/s"),
    ("bytes_per_peer", "B"),
    ("accuracy", "frac"),
    ("failover_ms.p50", "ms"),
    ("failover_ms.p99", "ms"),
    ("rebuild_ms.p50", "ms"),
    ("rebuild_ms.p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Message kinds of the pairwise engine, as `Payload::kind` names them.
pub const SAC_KINDS: [&str; 5] = [
    "sac.share",
    "sac.commit",
    "sac.subtotal",
    "sac.begin",
    "sac.ctrl",
];
/// Message kinds of the Ring engine.
pub const RING_KINDS: [&str; 5] = [
    "ring.share",
    "ring.shared",
    "ring.total",
    "ring.begin",
    "ring.ctrl",
];
/// Control-plane message kinds reported per crash trial.
pub const HIER_KINDS: [&str; 7] = [
    "hier.sub",
    "hier.fed",
    "hier.join_request",
    "hier.join_ack",
    "hier.probe",
    "hier.probe_ack",
    "hier.config_echo",
];
/// Layers whose per-round self time the traced run reports.
pub const LAYERS: [&str; 8] = [
    "bench", "core", "fed", "hierraft", "ml", "net", "secagg", "simnet",
];

/// Per-layer metrics `(name, unit)`, printed by traced runs. A layer a
/// workload does not call reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("net.frames_per_peer", "count"),
        ("net.coalesced_frac", "frac"),
        ("net.handle_wait_s.p50", "s"),
        ("net.handle_wait_s.p90", "s"),
        ("net.send_queue_peak", "count"),
        ("net.sends_dropped", "count"),
        ("net.decode_errors", "count"),
        ("net.reconnects", "count"),
        ("net.setup_s", "s"),
        ("net.warmup_round_s", "s"),
        ("net.codec.encode_ns_per_frame", "ns"),
        ("net.codec.decode_ns_per_frame", "ns"),
        ("secagg.sim_round_s", "s"),
        ("secagg.ftsac_s", "s"),
        ("secagg.aborts", "count"),
        ("secagg.recoveries", "count"),
        ("secagg.stash_evicted", "count"),
        ("secagg.degraded_retries", "count"),
        ("fed.local_updates_s", "s"),
        ("fed.combine_s", "s"),
        ("ml.train_samples_per_s", "1/s"),
        ("ml.evaluate_s", "s"),
        ("hierraft.settle_s", "s"),
        ("hierraft.stabilize_s", "s"),
        ("hierraft.trials_per_s", "1/s"),
        ("hierraft.join_overhead_ms.p50", "ms"),
        ("simnet.events_per_round", "count"),
        ("simnet.events_per_s", "1/s"),
        ("raft.elect_ms.p50", "ms"),
        ("raft.elect_ms.p99", "ms"),
        ("raft.fed_elect_ms.p50", "ms"),
        ("raft.sub_elect_ms.p50", "ms"),
        ("raft.split_vote_frac", "frac"),
        ("raft.msgs_per_trial", "count"),
        ("core.round_self_s", "s"),
        ("core.round_drift", "ratio"),
        ("trace.round_s.p50", "s"),
        ("trace.overhead_s", "s"),
        ("trace.split_reported", "count"),
        ("trace.reconcile_err_frac", "frac"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_owned(), u))
    .collect();
    for kind in SAC_KINDS.iter().chain(&RING_KINDS) {
        v.push((format!("secagg.bytes.{kind}"), "B"));
        v.push((format!("secagg.msgs.{kind}"), "count"));
    }
    for kind in HIER_KINDS {
        v.push((format!("hierraft.bytes.{kind}"), "B"));
    }
    for layer in LAYERS {
        v.push((format!("{layer}.self_s"), "s"));
    }
    v
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value.
    pub value: f64,
    /// Samples it summarises (1 for a single measurement or a total).
    pub samples: usize,
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, Value>,
    /// Operations attempted (subgroup rounds and crash trials).
    pub attempted: u64,
    /// Operations that failed, plus failed correctness checks.
    pub failed: u64,
    /// A line per failed check.
    pub failures: Vec<String>,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.values.insert(name.into(), Value { value, samples });
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.values.get(name).copied()
    }

    /// Counts a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The metrics a run prints: the end-to-end set untraced, the
    /// per-layer set traced. Missing end-to-end values are check failures;
    /// missing per-layer values are layers the workload never called (0).
    pub fn finish(&mut self, traced: bool) -> Vec<(String, &'static str, Value)> {
        let names: Vec<(String, &'static str)> = if traced {
            per_layer()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
        };
        let mut out = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let v = match self.get(&name) {
                Some(v) if v.value.is_finite() => v,
                Some(v) => {
                    self.check(false, || format!("{name} is not finite: {}", v.value));
                    Value {
                        value: 0.0,
                        samples: 0,
                    }
                }
                None if traced => Value {
                    value: 0.0,
                    samples: 0,
                },
                None => {
                    self.check(false, || format!("{name} was not measured"));
                    Value {
                        value: 0.0,
                        samples: 0,
                    }
                }
            };
            out.push((name, unit, v));
        }
        out
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, Value)],
) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
            v.value
        );
    }
    s.push_str("}}");
    s
}
