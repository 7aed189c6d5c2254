//! The p2pfl benchmark: three closed-loop workloads over the whole stack,
//! measured from outside through each crate's public functions. See
//! `README.md` for the workloads, the metrics and what each should move.

pub mod failover;
pub mod reactor;
pub mod report;
pub mod stats;
pub mod trace;
pub mod train;

use report::{Report, WORKLOADS};
use stats::median;
use trace::Tracer;

/// Derives an independent stream seed from the workload seed (SplitMix64).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One benchmark run's settings and what it has measured so far.
pub struct Run {
    /// The workload seed; every input derives from it.
    pub seed: u64,
    /// How long the timed loop runs, s.
    pub seconds: f64,
    /// Spans of the traced phase (disabled on untraced runs).
    pub tracer: Tracer,
    /// Metrics and checks.
    pub report: Report,
    /// Untraced wall time of each timed round, in order.
    pub round_walls: Vec<f64>,
    /// The same for the traced phase of a traced run.
    pub traced_walls: Vec<f64>,
}

impl Run {
    /// A run of `seconds` seconds from `seed`, traced when `traced`.
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Run {
        Run {
            seed,
            seconds,
            tracer: Tracer::new(traced),
            report: Report::default(),
            round_walls: Vec::new(),
            traced_walls: Vec::new(),
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of the last quarter of `walls` over the median of the first.
pub fn drift(walls: &[f64]) -> Option<f64> {
    let q = walls.len() / 4;
    if q == 0 {
        return None;
    }
    Some(median(&walls[walls.len() - q..]) / median(&walls[..q]))
}

/// Runs workload `name`; `None` if no workload has that name.
pub fn run_workload(name: &str, run: &mut Run) -> Option<()> {
    // The crash batch runs first, before the workload grows its heap, so
    // its timings do not depend on which workload it shares a run with.
    if !WORKLOADS.contains(&name) {
        return None;
    }
    failover::probe(run);
    match name {
        "paper1000" => reactor::run::<p2pfl_secagg::SacPeerActor>(&reactor::PAPER1000, run),
        "ring_wide" => reactor::run::<p2pfl_secagg::RingSacActor>(&reactor::RING_WIDE, run),
        "train_cnn" => train::run(run),
        _ => return None,
    }
    let walls = run.round_walls.clone();
    let series: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    if walls.len() <= 64 {
        println!("# round walls (s): [{}]", series.join(", "));
    }
    let r = &mut run.report;
    if let Some(d) = drift(&walls) {
        r.set("core.round_drift", d, walls.len());
    }
    if !run.traced_walls.is_empty() {
        let (t, u) = (median(&run.traced_walls), median(&walls));
        r.set("trace.round_s.p50", t, run.traced_walls.len());
        r.set("trace.overhead_s", t - u, run.traced_walls.len());
    }
    let root = match name {
        "train_cnn" => "core.round",
        _ => "bench.round",
    };
    // Per-layer self time, as a mean per round so the layers add up to
    // the mean traced round; the remainder is reported as a check.
    let per_layer = trace::layer_self_per_round(run.tracer.spans(), root);
    let roots = trace::durations_s(run.tracer.spans(), root);
    if !roots.is_empty() {
        let mut sum = 0.0;
        for (layer, v) in per_layer {
            let m = mean(&v);
            sum += m;
            r.set(format!("{layer}.self_s"), m, v.len());
        }
        let total = mean(&roots);
        r.set(
            "trace.reconcile_err_frac",
            (sum - total).abs() / total,
            roots.len(),
        );
        println!(
            "# traced round: {total:.6} s mean over {} rounds; layer self times sum to {sum:.6} s",
            roots.len()
        );
    }
    match stats::peak_rss_mb() {
        Some(mb) => r.set("peak_rss_mb", mb, 1),
        None => r.check(false, || "VmHWM unavailable in /proc/self/status".into()),
    }
    Some(())
}
