//! `paper1000` and `ring_wide`: many SAC subgroups hosted on one
//! `net::Reactor` over loopback, each timed round closed by the paper's
//! FedAvg layer (`fed::fedavg` over the subgroup results), every result
//! checked against a simulator twin running the same actors and seeds.

use crate::report::{Report, RING_KINDS, SAC_KINDS};
use crate::stats::{median, percentile, sorted};
use crate::trace::{self, Tracer};
use crate::{mix, Run};
use p2pfl_net::{from_bytes, to_bytes, PeerHandle, Reactor, ReactorConfig, WireMsg};
use p2pfl_secagg::{
    RingMsg, RingSacActor, SacConfig, SacEngine, SacMsg, SacPeerActor, SacPhase, ShareScheme,
    WeightVector,
};
use p2pfl_simnet::{Actor, NodeId, Sim, SimDuration, SimTime, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

/// A subgroup layout and engine.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Number of subgroups.
    pub subgroups: usize,
    /// Peers per subgroup.
    pub sub_size: usize,
    /// Model dimension.
    pub dim: usize,
    /// Reconstruction threshold.
    pub k: usize,
}

impl Shape {
    fn peers(&self) -> usize {
        self.subgroups * self.sub_size
    }
}

/// The paper's scale shape: 100 × 10 pairwise-masked peers, dim 256, k 5.
pub const PAPER1000: Shape = Shape {
    subgroups: 100,
    sub_size: 10,
    dim: 256,
    k: 5,
};

/// Few large frames: 10 × 32 Ring-SAC peers, dim 4096, k 16.
pub const RING_WIDE: Shape = Shape {
    subgroups: 10,
    sub_size: 32,
    dim: 4096,
    k: 16,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Minimum timed rounds, however long they take.
const MIN_ROUNDS: u64 = 4;
/// A subgroup round that has not finished after this long is failed.
const ROUND_TIMEOUT: Duration = Duration::from_secs(30);

/// The engine-specific surface the round loop drives.
pub trait Engine: Actor<Self::Msg> + Send + 'static {
    /// The engine's wire message.
    type Msg: WireMsg + PartialEq + Send + 'static;
    /// Which engine a config selects.
    const KIND: SacEngine;
    /// Message kinds the engine sends, for the per-kind ledger.
    const KINDS: [&'static str; 5];
    /// Builds a participant.
    fn build(cfg: SacConfig, model: WeightVector) -> Self;
    /// Leader entry point.
    fn begin(&mut self, ctx: &mut dyn Transport<Self::Msg>, round: u64);
    /// The round the participant is in.
    fn round(&self) -> u64;
    /// Round phase.
    fn phase(&self) -> &SacPhase;
    /// Leader result once done.
    fn result(&self) -> Option<&WeightVector>;
    /// Contributors to the finished round.
    fn contributors(&self) -> usize;
    /// `[aborts, recoveries, stash_evicted]`.
    fn counters(&self) -> [u64; 3];
}

impl Engine for SacPeerActor {
    type Msg = SacMsg;
    const KIND: SacEngine = SacEngine::Pairwise;
    const KINDS: [&'static str; 5] = SAC_KINDS;
    fn build(cfg: SacConfig, model: WeightVector) -> Self {
        SacPeerActor::new(cfg, model)
    }
    fn begin(&mut self, ctx: &mut dyn Transport<SacMsg>, round: u64) {
        self.start_round(ctx, round)
    }
    fn round(&self) -> u64 {
        self.round
    }
    fn phase(&self) -> &SacPhase {
        &self.phase
    }
    fn result(&self) -> Option<&WeightVector> {
        self.result.as_ref()
    }
    fn contributors(&self) -> usize {
        self.contributors.len()
    }
    fn counters(&self) -> [u64; 3] {
        [self.aborts, self.recoveries as u64, self.stash_evicted]
    }
}

impl Engine for RingSacActor {
    type Msg = RingMsg;
    const KIND: SacEngine = SacEngine::Ring;
    const KINDS: [&'static str; 5] = RING_KINDS;
    fn build(cfg: SacConfig, model: WeightVector) -> Self {
        RingSacActor::new(cfg, model)
    }
    fn begin(&mut self, ctx: &mut dyn Transport<RingMsg>, round: u64) {
        self.start_round(ctx, round)
    }
    fn round(&self) -> u64 {
        self.round
    }
    fn phase(&self) -> &SacPhase {
        &self.phase
    }
    fn result(&self) -> Option<&WeightVector> {
        self.result.as_ref()
    }
    fn contributors(&self) -> usize {
        self.contributors.len()
    }
    fn counters(&self) -> [u64; 3] {
        [self.aborts, self.recoveries as u64, self.stash_evicted]
    }
}

/// Generated inputs: one model and one actor seed per peer.
struct Inputs {
    models: Vec<WeightVector>,
    actor_seed: u64,
}

fn inputs(shape: &Shape, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(mix(seed, 1));
    Inputs {
        models: (0..shape.peers())
            .map(|_| WeightVector::random(shape.dim, 1.0, &mut rng))
            .collect(),
        actor_seed: mix(seed, 2),
    }
}

fn config<E: Engine>(shape: &Shape, inp: &Inputs, id: usize, deadline: SimDuration) -> SacConfig {
    let g = id / shape.sub_size;
    SacConfig {
        group: (0..shape.sub_size)
            .map(|i| NodeId((g * shape.sub_size + i) as u32))
            .collect(),
        position: id % shape.sub_size,
        leader_pos: 0,
        k: shape.k,
        scheme: ShareScheme::Masked,
        engine: E::KIND,
        share_deadline: deadline,
        collect_deadline: deadline,
        round_deadline: None,
        seed: inp.actor_seed.wrapping_add(id as u64),
    }
}

/// What one subgroup leader reported for a round.
#[derive(Clone)]
struct Outcome {
    digest: u64,
    result: WeightVector,
    contributors: usize,
}

/// One reactor round: per-subgroup outcome (None = failed) and timings.
struct RoundRun {
    round: u64,
    outcomes: Vec<Option<Outcome>>,
    /// Per-subgroup completion time from round start, s.
    done_s: Vec<f64>,
    /// FedAvg output digest, when every subgroup finished.
    fedavg: Option<u64>,
    wall_s: f64,
}

/// A subgroup leader's finished round, reported from the reactor thread.
struct Done {
    group: usize,
    round: u64,
    at: Instant,
    outcome: Result<Outcome, String>,
}

/// Hosts an engine participant on the reactor unchanged, and has a leader
/// report each finished round the moment its phase turns terminal,
/// stamped on the reactor thread. The benchmark thread then waits on a
/// channel instead of polling every leader through the reactor, which
/// would load the very thread it measures and quantise completions to
/// the sweep.
pub struct Watched<E> {
    inner: E,
    /// `(subgroup, channel)` on a leader.
    leader_of: Option<(usize, Sender<Done>)>,
    reported: u64,
}

impl<E: Engine> Watched<E> {
    fn report(&mut self) {
        let Some((group, tx)) = &self.leader_of else {
            return;
        };
        let round = self.inner.round();
        if round == self.reported {
            return;
        }
        let outcome = match (self.inner.phase(), self.inner.result()) {
            (SacPhase::Done, Some(r)) => Ok(Outcome {
                digest: r.digest(),
                result: r.clone(),
                contributors: self.inner.contributors(),
            }),
            (SacPhase::Done, None) => Err("done without a result".to_owned()),
            (SacPhase::Failed(e), _) => Err(e.clone()),
            _ => return,
        };
        self.reported = round;
        let _ = tx.send(Done {
            group: *group,
            round,
            at: Instant::now(),
            outcome,
        });
    }
}

impl<E: Engine> Actor<E::Msg> for Watched<E> {
    fn on_start(&mut self, t: &mut dyn Transport<E::Msg>) {
        self.inner.on_start(t);
        self.report();
    }
    fn on_message(&mut self, t: &mut dyn Transport<E::Msg>, from: NodeId, msg: E::Msg) {
        self.inner.on_message(t, from, msg);
        self.report();
    }
    fn on_timer(&mut self, t: &mut dyn Transport<E::Msg>, tag: u64) {
        self.inner.on_timer(t, tag);
        self.report();
    }
    fn on_crash(&mut self, now: SimTime) {
        self.inner.on_crash(now);
    }
    fn on_restart(&mut self, t: &mut dyn Transport<E::Msg>) {
        self.inner.on_restart(t);
        self.report();
    }
    fn stash_evicted(&self) -> u64 {
        self.inner.stash_evicted()
    }
    fn shares_rejected(&self) -> u64 {
        self.inner.shares_rejected()
    }
}

type Handle<E> = PeerHandle<<E as Engine>::Msg, Watched<E>>;

struct Mesh<E: Engine> {
    /// Keeps the loop thread alive; dropping it shuts every peer down.
    _reactor: Reactor<E::Msg, Watched<E>>,
    handles: Vec<Handle<E>>,
    done: Receiver<Done>,
}

/// Starts a reactor, spawns every peer and registers each subgroup's mesh.
fn spawn<E: Engine>(shape: &Shape, inp: &Inputs) -> Mesh<E> {
    let reactor: Reactor<E::Msg, Watched<E>> =
        Reactor::start(ReactorConfig::default()).expect("bind the loopback reactor");
    let (tx, done) = mpsc::channel();
    let handles: Vec<Handle<E>> = (0..shape.peers())
        .map(|id| {
            let cfg = config::<E>(shape, inp, id, SimDuration::from_secs(300));
            let actor = Watched {
                inner: E::build(cfg, inp.models[id].clone()),
                leader_of: (id % shape.sub_size == 0).then(|| (id / shape.sub_size, tx.clone())),
                reported: 0,
            };
            reactor
                .spawn_peer(NodeId(id as u32), actor)
                .expect("spawn a peer on the reactor")
        })
        .collect();
    let addr = reactor.local_addr();
    for g in 0..shape.subgroups {
        let ids: Vec<usize> = (g * shape.sub_size..(g + 1) * shape.sub_size).collect();
        for &a in &ids {
            for &b in &ids {
                if a != b {
                    handles[a].add_peer(NodeId(b as u32), addr);
                }
            }
        }
    }
    Mesh {
        _reactor: reactor,
        handles,
        done,
    }
}

/// Starts `round` on every leader, waits for every leader's report, then
/// runs the FedAvg layer over the subgroup results. `waits` gets the time
/// each `PeerHandle::with` call waited for the reactor thread.
fn run_round<E: Engine>(
    shape: &Shape,
    mesh: &Mesh<E>,
    round: u64,
    waits: &mut Vec<f64>,
    tr: &mut Tracer,
) -> RoundRun {
    tr.span("bench.round", round, |tr| {
        let started = Instant::now();
        for g in 0..shape.subgroups {
            let t = Instant::now();
            tr.span("net.with", round, |_| {
                mesh.handles[g * shape.sub_size].with(move |w: &mut Watched<E>, ctx| {
                    w.inner.begin(ctx, round);
                    w.report();
                })
            });
            waits.push(t.elapsed().as_secs_f64());
        }
        let mut outcomes: Vec<Option<Outcome>> = vec![None; shape.subgroups];
        let mut done_s = vec![f64::NAN; shape.subgroups];
        let mut left = shape.subgroups;
        let deadline = started + ROUND_TIMEOUT;
        while left > 0 {
            let wait = deadline.saturating_duration_since(Instant::now());
            let Ok(d) = tr.span("net.wait_done", round, |_| mesh.done.recv_timeout(wait)) else {
                break;
            };
            if d.round != round || !done_s[d.group].is_nan() {
                continue;
            }
            done_s[d.group] = d.at.saturating_duration_since(started).as_secs_f64();
            outcomes[d.group] = d.outcome.ok();
            left -= 1;
        }
        let fedavg = fedavg_digest(&outcomes, tr, round);
        RoundRun {
            round,
            outcomes,
            done_s,
            fedavg,
            wall_s: started.elapsed().as_secs_f64(),
        }
    })
}

/// The FedAvg layer over the subgroup results, weighted by contributors.
fn fedavg_digest(outcomes: &[Option<Outcome>], tr: &mut Tracer, round: u64) -> Option<u64> {
    let done: Vec<&Outcome> = outcomes.iter().flatten().collect();
    if done.len() != outcomes.len() {
        return None;
    }
    let models: Vec<Vec<f64>> = done.iter().map(|o| o.result.as_slice().to_vec()).collect();
    let counts: Vec<usize> = done.iter().map(|o| o.contributors).collect();
    let avg = tr.span("fed.fedavg", round, |_| p2pfl_fed::fedavg(&models, &counts));
    Some(WeightVector::new(avg).digest())
}

/// Per-round expectations and costs from the simulator twin.
struct Twin<M> {
    digests: Vec<Vec<u64>>,
    fedavg: Vec<u64>,
    round_s: Vec<f64>,
    /// Per-kind `(msgs, bytes)` per peer per round, from `Sim::metrics`.
    kinds: Vec<(&'static str, f64, f64)>,
    /// Messages subgroup 0 sent in round 1, captured for the codec timing.
    captured: Vec<M>,
    /// Messages the ledger says subgroup 0 sent in round 1.
    sent_by_group0: u64,
}

/// Runs rounds `1..=rounds` on the simulator with the same actors and
/// seeds. Round 1 advances in link-latency steps so every in-flight
/// message of subgroup 0 is seen exactly once.
fn twin<E: Engine>(shape: &Shape, inp: &Inputs, rounds: u64) -> Twin<E::Msg> {
    let latency = SimDuration::from_millis(15);
    let mut sim: Sim<E::Msg> = Sim::new(mix(inp.actor_seed, 3));
    for id in 0..shape.peers() {
        let cfg = config::<E>(shape, inp, id, SimDuration::from_millis(500));
        sim.add_node(E::build(cfg, inp.models[id].clone()));
    }
    sim.run_until_quiet(1_000_000);
    let group0: Vec<NodeId> = (0..shape.sub_size).map(|i| NodeId(i as u32)).collect();
    let mut out = Twin {
        digests: Vec::new(),
        fedavg: Vec::new(),
        round_s: Vec::new(),
        kinds: Vec::new(),
        captured: Vec::new(),
        sent_by_group0: 0,
    };
    let before = sim.metrics().clone();
    for round in 1..=rounds {
        let t = Instant::now();
        for g in 0..shape.subgroups {
            sim.exec::<E, _, _>(NodeId((g * shape.sub_size) as u32), move |a, ctx| {
                a.begin(ctx, round)
            });
        }
        let end = sim.now() + SimDuration::from_secs(30);
        if round == 1 {
            while sim.now() < end {
                for (src, _, m) in sim.pending_deliveries() {
                    if (src.0 as usize) < shape.sub_size {
                        out.captured.push(m.clone());
                    }
                }
                if sim.run_for(latency) == 0 && sim.pending_deliveries().is_empty() {
                    break;
                }
            }
            out.sent_by_group0 = group0
                .iter()
                .map(|&n| sim.metrics().sent_by(n).msgs)
                .sum::<u64>()
                - group0.iter().map(|&n| before.sent_by(n).msgs).sum::<u64>();
        }
        sim.run_until(end);
        out.round_s.push(t.elapsed().as_secs_f64());
        let mut digests = Vec::with_capacity(shape.subgroups);
        let mut outcomes = Vec::with_capacity(shape.subgroups);
        for g in 0..shape.subgroups {
            let a = sim.actor::<E>(NodeId((g * shape.sub_size) as u32));
            let o = a
                .result()
                .filter(|_| *a.phase() == SacPhase::Done)
                .map(|r| Outcome {
                    digest: r.digest(),
                    result: r.clone(),
                    contributors: a.contributors(),
                });
            digests.push(o.as_ref().map_or(0, |o| o.digest));
            outcomes.push(o);
        }
        out.digests.push(digests);
        out.fedavg
            .push(fedavg_digest(&outcomes, &mut Tracer::new(false), round).unwrap_or(0));
    }
    let per = (shape.peers() as u64 * rounds) as f64;
    for kind in E::KINDS {
        let (now, was) = (sim.metrics().kind(kind), before.kind(kind));
        out.kinds.push((
            kind,
            (now.msgs - was.msgs) as f64 / per,
            (now.bytes - was.bytes) as f64 / per,
        ));
    }
    out
}

/// Encode and decode ns per frame over `msgs`, repeated for at least
/// 50 ms; checks that every frame round-trips.
fn codec_ns<M: WireMsg + PartialEq>(msgs: &[M], report: &mut Report) -> (f64, f64) {
    let frames: Vec<Vec<u8>> = msgs.iter().map(|m| to_bytes(m)).collect();
    let ok = frames
        .iter()
        .zip(msgs)
        .all(|(f, m)| from_bytes::<M>(f).is_ok_and(|d| d == *m));
    report.check(ok, || {
        "a captured frame did not round-trip through the codec".into()
    });
    let (mut enc, mut dec, mut n) = (Duration::ZERO, Duration::ZERO, 0usize);
    while enc + dec < Duration::from_millis(50) || n < 3 * msgs.len() {
        let t = Instant::now();
        for m in msgs {
            std::hint::black_box(to_bytes(std::hint::black_box(m)));
        }
        enc += t.elapsed();
        let t = Instant::now();
        for f in &frames {
            std::hint::black_box(from_bytes::<M>(std::hint::black_box(f)).is_ok());
        }
        dec += t.elapsed();
        n += msgs.len();
    }
    (
        enc.as_nanos() as f64 / n as f64,
        dec.as_nanos() as f64 / n as f64,
    )
}

/// Runs the workload: set-ups, timed rounds, twin, checks and metrics.
pub fn run<E: Engine>(shape: &Shape, run: &mut Run) {
    let inp = inputs(shape, run.seed);
    let mut warmups: Vec<RoundRun> = Vec::new();
    let (mut setup_s, mut net_setup_s, mut warmup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut mesh = None;
    for _ in 0..SETUPS {
        drop(mesh.take());
        let t = Instant::now();
        let m = spawn::<E>(shape, &inp);
        net_setup_s.push(t.elapsed().as_secs_f64());
        let w = run_round(shape, &m, 1, &mut Vec::new(), &mut Tracer::new(false));
        warmup_s.push(w.wall_s);
        setup_s.push(t.elapsed().as_secs_f64());
        warmups.push(w);
        mesh = Some(m);
    }
    let mesh = mesh.expect("at least one set-up");
    println!(
        "# set-up: {SETUPS} x (spawn {} peers, dial, warm-up round)",
        shape.peers()
    );

    let before = net_totals(&mesh.handles);
    let mut waits = Vec::new();
    let (untraced, traced) = timed_rounds(shape, &mesh, run, &mut waits);
    let after = net_totals(&mesh.handles);
    let decode_errors: u64 = mesh.handles.iter().map(|h| h.decode_errors()).sum();
    let mut engine = [0u64; 3];
    for h in &mesh.handles {
        let c = h.with(|w: &mut Watched<E>, _| w.inner.counters());
        engine.iter_mut().zip(c).for_each(|(e, c)| *e += c);
    }
    drop(mesh);

    let rounds = 1 + (untraced.len() + traced.len()) as u64;
    let t = Instant::now();
    let tw = twin::<E>(shape, &inp, rounds);
    println!(
        "# simulator twin: {rounds} rounds in {:.2} s",
        t.elapsed().as_secs_f64()
    );
    let r = &mut run.report;
    for (i, w) in warmups.iter().enumerate() {
        check_round(r, w, &tw, &format!("set-up {i} warm-up"));
    }
    for rr in untraced.iter().chain(&traced) {
        check_round(r, rr, &tw, "timed");
    }
    let timed = untraced.len() + traced.len();
    r.attempted += (shape.subgroups * timed) as u64;
    r.failed += untraced
        .iter()
        .chain(&traced)
        .map(|rr| rr.outcomes.iter().filter(|o| o.is_none()).count() as u64)
        .sum::<u64>();
    r.check(decode_errors == 0, || {
        format!("{decode_errors} frames failed to decode")
    });
    r.check(after.dropped == 0, || {
        format!("{} sends dropped", after.dropped)
    });
    r.check(tw.captured.len() as u64 == tw.sent_by_group0, || {
        format!(
            "codec capture saw {} of subgroup 0's {} messages",
            tw.captured.len(),
            tw.sent_by_group0
        )
    });

    // End-to-end.
    let walls: Vec<f64> = untraced.iter().map(|rr| rr.wall_s).collect();
    let done: Vec<f64> = untraced
        .iter()
        .flat_map(|rr| rr.done_s.iter().copied())
        .collect();
    let sorted_done = sorted(&done);
    let n = timed as f64;
    let updates: usize = untraced
        .iter()
        .flat_map(|rr| rr.outcomes.iter().flatten().map(|o| o.contributors))
        .sum();
    r.set("round_s.p50", median(&walls), walls.len());
    r.set("subgroup_s.p50", percentile(&sorted_done, 50.0), done.len());
    r.set("subgroup_s.p90", percentile(&sorted_done, 90.0), done.len());
    r.set(
        "updates_per_s",
        updates as f64 / walls.iter().sum::<f64>(),
        walls.len(),
    );
    let peers = shape.peers() as f64;
    r.set(
        "bytes_per_peer",
        (after.bytes - before.bytes) as f64 / peers / n,
        walls.len(),
    );
    r.set("accuracy", if r.correct() { 1.0 } else { 0.0 }, walls.len());
    r.set("setup_s", median(&setup_s), setup_s.len());
    run.round_walls = walls.clone();

    // Per-layer.
    r.set(
        "net.frames_per_peer",
        (after.frames - before.frames) as f64 / peers / n,
        walls.len(),
    );
    r.set(
        "net.coalesced_frac",
        (after.coalesced - before.coalesced) as f64 / (after.frames - before.frames).max(1) as f64,
        walls.len(),
    );
    r.set("net.send_queue_peak", after.queue_peak as f64, 1);
    r.set("net.sends_dropped", after.dropped as f64, 1);
    r.set("net.decode_errors", decode_errors as f64, 1);
    r.set("net.reconnects", after.reconnects as f64, 1);
    r.set("net.setup_s", median(&net_setup_s), net_setup_s.len());
    r.set("net.warmup_round_s", median(&warmup_s), warmup_s.len());
    let (enc, dec) = codec_ns(&tw.captured, r);
    r.set("net.codec.encode_ns_per_frame", enc, tw.captured.len());
    r.set("net.codec.decode_ns_per_frame", dec, tw.captured.len());
    r.set("secagg.sim_round_s", median(&tw.round_s), tw.round_s.len());
    for &(kind, msgs, bytes) in &tw.kinds {
        r.set(format!("secagg.msgs.{kind}"), msgs, tw.round_s.len());
        r.set(format!("secagg.bytes.{kind}"), bytes, tw.round_s.len());
    }
    r.set("secagg.aborts", engine[0] as f64, 1);
    r.set("secagg.recoveries", engine[1] as f64, 1);
    r.set("secagg.stash_evicted", engine[2] as f64, 1);
    r.set("secagg.degraded_retries", 0.0, 1);
    let sw = sorted(&waits);
    r.set("net.handle_wait_s.p50", percentile(&sw, 50.0), waits.len());
    r.set("net.handle_wait_s.p90", percentile(&sw, 90.0), waits.len());
    if run.tracer.enabled() {
        let combine = trace::durations_s(run.tracer.spans(), "fed.fedavg");
        r.set("fed.combine_s", median(&combine), combine.len());
        run.traced_walls = traced.iter().map(|rr| rr.wall_s).collect();
    }
}

/// Timed rounds from round 2 until the run's seconds are spent. A traced
/// run alternates untraced and traced rounds for twice as long, so both
/// halves see the same drift. Returns `(untraced, traced)`; `waits` gets
/// the untraced rounds' `PeerHandle::with` latencies.
fn timed_rounds<E: Engine>(
    shape: &Shape,
    mesh: &Mesh<E>,
    run: &mut Run,
    waits: &mut Vec<f64>,
) -> (Vec<RoundRun>, Vec<RoundRun>) {
    let traced = run.tracer.enabled();
    let budget = if traced {
        2.0 * run.seconds
    } else {
        run.seconds
    };
    let t = Instant::now();
    let (mut untraced_rounds, mut traced_rounds) = (Vec::new(), Vec::new());
    let mut off = Tracer::new(false);
    for round in 2.. {
        let enough =
            untraced_rounds.len() as u64 >= MIN_ROUNDS && t.elapsed().as_secs_f64() >= budget;
        if enough {
            break;
        }
        let rr = if traced && round % 2 == 1 {
            let rr = run_round(shape, mesh, round, &mut Vec::new(), &mut run.tracer);
            traced_rounds.push(rr);
            traced_rounds.last()
        } else {
            untraced_rounds.push(run_round(shape, mesh, round, waits, &mut off));
            untraced_rounds.last()
        };
        if rr.is_some_and(|rr| rr.fedavg.is_none()) {
            break;
        }
    }
    (untraced_rounds, traced_rounds)
}

fn check_round<M>(r: &mut Report, rr: &RoundRun, tw: &Twin<M>, what: &str) {
    let round = rr.round;
    let i = round as usize - 1;
    for (g, o) in rr.outcomes.iter().enumerate() {
        let got = o.as_ref().map(|o| o.digest);
        r.check(
            got == Some(tw.digests[i][g]) && tw.digests[i][g] != 0,
            || {
                format!(
                    "{what} round {round} subgroup {g}: digest {got:?} vs twin {}",
                    tw.digests[i][g]
                )
            },
        );
    }
    r.check(rr.fedavg == Some(tw.fedavg[i]), || {
        format!(
            "{what} round {round}: FedAvg digest {:?} vs twin {}",
            rr.fedavg, tw.fedavg[i]
        )
    });
}

/// Transport counters summed over every peer.
#[derive(Default)]
struct NetTotals {
    bytes: u64,
    frames: u64,
    coalesced: u64,
    dropped: u64,
    reconnects: u64,
    queue_peak: u64,
}

fn net_totals<E: Engine>(handles: &[Handle<E>]) -> NetTotals {
    let mut t = NetTotals::default();
    for h in handles {
        let s = h.stats();
        t.bytes += s.bytes_sent;
        t.frames += s.frames_sent;
        t.coalesced += s.frames_coalesced;
        t.dropped += s.sends_dropped;
        t.reconnects += s.reconnects;
        t.queue_peak = t.queue_peak.max(s.send_queue_peak);
    }
    t
}
