//! The crash batch: seeded Sec. V crash trials on the paper's deployment
//! (5 × 5 peers, T = 100 ms, 15 ms links), read on the virtual clock.
//! Every workload runs it before its own loop.
//!
//! The batch calls `hierraft::experiments::*_crash_trial` directly.
//! Counts the trial functions keep to themselves (events, messages, terms)
//! come, on traced runs, from a replica of each trial built on the public
//! `Deployment` API, which must reproduce the trial's milestones exactly.

use crate::report::{Report, HIER_KINDS};
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;
use crate::{mix, Run};
use p2pfl_hierraft::experiments::{
    fedavg_leader_crash_trial, subgroup_leader_crash_trial, FedRecovery, SubgroupRecovery,
};
use p2pfl_hierraft::{Deployment, DeploymentSpec, HierActor};
use p2pfl_simnet::{Counter, NodeId, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

/// Election timeout `T`, ms (the paper's Sec. V setting).
pub const T_MS: u64 = 100;
/// Seeds per batch; each seed runs one trial of each kind.
pub const TRIALS: usize = 1000;
/// Seeds the replica re-runs on a traced run.
const REPLICA_SEEDS: usize = 200;
/// Trial `i`'s seed, hashed rather than counted up from a base: runs of
/// consecutive simulator seeds share recovery behaviour, so a batch of
/// them swings with its base, where hashed seeds each draw afresh.
fn trial_seed(seed: u64, i: usize) -> u64 {
    mix(mix(seed, 10), i as u64)
}

/// Milestones of one batch, in seed order, with wall times.
#[derive(Default)]
struct Batch {
    sub: Vec<Option<SubgroupRecovery>>,
    fed: Vec<Option<FedRecovery>>,
    /// Wall time of each single trial, s.
    trial_s: Vec<f64>,
}

impl Batch {
    /// Runs seed `i`'s pair of trials through the trial functions.
    fn push(&mut self, seed: u64, i: usize) {
        let s = trial_seed(seed, i);
        let t0 = Instant::now();
        self.sub.push(subgroup_leader_crash_trial(T_MS, s));
        let t1 = Instant::now();
        self.fed.push(fedavg_leader_crash_trial(T_MS, s));
        let t2 = Instant::now();
        self.trial_s.push((t1 - t0).as_secs_f64());
        self.trial_s.push((t2 - t1).as_secs_f64());
    }
}

/// Runs every seed's pair.
fn batch(seed: u64) -> Batch {
    let mut b = Batch::default();
    for i in 0..TRIALS {
        b.push(seed, i);
    }
    b
}

/// Checks every trial recovered in order, counts attempts and failures,
/// and records the virtual-time metrics of `b`.
fn record(b: &Batch, r: &mut Report) {
    r.attempted += (b.sub.len() + b.fed.len()) as u64;
    let failed =
        b.sub.iter().filter(|x| x.is_none()).count() + b.fed.iter().filter(|x| x.is_none()).count();
    r.failed += failed as u64;
    let sub: Vec<SubgroupRecovery> = b.sub.iter().flatten().copied().collect();
    let fed: Vec<FedRecovery> = b.fed.iter().flatten().copied().collect();
    let bad_sub = sub.iter().filter(|x| x.elect_ms > x.join_ms).count();
    r.check(bad_sub == 0, || {
        format!("{bad_sub} subgroup trials joined before electing")
    });
    let bad_fed = fed
        .iter()
        .filter(|x| x.sub_elect_ms > x.rebuild_ms || x.fed_elect_ms > x.rebuild_ms)
        .count();
    r.check(bad_fed == 0, || {
        format!("{bad_fed} FedAvg trials rebuilt before electing")
    });
    if sub.is_empty() || fed.is_empty() {
        r.check(false, || "no crash trial recovered".into());
        return;
    }
    let col = |f: &dyn Fn(usize) -> f64, n: usize| sorted(&(0..n).map(f).collect::<Vec<_>>());
    let join = col(&|i| sub[i].join_ms, sub.len());
    let elect = col(&|i| sub[i].elect_ms, sub.len());
    let overhead = col(&|i| sub[i].join_ms - sub[i].elect_ms, sub.len());
    let rebuild = col(&|i| fed[i].rebuild_ms, fed.len());
    let fed_elect = col(&|i| fed[i].fed_elect_ms, fed.len());
    let sub_elect = col(&|i| fed[i].sub_elect_ms, fed.len());
    r.set("failover_ms.p50", percentile(&join, 50.0), join.len());
    r.set("failover_ms.p99", percentile(&join, 99.0), join.len());
    r.set("rebuild_ms.p50", percentile(&rebuild, 50.0), rebuild.len());
    r.set("rebuild_ms.p99", percentile(&rebuild, 99.0), rebuild.len());
    r.set("raft.elect_ms.p50", percentile(&elect, 50.0), elect.len());
    r.set("raft.elect_ms.p99", percentile(&elect, 99.0), elect.len());
    r.set(
        "hierraft.join_overhead_ms.p50",
        percentile(&overhead, 50.0),
        overhead.len(),
    );
    r.set(
        "raft.fed_elect_ms.p50",
        percentile(&fed_elect, 50.0),
        fed_elect.len(),
    );
    r.set(
        "raft.sub_elect_ms.p50",
        percentile(&sub_elect, 50.0),
        sub_elect.len(),
    );
}

/// One batch of crash trials, run by every workload before its own loop,
/// so the control plane's recovery is measured on every workload. A traced
/// run also replays the first seeds on the replica for the counts the
/// trial functions keep to themselves.
pub fn probe(run: &mut Run) {
    let b = batch(run.seed);
    let rate = trials_per_s(&b.trial_s);
    let r = &mut run.report;
    record(&b, r);
    r.set("hierraft.trials_per_s", rate, b.trial_s.len());
    if run.tracer.enabled() {
        replica_counts(run.seed, &b, &mut run.tracer, r);
    }
}

/// Trials completed per second spent in them.
fn trials_per_s(trial_s: &[f64]) -> f64 {
    let rate = trial_s.len() as f64 / trial_s.iter().sum::<f64>();
    println!("# crash trials: {} at {rate:.1}/s", trial_s.len());
    rate
}

/// Re-runs the first [`REPLICA_SEEDS`] seeds of `first` on the replica,
/// each in a `bench.trial` span of its own (outside every workload's
/// rounds), and records its per-trial counts.
fn replica_counts(seed: u64, first: &Batch, tr: &mut Tracer, r: &mut Report) {
    let mut rep = Replica::default();
    for i in 0..REPLICA_SEEDS {
        replicate(seed, i, first, &mut rep, tr, r);
    }
    println!("# crash-trial replica of {} seeds", rep.trials / 2);
    if rep.trials == 0 {
        r.check(false, || "no replica trial recovered".into());
        return;
    }
    r.set(
        "raft.msgs_per_trial",
        rep.total.msgs as f64 / rep.trials as f64,
        rep.trials,
    );
    for kind in HIER_KINDS {
        let c = rep.kinds.get(kind).copied().unwrap_or_default();
        r.set(
            format!("hierraft.bytes.{kind}"),
            c.bytes as f64 / rep.trials as f64,
            rep.trials,
        );
    }
    r.set(
        "raft.split_vote_frac",
        1.0 - rep.wins as f64 / rep.terms.max(1) as f64,
        rep.trials,
    );
    if rep.wait_s > 0.0 {
        r.set(
            "simnet.events_per_s",
            rep.events as f64 / rep.wait_s,
            rep.trials,
        );
    }
}

/// Totals over the replica's trials.
#[derive(Default)]
struct Replica {
    trials: usize,
    total: Counter,
    kinds: BTreeMap<&'static str, Counter>,
    /// Leadership wins and term advances, over every Raft group.
    wins: u64,
    terms: u64,
    events: u64,
    /// Wall time spent inside the simulator's run loop, s.
    wait_s: f64,
}

/// Runs `wait` the way `Deployment::wait` does, counting events and time.
fn wait(
    d: &mut Deployment,
    deadline: SimTime,
    pred: impl Fn(&Deployment) -> bool,
    rep: &mut Replica,
    tr: &mut Tracer,
    id: u64,
) -> bool {
    tr.span("simnet.wait", id, |_| loop {
        if pred(d) {
            return true;
        }
        if d.sim.now() >= deadline {
            return false;
        }
        let t = Instant::now();
        rep.events += d.sim.run_for(SimDuration::from_millis(5));
        rep.wait_s += t.elapsed().as_secs_f64();
    })
}

fn stabilize(seed: u64, rep: &mut Replica, tr: &mut Tracer, id: u64) -> Option<Deployment> {
    let mut d = tr.span("hierraft.build", id, |_| {
        Deployment::build(DeploymentSpec::paper(T_MS, seed))
    });
    let deadline = SimTime::from_millis(40 * T_MS + 5_000);
    wait(&mut d, deadline, |d| d.is_stable(), rep, tr, id).then_some(d)
}

/// Adds a finished trial's ledger and election counts to `rep`.
fn tally(d: &Deployment, rep: &mut Replica) {
    rep.trials += 1;
    let m = d.sim.metrics();
    rep.total.msgs += m.total().msgs;
    rep.total.bytes += m.total().bytes;
    for (kind, c) in m.kinds() {
        let e = rep.kinds.entry(kind).or_default();
        e.msgs += c.msgs;
        e.bytes += c.bytes;
    }
    let (mut fed_term, mut fed_wins) = (0, 0);
    for g in &d.subgroups {
        let (mut term, mut wins) = (0, 0);
        for &id in g {
            let a = d.sim.actor::<HierActor>(id);
            term = term.max(a.sub_raft().term());
            wins += a.sub_leader_history.len() as u64;
            fed_term = fed_term.max(a.fed_raft().map_or(0, |f| f.term()));
            fed_wins += a.fed_leader_history.len() as u64;
        }
        rep.terms += term;
        rep.wins += wins;
    }
    rep.terms += fed_term;
    rep.wins += fed_wins;
}

fn sub_replica(seed: u64, rep: &mut Replica, tr: &mut Tracer, id: u64) -> Option<SubgroupRecovery> {
    let mut d = stabilize(seed, rep, tr, id)?;
    let fed_leader = d.fed_leader()?;
    let group =
        (0..d.subgroups.len()).find(|&g| d.sub_leader_of(g).is_some_and(|l| l != fed_leader))?;
    let victim = d.sub_leader_of(group)?;
    let t0 = d.sim.now() + SimDuration::from_millis(1);
    d.sim.schedule_crash(victim, t0);
    let deadline = d.sim.now() + SimDuration::from_millis(100 * T_MS + 10_000);
    let ok = wait(
        &mut d,
        deadline,
        |d| {
            d.sub_leader_of(group)
                .is_some_and(|l| l != victim && d.sim.actor::<HierActor>(l).is_fed_member())
        },
        rep,
        tr,
        id,
    );
    if !ok {
        return None;
    }
    tally(&d, rep);
    let a = d.sim.actor::<HierActor>(d.sub_leader_of(group)?);
    let elected_at = *a.sub_leader_history.iter().find(|&&at| at >= t0)?;
    let joined_at = a.fed_active_at.filter(|&at| at >= t0)?;
    Some(SubgroupRecovery {
        elect_ms: (elected_at - t0).as_millis_f64(),
        join_ms: (joined_at - t0).as_millis_f64(),
    })
}

fn fed_replica(seed: u64, rep: &mut Replica, tr: &mut Tracer, id: u64) -> Option<FedRecovery> {
    let mut d = stabilize(seed, rep, tr, id)?;
    let victim = d.fed_leader()?;
    let group = (0..d.subgroups.len()).find(|&g| d.subgroups[g].contains(&victim))?;
    let t0 = d.sim.now() + SimDuration::from_millis(1);
    d.sim.schedule_crash(victim, t0);
    let deadline = d.sim.now() + SimDuration::from_millis(100 * T_MS + 10_000);
    let ok = wait(
        &mut d,
        deadline,
        |d| {
            d.fed_leader().is_some_and(|l| l != victim)
                && d.sub_leader_of(group)
                    .is_some_and(|l| l != victim && d.sim.actor::<HierActor>(l).is_fed_member())
        },
        rep,
        tr,
        id,
    );
    if !ok {
        return None;
    }
    tally(&d, rep);
    let live = |id: &&NodeId| !d.sim.is_crashed(**id);
    let fed_elect_at = d
        .subgroups
        .iter()
        .flatten()
        .filter(live)
        .flat_map(|&id| {
            d.sim
                .actor::<HierActor>(id)
                .fed_leader_history
                .iter()
                .copied()
        })
        .filter(|&at| at >= t0)
        .min()?;
    let a = d.sim.actor::<HierActor>(d.sub_leader_of(group)?);
    let sub_elect_at = *a.sub_leader_history.iter().find(|&&at| at >= t0)?;
    let rebuild_at = a.fed_active_at.filter(|&at| at >= t0)?;
    Some(FedRecovery {
        fed_elect_ms: (fed_elect_at - t0).as_millis_f64(),
        sub_elect_ms: (sub_elect_at - t0).as_millis_f64(),
        rebuild_ms: (rebuild_at - t0).as_millis_f64(),
    })
}

/// Re-runs seed `i`'s trial pair on the replica, checking it reproduces
/// the trial functions' milestones.
fn replicate(
    seed: u64,
    i: usize,
    first: &Batch,
    rep: &mut Replica,
    tr: &mut Tracer,
    r: &mut Report,
) {
    let s = trial_seed(seed, i);
    let id = i as u64;
    let (sub, fed) = tr.span("bench.trial", id, |tr| {
        (sub_replica(s, rep, tr, id), fed_replica(s, rep, tr, id))
    });
    r.check(sub == first.sub[i] && fed == first.fed[i], || {
        format!("replica of seed {i} diverged from the trial functions")
    });
}
