//! `train_cnn`: the integrated stack, `core::runner::ResilientSession` on
//! the simulator — Raft settling, local training, FT-SAC, the FedAvg
//! combine and evaluation — on the paper's Sec. V topology (5 × 5 peers,
//! T = 100 ms, 15 ms links), each peer training `small_cnn` on 60
//! `mnist_like` samples per round.
//!
//! A round is one call, `ResilientSession::run_round`. The traced run
//! replays the same rounds through the same public entry points in the
//! runner's order (settle, `local_updates_masked`, per-subgroup
//! `fault_tolerant_secure_average`, `combine`, `evaluate`) so each layer
//! gets a span; the split is reported only when the replay reproduces
//! the session's accuracy bit for bit and its round time is within
//! [`REPLAY_TOLERANCE`] of the untraced one.

use crate::report::HIER_KINDS;
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{mix, Run};
use p2pfl::runner::{ResilientConfig, ResilientSession};
use p2pfl_fed::{combine, Client, LocalTrainConfig};
use p2pfl_hierraft::{Deployment, DeploymentSpec, FedCmd, HierActor};
use p2pfl_ml::data::{mnist_like, partition_dataset, train_test_split, Dataset, Partition};
use p2pfl_ml::metrics::evaluate;
use p2pfl_ml::models::small_cnn;
use p2pfl_ml::Sequential;
use p2pfl_secagg::{fault_tolerant_secure_average, SacEngine, ShareScheme, WeightVector};
use p2pfl_simnet::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Subgroups × peers per subgroup (the paper's Sec. V deployment).
const SUBGROUPS: usize = 5;
const SUB_SIZE: usize = 5;
const PEERS: usize = SUBGROUPS * SUB_SIZE;
/// Training samples per peer per round, and test samples.
const SAMPLES: usize = 60;
const TEST: usize = 300;
/// SAC threshold.
const K: usize = 3;
/// Largest gap between the replay's and the session's median round,
/// as a share of the session's, for the per-layer split to be reported.
pub const REPLAY_TOLERANCE: f64 = 0.15;

fn config(seed: u64) -> ResilientConfig {
    let mut cfg = ResilientConfig::small(mix(seed, 22));
    cfg.deployment = DeploymentSpec::paper(100, mix(seed, 21));
    cfg.deployment.num_subgroups = SUBGROUPS;
    cfg.deployment.subgroup_size = SUB_SIZE;
    cfg.threshold = K;
    cfg.scheme = ShareScheme::Masked;
    cfg.train = LocalTrainConfig {
        epochs: 1,
        batch_size: 16,
    };
    cfg
}

/// The generated inputs: clients with their shards, the evaluation model
/// and the test set. Every call with one seed yields identical inputs.
fn inputs(seed: u64) -> (Vec<Client>, Sequential, Dataset) {
    let data_seed = mix(seed, 23);
    let (train, test) = train_test_split(
        &mnist_like(PEERS * SAMPLES + TEST, data_seed),
        PEERS * SAMPLES,
    );
    let parts = partition_dataset(&train, PEERS, Partition::Iid, data_seed + 1);
    let mut rng = StdRng::seed_from_u64(mix(seed, 24));
    let clients = parts
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            let model = small_cnn(&mut rng, data_seed + 100 + i as u64);
            Client::new(i, model, d, 1e-3, data_seed + 10 + i as u64)
        })
        .collect();
    (clients, small_cnn(&mut rng, data_seed + 99), test)
}

/// Rounds every run trains, whatever `--seconds` says, so the final
/// accuracy depends on the seed only. By round 16 accuracy has reached
/// its plateau on every seed tried, where it is steady from seed to seed.
pub const ROUNDS: usize = 16;

/// Rounds a run trains: [`ROUNDS`], or one per second of a longer run.
fn rounds(seconds: f64) -> usize {
    (seconds.ceil() as usize).max(ROUNDS)
}

fn global_digest(s: &ResilientSession) -> u64 {
    WeightVector::new(s.global().to_vec()).digest()
}

/// Runs the workload.
pub fn run(run: &mut Run) {
    let cfg = config(run.seed);
    let (clients, eval, test) = inputs(run.seed);
    let mut s = ResilientSession::new(cfg.clone(), clients, eval);
    let (clients, eval, _) = inputs(run.seed);
    let mut twin = ResilientSession::new(cfg.clone(), clients, eval);

    let n = rounds(run.seconds);
    let mut replay = run
        .tracer
        .enabled()
        .then(|| Replay::new(run.seed, &cfg, &mut run.tracer));
    let (mut walls, mut accuracy, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let sim_bytes0 = s.dep.sim.metrics().total().bytes;
    let kinds0 = s.dep.sim.metrics().clone();
    let log_bytes0 = s.log.bytes();
    let mut updates = 0;
    let mut setup_s = Vec::with_capacity(n);
    for round in 1..=n {
        // The replay round goes first on odd rounds, so neither side
        // always runs on the caches the other left behind.
        let replay_first = round % 2 == 1;
        if let Some(rp) = replay.as_mut().filter(|_| replay_first) {
            rp.round(&cfg, round, &test, &mut run.tracer);
        }
        let t = Instant::now();
        let rec = s.run_round(round, &test);
        walls.push(t.elapsed().as_secs_f64());
        let used = rec.record.groups_used;
        run.report.attempted += SUBGROUPS as u64;
        run.report.failed += (SUBGROUPS - used.min(SUBGROUPS)) as u64;
        run.report.check(
            used == SUBGROUPS && rec.leaders.iter().all(Option::is_some),
            || format!("round {round} used {used} of {SUBGROUPS} subgroups"),
        );
        updates += used * SUB_SIZE;
        accuracy.push(rec.record.test_accuracy);
        digests.push(global_digest(&s));
        // One more set-up per round, so the set-up samples spread over the
        // run as the rounds do.
        let (clients, eval, _) = inputs(run.seed);
        let start = Instant::now();
        let fresh = ResilientSession::new(cfg.clone(), clients, eval);
        setup_s.push(start.elapsed().as_secs_f64());
        drop(fresh);
        if let Some(rp) = replay.as_mut().filter(|_| !replay_first) {
            rp.round(&cfg, round, &test, &mut run.tracer);
        }
    }
    let r1 = twin.run_round(1, &test);
    run.report.check(
        global_digest(&twin) == digests[0] && r1.record.test_accuracy == accuracy[0],
        || "two sessions with the same seed disagree after round 1".into(),
    );
    drop(twin);

    let bytes = (s.dep.sim.metrics().total().bytes - sim_bytes0) + (s.log.bytes() - log_bytes0);
    let r = &mut run.report;
    let subgroup: Vec<f64> = walls.iter().flat_map(|&w| [w; SUBGROUPS]).collect();
    let sorted_sub = crate::stats::sorted(&subgroup);
    r.set("round_s.p50", median(&walls), walls.len());
    r.set(
        "subgroup_s.p50",
        crate::stats::percentile(&sorted_sub, 50.0),
        subgroup.len(),
    );
    r.set(
        "subgroup_s.p90",
        crate::stats::percentile(&sorted_sub, 90.0),
        subgroup.len(),
    );
    r.set(
        "updates_per_s",
        updates as f64 / walls.iter().sum::<f64>(),
        walls.len(),
    );
    r.set("bytes_per_peer", bytes as f64 / PEERS as f64 / n as f64, n);
    r.set("accuracy", *accuracy.last().expect("at least one round"), 1);
    r.set("setup_s", median(&setup_s), setup_s.len());
    r.set("secagg.aborts", s.supervisor.aborts as f64, n);
    r.set(
        "secagg.degraded_retries",
        s.supervisor.degraded_retries as f64,
        n,
    );
    for kind in HIER_KINDS {
        let b = s.dep.sim.metrics().kind(kind).bytes - kinds0.kind(kind).bytes;
        r.set(format!("hierraft.bytes.{kind}"), b as f64 / n as f64, n);
    }
    println!("# accuracy by round: {accuracy:?}");
    run.round_walls = walls;
    if let Some(rp) = replay {
        let events: Vec<f64> = rp.events.iter().map(|&e| e as f64).collect();
        run.report
            .set("simnet.events_per_round", median(&events), events.len());
        report_split(run, &accuracy, &rp.accuracy);
    }
}

/// Reports the replay's per-layer split if it reconciles with the session.
fn report_split(run: &mut Run, accuracy: &[f64], replay_acc: &[f64]) {
    let spans = run.tracer.spans();
    let roots = trace::durations_s(spans, "core.round");
    let exact = replay_acc == accuracy;
    let (untraced, traced) = (median(&run.round_walls), median(&roots));
    let gap = (traced - untraced).abs() / untraced;
    println!(
        "# replay: accuracy {} the session's; median round {traced:.4} s vs {untraced:.4} s untraced (gap {:.1}%, tolerance {:.0}%)",
        if exact { "matches" } else { "DIFFERS from" },
        gap * 100.0,
        REPLAY_TOLERANCE * 100.0
    );
    run.traced_walls = roots.clone();
    let reported = exact && gap <= REPLAY_TOLERANCE;
    let r = &mut run.report;
    r.set(
        "trace.split_reported",
        f64::from(u8::from(reported)),
        roots.len(),
    );
    if !reported {
        return;
    }
    let per_round = |name: &str| -> Vec<f64> {
        trace::per_round_totals_s(spans, name)
            .into_values()
            .collect()
    };
    let local = per_round("fed.local_updates_masked");
    r.set("fed.local_updates_s", median(&local), local.len());
    let rates: Vec<f64> = local
        .iter()
        .map(|&t| (PEERS * SAMPLES) as f64 / t)
        .collect();
    r.set("ml.train_samples_per_s", median(&rates), rates.len());
    for (metric, span) in [
        ("secagg.ftsac_s", "secagg.fault_tolerant_secure_average"),
        ("fed.combine_s", "fed.combine"),
        ("ml.evaluate_s", "ml.evaluate"),
        ("hierraft.settle_s", "hierraft.settle"),
    ] {
        let v = per_round(span);
        r.set(metric, median(&v), v.len());
    }
    let stab = trace::durations_s(spans, "hierraft.stabilize");
    r.set("hierraft.stabilize_s", median(&stab), stab.len());
    let selfs = trace::self_times(spans);
    let root_self: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "core.round")
        .map(|(_, &ns)| ns as f64 / 1e9)
        .collect();
    r.set("core.round_self_s", median(&root_self), root_self.len());
}

/// The session of one seed rebuilt from its parts, so each layer call of
/// a round can be timed on its own.
struct Replay {
    dep: Deployment,
    clients: Vec<Client>,
    eval: Sequential,
    global: Vec<f64>,
    rng: StdRng,
    /// Test accuracy after each replayed round.
    accuracy: Vec<f64>,
    /// Simulator events each round's settle processed.
    events: Vec<u64>,
}

impl Replay {
    /// Builds what `ResilientSession::new` builds for `seed`.
    fn new(seed: u64, cfg: &ResilientConfig, tr: &mut Tracer) -> Replay {
        let (mut clients, eval, _) = inputs(seed);
        let dep = tr.span("hierraft.stabilize", 0, |_| {
            let mut d = Deployment::build(cfg.deployment.clone());
            assert!(
                d.wait_stable(SimTime::from_secs(30)),
                "replay deployment never stabilised"
            );
            d
        });
        let global = eval.params_flat();
        clients.iter_mut().for_each(|c| c.set_params(&global));
        Replay {
            dep,
            clients,
            eval,
            global,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x7e51),
            accuracy: Vec::new(),
            events: Vec::new(),
        }
    }

    /// One round in the runner's order, a span around each layer call.
    fn round(&mut self, cfg: &ResilientConfig, round: usize, test: &Dataset, tr: &mut Tracer) {
        let id = round as u64;
        let Replay {
            dep,
            clients,
            eval,
            global,
            rng,
            ..
        } = self;
        let acc = tr.span("core.round", id, |tr| {
            let events = tr.span("hierraft.settle", id, |_| dep.sim.run_for(cfg.round_settle));
            let alive = vec![true; clients.len()];
            tr.span("fed.local_updates_masked", id, |_| {
                p2pfl_fed::parallel::local_updates_masked(clients, &alive, cfg.train)
            });
            let fed_leader = dep.fed_leader();
            let (mut avgs, mut counts) = (Vec::new(), Vec::new());
            for g in 0..dep.subgroups.len() {
                let Some(leader) = dep
                    .sub_leader_of(g)
                    .filter(|&l| dep.sim.actor::<HierActor>(l).is_fed_member())
                else {
                    continue;
                };
                let a = dep.sim.actor::<HierActor>(leader);
                assert_eq!(
                    a.fed_config.engine,
                    SacEngine::Pairwise,
                    "the workload runs the pairwise engine"
                );
                let mut members = a.live_sub_members().to_vec();
                if !members.contains(&leader) {
                    members = dep.subgroups[g].clone();
                }
                let leader_pos = members
                    .iter()
                    .position(|&m| m == leader)
                    .expect("leader is a member");
                let models: Vec<WeightVector> = members
                    .iter()
                    .map(|&m| WeightVector::new(clients[m.index()].params()))
                    .collect();
                let k = cfg.threshold.min(members.len()).max(1);
                let outcome = tr.span("secagg.fault_tolerant_secure_average", id, |_| {
                    fault_tolerant_secure_average(&models, k, leader_pos, &[], cfg.scheme, rng)
                });
                if let Ok(o) = outcome {
                    counts.push(
                        o.contributors
                            .iter()
                            .map(|&p| clients[members[p].index()].num_samples())
                            .sum(),
                    );
                    avgs.push(o.average.into_inner());
                }
            }
            if let Some(fl) = fed_leader.filter(|_| !avgs.is_empty()) {
                dep.sim.exec::<HierActor, _, _>(fl, |a, ctx| {
                    let _ = a.propose_fed(ctx, FedCmd::Round(id));
                });
                let combiner = dep.sim.actor::<HierActor>(fl).fed_config.combiner;
                *global = tr.span("fed.combine", id, |_| combine(combiner, &avgs, &counts));
                clients.iter_mut().for_each(|c| c.set_params(global));
            }
            let acc = tr.span("ml.evaluate", id, |_| {
                eval.set_params_flat(global);
                evaluate(eval, test, 256).1
            });
            (acc, events)
        });
        self.accuracy.push(acc.0);
        self.events.push(acc.1);
    }
}
