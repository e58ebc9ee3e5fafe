//! `train-ddpg`: the paper's training loop, a `TrainSession` on
//! `EnvConfig::paper(Sla::EnergyEfficiency, seed)` with
//! `TrainConfig::quick`, checkpointed and resumed at its midpoint.

use greennfv::prelude::*;
use greennfv::train::eval_score;
use greennfv_rl::env::{Environment, Transition};
use greennfv_rl::noise::OrnsteinUhlenbeck;
use greennfv_rl::per::PrioritizedReplay;
use greennfv_rl::prelude::DdpgAgent;

use crate::report::Report;
use crate::stats::{repeat_for, timed_steal, timed_unstolen, Samples, Tracer, ROOT};
use crate::Opts;

use std::time::Instant;

/// Action dimension of the GreenNFV policy (the five knobs).
const ACTIONS: usize = 5;

/// Episodes per training session; the midpoint checkpoint holds half of
/// them. Fixed, so every run trains identical sessions whatever the host
/// speed (a longer run trains more of them).
const EPISODES: u32 = 300;

/// Training episodes between two `checkpoint_s` samples. The samples are
/// spread over the whole run, as the training calls are, so both see the
/// same mix of a shared host's fast and slow stretches.
const CHECKPOINT_EVERY: u64 = 10;

/// vCPUs training keeps busy: a session runs on the calling thread.
const BUSY: u32 = 1;

/// Set-ups per `setup_s` sample: one takes a few milliseconds, below the
/// resolution of the stolen-time correction.
const SETUP_BATCH: u32 = 20;

fn configs(o: &Opts) -> (EnvConfig, TrainConfig) {
    let episodes = if o.tiny { 12 } else { EPISODES };
    (
        EnvConfig::paper(Sla::EnergyEfficiency, o.seed),
        TrainConfig::quick(episodes, o.seed),
    )
}

fn sim_err(e: nfv_sim::prelude::SimError) -> String {
    format!("training checkpoint: {e}")
}

/// Timings gathered over the run's training sessions.
#[derive(Default)]
struct Timings {
    per_episode: Samples,
    /// Time in `run_episode` calls, per session (sessions are identical).
    per_session: Samples,
    checkpoint: Samples,
    to_json: Samples,
    resume: Samples,
    from_json: Samples,
    episodes: u64,
    /// A session held at the first session's midpoint, and its checkpoint
    /// JSON: every `checkpoint_s` sample checkpoints this same state, and
    /// every session's midpoint must give the same bytes.
    midpoint: Option<(TrainSession, String)>,
    /// Checkpoints that did not give the midpoint's bytes.
    mismatches: u64,
}

impl Timings {
    /// One timed `checkpoint()` + `to_json` of the held midpoint session.
    fn checkpoint(&mut self) {
        let Some((session, json)) = &self.midpoint else {
            return;
        };
        let (t_ck, snapshot) = timed_unstolen(BUSY, || session.checkpoint());
        let (t_to, j) = timed_unstolen(BUSY, || snapshot.to_json());
        self.checkpoint.push(t_ck + t_to);
        self.to_json.push(t_to);
        self.mismatches += u64::from(j != *json);
    }

    /// Runs `session` up to episode `upto`, timing each `run_episode`
    /// call and sampling a checkpoint every [`CHECKPOINT_EVERY`] episodes.
    /// Returns the time spent in `run_episode`, less stolen time (see
    /// [`timed_unstolen`]; summed over the calls, the correction is exact
    /// to one tick however short each call is).
    fn episodes(&mut self, session: &mut TrainSession, upto: u32, report: &mut Report) -> f64 {
        let mut total = 0.0;
        while session.next_episode() < upto {
            let (t, stolen, ()) = timed_steal(|| session.run_episode());
            total += t - stolen / f64::from(BUSY);
            self.per_episode.push(t);
            report.attempted += 1;
            self.episodes += 1;
            if self.episodes.is_multiple_of(CHECKPOINT_EVERY) {
                self.checkpoint();
            }
        }
        total
    }
}

/// One session: half the episodes, the midpoint checkpoint → to_json →
/// from_json → from_checkpoint cycle (checked to give back the same
/// bytes), and the rest of the episodes on the resumed session. The first
/// session's midpoint is kept for the checkpoint samples.
fn session(
    env_cfg: &EnvConfig,
    cfg: &TrainConfig,
    t: &mut Timings,
    report: &mut Report,
) -> Result<TrainOutcome, String> {
    let mut session = TrainSession::new(env_cfg.clone(), cfg.clone());
    let first_half = t.episodes(&mut session, cfg.episodes / 2, report);
    let json = session.checkpoint().to_json();
    match &t.midpoint {
        Some((_, first)) => t.mismatches += u64::from(json != *first),
        None => {
            let held = TrainSession::from_checkpoint(session.checkpoint()).map_err(sim_err)?;
            t.midpoint = Some((held, json.clone()));
            t.checkpoint();
        }
    }
    let (t_from, parsed) = timed_unstolen(BUSY, || TrainCheckpoint::from_json(&json));
    let parsed = parsed.map_err(sim_err)?;
    let (t_restore, resumed) = timed_unstolen(BUSY, || TrainSession::from_checkpoint(parsed));
    session = resumed.map_err(sim_err)?;
    t.resume.push(t_from + t_restore);
    t.from_json.push(t_from);
    report.check(
        "checkpoint JSON round trip gives the same bytes",
        session.checkpoint().to_json() == json,
    );
    let second_half = t.episodes(&mut session, cfg.episodes, report);
    t.per_session.push(first_half + second_half);
    Ok(session.finish())
}

pub fn train_ddpg(o: &Opts, report: &mut Report) -> Result<(), String> {
    let (env_cfg, cfg) = configs(o);
    let steps = f64::from(env_cfg.steps_per_episode);
    report.line(format!(
        "size: episodes_per_session={} steps_per_episode={} replay_capacity={} batch={}",
        cfg.episodes, env_cfg.steps_per_episode, cfg.replay_capacity, cfg.batch_size
    ));

    let setup = repeat_for(5, o.budget(1.0), || {
        let (t, ()) = timed_unstolen(BUSY, || {
            for _ in 0..SETUP_BATCH {
                drop(TrainSession::new(env_cfg.clone(), cfg.clone()));
            }
        });
        Ok(t / f64::from(SETUP_BATCH))
    })?;
    report.metric("setup_s", &setup, 1.0);

    // Identical sessions back to back; a traced run needs one.
    let mut t = Timings::default();
    let start = Instant::now();
    let outcome = session(&env_cfg, &cfg, &mut t, report)?;
    let min_sessions = if o.tiny || o.trace { 1 } else { 3 };
    let mut sessions = 1;
    while sessions < min_sessions || (!o.trace && start.elapsed().as_secs_f64() < o.seconds) {
        let again = session(&env_cfg, &cfg, &mut t, report)?;
        report.check(
            "repeated session ends on the same agent",
            agent_json(&again.agent)? == agent_json(&outcome.agent)?,
        );
        sessions += 1;
    }
    report.line(format!("sessions = {sessions}"));
    report.check(
        "every midpoint checkpoint gives the first midpoint's bytes",
        t.mismatches == 0,
    );
    let bytes = t.midpoint.as_ref().map_or(0, |(_, json)| json.len());
    let last = outcome
        .final_eval()
        .copied()
        .ok_or("training produced no evaluation")?;
    report.simulated("cluster_gbps", last.throughput_gbps);
    report.simulated("cluster_energy_j", last.energy_j);
    report.simulated("gbps_per_kj", last.efficiency);
    // Share of greedy evaluations meeting the SLA's constraint (a violated
    // constraint scores below zero).
    let met = outcome
        .history
        .iter()
        .filter(|p| eval_score(outcome.sla, p) >= 0.0);
    report.simulated(
        "sla_satisfaction",
        met.count() as f64 / outcome.history.len().max(1) as f64,
    );
    report.line(format!("simulated final_eval = {last:?}"));
    report.line(format!("checkpoint bytes = {bytes}"));

    if o.trace {
        report.metric("ckpt.to_json_s", &t.to_json, 1.0);
        report.metric("ckpt.from_json_s", &t.from_json, 1.0);
        report.value("ckpt.bytes", bytes as f64);
        return train_trace(o, &env_cfg, &cfg, &outcome, &t.per_episode, report);
    }
    // One env step per `Environment::step`; `reset` runs one more simulator
    // epoch over the environment's single lane.
    let episodes = f64::from(cfg.episodes);
    report.throughput(&t.per_session, episodes * (steps + 1.0), episodes * steps);
    report.metric("checkpoint_s", &t.checkpoint, 1.0);
    report.metric("resume_s", &t.resume, 1.0);
    Ok(())
}

fn agent_json(a: &DdpgAgent) -> Result<String, String> {
    serde_json::to_string(&a.export_state()).map_err(|e| e.to_string())
}

/// The training mirror: `TrainSession::run_episode`'s loop rebuilt from
/// the public `GreenNfvEnv`, `DdpgAgent` and `PrioritizedReplay` calls,
/// each in a span. Periodic greedy evaluation never touches the learner,
/// so the mirror skips it and must still end on the session's exact agent.
fn train_trace(
    o: &Opts,
    env_cfg: &EnvConfig,
    cfg: &TrainConfig,
    outcome: &TrainOutcome,
    untraced: &Samples,
    report: &mut Report,
) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let mut env = GreenNfvEnv::new(env_cfg.clone());
    let mut agent = DdpgAgent::new(STATE_DIM, ACTIONS, cfg.ddpg, cfg.seed);
    let mut noise = OrnsteinUhlenbeck::standard(ACTIONS, cfg.seed.wrapping_add(1));
    let mut replay = PrioritizedReplay::new(cfg.replay_capacity, cfg.seed.wrapping_add(2));
    let mut steps = 0u64;
    for ep in 0..cfg.episodes {
        let episode = tracer.begin("mirror.episode", ROOT);
        noise.set_sigma(cfg.noise_sigma.at(u64::from(ep)));
        noise.reset();
        let beta = cfg.beta.at(u64::from(ep));
        let mut state = tracer.time("envs.reset", episode, || env.reset());
        loop {
            let mut action = tracer.time("nn.act", episode, || agent.act(&state));
            for (a, n) in action.iter_mut().zip(noise.sample()) {
                *a = (*a + n).clamp(-1.0, 1.0);
            }
            let step = tracer.time("envs.step", episode, || env.step(&action));
            steps += 1;
            let tr = Transition {
                state: state.clone(),
                action,
                reward: step.reward,
                next_state: step.next_state.clone(),
                done: step.done,
            };
            let td = tracer.time("ddpg.td_error", episode, || agent.td_error(&tr));
            tracer.time("per.push", episode, || replay.push_with_priority(tr, td));
            state = step.next_state;
            if replay.len() >= cfg.warmup_steps {
                for _ in 0..cfg.updates_per_step {
                    let batch = tracer.time("per.sample", episode, || {
                        replay.sample(cfg.batch_size, beta)
                    });
                    let (_, tds) = tracer.time("ddpg.update", episode, || {
                        agent.update(&batch.transitions, &batch.weights)
                    });
                    tracer.time("per.update_priorities", episode, || {
                        replay.update_priorities(&batch.indices, &tds)
                    });
                }
            }
            if step.done {
                break;
            }
        }
        tracer.end(episode);
        report.attempted += 1;
    }
    report.check(
        "mirror's final agent state == TrainSession's",
        agent_json(&agent)? == agent_json(&outcome.agent)?,
    );

    let us = |name| tracer.durations(name);
    report.metric("envs.step_us", &us("envs.step"), 1e6);
    report.value("envs.steps", steps as f64);
    report.metric("nn.act_us", &us("nn.act"), 1e6);
    report.metric("ddpg.update_us", &us("ddpg.update"), 1e6);
    report.metric("ddpg.td_error_us", &us("ddpg.td_error"), 1e6);
    report.value("ddpg.updates", agent.updates() as f64);
    report.metric("per.push_us", &us("per.push"), 1e6);
    report.metric("per.sample_us", &us("per.sample"), 1e6);
    report.metric(
        "per.update_priorities_us",
        &us("per.update_priorities"),
        1e6,
    );
    let traced = us("mirror.episode").median();
    report.line(format!(
        "tracing overhead = {:.4} (mirror episode {traced:.6} s with spans, session episode {:.6} s without)",
        traced / untraced.median() - 1.0,
        untraced.median()
    ));
    crate::write_spans(o, &tracer, report)
}
