//! `chaos-churn`: seeded chaos campaigns on tiny fabrics under heavy
//! churn — the default campaign configuration (k = 4, alternating fat tree
//! and F²Tree, all five incident kinds) with the quality observer on.
//!
//! A scenario fails if any chaos oracle fires, or if a fresh replay of its
//! spec, run to its horizon, does not route every ordered host pair along
//! a shortest path of the repaired topology. Every scenario that fails
//! must also end with diverged link-state databases: the emulator does no
//! database exchange when an adjacency comes back, so a scenario that
//! partitioned the flooding graph can heal with stale LSAs. Any other
//! failure is a wrong output, not a counted failure.

use dcn_chaos::{generate_scenario, run_scenario, ChaosConfig, ScenarioSpec};
use dcn_emu::{EmuConfig, Network};
use dcn_sim::timers;
use dcn_sweep::cell_rng;
use f2tree::{Design, TestBed};

use crate::checks::{self, Checks};
use crate::layers::{self, Fabric};
use crate::trace::Tracer;
use crate::{timed, Op, Round};

/// Campaign master seed: scenario `i` draws from the sweep stream
/// `(MASTER_SEED, i)`, exactly as `run_chaos` would hand it to cell `i`.
const MASTER_SEED: u64 = 20150701;

/// Scenarios per round: indices `0..SCENARIOS` of the campaign.
pub const SCENARIOS: usize = 400;

/// Runs every scenario once.
pub fn round(t: &mut Tracer, checks: &mut Checks) -> Round {
    let mut cfg = ChaosConfig::default();
    cfg.engine.quality = true;
    let mut round = Round {
        ops: vec![Op::default(); SCENARIOS],
        ..Round::default()
    };
    for i in 0..SCENARIOS {
        let design = if i % 2 == 0 {
            Design::FatTree
        } else {
            Design::F2Tree
        };
        let (spec, setup_s) = timed(|| {
            generate_scenario(design, &mut cell_rng(MASTER_SEED, i), &cfg.campaign)
                .expect("the default campaign builds its testbeds")
        });
        let (outcome, run_s) =
            timed(|| run_scenario(&spec, &cfg.engine).expect("generated specs build"));
        round.ops[i] = Op { setup_s, run_s };
        round.events += outcome.stats.sim_events;

        // ---- checks (untimed) ----
        let replay = t.span("core.testbed_build_s", || replay_bed(&spec, &cfg));
        let mut net = replay.net;
        net.run_until(spec.last_event_time() + drain());
        let routed = checks::all_pairs_shortest(&net);
        if !outcome.is_clean() || routed.is_err() {
            round.failed += 1;
            eprintln!(
                "emubench: chaos #{i} failed (oracles clean: {}; routes: {:?})",
                outcome.is_clean(),
                routed
            );
            checks.expect(lsdbs_diverged(&net), || {
                format!(
                    "chaos #{i}: fails with consistent LSDBs (oracles: {:?}; routes: {:?})",
                    outcome.violations.first(),
                    routed.err()
                )
            });
        }

        // ---- per-layer counters and replays ----
        // The replay has the scenario's control plane but not its TCP
        // transfers, so data-plane counters here cover control traffic only.
        let layers = &mut round.layers;
        layers::add_counters(&net, layers);
        layers.add("emu.events", outcome.stats.sim_events as f64);
        layers.add("chaos.epochs_checked", outcome.stats.epochs_checked as f64);
        layers.add("transport.retransmits", outcome.stats.retransmits as f64);
        layers.add(
            "failure.links_failed",
            spec.schedule().failure_count() as f64,
        );
        let calls = outcome.quality.as_ref().map_or(0, |q| q.epochs.len()) as f64;
        layers.add("metrics.quality_calls", calls);
        if t.is_on() {
            let fabric = Fabric {
                design: spec.design,
                k: spec.k,
                hosts_per_tor: spec.hosts_per_tor,
                config: *net.config(),
            };
            layers::replay(fabric, &net, t, layers);
            layers::replay_quality(&net, calls, layers);
        }
    }
    round
}

/// Horizon after the last scenario event: detection of the last repair, a
/// full maximum SPF hold, the initial SPF delay and the FIB update.
fn drain() -> dcn_sim::SimDuration {
    timers::DETECTION_DELAY
        + timers::SPF_MAX_HOLD
        + timers::SPF_INITIAL_DELAY
        + timers::FIB_UPDATE_DELAY
}

/// A fresh testbed with the spec's failures scheduled, built the way
/// `run_scenario` builds its own.
fn replay_bed(spec: &ScenarioSpec, cfg: &ChaosConfig) -> TestBed {
    let emu = EmuConfig::builder().recovery(cfg.engine.recovery).build();
    let mut bed = TestBed::build_with_config(spec.design, spec.k, spec.hosts_per_tor, emu)
        .expect("generated specs build");
    bed.net.apply_failures(spec.schedule());
    bed
}

/// Whether any two switches hold different link-state databases.
fn lsdbs_diverged(net: &Network) -> bool {
    let dbs: Vec<Vec<_>> = layers::switches(net)
        .into_iter()
        .filter_map(|sw| net.router(sw))
        .map(|r| r.lsdb().iter().cloned().collect())
        .collect();
    dbs.windows(2).any(|w| w[0] != w[1])
}
