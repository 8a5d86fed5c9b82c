//! `scale-k22`: the largest fat tree the /16 address plan allows — k = 22,
//! 605 switches, 242 ToRs with one host each — losing one agg–core link,
//! then simulated for 1 s. No data traffic: control-plane and memory
//! bound. Set-up is `Network::new`'s synchronous convergence.

use dcn_emu::{EmuConfig, Network};
use dcn_net::Layer;
use dcn_sim::{SimDuration, SimRng, SimTime};
use f2tree::{Design, TestBed};

use crate::checks::{self, Checks};
use crate::layers::{self, Fabric};
use crate::trace::Tracer;
use crate::{timed, Op, Round};

const K: u32 = 22;
const AFTER_FAILURE: SimDuration = SimDuration::from_secs(1);

/// Builds the fabric, checks every route, fails the agg–core link `seed`
/// picks, runs 1 s and checks every route again.
pub fn round(seed: u64, t: &mut Tracer, checks: &mut Checks) -> Round {
    let fabric = Fabric {
        design: Design::FatTree,
        k: K,
        hosts_per_tor: 1,
        config: EmuConfig::default(),
    };
    // A bare fat-tree testbed is its topology plus `Network::new`.
    let (bed, setup_s) = timed(|| {
        t.span("core.testbed_build_s", || {
            TestBed::build_with_config(fabric.design, fabric.k, fabric.hosts_per_tor, fabric.config)
        })
        .expect("k = 22 fits the /16 address plan")
    });
    let mut net = bed.net;

    let topo = net.topology();
    let switches = layers::switches(&net);
    let agg_core: Vec<_> = topo
        .layer_switches(Layer::Agg)
        .flat_map(|agg| topo.upward_links(agg))
        .collect();
    let link = agg_core[SimRng::new(seed).gen_index(agg_core.len())];
    check_converged(&net, switches.len(), checks, "before the failure");

    let fail_at = SimTime::ZERO;
    let ((), run_s) = timed(|| {
        net.fail_link_at(fail_at, link);
        net.run_until(fail_at + AFTER_FAILURE);
    });
    checks.expect(!net.link_state(link).is_up(), || {
        format!("k=22: failed link {link:?} reads up")
    });
    check_converged(&net, switches.len(), checks, "after the failure");

    let mut round = Round {
        ops: vec![Op { setup_s, run_s }],
        events: net.events_processed(),
        ..Round::default()
    };
    let layers = &mut round.layers;
    layers::add_counters(&net, layers);
    layers.add("emu.events", net.events_processed() as f64);
    layers.add("failure.links_failed", 1.0);
    if t.is_on() {
        layers::replay(fabric, &net, t, layers);
        layers::replay_quality(&net, 0.0, layers);
    }
    round
}

/// Every ordered host pair routes along a shortest live path, and every
/// switch holds one LSA per switch.
fn check_converged(net: &Network, switches: usize, checks: &mut Checks, when: &str) {
    checks.check(
        &format!("k=22 routes {when}"),
        checks::all_pairs_shortest(net),
    );
    let short = layers::switches(net)
        .into_iter()
        .filter(|&sw| net.router(sw).map_or(0, |r| r.lsdb().len()) != switches)
        .count();
    checks.expect(short == 0, || {
        format!("k=22 {when}: {short} switch(es) hold other than {switches} LSAs")
    });
}
