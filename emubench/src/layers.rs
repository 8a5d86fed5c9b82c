//! Per-layer metrics: their names and units, how one round accumulates
//! them, and the public counters and replays that feed them.
//!
//! Every value is read from outside the program: public counters after a
//! run, spans around public calls (see [`crate::trace`]), or public calls
//! replayed on the settled state a run left behind.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use dcn_chaos::walk;
use dcn_emu::{EmuConfig, Network};
use dcn_frr::compute_failure_map;
use dcn_metrics::quality::QualityReport;
use dcn_net::{FatTree, Layer, LinkClass, LinkId, NodeId, Prefix, Protocol};
use dcn_routing::compute_routes;
use f2tree::{Design, F2TreeNetwork};

use crate::trace::Tracer;

/// Every per-layer metric, with its unit, in report order. Each workload
/// reports all of them; a layer the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.topology_build_s", "s"),
    ("core.testbed_build_s", "s"),
    ("emu.network_new_s", "s"),
    ("emu.events", "count"),
    ("emu.packets_transmitted", "count"),
    ("emu.drops_queue_full", "count"),
    ("emu.drops_no_route", "count"),
    ("emu.drops_ttl_expired", "count"),
    ("emu.drops_link_down", "count"),
    ("emu.fib_epochs", "count"),
    ("emu.quality_input_s", "s"),
    ("sim.peak_pending", "events"),
    ("routing.spf_runs", "count"),
    ("routing.spf_replay_us", "us"),
    ("routing.spf_est_s", "s"),
    ("routing.spf_share", "ratio"),
    ("routing.lsas_held", "count"),
    ("routing.fib_routes", "count"),
    ("routing.fib_lookup_ns", "ns"),
    ("frr.failure_map_s", "s"),
    ("metrics.quality_s", "s"),
    ("metrics.quality_calls", "count"),
    ("transport.retransmits", "count"),
    ("failure.links_failed", "count"),
    ("chaos.epochs_checked", "count"),
    ("chaos.oracle_walk_us", "us"),
    ("trace.overhead_s", "s"),
];

/// At most this many switches are sampled per replay (evenly spaced), so
/// the k = 22 fabric replays in bounded time.
const REPLAY_SWITCHES: usize = 32;

/// At most this many host pairs are sampled for the FIB-lookup and walk
/// replays.
const REPLAY_KEYS: usize = 256;

/// Per-layer values of one round. Sums, maxima and means are kept apart
/// so that each metric is aggregated the way its definition says.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    means: BTreeMap<&'static str, (f64, f64)>,
}

impl Layers {
    /// Adds `v` to the metric.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    /// Raises the metric to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.values.entry(name).or_insert(0.0);
        *e = e.max(v);
    }

    /// Adds `total` over `count` samples to a per-sample mean.
    pub fn mean(&mut self, name: &'static str, total: f64, count: f64) {
        let e = self.means.entry(name).or_insert((0.0, 0.0));
        e.0 += total;
        e.1 += count;
    }

    /// Current value of a summed or maximised metric.
    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Folds span totals in and resolves means; every listed metric is
    /// present in the result.
    pub fn finish(mut self, spans: BTreeMap<&'static str, f64>) -> BTreeMap<&'static str, f64> {
        for (name, secs) in spans {
            self.add(name, secs);
        }
        for (name, (total, count)) in std::mem::take(&mut self.means) {
            if count > 0.0 {
                self.values.insert(name, total / count);
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, _)| (name, self.get(name)))
            .collect()
    }
}

/// Adds the emulator's public counters after one operation.
///
/// Event counts are left to the caller, which knows whether the network
/// it passes ran the operation itself or replays its control plane.
pub fn add_counters(net: &Network, layers: &mut Layers) {
    let drops = net.drops();
    layers.add("emu.packets_transmitted", net.total_transmitted() as f64);
    layers.add("emu.drops_queue_full", drops.queue_full as f64);
    layers.add("emu.drops_no_route", drops.no_route as f64);
    layers.add("emu.drops_ttl_expired", drops.ttl_expired as f64);
    layers.add("emu.drops_link_down", drops.link_down as f64);
    layers.add("emu.fib_epochs", net.fib_epoch() as f64);
    layers.max("sim.peak_pending", net.peak_queue_depth() as f64);
    let (mut lsas, mut routes) = (0usize, 0usize);
    for sw in switches(net) {
        if let Some(r) = net.router(sw) {
            lsas += r.lsdb().len();
            routes += r.fib().len();
        }
    }
    layers.add("routing.spf_runs", spf_runs(net) as f64);
    // What one network holds at once is what costs memory.
    layers.max("routing.lsas_held", lsas as f64);
    layers.max("routing.fib_routes", routes as f64);
}

/// SPF runs summed over every switch's throttle.
fn spf_runs(net: &Network) -> u64 {
    switches(net)
        .into_iter()
        .filter_map(|sw| net.router(sw))
        .map(|r| r.throttle().runs())
        .sum()
}

/// One operation's fabric: what its testbed was built from.
#[derive(Clone, Copy, Debug)]
pub struct Fabric {
    /// Fat tree or F²Tree.
    pub design: Design,
    /// Switch port count.
    pub k: u32,
    /// Hosts per ToR.
    pub hosts_per_tor: u32,
    /// Emulator configuration (recovery mode included).
    pub config: EmuConfig,
}

/// Replays, for one operation, the layer calls a workload makes only
/// inside `TestBed::build_with_config` or not at all, so that every layer
/// is timed on every workload:
///
/// - the two halves of a testbed build, on a fresh copy of the fabric:
///   building the topology and `Network::new`'s synchronous convergence;
/// - `compute_failure_map` over that fresh network, which `Network::new`
///   itself runs only in the `frr` recovery mode;
/// - on the network the operation left behind: `compute_routes` over
///   sampled switches' settled LSDBs (mean cost, and the operation's SPF
///   time estimated as its SPF runs × that cost), `RouterProcess::forward`
///   over sampled flow keys, and the chaos oracle's `walk` over sampled
///   host pairs.
pub fn replay(fabric: Fabric, settled: &Network, t: &mut Tracer, layers: &mut Layers) {
    let topo = t.span("net.topology_build_s", || match fabric.design {
        Design::FatTree => Ok(FatTree::new(fabric.k)?
            .hosts_per_tor(fabric.hosts_per_tor)
            .build()),
        Design::F2Tree => {
            F2TreeNetwork::build_with_hosts(fabric.k, fabric.hosts_per_tor).map(|f| f.topology)
        }
    });
    let fresh = t
        .span("emu.network_new_s", || {
            Network::new(
                topo.expect("the fabric was built once already"),
                fabric.config,
            )
        })
        .expect("the fabric was addressed once already");
    replay_failure_map(&fresh, t);
    drop(fresh);

    let sample = sampled(&switches(settled), REPLAY_SWITCHES);
    let started = Instant::now();
    for &sw in &sample {
        if let Some(r) = settled.router(sw) {
            black_box(compute_routes(black_box(r.lsdb()), sw));
        }
    }
    let spf_s = started.elapsed().as_secs_f64();
    let per_run = spf_s / sample.len().max(1) as f64;
    layers.mean("routing.spf_replay_us", spf_s * 1e6, sample.len() as f64);
    layers.add("routing.spf_est_s", per_run * spf_runs(settled) as f64);

    let hosts = settled.topology().hosts();
    let pairs: Vec<(NodeId, NodeId)> = hosts
        .iter()
        .flat_map(|&s| hosts.iter().map(move |&d| (s, d)))
        .filter(|(s, d)| s != d)
        .collect();
    let keys: Vec<_> = sampled(&pairs, REPLAY_KEYS)
        .into_iter()
        .map(|(s, d)| {
            (
                settled.flow_key_with_port(s, d, 41_000, Protocol::Udp),
                s,
                d,
            )
        })
        .collect();
    let routers: Vec<_> = sample.iter().filter_map(|&sw| settled.router(sw)).collect();
    let started = Instant::now();
    for r in &routers {
        for (key, _, _) in &keys {
            black_box(r.forward(black_box(key)));
        }
    }
    layers.mean(
        "routing.fib_lookup_ns",
        started.elapsed().as_secs_f64() * 1e9,
        (routers.len() * keys.len()) as f64,
    );

    let started = Instant::now();
    for (key, src, dst) in &keys {
        black_box(walk(settled, key, *src, *dst));
    }
    layers.mean(
        "chaos.oracle_walk_us",
        started.elapsed().as_secs_f64() * 1e6,
        keys.len() as f64,
    );
}

/// Replays the fast-reroute map computation `Network::new` runs in the
/// `frr` mode, on `net`'s topology, passive set and ToR prefixes.
fn replay_failure_map(net: &Network, t: &mut Tracer) {
    let topo = net.topology();
    let passive: BTreeSet<LinkId> = if net.config().across_links_passive() {
        topo.links()
            .filter(|l| l.class() == LinkClass::Across)
            .map(|l| l.id())
            .collect()
    } else {
        BTreeSet::new()
    };
    let origins: BTreeMap<NodeId, Vec<Prefix>> = topo
        .layer_switches(Layer::Tor)
        .map(|tor| (tor, net.plan().subnet_of(tor).into_iter().collect()))
        .collect();
    let map = t.span("frr.failure_map_s", || {
        compute_failure_map(topo, &passive, &origins)
    });
    black_box(map);
}

/// Times one quality snapshot of the settled network — extraction and
/// scoring — and charges it `calls` times, or once for a workload that
/// takes no snapshots itself.
pub fn replay_quality(settled: &Network, calls: f64, layers: &mut Layers) {
    let started = Instant::now();
    let input = black_box(settled.quality_input());
    let input_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    black_box(QualityReport::compute(&input));
    let compute_s = started.elapsed().as_secs_f64();
    let calls = calls.max(1.0);
    layers.add("emu.quality_input_s", input_s * calls);
    layers.add("metrics.quality_s", compute_s * calls);
}

/// The network's switches, in node order.
pub fn switches(net: &Network) -> Vec<NodeId> {
    net.topology()
        .nodes()
        .filter(|n| n.kind().is_switch())
        .map(|n| n.id())
        .collect()
}

/// Up to `n` items spread evenly over `items`.
fn sampled<T: Copy>(items: &[T], n: usize) -> Vec<T> {
    if items.len() <= n {
        return items.to_vec();
    }
    (0..n).map(|i| items[i * items.len() / n]).collect()
}
