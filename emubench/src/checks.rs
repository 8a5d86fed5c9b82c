//! Output checks, computed independently of the emulator.
//!
//! Every expected value here comes from the protocol timer constants, the
//! paper's probe parameters, or closed-form demand arithmetic — never from
//! a stored copy of an earlier run. Each check is a pure function so the
//! tests below can feed it deliberately wrong results.

use std::collections::VecDeque;

use dcn_emu::Network;
use dcn_metrics::quality::LOAD_SCALE;
use dcn_net::{LinkClass, NodeId, Protocol};
use dcn_sim::SimDuration;

/// Interval of the paper's constant-rate probes (10 kpps).
const PROBE_INTERVAL: SimDuration = SimDuration::from_micros(100);

/// Width of one TCP throughput bin (Fig. 4(c)).
pub const THROUGHPUT_BIN: SimDuration = SimDuration::from_millis(20);

/// Collects check failures; the run is correct when none were recorded.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records `result` for the output named by `what`.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Records a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The failures recorded so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Connectivity loss must lie in `[expected, expected + 1 ms]`: the
/// recovery pipeline's timer sum, plus at most one millisecond of
/// propagation, queueing and probe phase.
pub fn loss_window(loss: Option<SimDuration>, expected: SimDuration) -> Result<(), String> {
    let loss = loss.ok_or("probe never recovered")?;
    let hi = expected + SimDuration::from_millis(1);
    if loss < expected || loss > hi {
        return Err(format!(
            "loss {} us outside [{}, {}] us",
            loss.as_micros(),
            expected.as_micros(),
            hi.as_micros()
        ));
    }
    Ok(())
}

/// A constant-rate probe cannot lose more packets than were sent during
/// the outage, plus one in flight at each edge.
pub fn udp_loss(lost: u64, loss: SimDuration) -> Result<(), String> {
    let cap = loss.as_nanos() / PROBE_INTERVAL.as_nanos() + 2;
    if lost > cap {
        return Err(format!("{lost} packets lost, more than {cap}"));
    }
    Ok(())
}

/// The TCP probe stalls until a retransmission timer fires after
/// connectivity returns, so its collapse sits on the RTO backoff series
/// `min_rto · (2^(n+1) − 1)` (200, 600, 1400, … ms) to within one
/// throughput bin, and is at least the first member that covers the
/// connectivity loss.
pub fn tcp_collapse(
    collapse: Option<SimDuration>,
    loss: SimDuration,
    min_rto: SimDuration,
) -> Result<(), String> {
    let c = collapse.ok_or("throughput never recovered")?;
    let members: Vec<SimDuration> = (1..=8u64).map(|n| min_rto * ((1 << n) - 1)).collect();
    let first = members
        .iter()
        .copied()
        .find(|&m| m >= loss)
        .ok_or("loss longer than the RTO series checked")?;
    let on_series = members
        .iter()
        .any(|&m| c + THROUGHPUT_BIN >= m && c <= m + THROUGHPUT_BIN);
    if !on_series {
        return Err(format!(
            "collapse {} ms is not within one bin of an RTO backoff member",
            c.as_millis()
        ));
    }
    if c < first {
        return Err(format!(
            "collapse {} ms below the first RTO member {} ms covering the {} ms loss",
            c.as_millis(),
            first.as_millis(),
            loss.as_millis()
        ));
    }
    Ok(())
}

/// Total uniform all-pairs demand between ToRs, quantized: each of `hosts`
/// hosts sends 1/(H−1) to every other host, and the `per_tor − 1` pairs
/// inside its own rack never reach the fabric, so the ToR-to-ToR demand is
/// H·(H−h)/(H−1).
pub fn expected_demand(hosts: u64, per_tor: u64) -> f64 {
    let (h_all, h) = (hosts as f64, per_tor as f64);
    h_all * (h_all - h) / (h_all - 1.0) * LOAD_SCALE as f64
}

/// Delivered plus undeliverable demand must account for all demand, to
/// within one quantum.
pub fn demand_conserved(
    delivered: u64,
    undeliverable: u64,
    hosts: u64,
    per_tor: u64,
) -> Result<(), String> {
    let want = expected_demand(hosts, per_tor);
    let got = (delivered + undeliverable) as f64;
    if (got - want).abs() > 1.0 {
        return Err(format!(
            "delivered + undeliverable = {got} quanta, expected {want:.1}"
        ));
    }
    Ok(())
}

/// On a healthy fat tree, ECMP spreads each ToR's outbound demand
/// h(H−h)/(H−1) evenly over its k/2 uplinks, and no fabric edge carries
/// more than one such share.
pub fn fat_tree_max_load(max_load: u64, hosts: u64, per_tor: u64, k: u64) -> Result<(), String> {
    let (h_all, h) = (hosts as f64, per_tor as f64);
    let want = h * (h_all - h) / ((h_all - 1.0) * (k as f64 / 2.0)) * LOAD_SCALE as f64;
    if (max_load as f64 - want).abs() > 1.0 {
        return Err(format!("max load {max_load} quanta, expected {want:.1}"));
    }
    Ok(())
}

/// A routed path must be exactly as long as the shortest path over the
/// surviving links.
pub fn path_length(hops: usize, shortest: usize) -> Result<(), String> {
    if hops != shortest {
        return Err(format!("path of {hops} hops, shortest is {shortest}"));
    }
    Ok(())
}

/// Source port of the flow key the all-pairs route check forwards for
/// each pair: the first port the emulator hands out to a flow. The check
/// samples one 5-tuple per pair, so it sees only the ECMP choices that key
/// hashes onto.
const CHECK_SPORT: u16 = 40_000;

/// Checks that every ordered host pair is routed, over physically live
/// links, along a shortest path of the live topology without the across
/// links (which OSPF never routes over). Returns the first failure, with
/// the count of failing pairs.
pub fn all_pairs_shortest(net: &Network) -> Result<(), String> {
    let topo = net.topology();
    let hosts = topo.hosts();
    let mut bad = 0usize;
    let mut first = None;
    for &dst in hosts {
        let dist = bfs_hops(net, dst);
        for &src in hosts {
            if src == dst {
                continue;
            }
            let outcome = forward_hops(net, src, dst).and_then(|hops| {
                let shortest = dist[src.index()].ok_or("no surviving path")?;
                path_length(hops, shortest)
            });
            if let Err(e) = outcome {
                bad += 1;
                first.get_or_insert_with(|| format!("{src:?} -> {dst:?}: {e}"));
            }
        }
    }
    match first {
        None => Ok(()),
        Some(e) => Err(format!("{bad} pair(s) misrouted, first {e}")),
    }
}

/// Hop distance from every node to `dst` over live, non-across links.
fn bfs_hops(net: &Network, dst: NodeId) -> Vec<Option<usize>> {
    let topo = net.topology();
    let mut dist = vec![None; topo.node_slots()];
    let mut queue = VecDeque::from([dst]);
    dist[dst.index()] = Some(0);
    while let Some(node) = queue.pop_front() {
        let d = dist[node.index()].unwrap_or(0);
        for (link, next) in topo.neighbors(node) {
            if dist[next.index()].is_some()
                || !net.link_state(link).is_up()
                || topo.link(link).class() == LinkClass::Across
            {
                continue;
            }
            dist[next.index()] = Some(d + 1);
            queue.push_back(next);
        }
    }
    dist
}

/// Follows the installed FIBs from `src` to `dst`, returning the number
/// of links crossed.
fn forward_hops(net: &Network, src: NodeId, dst: NodeId) -> Result<usize, String> {
    let topo = net.topology();
    let key = net.flow_key_with_port(src, dst, CHECK_SPORT, Protocol::Udp);
    let (uplink, mut at) = topo.neighbors(src).next().ok_or("host without uplink")?;
    if !net.link_state(uplink).is_up() {
        return Err("host uplink down".into());
    }
    let mut hops = 1;
    while at != dst {
        if hops > topo.node_slots() {
            return Err("forwarding loop".into());
        }
        let router = net
            .router(at)
            .ok_or(format!("reached {at:?}, not a switch"))?;
        let hop = router.forward(&key).ok_or(format!("no route at {at:?}"))?;
        if !net.link_state(hop.link).is_up() {
            return Err(format!("{at:?} forwards onto dead link {:?}", hop.link));
        }
        at = hop.node;
        hops += 1;
    }
    Ok(hops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::timers;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn loss_shifted_past_its_window_is_rejected() {
        let e = timers::DETECTION_DELAY;
        assert!(loss_window(Some(e + SimDuration::from_micros(116)), e).is_ok());
        assert!(loss_window(Some(e + ms(1) + SimDuration::from_micros(1)), e).is_err());
        assert!(loss_window(Some(e - SimDuration::from_micros(1)), e).is_err());
        assert!(loss_window(None, e).is_err());
    }

    #[test]
    fn udp_loss_beyond_the_outage_is_rejected() {
        assert!(udp_loss(2702, SimDuration::from_micros(270_133)).is_ok());
        assert!(udp_loss(2704, SimDuration::from_micros(270_133)).is_err());
    }

    #[test]
    fn collapse_off_the_rto_series_is_rejected() {
        let rto = ms(200);
        assert!(tcp_collapse(Some(ms(220)), ms(60), rto).is_ok());
        assert!(tcp_collapse(Some(ms(600)), ms(270), rto).is_ok());
        // Between members 200 and 600 ms.
        assert!(tcp_collapse(Some(ms(400)), ms(60), rto).is_err());
        // On the series, but below the member that covers a 270 ms loss.
        assert!(tcp_collapse(Some(ms(200)), ms(270), rto).is_err());
        assert!(tcp_collapse(None, ms(60), rto).is_err());
    }

    #[test]
    fn demand_off_by_two_quanta_is_rejected() {
        let (hosts, per_tor) = (128, 4);
        let want = expected_demand(hosts, per_tor).round() as u64;
        assert!(demand_conserved(want - 10, 10, hosts, per_tor).is_ok());
        assert!(demand_conserved(want + 2, 0, hosts, per_tor).is_err());
        assert!(demand_conserved(want - 2, 0, hosts, per_tor).is_err());
    }

    #[test]
    fn fat_tree_load_off_its_ecmp_share_is_rejected() {
        let want = (4.0 * 124.0 / (127.0 * 4.0) * LOAD_SCALE as f64).round() as u64;
        assert!(fat_tree_max_load(want, 128, 4, 8).is_ok());
        assert!(fat_tree_max_load(want + 2, 128, 4, 8).is_err());
    }

    #[test]
    fn path_one_hop_longer_than_bfs_is_rejected() {
        assert!(path_length(6, 6).is_ok());
        assert!(path_length(7, 6).is_err());
    }

    #[test]
    fn all_pairs_check_rejects_a_fabric_with_a_silently_dead_link() {
        use dcn_emu::EmuConfig;
        use dcn_net::FatTree;
        use dcn_sim::SimTime;

        let topo = FatTree::new(4).expect("k=4").hosts_per_tor(1).build();
        let mut net = Network::new(topo, EmuConfig::default()).expect("addressable");
        assert!(all_pairs_shortest(&net).is_ok());
        // Fail a ToR uplink and stop before detection: the FIBs still
        // point at the dead link, so some pair must be reported.
        let tor = net.topology().hosts()[0];
        let (_, tor) = net.topology().neighbors(tor).next().expect("uplink");
        let link = net.topology().upward_links(tor)[0];
        net.fail_link_at(SimTime::ZERO, link);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(1));
        assert!(all_pairs_shortest(&net).is_err());
        // After detection and reconvergence the survivors route again.
        net.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(all_pairs_shortest(&net).is_ok());
    }
}
