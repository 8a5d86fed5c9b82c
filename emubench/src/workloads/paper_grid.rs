//! `paper-grid`: the Fig. 4 grid plus the recovery grid's `ospf` and `frr`
//! rows, 26 cells at k = 8 with 4 hosts per ToR.
//!
//! Each cell runs aligned UDP (10 kpps) and TCP probes, fails its Table IV
//! condition at 100 ms, scores routing quality when healthy and
//! mid-failover, and runs to a 2 s horizon. Forwarding-bound: nearly all
//! of its events are probe packets.

use dcn_emu::{EmuConfig, Network};
use dcn_failure::Condition;
use dcn_metrics::quality::QualityReport;
use dcn_metrics::ThroughputSeries;
use dcn_routing::RecoveryMode;
use dcn_sim::{timers, SimDuration, SimTime};
use f2tree::{Design, TestBed};

use crate::checks::{self, Checks, THROUGHPUT_BIN};
use crate::layers::{self, Fabric};
use crate::trace::Tracer;
use crate::{timed, Op, Round};

const K: u32 = 8;
const HOSTS_PER_TOR: u32 = 4;
const FAIL_AT: SimDuration = SimDuration::from_millis(100);
const HORIZON: SimDuration = SimDuration::from_secs(2);

/// One (design, recovery mode, condition) cell.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    design: Design,
    recovery: RecoveryMode,
    condition: Condition,
}

/// Fig. 4 (fat tree C1–C5, F²Tree C1–C7, both under the default F²Tree
/// rewiring mode), then F²Tree C1–C7 under `ospf` and under `frr`.
pub fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for condition in Condition::ALL {
        if !condition.requires_across_links() {
            cells.push(Cell {
                design: Design::FatTree,
                recovery: RecoveryMode::F2TreeRewiring,
                condition,
            });
        }
        cells.push(Cell {
            design: Design::F2Tree,
            recovery: RecoveryMode::F2TreeRewiring,
            condition,
        });
    }
    for recovery in [
        RecoveryMode::OspfReconvergence,
        RecoveryMode::PrecomputedFrr,
    ] {
        for condition in Condition::ALL {
            cells.push(Cell {
                design: Design::F2Tree,
                recovery,
                condition,
            });
        }
    }
    cells
}

/// The connectivity loss the recovery pipeline predicts for `cell`:
/// F²Tree's static backups wait only for detection on C1–C6, the FRR map
/// adds one FIB update, and everything else — fat trees, plain OSPF, and
/// C7, which severs the repair paths — waits for detection, the initial
/// SPF delay and the FIB update.
fn expected_loss(cell: Cell) -> SimDuration {
    let repairable = cell.design == Design::F2Tree && cell.condition != Condition::C7;
    match cell.recovery {
        RecoveryMode::F2TreeRewiring if repairable => timers::DETECTION_DELAY,
        RecoveryMode::PrecomputedFrr if repairable => {
            timers::DETECTION_DELAY + timers::FIB_UPDATE_DELAY
        }
        _ => timers::DETECTION_DELAY + timers::SPF_INITIAL_DELAY + timers::FIB_UPDATE_DELAY,
    }
}

/// The mid-failover snapshot instant after the failure: halfway through
/// the OSPF reconvergence pipeline, when fast reroute has acted and OSPF
/// has not.
fn mid_failover() -> SimDuration {
    (timers::DETECTION_DELAY + timers::SPF_INITIAL_DELAY + timers::FIB_UPDATE_DELAY) / 2
}

fn quality(net: &Network, t: &mut Tracer) -> QualityReport {
    let input = t.span("emu.quality_input_s", || net.quality_input());
    t.span("metrics.quality_s", || QualityReport::compute(&input))
}

/// Runs every cell once.
pub fn round(t: &mut Tracer, checks: &mut Checks) -> Round {
    let cells = cells();
    let mut round = Round {
        ops: vec![Op::default(); cells.len()],
        ..Round::default()
    };
    let at = |d: SimDuration| SimTime::ZERO + d;
    for (i, &cell) in cells.iter().enumerate() {
        let name = format!(
            "{} {} {}",
            cell.design,
            cell.recovery.name(),
            cell.condition
        );
        let emu = EmuConfig::builder().recovery(cell.recovery).build();

        let ((mut bed, udp, tcp, failed_links), setup_s) = timed(|| {
            let mut bed = t
                .span("core.testbed_build_s", || {
                    TestBed::build_with_config(cell.design, K, HOSTS_PER_TOR, emu)
                })
                .expect("k = 8 testbeds build");
            let (udp, tcp) = bed.add_aligned_probes(SimTime::ZERO);
            let anatomy = bed.path_anatomy(udp);
            let links = bed.scenario_links(&anatomy, cell.condition);
            for &link in &links {
                bed.net.fail_link_at(at(FAIL_AT), link);
            }
            (bed, udp, tcp, links.len())
        });

        let ((healthy, failover), run_s) = timed(|| {
            let healthy = quality(&bed.net, t);
            bed.net.run_until(at(FAIL_AT + mid_failover()));
            let failover = quality(&bed.net, t);
            bed.net.run_until(at(HORIZON));
            (healthy, failover)
        });
        round.ops[i] = Op { setup_s, run_s };
        round.events += bed.net.events_processed();

        // ---- checks (untimed) ----
        let report = bed.net.udp_probe_report(udp);
        let loss = report
            .connectivity
            .loss_around(at(FAIL_AT))
            .map(|l| l.duration);
        checks.check(
            &format!("{name} loss"),
            checks::loss_window(loss, expected_loss(cell)),
        );
        let loss = loss.unwrap_or(SimDuration::ZERO);
        checks.check(&format!("{name} udp"), checks::udp_loss(report.lost, loss));
        let mut series = ThroughputSeries::new();
        series.extend_from_log(bed.net.tcp_delivery_log(tcp));
        let collapse =
            series.collapse_duration(SimTime::ZERO, at(FAIL_AT), at(HORIZON), THROUGHPUT_BIN);
        checks.check(
            &format!("{name} tcp collapse"),
            checks::tcp_collapse(collapse, loss, emu.tcp().min_rto),
        );

        let hosts = bed.topology().hosts().len() as u64;
        let per_tor = u64::from(HOSTS_PER_TOR);
        for (snap, q) in [("healthy", &healthy), ("mid-failover", &failover)] {
            checks.check(
                &format!("{name} {snap} demand"),
                checks::demand_conserved(q.delivered, q.undeliverable, hosts, per_tor),
            );
        }
        checks.expect(healthy.undeliverable == 0, || {
            format!("{name}: healthy undeliverable {}", healthy.undeliverable)
        });
        if cell.design == Design::FatTree {
            checks.check(
                &format!("{name} healthy max load"),
                checks::fat_tree_max_load(healthy.max_load, hosts, per_tor, u64::from(K)),
            );
        }
        // The paper's claim: the rewiring leaves nothing blackholed while
        // OSPF is still reconverging, and plain OSPF does.
        let repairable = cell.design == Design::F2Tree && cell.condition != Condition::C7;
        if cell.recovery == RecoveryMode::F2TreeRewiring && repairable {
            checks.expect(failover.undeliverable == 0, || {
                format!(
                    "{name}: mid-failover undeliverable {}",
                    failover.undeliverable
                )
            });
        }
        if cell.recovery == RecoveryMode::OspfReconvergence {
            checks.expect(failover.undeliverable > 0, || {
                format!("{name}: OSPF delivered everything mid-failover")
            });
        }

        // ---- per-layer counters and replays ----
        let layers = &mut round.layers;
        layers::add_counters(&bed.net, layers);
        layers.add("emu.events", bed.net.events_processed() as f64);
        layers.add("metrics.quality_calls", 2.0);
        layers.add("failure.links_failed", failed_links as f64);
        if let Some(s) = bed.net.tcp_flow_stats(tcp) {
            layers.add("transport.retransmits", s.retransmits as f64);
        }
        if t.is_on() {
            let fabric = Fabric {
                design: cell.design,
                k: K,
                hosts_per_tor: HOSTS_PER_TOR,
                config: emu,
            };
            layers::replay(fabric, &bed.net, t, layers);
        }
    }
    round
}
