//! `fig6-traffic`: Fig. 6 at paper scale. Fat tree and F²Tree (k = 8,
//! 4 hosts per ToR) each carry 3000 partition-aggregate requests and 1500
//! log-normal background flows over 600 s under the 5-concurrent random
//! failure regime, then drain for 15 s. Thousands of TCP flows, queue
//! overflow and a deep event queue; heavy SPF churn on the fat tree.

use dcn_emu::FlowId;
use dcn_failure::{generate_random_failures, RandomFailureConfig};
use dcn_net::NodeId;
use dcn_sim::{SimDuration, SimRng, SimTime};
use dcn_transport::{
    generate_background, generate_requests, BackgroundConfig, PartitionAggregateConfig,
};
use f2tree::{Design, TestBed};

use crate::checks::Checks;
use crate::layers::{self, Fabric};
use crate::trace::Tracer;
use crate::{timed, Op, Round};

/// The two designs compared, in operation order.
pub const DESIGNS: [Design; 2] = [Design::FatTree, Design::F2Tree];

/// Master seed of the paper-scale run; requests, background flows and
/// failures draw from its forks 1, 2 and 3.
const MASTER_SEED: u64 = 20150701;
const K: u32 = 8;
const HOSTS_PER_TOR: u32 = 4;
const DURATION: SimDuration = SimDuration::from_secs(600);
const DRAIN: SimDuration = SimDuration::from_secs(15);
const REQUESTS: u32 = 3000;
const BACKGROUND_FLOWS: u32 = 1500;

/// Runs both designs once.
pub fn round(t: &mut Tracer, checks: &mut Checks) -> Round {
    let mut round = Round {
        ops: vec![Op::default(); DESIGNS.len()],
        ..Round::default()
    };
    let mut miss_ratio = [0.0f64; DESIGNS.len()];
    for (i, &design) in DESIGNS.iter().enumerate() {
        let pa = PartitionAggregateConfig {
            requests: REQUESTS,
            duration: DURATION,
            ..PartitionAggregateConfig::default()
        };
        let ((mut bed, starts, transfers, links_failed), setup_s) = timed(|| {
            let mut bed = t
                .span("core.testbed_build_s", || {
                    TestBed::build(design, K, HOSTS_PER_TOR)
                })
                .expect("k = 8 testbeds build");
            let hosts: Vec<NodeId> = bed.topology().hosts().to_vec();
            let master = SimRng::new(MASTER_SEED);
            let mut starts = Vec::new();
            for r in generate_requests(&mut master.fork(1), hosts.len(), &pa) {
                let workers: Vec<NodeId> = r.workers.iter().map(|&w| hosts[w]).collect();
                bed.net.add_request(
                    r.start,
                    hosts[r.requester],
                    &workers,
                    pa.request_bytes,
                    pa.response_bytes,
                );
                starts.push(r.start);
            }
            let bg = BackgroundConfig {
                flows: BACKGROUND_FLOWS,
                ..BackgroundConfig::default()
            };
            let transfers: Vec<(FlowId, u64)> =
                generate_background(&mut master.fork(2), hosts.len(), &bg)
                    .into_iter()
                    .map(|f| {
                        let id = bed
                            .net
                            .add_transfer(hosts[f.src], hosts[f.dst], f.bytes, f.start);
                        (id, f.bytes)
                    })
                    .collect();
            let regime = RandomFailureConfig::five_concurrent().scaled_to(DURATION);
            let schedule =
                generate_random_failures(&mut master.fork(3), &bed.fabric_links(), &regime);
            let links_failed = schedule.failure_count();
            bed.net.apply_failures(schedule);
            (bed, starts, transfers, links_failed)
        });

        let ((), run_s) = timed(|| bed.net.run_until(SimTime::ZERO + DURATION + DRAIN));
        round.ops[i] = Op { setup_s, run_s };
        round.events += bed.net.events_processed();

        // ---- checks (untimed) ----
        let outcomes = bed.net.request_outcomes();
        checks.expect(outcomes.len() == starts.len(), || {
            format!(
                "{design}: {} request outcomes for {} requests",
                outcomes.len(),
                starts.len()
            )
        });
        let mut missed = 0usize;
        let mut unfinished = 0usize;
        for (start, done) in starts.iter().zip(&outcomes) {
            match done {
                Some(end) if end.since(*start) <= pa.deadline => {}
                Some(_) => missed += 1,
                None => unfinished += 1,
            }
        }
        checks.expect(unfinished == 0, || {
            format!("{design}: {unfinished} request(s) never completed")
        });
        miss_ratio[i] = (missed + unfinished) as f64 / starts.len() as f64;
        let mut retransmits = 0u64;
        for &(flow, bytes) in &transfers {
            let Some(s) = bed.net.tcp_flow_stats(flow) else {
                checks.expect(false, || format!("{design}: transfer {flow:?} is not TCP"));
                continue;
            };
            retransmits += s.retransmits;
            checks.expect(
                s.complete && s.delivered == bytes && s.acked <= s.delivered,
                || {
                    format!(
                    "{design}: transfer {flow:?} delivered {}/{bytes} bytes, acked {}, complete {}",
                    s.delivered, s.acked, s.complete
                )
                },
            );
        }

        // ---- per-layer counters and replays ----
        let layers = &mut round.layers;
        layers::add_counters(&bed.net, layers);
        layers.add("emu.events", bed.net.events_processed() as f64);
        layers.add("failure.links_failed", links_failed as f64);
        layers.add("transport.retransmits", retransmits as f64);
        if t.is_on() {
            let fabric = Fabric {
                design,
                k: K,
                hosts_per_tor: HOSTS_PER_TOR,
                config: *bed.net.config(),
            };
            layers::replay(fabric, &bed.net, t, layers);
            layers::replay_quality(&bed.net, 0.0, layers);
        }
    }
    // The paper's Fig. 6(a) claim at this seed: the rewiring never misses
    // more deadlines than the fat tree.
    checks.expect(miss_ratio[1] <= miss_ratio[0], || {
        format!(
            "F2Tree misses {:.4} of deadlines, fat tree {:.4}",
            miss_ratio[1], miss_ratio[0]
        )
    });
    round
}
