//! The emulator benchmark: one command, four workloads.
//!
//! ```text
//! emubench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats whole rounds of its workload — every operation (cell,
//! scenario or traffic run) once per round — until `--seconds` have
//! passed, checks every round's outputs, and prints one JSON object as
//! its last line of standard output. With `--trace 0` that object holds
//! the end-to-end metrics; with `--trace 1` rounds alternate between
//! untraced and traced, and it holds the per-layer metrics plus the
//! tracing overhead. See `README.md` beside this package.

mod checks;
mod layers;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use checks::Checks;
use layers::{Layers, PER_LAYER};
use trace::Tracer;

/// What one operation of a round cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct Op {
    /// Building testbeds and inputs before the first simulated event.
    pub setup_s: f64,
    /// The simulation phase.
    pub run_s: f64,
}

/// One round of a workload: every operation once.
#[derive(Debug, Default)]
pub struct Round {
    /// Cost of each operation, in operation order.
    pub ops: Vec<Op>,
    /// Simulator events processed by the round.
    pub events: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Per-layer values.
    pub layers: Layers,
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Fewer rounds than this and a run has no median worth reporting, nor a
/// second round to compare event counts with.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sum over operations of each operation's median cost across `rounds`.
fn phase_s(rounds: &[&Round], phase: impl Fn(&Op) -> f64) -> f64 {
    let n_ops = rounds.first().map_or(0, |r| r.ops.len());
    (0..n_ops)
        .map(|i| median(rounds.iter().map(|r| phase(&r.ops[i])).collect()))
        .sum()
}

/// Peak resident set size (`VmHWM`) of this process so far, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kb / 1024.0)
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("emubench: {e}");
            eprintln!(
                "usage: emubench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(n_ops) = workloads::op_count(&args.workload) else {
        eprintln!(
            "emubench: unknown workload {:?}; expected one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };

    let mut tracer = Tracer::new();
    let mut checks = Checks::default();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut rounds: Vec<(bool, Round, BTreeMap<&'static str, f64>)> = Vec::new();
    let mut peak_rss = None;
    while rounds.len() < MIN_ROUNDS || started.elapsed() < budget {
        // Traced runs alternate: untraced rounds give the baseline the
        // tracing overhead is measured against.
        let traced = args.trace && rounds.len() % 2 == 1;
        tracer.set_on(traced);
        let mut round = workloads::round(&args.workload, args.seed, &mut tracer, &mut checks);
        let layers = std::mem::take(&mut round.layers).finish(tracer.drain_totals());
        eprintln!(
            "emubench: round {} at {:.1} s: setup {:.4} s, run {:.4} s{}",
            rounds.len(),
            started.elapsed().as_secs_f64(),
            round.ops.iter().map(|o| o.setup_s).sum::<f64>(),
            round.ops.iter().map(|o| o.run_s).sum::<f64>(),
            if traced { " (traced)" } else { "" }
        );
        rounds.push((traced, round, layers));
        // The workload is one round; later rounds repeat it for timing and
        // would add only the allocator's fragmentation to the peak.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb());
        }
    }

    let first_events = rounds[0].1.events;
    for (i, (_, r, _)) in rounds.iter().enumerate() {
        checks.expect(r.events == first_events, || {
            format!(
                "round {i} processed {} events, round 0 {first_events}",
                r.events
            )
        });
    }
    let attempted: u64 = rounds.iter().map(|(_, r, _)| r.ops.len() as u64).sum();
    let failed: u64 = rounds.iter().map(|(_, r, _)| r.failed).sum();
    for f in checks.failures() {
        eprintln!("emubench: check failed: {f}");
    }

    let untraced: Vec<&Round> = rounds
        .iter()
        .filter(|(t, _, _)| !t)
        .map(|(_, r, _)| r)
        .collect();
    let run_s = phase_s(&untraced, |o| o.run_s);
    let mut metrics = Vec::new();
    if args.trace {
        let traced: Vec<&(bool, Round, BTreeMap<&'static str, f64>)> =
            rounds.iter().filter(|(t, _, _)| *t).collect();
        let traced_rounds: Vec<&Round> = traced.iter().map(|(_, r, _)| r).collect();
        let traced_run_s = phase_s(&traced_rounds, |o| o.run_s);
        for &(name, unit) in PER_LAYER {
            let value = match name {
                "trace.overhead_s" => traced_run_s - run_s,
                "routing.spf_share" => {
                    median(
                        traced
                            .iter()
                            .map(|(_, _, l)| l["routing.spf_est_s"])
                            .collect(),
                    ) / traced_run_s
                }
                _ => median(traced.iter().map(|(_, _, l)| l[name]).collect()),
            };
            metrics.push(metric(name, value, unit));
        }
    } else {
        let rss = match peak_rss.expect("at least one round ran") {
            Ok(v) => v,
            Err(e) => {
                eprintln!("emubench: cannot read peak RSS: {e}");
                return ExitCode::FAILURE;
            }
        };
        metrics.push(metric("setup_s", phase_s(&untraced, |o| o.setup_s), "s"));
        metrics.push(metric("run_s", run_s, "s"));
        metrics.push(metric(
            "events_per_s",
            first_events as f64 / run_s,
            "events/s",
        ));
        metrics.push(metric("peak_rss_mb", rss, "MB"));
    }
    eprintln!(
        "emubench: {} round(s) of {} operation(s) in {:.1} s",
        rounds.len(),
        n_ops,
        started.elapsed().as_secs_f64()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        checks.failures().is_empty(),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
