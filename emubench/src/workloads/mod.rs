//! The four workloads. Each drives the emulator only through its public
//! calls, on one thread, and runs its operations in a fixed order.

mod chaos_churn;
mod fig6_traffic;
mod paper_grid;
mod scale_k22;

use crate::checks::Checks;
use crate::trace::Tracer;
use crate::Round;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["paper-grid", "scale-k22", "chaos-churn", "fig6-traffic"];

/// Operations per round of `workload`, or `None` for an unknown name.
pub fn op_count(workload: &str) -> Option<usize> {
    match workload {
        "paper-grid" => Some(paper_grid::cells().len()),
        "scale-k22" => Some(1),
        "chaos-churn" => Some(chaos_churn::SCENARIOS),
        "fig6-traffic" => Some(fig6_traffic::DESIGNS.len()),
        _ => None,
    }
}

/// Runs one round of `workload`: each of its operations once, in order.
///
/// # Panics
///
/// Panics on a name [`op_count`] rejects.
pub fn round(workload: &str, seed: u64, tracer: &mut Tracer, checks: &mut Checks) -> Round {
    match workload {
        "paper-grid" => paper_grid::round(tracer, checks),
        "scale-k22" => scale_k22::round(seed, tracer, checks),
        "chaos-churn" => chaos_churn::round(tracer, checks),
        "fig6-traffic" => fig6_traffic::round(tracer, checks),
        _ => panic!("unknown workload {workload}"),
    }
}
