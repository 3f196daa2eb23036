//! The four workloads. Each one generates its inputs from the seed, sets up
//! through the program's public set-up calls, then runs whole rounds of a
//! fixed operation sequence in a closed loop until its budget is spent,
//! checking every output.

pub mod admission_churn;
pub mod fabric_soak;
pub mod gateway_edge;
pub mod synthesis;

use crate::meter::{Meter, WINDOWS};
use crate::trace::Tracer;

/// How long the timed loop runs: for a wall-clock time, or for an exact
/// number of rounds (the untraced replay a traced run compares against).
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Seconds(f64),
    Rounds(u64),
}

impl Budget {
    /// Should another round start?
    pub fn more(&self, rounds_done: u64, meter: &Meter) -> bool {
        match *self {
            Budget::Seconds(s) => rounds_done == 0 || meter.wall_s() < s,
            Budget::Rounds(n) => rounds_done < n,
        }
    }

    /// A meter windowed for this budget.
    pub fn meter(&self) -> Meter {
        match *self {
            Budget::Seconds(s) => Meter::new(s / WINDOWS as f64, WINDOWS),
            Budget::Rounds(_) => Meter::new(f64::INFINITY, 1),
        }
    }
}

/// What one timed loop did.
pub struct Outcome {
    pub rounds: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Loop time and per-operation host latency.
    pub meter: Meter,
    /// Digest of every simulated result the loop produced.
    pub digest: u64,
    /// Per-layer counts read from the program's metrics after the loop.
    pub counts: Vec<(&'static str, f64)>,
    /// `Err` names the first output check that failed.
    pub verdict: Result<(), String>,
}

/// A workload: inputs made from a seed, a repeatable set-up, a timed loop.
pub trait Workload {
    type Input;
    type State;

    fn generate(seed: u64) -> Self::Input;

    /// The program's own set-up calls (timed for `setup_s`).
    fn setup(input: &Self::Input, tr: &mut Tracer) -> Result<Self::State, String>;

    /// How many set-ups to time; `setup_s` is their median.
    const SETUP_REPEATS: usize;

    /// Run whole rounds until `budget` is spent, checking the outputs.
    fn run(input: &Self::Input, state: Self::State, budget: Budget, tr: &mut Tracer) -> Outcome;
}

/// Turn a failed check into an error message.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One round of a workload passes its checks with no failed op, and
    /// the traced run and an untraced replay simulate the same results.
    fn one_round<W: Workload>() {
        let input = W::generate(7);
        let mut tr = Tracer::new(true);
        let state = W::setup(&input, &mut tr).expect("set-up succeeds");
        let traced = W::run(&input, state, Budget::Rounds(1), &mut tr);
        assert_eq!(traced.verdict, Ok(()));
        assert_eq!((traced.rounds, traced.failed), (1, 0));
        assert!(traced.attempted > 0);
        let mut quiet = Tracer::new(false);
        let state = W::setup(&input, &mut quiet).expect("set-up succeeds");
        let replay = W::run(&input, state, Budget::Rounds(1), &mut quiet);
        assert_eq!(replay.digest, traced.digest);
    }

    #[test]
    fn fabric_soak_round_checks_out() {
        one_round::<fabric_soak::FabricSoak>();
    }

    #[test]
    fn gateway_edge_round_checks_out() {
        one_round::<gateway_edge::GatewayEdge>();
    }

    #[test]
    fn admission_churn_round_checks_out() {
        one_round::<admission_churn::AdmissionChurn>();
    }

    #[test]
    fn synthesis_round_checks_out() {
        one_round::<synthesis::Synthesis>();
    }
}
