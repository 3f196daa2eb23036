//! `admission_churn`: a chain of 16 rings of 8 nodes holding 2 560
//! resident certified connections, admitted in one batch at set-up. Each
//! op is one probe: open a connection, read its certified bound, close
//! it. No slot is stepped; the incremental certifier does all the work.

use super::{ensure, Budget, Outcome, Workload};
use crate::checks;
use crate::rng::{Digest, Rng};
use crate::trace::{Call, Tracer};
use ccr_multiring::prelude::*;
use ccr_sim::TimeDelta;
use std::time::Instant;

const RINGS: u16 = 16;
const NODES: u16 = 8;
const SLOT_BYTES: u32 = 2_048;
const RESIDENTS_PER_RING: usize = 160;
/// Probes per round, of which `CROSS_PER_ROUND` go to an adjacent ring.
const PROBES_PER_ROUND: usize = 20;
const CROSS_PER_ROUND: usize = 3;
const PROBE_PERIOD: TimeDelta = TimeDelta::from_ms(60);
/// Rounds between two comparisons of every resident's bound with a
/// freshly batch-admitted fabric's.
const CHECK_EVERY_ROUNDS: u64 = 50;

#[derive(Clone, Copy, Debug)]
pub struct Flow {
    pub src: (u16, u16),
    pub dst: (u16, u16),
    pub period_ms: u64,
}

impl Flow {
    fn spec(&self) -> FabricConnectionSpec {
        FabricConnectionSpec::unicast(
            GlobalNodeId::new(self.src.0, self.src.1),
            GlobalNodeId::new(self.dst.0, self.dst.1),
        )
        .period(TimeDelta::from_ms(self.period_ms))
    }

    fn rings_on_route(&self) -> u64 {
        self.src.0.abs_diff(self.dst.0) as u64 + 1
    }
}

pub struct Input {
    pub residents: Vec<Flow>,
    /// One round of probes, in order.
    pub probes: Vec<Flow>,
}

pub struct State {
    fabric: Fabric,
    fids: Vec<FabricConnectionId>,
}

/// A station node (nodes 0 and 7 are the chain's bridge ports).
fn station(rng: &mut Rng, ring: u16, not: Option<u16>) -> (u16, u16) {
    loop {
        let n = rng.range(1, NODES as u64 - 2) as u16;
        if Some(n) != not {
            return (ring, n);
        }
    }
}

pub struct AdmissionChurn;

impl AdmissionChurn {
    fn build(input: &Input, tr: &mut Tracer) -> Result<State, String> {
        let mut fabric = tr
            .time(Call::FabricNew, || {
                FabricConfig::uniform(FabricTopology::chain(RINGS, NODES), SLOT_BYTES, 0xC4)
                    .map(|c| c.calculus(true))
                    .and_then(Fabric::new)
            })
            .map_err(|e| format!("fabric build: {e}"))?;
        let specs: Vec<FabricConnectionSpec> = input.residents.iter().map(Flow::spec).collect();
        let fids = tr
            .time(Call::OpenConnections, || fabric.open_connections(&specs))
            .map_err(|e| format!("resident set refused: {e:?}"))?;
        Ok(State { fabric, fids })
    }
}

impl Workload for AdmissionChurn {
    type Input = Input;
    type State = State;
    const SETUP_REPEATS: usize = 5;

    fn generate(seed: u64) -> Input {
        let mut rng = Rng::new(seed);
        let mut residents = Vec::with_capacity(RINGS as usize * RESIDENTS_PER_RING);
        for r in 0..RINGS {
            for i in 0..RESIDENTS_PER_RING {
                let src = station(&mut rng, r, None);
                let dst = station(&mut rng, r, Some(src.1));
                let period_ms = if i % 2 == 0 { 40 } else { 80 };
                residents.push(Flow {
                    src,
                    dst,
                    period_ms,
                });
            }
        }
        let mut probes = Vec::with_capacity(PROBES_PER_ROUND);
        for k in 0..PROBES_PER_ROUND {
            let a = rng.range(0, RINGS as u64 - 1) as u16;
            let b = if k < CROSS_PER_ROUND {
                if a + 1 < RINGS && (a == 0 || rng.chance(1, 2)) {
                    a + 1
                } else {
                    a - 1
                }
            } else {
                a
            };
            let src = station(&mut rng, a, None);
            let dst = station(&mut rng, b, (a == b).then_some(src.1));
            probes.push(Flow {
                src,
                dst,
                period_ms: PROBE_PERIOD.as_ps() / 1_000_000_000,
            });
        }
        // Spread the cross-bridge probes through the round.
        let mut order: Vec<usize> = (0..PROBES_PER_ROUND).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range(0, i as u64) as usize);
        }
        let probes = order.into_iter().map(|i| probes[i]).collect();
        Input { residents, probes }
    }

    fn setup(input: &Input, tr: &mut Tracer) -> Result<State, String> {
        Self::build(input, tr)
    }

    fn run(input: &Input, st: State, budget: Budget, tr: &mut Tracer) -> Outcome {
        let State { mut fabric, fids } = st;
        // The reference: every resident's bound on a fabric freshly
        // batch-admitted with the same set (built untimed and untraced).
        let reference: Result<Vec<Option<TimeDelta>>, String> =
            Self::build(input, &mut Tracer::new(false)).map(|fresh| {
                fresh
                    .fids
                    .iter()
                    .map(|&f| fresh.fabric.e2e_bound(f))
                    .collect()
            });
        let mut verdict = reference.as_ref().map(|_| ()).map_err(Clone::clone);
        let reference = reference.unwrap_or_default();
        let incr0 = fabric.metrics().calc_admit_incremental.get();
        let full0 = fabric.metrics().calc_admit_full.get();

        let mut meter = budget.meter();
        let mut digest = Digest::default();
        let (mut rounds, mut failed, mut resident_checks) = (0u64, 0u64, 0u64);
        meter.resume(tr);
        while budget.more(rounds, &meter) {
            for (k, probe) in input.probes.iter().enumerate() {
                let spec = probe.spec();
                let t0 = Instant::now();
                let admitted = tr.time(Call::OpenConnection, || fabric.open_connection(spec));
                let bound = match admitted {
                    Ok(fid) => {
                        let bound = tr.time(Call::E2eBound, || fabric.e2e_bound(fid));
                        tr.time(Call::CloseConnection, || fabric.close_connection(fid));
                        bound
                    }
                    Err(_) => None,
                };
                let ns = t0.elapsed().as_nanos() as u64;
                meter.record(ns);
                match bound {
                    Some(b) => {
                        digest.u64(b.as_ps());
                        if verdict.is_ok() {
                            verdict = checks::probe_bound(
                                b,
                                PROBE_PERIOD,
                                probe.rings_on_route(),
                                SLOT_BYTES,
                            )
                            .map_err(|e| format!("probe {k}: {e}"));
                        }
                    }
                    None => failed += 1,
                }
            }
            rounds += 1;
            meter.pause(PROBES_PER_ROUND as u64, tr);
            if rounds % CHECK_EVERY_ROUNDS == 0 || !budget.more(rounds, &meter) {
                resident_checks += 1;
                if verdict.is_ok() {
                    verdict = residents_match(&fabric, &fids, &reference);
                }
            }
            if budget.more(rounds, &meter) {
                meter.resume(tr);
            }
        }
        let m = fabric.metrics();
        Outcome {
            rounds,
            attempted: rounds * PROBES_PER_ROUND as u64,
            failed,
            meter,
            digest: digest.finish(),
            counts: vec![
                (
                    "calculus.incremental_solves",
                    (m.calc_admit_incremental.get() - incr0) as f64,
                ),
                (
                    "calculus.full_solves",
                    (m.calc_admit_full.get() - full0) as f64,
                ),
                ("admission.resident_checks", resident_checks as f64),
            ],
            verdict,
        }
    }
}

/// After any number of probes the resident set is the one admitted at
/// set-up, so its certificates must be bit-identical to a fresh batch's.
fn residents_match(
    fabric: &Fabric,
    fids: &[FabricConnectionId],
    reference: &[Option<TimeDelta>],
) -> Result<(), String> {
    for (i, (&fid, want)) in fids.iter().zip(reference).enumerate() {
        let got = fabric.e2e_bound(fid);
        ensure(got.is_some() && got == *want, || {
            format!("resident {i}: bound {got:?} after churn, {want:?} on a fresh batch")
        })?;
    }
    Ok(())
}
