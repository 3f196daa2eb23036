//! `synthesis`: 2 000 clustered traffic matrices, rendered to TOML, parsed
//! at set-up and synthesized one by one. One op is one `synthesize`.
//!
//! Every matrix has three neighbourhoods of local ring traffic plus a few
//! cross-cluster flows, with deadline ≤ period by construction (the
//! `synth-bench` clustered family draws deadlines independently of
//! periods, so most of its matrices are refused by validation before any
//! synthesis happens).

use super::{ensure, Budget, Outcome, Workload};
use crate::checks;
use crate::rng::{Digest, Rng};
use crate::trace::{Call, Tracer};
use ccr_multiring::prelude::*;
use ccr_sim::TimeDelta;
use ccr_synth::{synthesize, StationId, SynthConfig, TrafficMatrix};
use std::time::Instant;

const MATRICES: usize = 2_000;
/// Matrices per round; rounds walk the set cyclically.
const ROUND: usize = 100;

pub struct Input {
    /// One TOML document per matrix.
    pub toml: Vec<String>,
}

pub struct State {
    matrices: Vec<TrafficMatrix>,
}

/// One clustered matrix: three neighbourhoods of four stations, each with
/// a ring of flows and two chords, plus two to four cross-cluster flows
/// (the mix of shapes is the same for every seed). Twelve stations and at
/// most two bridge ports per ring keep every ring inside the default
/// 16-node cap (larger matrices can come back with rings above the cap;
/// see CHANGES.md).
fn clustered(rng: &mut Rng, index: usize) -> String {
    const PER_CLUSTER: u64 = 4;
    let mut t = format!("[[matrix]]\nstations = {}\n", 3 * PER_CLUSTER);
    let mut flow = |src: u64, dst: u64, period_us: u64, deadline_us: u64, size: u64| {
        t.push_str(&format!(
            "\n[[flow]]\nsrc = {src}\ndst = {dst}\nperiod_us = {period_us}\nsize_slots = {size}\ndeadline_us = {deadline_us}\n"
        ));
    };
    for c in 0..3 {
        let base = c * PER_CLUSTER;
        for (i, hop) in [(0, 1), (1, 1), (2, 1), (3, 1), (0, 2), (1, 2)] {
            let period_us = rng.range(400, 800);
            // Deadline between three quarters of the period and the period.
            let deadline_us = period_us - rng.range(0, period_us / 4);
            flow(
                base + i,
                base + (i + hop) % PER_CLUSTER,
                period_us,
                deadline_us,
                rng.range(1, 2),
            );
        }
    }
    for k in 0..2 + (index % 3) as u64 {
        let c_src = k % 3;
        let c_dst = (c_src + rng.range(1, 2)) % 3;
        flow(
            c_src * PER_CLUSTER + rng.range(0, PER_CLUSTER - 1),
            c_dst * PER_CLUSTER + rng.range(0, PER_CLUSTER - 1),
            2_000,
            rng.range(1_000, 1_500),
            1,
        );
    }
    t
}

pub struct Synthesis;

impl Workload for Synthesis {
    type Input = Input;
    type State = State;
    const SETUP_REPEATS: usize = 7;

    fn generate(seed: u64) -> Input {
        let mut rng = Rng::new(seed);
        Input {
            toml: (0..MATRICES).map(|i| clustered(&mut rng, i)).collect(),
        }
    }

    fn setup(input: &Input, tr: &mut Tracer) -> Result<State, String> {
        let matrices = tr
            .time(Call::MatrixParse, || {
                input
                    .toml
                    .iter()
                    .map(|t| TrafficMatrix::parse(t))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("matrix parse: {e}"))?;
        Ok(State { matrices })
    }

    fn run(_input: &Input, st: State, budget: Budget, tr: &mut Tracer) -> Outcome {
        let cfg = SynthConfig::default();
        let State { matrices } = st;
        // Per matrix: digest of its first result, which later passes must
        // reproduce exactly.
        let mut seen: Vec<Option<u64>> = vec![None; matrices.len()];
        let mut results = Vec::with_capacity(ROUND);
        let mut meter = budget.meter();
        let mut digest = Digest::default();
        let (mut rounds, mut failed, mut checked) = (0u64, 0u64, 0u64);
        let mut verdict = Ok(());
        let (mut certifier_calls, mut full_solves, mut attempted_moves, mut accepted_moves) =
            (0u64, 0u64, 0u64, 0u64);
        let mut next = 0usize;
        meter.resume(tr);
        while budget.more(rounds, &meter) {
            results.clear();
            for _ in 0..ROUND {
                let m = &matrices[next];
                let t0 = Instant::now();
                let r = tr.time(Call::Synthesize, || synthesize(m, &cfg));
                meter.record(t0.elapsed().as_nanos() as u64);
                results.push((next, r));
                next = (next + 1) % matrices.len();
            }
            rounds += 1;
            meter.pause(ROUND as u64, tr);
            for (i, r) in results.drain(..) {
                let s = match r {
                    Ok(s) => s,
                    Err(_) => {
                        failed += 1;
                        continue;
                    }
                };
                let rep = &s.report;
                certifier_calls += rep.certifier_calls;
                full_solves += rep.full_solves;
                attempted_moves += rep.moves_attempted;
                accepted_moves += rep.moves_accepted;
                let d = result_digest(&s);
                digest.u64(d);
                if verdict.is_err() {
                    continue;
                }
                verdict = match seen[i] {
                    Some(first) => ensure(first == d, || {
                        format!("matrix {i}: a repeated synthesis differs from the first")
                    }),
                    None => {
                        seen[i] = Some(d);
                        checked += 1;
                        check(&s, &cfg).map_err(|e| format!("matrix {i}: {e}"))
                    }
                };
            }
            if budget.more(rounds, &meter) {
                meter.resume(tr);
            }
        }
        Outcome {
            rounds,
            attempted: rounds * ROUND as u64,
            failed,
            meter,
            digest: digest.finish(),
            counts: vec![
                ("synth.certifier_calls", certifier_calls as f64),
                ("synth.full_solves", full_solves as f64),
                ("synth.moves_attempted", attempted_moves as f64),
                ("synth.moves_accepted", accepted_moves as f64),
                (
                    "synth.move_accept_ratio",
                    accepted_moves as f64 / attempted_moves.max(1) as f64,
                ),
                ("synth.matrices_checked", checked as f64),
            ],
            verdict,
        }
    }
}

fn result_digest(s: &ccr_synth::Synthesis) -> u64 {
    let mut d = Digest::default();
    d.u64(s.report.cost);
    d.u64(s.slot_bytes as u64);
    for &(k, b) in &s.bounds {
        d.u64(k as u64);
        d.u64(b.as_ps());
    }
    for g in &s.station_nodes {
        d.u64(((g.ring.0 as u64) << 16) | g.node.0 as u64);
    }
    d.finish()
}

/// A synthesis is right when its cost is its topology's, its placement is
/// a partition within the node cap, and the fabric it describes, loaded
/// with every guaranteed flow, certifies exactly the promised bounds, each
/// within its flow's deadline.
fn check(s: &ccr_synth::Synthesis, cfg: &SynthConfig) -> Result<(), String> {
    checks::synth_cost(
        s.report.cost,
        &s.topology,
        cfg.node_weight,
        cfg.bridge_weight,
    )?;
    let stations = s.matrix.stations as usize;
    let mut placed = vec![0u32; stations];
    for ring in &s.candidate.rings {
        for st in ring {
            ensure((st.0 as usize) < stations, || {
                format!("unknown station {st}")
            })?;
            placed[st.0 as usize] += 1;
        }
    }
    ensure(placed.iter().all(|&n| n == 1), || {
        format!("stations not placed exactly once: {placed:?}")
    })?;
    for r in 0..s.topology.n_rings() {
        let nodes = s.topology.ring_size(RingId(r));
        ensure(nodes <= cfg.max_ring_nodes, || {
            format!(
                "ring {r} has {nodes} nodes, above the cap {}",
                cfg.max_ring_nodes
            )
        })?;
    }
    for (k, st) in (0..s.matrix.stations).map(|k| (k, StationId(k))) {
        let g = s.station_node(st);
        let ring = s.candidate.ring_of(st);
        ensure(g.ring.0 as usize == ring, || {
            format!(
                "station {k} sits on fabric ring {} but candidate ring {ring}",
                g.ring.0
            )
        })?;
    }
    let mut fabric = s
        .fabric_config(0x5E17)
        .and_then(Fabric::new)
        .map_err(|e| format!("synthesized fabric does not build: {e}"))?;
    let mut opened = Vec::new();
    for (k, _) in s.matrix.guaranteed() {
        let fid = fabric
            .open_connection(s.connection_spec(k))
            .map_err(|e| format!("flow {k} refused by its own fabric: {e:?}"))?;
        opened.push((k, fid));
    }
    ensure(opened.len() == s.bounds.len(), || {
        format!(
            "{} guaranteed flows, {} bounds",
            opened.len(),
            s.bounds.len()
        )
    })?;
    for ((k, fid), &(bk, bound)) in opened.iter().zip(&s.bounds) {
        ensure(*k == bk, || {
            format!("bound for flow {bk} listed against flow {k}")
        })?;
        let engine = fabric.e2e_bound(*fid);
        ensure(engine == Some(bound), || {
            format!("flow {k}: fabric certifies {engine:?}, synthesis promised {bound}")
        })?;
        let deadline: TimeDelta = s.matrix.flows[*k].deadline;
        ensure(bound <= deadline, || {
            format!("flow {k}: bound {bound} above deadline {deadline}")
        })?;
    }
    Ok(())
}
