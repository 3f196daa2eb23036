//! `fabric_soak`: a chain of 4 rings of 16 nodes carrying a periodic
//! guaranteed set near ring capacity, a fixed share of it crossing
//! bridges. One op is one `Fabric::step_slot`.

use super::{ensure, Budget, Outcome, Workload};
use crate::checks;
use crate::rng::{Digest, Rng};
use crate::trace::{Call, Tracer};
use ccr_edf::connection::ConnectionId;
use ccr_edf::NodeId;
use ccr_multiring::prelude::*;
use ccr_sim::TimeDelta;
use std::time::Instant;

pub const RINGS: u16 = 4;
pub const NODES: u16 = 16;
const SLOT_BYTES: u32 = 2_048;
/// Guaranteed load offered to every ring, as a share of its slots (the
/// ring's utilisation bound `U_max` is 0.872 at 16 nodes).
const RING_LOAD: f64 = 0.85;
/// Periods (in slots) of the one-slot connections crossing each bridge
/// in each direction.
const CROSS_PERIODS: [u64; 6] = [100, 120, 140, 160, 180, 200];
/// Period cycle (in slots per message slot) of the local connections.
const LOCAL_PERIODS: [u64; 5] = [60, 90, 120, 150, 180];
/// Fabric slots per round.
const ROUND_SLOTS: u64 = 1_024;

/// One periodic connection, with times in slots of the ring.
#[derive(Clone, Debug)]
pub struct Conn {
    pub src: (u16, u16),
    pub dst: (u16, u16),
    pub period_slots: u64,
    pub size_slots: u32,
    pub phase_slots: u64,
}

impl Conn {
    fn rings(&self) -> std::ops::RangeInclusive<u16> {
        let (a, b) = (self.src.0.min(self.dst.0), self.src.0.max(self.dst.0));
        a..=b
    }

    fn load(&self) -> f64 {
        self.size_slots as f64 / self.period_slots as f64
    }
}

pub struct Input {
    pub conns: Vec<Conn>,
}

pub struct State {
    fabric: Fabric,
    fids: Vec<FabricConnectionId>,
}

/// A station node: bridge ports (node 0 and node 15 of the chain) carry no
/// connection endpoints.
fn station(rng: &mut Rng, ring: u16, not: Option<u16>) -> (u16, u16) {
    loop {
        let n = rng.range(1, NODES as u64 - 2) as u16;
        if Some(n) != not {
            return (ring, n);
        }
    }
}

pub struct FabricSoak;

impl Workload for FabricSoak {
    type Input = Input;
    type State = State;
    const SETUP_REPEATS: usize = 31;

    /// The load's shape (how many connections, their sizes and periods,
    /// which rings they join) is the same for every seed, so seeds differ
    /// only in placement and phase, not in how much work a slot is.
    fn generate(seed: u64) -> Input {
        let mut rng = Rng::new(seed);
        let mut load = [0.0f64; RINGS as usize];
        let mut conns = Vec::new();
        let mut push =
            |rng: &mut Rng, load: &mut [f64], a: u16, b: u16, period_slots, size_slots| {
                let src = station(rng, a, None);
                let dst = station(rng, b, (a == b).then_some(src.1));
                let c = Conn {
                    src,
                    dst,
                    period_slots,
                    size_slots,
                    phase_slots: rng.range(0, period_slots - 1),
                };
                for r in c.rings() {
                    load[r as usize] += c.load();
                }
                conns.push(c);
            };
        // Bridge traffic: in each direction of each bridge, the same six
        // one-slot connections; plus one chain-spanning pair.
        for a in 0..RINGS - 1 {
            for (from, to) in [(a, a + 1), (a + 1, a)] {
                for period_slots in CROSS_PERIODS {
                    push(&mut rng, &mut load, from, to, period_slots, 1);
                }
            }
        }
        push(&mut rng, &mut load, 0, RINGS - 1, 400, 1);
        push(&mut rng, &mut load, RINGS - 1, 0, 400, 1);
        // Fill every ring up to its load with local connections of a
        // fixed size/period cycle; the last one takes the remainder.
        for r in 0..RINGS {
            for k in 0.. {
                let room = RING_LOAD - load[r as usize];
                let size_slots = 1 + (k % 3) as u32;
                let mut period_slots = LOCAL_PERIODS[k % LOCAL_PERIODS.len()] * size_slots as u64;
                if size_slots as f64 / period_slots as f64 > room {
                    period_slots = (size_slots as f64 / room).ceil() as u64;
                    if period_slots > 4_000 {
                        break;
                    }
                }
                push(&mut rng, &mut load, r, r, period_slots, size_slots);
            }
        }
        Input { conns }
    }

    fn setup(input: &Input, tr: &mut Tracer) -> Result<State, String> {
        let mut fabric = tr
            .time(Call::FabricNew, || {
                FabricConfig::uniform(FabricTopology::chain(RINGS, NODES), SLOT_BYTES, 0xFAB)
                    .and_then(Fabric::new)
            })
            .map_err(|e| format!("fabric build: {e}"))?;
        let slot = fabric.segment_envs()[0].slot;
        let specs: Vec<FabricConnectionSpec> = input.conns.iter().map(|c| spec(c, slot)).collect();
        let fids = tr
            .time(Call::OpenConnections, || fabric.open_connections(&specs))
            .map_err(|e| format!("guaranteed set refused: {e:?}"))?;
        Ok(State { fabric, fids })
    }

    fn run(input: &Input, st: State, budget: Budget, tr: &mut Tracer) -> Outcome {
        let State { mut fabric, fids } = st;
        let mut meter = budget.meter();
        let (mut rounds, mut failed) = (0u64, 0u64);
        let bad = |f: &Fabric| f.metrics().e2e_missed.get() + f.metrics().bridge_drops.get();
        let mut bad_before = bad(&fabric);
        meter.resume(tr);
        while budget.more(rounds, &meter) {
            for _ in 0..ROUND_SLOTS {
                let t0 = Instant::now();
                tr.time(Call::StepSlot, || fabric.step_slot());
                let ns = t0.elapsed().as_nanos() as u64;
                meter.record(ns);
                let now_bad = bad(&fabric);
                if now_bad != bad_before {
                    failed += 1;
                    bad_before = now_bad;
                }
            }
            rounds += 1;
            meter.pause(ROUND_SLOTS, tr);
            if budget.more(rounds, &meter) {
                meter.resume(tr);
            }
        }
        Outcome {
            rounds,
            attempted: rounds * ROUND_SLOTS,
            failed,
            meter,
            digest: digest(&fabric),
            counts: counts(&fabric),
            verdict: check(input, &fabric, &fids),
        }
    }
}

fn spec(c: &Conn, slot: TimeDelta) -> FabricConnectionSpec {
    FabricConnectionSpec::unicast(
        GlobalNodeId::new(c.src.0, c.src.1),
        GlobalNodeId::new(c.dst.0, c.dst.1),
    )
    .period(slot.times(c.period_slots))
    .size_slots(c.size_slots)
    .phase(slot.times(c.phase_slots))
}

/// Every connection delivered what its releases allow, within its
/// deadline, with nothing dropped at a bridge.
fn check(input: &Input, fabric: &Fabric, fids: &[FabricConnectionId]) -> Result<(), String> {
    let m = fabric.metrics();
    ensure(m.bridge_drops.get() == 0, || {
        format!("{} bridge drops", m.bridge_drops.get())
    })?;
    ensure(m.e2e_missed.get() == 0, || {
        format!("{} end-to-end deadline misses", m.e2e_missed.get())
    })?;
    let slot = fabric.segment_envs()[0].slot;
    // Each ring keeps its own clock (hand-over gaps differ per ring):
    // releases follow the source ring's, and a delivery is owed only once
    // its deadline has passed on every ring of the route.
    let clocks: Vec<TimeDelta> = (0..RINGS)
        .map(|r| TimeDelta::from_ps(fabric.with_ring(RingId(r), |ring| ring.now()).0))
        .collect();
    // Ring-level connection ids are issued per ring in admission order,
    // one per route segment; the final segment's id counts deliveries at
    // the destination.
    let mut next_id = vec![1u64; RINGS as usize];
    let ring_metrics: Vec<_> = (0..RINGS).map(|r| fabric.ring_metrics(RingId(r))).collect();
    for (i, (c, &fid)) in input.conns.iter().zip(fids).enumerate() {
        let route: Vec<u16> = if c.src.0 <= c.dst.0 {
            c.rings().collect()
        } else {
            c.rings().rev().collect()
        };
        let mut last = ConnectionId(0);
        for r in route {
            last = ConnectionId(next_id[r as usize]);
            next_id[r as usize] += 1;
        }
        let dst_ring = c.dst.0 as usize;
        let touching = fabric.with_ring(RingId(c.dst.0), |ring| {
            ring.admission().connections_touching(NodeId(c.dst.1))
        });
        ensure(touching.contains(&last), || {
            format!("connection {i}: ring {dst_ring} id {last:?} does not reach its destination")
        })?;
        let s = spec(c, slot);
        let delivered = ring_metrics[dst_ring]
            .per_conn
            .get(&last)
            .map_or(0, |cs| cs.delivered.get());
        let src_clock = clocks[c.src.0 as usize];
        let route_min = c
            .rings()
            .map(|r| clocks[r as usize])
            .min()
            .expect("non-empty route");
        let owed =
            checks::release_bracket(s.period, s.phase, s.e2e_deadline, route_min.min(src_clock)).0;
        let bracket = (
            owed,
            checks::release_bracket(s.period, s.phase, s.e2e_deadline, src_clock).1,
        );
        checks::delivered_in_bracket(&format!("connection {i}"), delivered, bracket)?;
        let observed = fabric.observed_e2e_max(fid).unwrap_or(TimeDelta::ZERO);
        checks::bound_dominates(s.e2e_deadline, observed)
            .map_err(|e| format!("connection {i} deadline: {e}"))?;
    }
    Ok(())
}

fn digest(fabric: &Fabric) -> u64 {
    let mut d = Digest::default();
    d.bytes(format!("{:?}", fabric.metrics()).as_bytes());
    for r in 0..RINGS {
        let m = fabric.ring_metrics(RingId(r));
        for c in [
            &m.slots,
            &m.grants,
            &m.delivered,
            &m.idle_slots,
            &m.master_changes,
        ] {
            d.u64(c.get());
        }
    }
    d.finish()
}

/// Ring-MAC and fabric-engine counts, summed over rings.
pub fn counts(fabric: &Fabric) -> Vec<(&'static str, f64)> {
    let (mut slots, mut grants, mut deliveries, mut idle) = (0u64, 0u64, 0u64, 0u64);
    let (mut hops_sum, mut hops_n) = (0.0f64, 0u64);
    for r in 0..fabric.topology().n_rings() {
        let m = fabric.ring_metrics(RingId(r));
        slots += m.slots.get();
        grants += m.grants.get();
        deliveries += m.delivered.get();
        idle += m.idle_slots.get();
        if let Some(mean) = m.handover_hops.mean() {
            hops_sum += mean * m.handover_hops.count() as f64;
            hops_n += m.handover_hops.count();
        }
    }
    let fm = fabric.metrics();
    vec![
        ("edf.grants_per_slot", grants as f64 / slots.max(1) as f64),
        ("edf.deliveries", deliveries as f64),
        ("edf.idle_slots", idle as f64),
        ("edf.handover_hops_mean", hops_sum / hops_n.max(1) as f64),
        ("multiring.forwarded", fm.forwarded.get() as f64),
        (
            "multiring.peak_bridge_occupancy",
            fm.peak_bridge_occupancy as f64,
        ),
        (
            "multiring.external_injected",
            fm.external_injected.get() as f64,
        ),
        (
            "calculus.incremental_solves",
            fm.calc_admit_incremental.get() as f64,
        ),
        ("calculus.full_solves", fm.calc_admit_full.get() as f64),
    ]
}
