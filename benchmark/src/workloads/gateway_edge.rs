//! `gateway_edge`: the cyclic 3×8 triangle behind a gateway serving 16
//! virtual links parsed from TOML. Each link is offered traffic at its
//! admitted rate in bursts of two to four datagrams against a one-token
//! bucket, so every burst is partly deferred and then paced. The benchmark runs
//! the pump loop itself, in the order `LoopbackBackend::run` uses, so each
//! call is timed: `reconcile`, `ingress`, `pace`, `Fabric::step_slot`,
//! `poll_egress`. One op is one datagram, timed from its `ingress` call to
//! the `poll_egress` call that returns it.

use super::{ensure, fabric_soak, Budget, Outcome, Workload};
use crate::checks;
use crate::meter::Meter;
use crate::rng::{Digest, Rng};
use crate::trace::{Call, Tracer};
use ccr_gateway::prelude::*;
use ccr_multiring::prelude::*;
use ccr_sim::{SimTime, TimeDelta};
use std::collections::VecDeque;
use std::time::Instant;

const LINKS: u16 = 16;
const SLOT_BYTES: u32 = 2_048;
/// Token-bucket depth of every link. The certifier prices a link as one
/// message per period, so a deeper bucket would let a link inject past
/// its certified arrival curve (see CHANGES.md).
const BURST: u32 = 1;
/// Sim-time length of one round; every link's burst gap divides it.
const ROUND_US: u64 = 9_600;
/// Bursts per round a link may be given (its gap is `ROUND_US / m`).
const BURSTS_PER_ROUND: [u64; 4] = [4, 5, 6, 8];
/// Slots the final drain may take before the run counts as stuck.
const DRAIN_CAP_SLOTS: u64 = 200_000;

#[derive(Clone, Debug)]
pub struct Link {
    pub id: u16,
    pub src: (u16, u16),
    pub dst: (u16, u16),
    pub period_us: u64,
    pub burst: u32,
    pub mtu: u32,
}

/// One datagram offer in a round: `due_us` after the round starts.
#[derive(Clone, Debug)]
pub struct Offer {
    pub due_us: u64,
    /// Index into `Input::links`.
    pub link: usize,
    /// Per-link sequence inside the round.
    pub seq: u32,
}

pub struct Input {
    pub links: Vec<Link>,
    /// The gateway configuration, rendered as TOML.
    pub toml: String,
    /// One round of offers, sorted by due time.
    pub offers: Vec<Offer>,
    /// Per link: offers per round.
    pub per_round: Vec<u32>,
    pub salt: u64,
}

pub struct State {
    fabric: Fabric,
    gateway: Gateway,
}

/// The E22 triangle: three 8-node rings, each bridged to the next.
fn triangle() -> FabricTopology {
    let mut b = FabricTopology::builder();
    for _ in 0..3 {
        b.ring(8);
    }
    b.bridge(GlobalNodeId::new(0, 0), GlobalNodeId::new(1, 0));
    b.bridge(GlobalNodeId::new(1, 1), GlobalNodeId::new(2, 0));
    b.bridge(GlobalNodeId::new(2, 1), GlobalNodeId::new(0, 1));
    b.allow_cycles_with(CycleBound::Calculus);
    b.build().expect("triangle with calculus bound builds")
}

fn render(links: &[Link]) -> String {
    let mut t = String::from("# gateway_edge virtual links\n");
    for l in links {
        t.push_str(&format!(
            "\n[[link]]\nid = {}\nsrc = \"{}:{}\"\ndst = \"{}:{}\"\nperiod_us = {}\nmtu = {}\nburst = {}\nclass = \"guaranteed\"\nport = \"queuing\"\ndepth = 8\npolicy = \"defer\"\n",
            l.id, l.src.0, l.src.1, l.dst.0, l.dst.1, l.period_us, l.mtu, l.burst
        ));
    }
    t
}

pub struct GatewayEdge;

impl Workload for GatewayEdge {
    type Input = Input;
    type State = State;
    const SETUP_REPEATS: usize = 21;

    /// Links start on rings 0, 1, 2 in turn; half stay on their ring, half
    /// cross to the next one; the burst shapes cycle through a fixed list.
    /// Seeds choose the nodes, payload bytes and phases. A burst of `n` datagrams
    /// injects one at once and defers `n - 1`, which pacing releases one
    /// period apart.
    fn generate(seed: u64) -> Input {
        let mut rng = Rng::new(seed);
        let mut links = Vec::new();
        let mut offers = Vec::new();
        let mut per_round = Vec::new();
        for i in 0..LINKS {
            let a = i % 3;
            let b = if i % 2 == 0 { a } else { (a + 1) % 3 };
            // Nodes 0 and 1 of every ring are bridge ports.
            let src = (a, rng.range(2, 7) as u16);
            let dst = loop {
                let n = rng.range(2, 7) as u16;
                if a != b || n != src.1 {
                    break (b, n);
                }
            };
            let m = BURSTS_PER_ROUND[i as usize % BURSTS_PER_ROUND.len()];
            let gap_us = ROUND_US / m;
            let n = BURST + 1 + (i as u32 % 3);
            // Offered rate n/gap sits just under the admitted 1/period.
            let period_us = gap_us * 15 / (16 * n as u64);
            let phase_us = rng.range(0, gap_us - 1);
            for k in 0..m {
                for j in 0..n {
                    offers.push(Offer {
                        due_us: phase_us + k * gap_us,
                        link: i as usize,
                        seq: (k as u32) * n + j,
                    });
                }
            }
            per_round.push(m as u32 * n);
            links.push(Link {
                id: i + 1,
                src,
                dst,
                period_us,
                burst: BURST,
                mtu: 64 << (i % 3),
            });
        }
        offers.sort_by_key(|o| (o.due_us, o.link, o.seq));
        Input {
            toml: render(&links),
            links,
            offers,
            per_round,
            salt: rng.next_u64(),
        }
    }

    fn setup(input: &Input, tr: &mut Tracer) -> Result<State, String> {
        let cfg = tr
            .time(Call::ConfigParse, || GatewayConfig::parse(&input.toml))
            .map_err(|e| format!("gateway config: {e:?}"))?;
        let mut fabric = tr
            .time(Call::FabricNew, || {
                FabricConfig::uniform(triangle(), SLOT_BYTES, 0x6A7E).and_then(Fabric::new)
            })
            .map_err(|e| format!("fabric build: {e}"))?;
        let (gateway, report) = tr.time(Call::GatewayOpen, || Gateway::open(&cfg, &mut fabric));
        ensure(report.rejected.is_empty() && report.batched, || {
            format!("links refused: {:?}", report.rejected)
        })?;
        Ok(State { fabric, gateway })
    }

    fn run(input: &Input, st: State, budget: Budget, tr: &mut Tracer) -> Outcome {
        let State {
            mut fabric,
            mut gateway,
        } = st;
        let mut pump = Pump::new(input, &fabric, &gateway);
        let mut meter = budget.meter();
        let mut rounds = 0u64;
        let ops_per_round = input.offers.len() as u64;
        meter.resume(tr);
        while budget.more(rounds, &meter) {
            let start = tr.time(Call::FabricNow, || fabric.now());
            let mut next = 0;
            let end = start.saturating_add(TimeDelta::from_us(ROUND_US));
            loop {
                let now = tr.time(Call::FabricNow, || fabric.now());
                if now >= end {
                    break;
                }
                tr.time(Call::Reconcile, || gateway.reconcile(&mut fabric));
                while next < input.offers.len()
                    && start.saturating_add(TimeDelta::from_us(input.offers[next].due_us)) <= now
                {
                    pump.offer(
                        next,
                        &input.offers[next],
                        rounds,
                        now,
                        &mut gateway,
                        &mut fabric,
                        tr,
                    );
                    next += 1;
                }
                pump.slot(now, &mut gateway, &mut fabric, tr, &mut meter);
            }
            // Offers due past the last slot boundary of the round still
            // belong to it.
            while next < input.offers.len() {
                let now = tr.time(Call::FabricNow, || fabric.now());
                tr.time(Call::Reconcile, || gateway.reconcile(&mut fabric));
                pump.offer(
                    next,
                    &input.offers[next],
                    rounds,
                    now,
                    &mut gateway,
                    &mut fabric,
                    tr,
                );
                next += 1;
                pump.slot(now, &mut gateway, &mut fabric, tr, &mut meter);
            }
            rounds += 1;
            meter.pause(ops_per_round, tr);
            meter.resume(tr);
        }
        // Every offered datagram leaves before the loop ends.
        let mut drained = 0;
        while pump.outstanding() > 0 && drained < DRAIN_CAP_SLOTS {
            let now = tr.time(Call::FabricNow, || fabric.now());
            tr.time(Call::Reconcile, || gateway.reconcile(&mut fabric));
            pump.slot(now, &mut gateway, &mut fabric, tr, &mut meter);
            drained += 1;
        }
        meter.pause(0, tr);
        let verdict = pump.finish(input, rounds, &gateway, &fabric);
        let mut counts = fabric_soak::counts(&fabric);
        let gm = gateway.metrics();
        let link_sum = |f: fn(&LinkMetrics) -> u64| -> u64 {
            input
                .links
                .iter()
                .filter_map(|l| gateway.link_metrics(l.id))
                .map(f)
                .sum()
        };
        let deferred = link_sum(|m| m.deferred.get());
        // Shed and nacked datagrams are counted at ingress; the rest failed
        // later: expired in the port queue, lost in flight, or late.
        let later =
            gm.expired.get() + link_sum(|m| m.lost_in_flight.get()) + gm.deadline_missed.get();
        counts.extend([
            ("gateway.frames_in", gm.frames_in.get() as f64),
            ("gateway.deferred", deferred as f64),
            ("gateway.injected", gm.injected.get() as f64),
        ]);
        Outcome {
            rounds,
            attempted: rounds * ops_per_round,
            failed: pump.failed + later,
            meter,
            digest: pump.digest.finish(),
            counts,
            verdict,
        }
    }
}

/// The benchmark's side of the pump: the frames it offers, what it
/// expects back, and the checks on what comes back.
struct Pump {
    /// Encoded frames of one round, by offer index.
    frames: Vec<Vec<u8>>,
    /// Per link: (round, offer index, ingress instant) still in flight.
    pending: Vec<VecDeque<(u64, usize, Instant)>>,
    /// Link id → index into the per-link vectors.
    by_id: Vec<Option<usize>>,
    /// Per link: datagrams deferred and not yet seen injected.
    backlog: Vec<u64>,
    /// Per link: injections observed.
    injected: Vec<u64>,
    /// Injections observed, all links.
    injected_total: u64,
    /// Per link: egress frames received.
    delivered: Vec<u64>,
    /// Per link: certified e2e bound of its connection.
    bounds: Vec<TimeDelta>,
    ids: Vec<u16>,
    burst: Vec<u32>,
    period: Vec<TimeDelta>,
    per_round: Vec<u32>,
    opened_at: SimTime,
    egress: Vec<EgressFrame>,
    failed: u64,
    digest: Digest,
    verdict: Result<(), String>,
}

impl Pump {
    fn new(input: &Input, fabric: &Fabric, gateway: &Gateway) -> Self {
        let n = input.links.len();
        let frames = input
            .offers
            .iter()
            .map(|o| {
                let l = &input.links[o.link];
                Header {
                    kind: PacketKind::Data,
                    link: l.id,
                    seq: o.seq,
                    len: 0,
                    budget_us: 0,
                }
                .encode(&checks::stamp(l.id, o.seq, input.salt, l.mtu as usize))
            })
            .collect();
        let bounds = input
            .links
            .iter()
            .map(|l| {
                gateway
                    .link_fid(l.id)
                    .and_then(|f| fabric.e2e_bound(f))
                    .unwrap_or(TimeDelta::ZERO)
            })
            .collect();
        Pump {
            frames,
            pending: vec![VecDeque::new(); n],
            by_id: {
                let mut by_id = vec![None; LINKS as usize + 1];
                for (i, l) in input.links.iter().enumerate() {
                    by_id[l.id as usize] = Some(i);
                }
                by_id
            },
            backlog: vec![0; n],
            injected: vec![0; n],
            injected_total: 0,
            delivered: vec![0; n],
            bounds,
            ids: input.links.iter().map(|l| l.id).collect(),
            burst: input.links.iter().map(|l| l.burst).collect(),
            period: input
                .links
                .iter()
                .map(|l| TimeDelta::from_us(l.period_us))
                .collect(),
            per_round: input.per_round.clone(),
            opened_at: fabric.now(),
            egress: Vec::new(),
            failed: 0,
            digest: Digest::default(),
            verdict: Ok(()),
        }
    }

    fn outstanding(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    fn fail(&mut self, e: String) {
        if self.verdict.is_ok() {
            self.verdict = Err(e);
        }
    }

    /// Offer datagram `idx` of the round.
    #[allow(clippy::too_many_arguments)]
    fn offer(
        &mut self,
        idx: usize,
        o: &Offer,
        round: u64,
        now: SimTime,
        gateway: &mut Gateway,
        fabric: &mut Fabric,
        tr: &mut Tracer,
    ) {
        let t0 = Instant::now();
        let frame = &self.frames[idx];
        let outcome = tr.time(Call::Ingress, || gateway.ingress(now, frame, fabric));
        match outcome {
            IngressOutcome::Injected { .. } => {
                self.pending[o.link].push_back((round, idx, t0));
                self.injected[o.link] += 1;
                self.injected_total += 1;
                self.check_envelope(o.link, now);
            }
            IngressOutcome::Deferred { .. } => {
                self.pending[o.link].push_back((round, idx, t0));
                self.backlog[o.link] += 1;
            }
            _ => self.failed += 1,
        }
    }

    /// Pace, step, poll: the rest of one pump iteration.
    fn slot(
        &mut self,
        now: SimTime,
        gateway: &mut Gateway,
        fabric: &mut Fabric,
        tr: &mut Tracer,
        meter: &mut Meter,
    ) {
        tr.time(Call::Pace, || gateway.pace(now, fabric));
        // Pacing injected deferred datagrams: find out which links'.
        let total = tr.time(Call::GatewayMetrics, || gateway.metrics().injected.get());
        if total != self.injected_total {
            self.injected_total = total;
            for i in 0..self.backlog.len() {
                if self.backlog[i] == 0 {
                    continue;
                }
                let id = self.ids[i];
                let injected = tr.time(Call::GatewayMetrics, || {
                    gateway.link_metrics(id).map_or(0, |m| m.injected.get())
                });
                let paced = injected.saturating_sub(self.injected[i]);
                if paced > 0 {
                    self.injected[i] = injected;
                    self.backlog[i] = self.backlog[i].saturating_sub(paced);
                    self.check_envelope(i, now);
                }
            }
        }
        tr.time(Call::StepSlot, || fabric.step_slot());
        self.egress.clear();
        let mut egress = std::mem::take(&mut self.egress);
        tr.time(Call::PollEgress, || {
            gateway.poll_egress(fabric, &mut egress)
        });
        let done = Instant::now();
        for f in &egress {
            self.receive(f, done, meter);
        }
        self.egress = egress;
    }

    fn check_envelope(&mut self, i: usize, now: SimTime) {
        let elapsed = now.saturating_since(self.opened_at);
        if let Err(e) = checks::within_envelope(
            self.ids[i],
            self.injected[i],
            self.burst[i],
            self.period[i],
            elapsed,
        ) {
            self.fail(e);
        }
    }

    fn receive(&mut self, f: &EgressFrame, done: Instant, meter: &mut Meter) {
        let Some(i) = self.by_id.get(f.link as usize).copied().flatten() else {
            self.fail(format!("egress on unknown link {}", f.link));
            return;
        };
        let Some((round, idx, t0)) = self.pending[i].pop_front() else {
            self.fail(format!("link {}: egress with nothing in flight", f.link));
            return;
        };
        meter.record(done.duration_since(t0).as_nanos() as u64);
        let expected = self.delivered[i];
        self.delivered[i] += 1;
        self.digest.u64(f.link as u64);
        self.digest.u64(f.latency.as_ps());
        let want = &self.frames[idx][HEADER_LEN..];
        if let Err(e) = checks::egress_frame(f.link, expected, want, f.seq, &f.payload) {
            self.fail(format!("round {round}: {e}"));
        }
        if let Err(e) = checks::bound_dominates(self.bounds[i], f.latency) {
            self.fail(format!("link {} latency: {e}", f.link));
        }
    }

    fn finish(
        &self,
        input: &Input,
        rounds: u64,
        gateway: &Gateway,
        fabric: &Fabric,
    ) -> Result<(), String> {
        self.verdict.clone()?;
        for (i, l) in input.links.iter().enumerate() {
            let offered = rounds * self.per_round[i] as u64;
            ensure(
                self.delivered[i] == offered && self.pending[i].is_empty(),
                || {
                    format!(
                        "link {}: {} of {offered} offered datagrams left the gateway",
                        l.id, self.delivered[i]
                    )
                },
            )?;
            let fid = gateway.link_fid(l.id).ok_or("link lost its connection")?;
            ensure(
                fabric.e2e_bound(fid).is_some_and(|b| b == self.bounds[i]),
                || format!("link {}: certificate changed during the run", l.id),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pump_rejects_tampered_egress() {
        let input = GatewayEdge::generate(3);
        let State { fabric, gateway } =
            GatewayEdge::setup(&input, &mut Tracer::new(false)).expect("set-up succeeds");
        let frame = |pump: &Pump, idx: usize, seq: u64| EgressFrame {
            link: input.links[input.offers[idx].link].id,
            seq,
            payload: pump.frames[idx][HEADER_LEN..].to_vec(),
            latency: TimeDelta::from_us(10),
            met_deadline: true,
            fresh: true,
            slack: TimeDelta::ZERO,
        };
        let mut meter = Budget::Rounds(1).meter();
        let link = input.offers[0].link;
        // The first two offers of one link, in flight in order.
        let idx: Vec<usize> = (0..input.offers.len())
            .filter(|&k| input.offers[k].link == link)
            .take(2)
            .collect();
        let fresh = |pump: &mut Pump| {
            for &k in &idx {
                pump.pending[link].push_back((0, k, Instant::now()));
            }
        };

        let mut pump = Pump::new(&input, &fabric, &gateway);
        fresh(&mut pump);
        let (first, second) = (frame(&pump, idx[0], 0), frame(&pump, idx[1], 1));
        pump.receive(&first, Instant::now(), &mut meter);
        pump.receive(&second, Instant::now(), &mut meter);
        assert_eq!(pump.verdict, Ok(()));

        // A flipped payload bit.
        let mut pump = Pump::new(&input, &fabric, &gateway);
        fresh(&mut pump);
        let mut corrupted = frame(&pump, idx[0], 0);
        corrupted.payload[5] ^= 0x10;
        pump.receive(&corrupted, Instant::now(), &mut meter);
        assert!(pump.verdict.is_err());

        // The second datagram overtaking the first.
        let mut pump = Pump::new(&input, &fabric, &gateway);
        fresh(&mut pump);
        let overtaking = frame(&pump, idx[1], 0);
        pump.receive(&overtaking, Instant::now(), &mut meter);
        assert!(pump.verdict.is_err());

        // A latency above the link's certificate.
        let mut pump = Pump::new(&input, &fabric, &gateway);
        fresh(&mut pump);
        let mut late = frame(&pump, idx[0], 0);
        late.latency = pump.bounds[link] + TimeDelta::from_ps(1);
        pump.receive(&late, Instant::now(), &mut meter);
        assert!(pump.verdict.is_err());
    }
}
