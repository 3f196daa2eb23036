//! The benchmark's output checks, as plain functions of the values the
//! program returned and figures computed apart from it. Each returns
//! `Err` with a reason when the output is wrong; the tests at the bottom
//! show that each one rejects a tampered input.

use ccr_multiring::FabricTopology;
use ccr_sim::TimeDelta;

/// Payload-byte time per slot at the paper's 400 MHz byte clock
/// (2.5 ns per byte), in picoseconds.
pub fn slot_payload_ps(slot_bytes: u32) -> u64 {
    slot_bytes as u64 * 2_500
}

/// The datagram the benchmark stamps for `(link, seq)`: a recognisable
/// prefix followed by seed-derived filler, `len` bytes in all.
pub fn stamp(link: u16, seq: u32, salt: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&link.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    let mut x = salt ^ ((link as u64) << 32 | seq as u64);
    while out.len() < len {
        x = x
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        out.push((x >> 56) as u8);
    }
    out.truncate(len);
    out
}

/// An egress frame on `link` must be the next datagram of that link, in
/// order, carrying exactly the bytes stamped into it.
pub fn egress_frame(
    link: u16,
    expected_seq: u64,
    expected_payload: &[u8],
    seq: u64,
    payload: &[u8],
) -> Result<(), String> {
    if seq != expected_seq {
        return Err(format!(
            "link {link}: egress seq {seq}, expected {expected_seq} (reordered or duplicated)"
        ));
    }
    if payload != expected_payload {
        return Err(format!(
            "link {link} seq {seq}: egress payload differs from the stamped datagram"
        ));
    }
    Ok(())
}

/// A certified bound must dominate everything observed under it.
pub fn bound_dominates(bound: TimeDelta, observed: TimeDelta) -> Result<(), String> {
    if observed > bound {
        return Err(format!(
            "observed {observed} exceeds its certified bound {bound}"
        ));
    }
    Ok(())
}

/// Releases of a periodic connection at `phase + k·period` (from the
/// horizon start) that must have been delivered by `horizon` (those whose
/// deadline has passed), and that can have been (those released by
/// then). Returns the delivered count's admissible `(lo, hi)`.
pub fn release_bracket(
    period: TimeDelta,
    phase: TimeDelta,
    deadline: TimeDelta,
    horizon: TimeDelta,
) -> (u64, u64) {
    let (p, ph, d, h) = (
        period.as_ps(),
        phase.as_ps(),
        deadline.as_ps(),
        horizon.as_ps(),
    );
    let released_by = |t: u64| if t < ph { 0 } else { (t - ph) / p + 1 };
    let lo = if h >= d { released_by(h - d) } else { 0 };
    (lo, released_by(h))
}

/// A connection's delivered count must lie inside its release bracket.
pub fn delivered_in_bracket(what: &str, delivered: u64, bracket: (u64, u64)) -> Result<(), String> {
    if delivered < bracket.0 || delivered > bracket.1 {
        return Err(format!(
            "{what}: delivered {delivered}, outside the release bracket [{}, {}]",
            bracket.0, bracket.1
        ));
    }
    Ok(())
}

/// A cumulative token-bucket envelope: by `elapsed` after the bucket
/// started full, at most `burst + ⌊elapsed / period⌋` injections.
pub fn within_envelope(
    link: u16,
    injected: u64,
    burst: u32,
    period: TimeDelta,
    elapsed: TimeDelta,
) -> Result<(), String> {
    let cap = burst as u64 + elapsed.as_ps() / period.as_ps();
    if injected > cap {
        return Err(format!(
            "link {link}: {injected} injections after {elapsed}, above burst {burst} + elapsed/period = {cap}"
        ));
    }
    Ok(())
}

/// A probe's bound cannot beat the physics: one slot payload time per
/// ring on its route, and it must fit its deadline.
pub fn probe_bound(
    bound: TimeDelta,
    deadline: TimeDelta,
    rings_on_route: u64,
    slot_bytes: u32,
) -> Result<(), String> {
    let floor = slot_payload_ps(slot_bytes) * rings_on_route;
    if bound.as_ps() < floor {
        return Err(format!(
            "bound {bound} below {rings_on_route} slot payload time(s) ({floor} ps)"
        ));
    }
    if bound > deadline {
        return Err(format!("bound {bound} exceeds deadline {deadline}"));
    }
    Ok(())
}

/// The synthesis cost model recomputed from the topology it returned:
/// every ring node (station or bridge port) plus every bridge.
pub fn synth_cost(
    reported: u64,
    topology: &FabricTopology,
    node_weight: u64,
    bridge_weight: u64,
) -> Result<(), String> {
    let nodes: u64 = (0..topology.n_rings())
        .map(|r| topology.ring_size(ccr_multiring::RingId(r)) as u64)
        .sum();
    let cost = node_weight * nodes + bridge_weight * topology.bridges().len() as u64;
    if cost != reported {
        return Err(format!(
            "reported cost {reported}, but the topology costs {cost} ({nodes} nodes, {} bridges)",
            topology.bridges().len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn egress_check_rejects_corrupted_and_reordered_payloads() {
        let good = stamp(3, 7, 42, 64);
        assert!(egress_frame(3, 7, &good, 7, &good).is_ok());
        let mut corrupted = good.clone();
        corrupted[40] ^= 0x01;
        assert!(egress_frame(3, 7, &good, 7, &corrupted).is_err());
        // The next datagram arriving first: out of order even though its
        // bytes are genuine.
        let next = stamp(3, 8, 42, 64);
        assert!(egress_frame(3, 7, &good, 8, &next).is_err());
        // Right sequence number, another datagram's bytes.
        assert!(egress_frame(3, 7, &good, 7, &next).is_err());
    }

    #[test]
    fn bound_check_rejects_a_bound_below_the_observed_maximum() {
        let observed = TimeDelta::from_us(120);
        assert!(bound_dominates(TimeDelta::from_us(120), observed).is_ok());
        assert!(bound_dominates(TimeDelta::from_ps(119_999_999), observed).is_err());
    }

    #[test]
    fn bracket_check_rejects_counts_outside_the_releases() {
        let (p, ph, d) = (
            TimeDelta::from_us(100),
            TimeDelta::from_us(30),
            TimeDelta::from_us(80),
        );
        let h = TimeDelta::from_us(1_000);
        // Releases at 30, 130, …, 930: ten by t=1000; those at ≤ 920 must be in.
        let bracket = release_bracket(p, ph, d, h);
        assert_eq!(bracket, (9, 10));
        assert!(delivered_in_bracket("c", 9, bracket).is_ok());
        assert!(delivered_in_bracket("c", 10, bracket).is_ok());
        assert!(delivered_in_bracket("c", 8, bracket).is_err());
        assert!(delivered_in_bracket("c", 11, bracket).is_err());
        // Before the first deadline nothing is owed yet.
        assert_eq!(release_bracket(p, ph, d, TimeDelta::from_us(50)), (0, 1));
    }

    #[test]
    fn envelope_check_rejects_injections_above_the_bucket() {
        let p = TimeDelta::from_us(500);
        assert!(within_envelope(1, 4, 4, p, TimeDelta::ZERO).is_ok());
        assert!(within_envelope(1, 5, 4, p, TimeDelta::from_us(499)).is_err());
        assert!(within_envelope(1, 6, 4, p, TimeDelta::from_us(1_000)).is_ok());
    }

    #[test]
    fn probe_check_rejects_bounds_below_physics_or_above_deadline() {
        let d = TimeDelta::from_ms(60);
        let one_slot = TimeDelta::from_ps(slot_payload_ps(2_048));
        assert!(probe_bound(one_slot, d, 1, 2_048).is_ok());
        assert!(probe_bound(one_slot, d, 2, 2_048).is_err());
        assert!(probe_bound(TimeDelta::from_ms(61), d, 1, 2_048).is_err());
    }

    #[test]
    fn cost_check_rejects_a_cost_that_does_not_match_the_topology() {
        // 3 rings of 8 nodes, 2 bridges: 24·1 + 2·1.
        let chain = FabricTopology::chain(3, 8);
        assert!(synth_cost(26, &chain, 1, 1).is_ok());
        assert!(synth_cost(25, &chain, 1, 1).is_err());
        assert!(synth_cost(26, &chain, 2, 1).is_err());
    }
}
