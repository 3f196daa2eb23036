//! The CCR-EDF benchmark: one named workload per process.
//!
//! ```text
//! ccr-benchmark --workload <fabric_soak|gateway_edge|admission_churn|synthesis>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced;
//! with `--trace 1` they are the per-layer ones, from a run that times
//! every call into the stack and is then replayed untraced on the same
//! seed for the same number of rounds. Diagnostic lines starting with `#`
//! precede it. See README.md.

mod checks;
mod host;
mod meter;
mod rng;
mod stats;
mod trace;
mod workloads;

use host::Fingerprint;
use stats::median;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Call, Tracer};
use workloads::admission_churn::AdmissionChurn;
use workloads::fabric_soak::FabricSoak;
use workloads::gateway_edge::GatewayEdge;
use workloads::synthesis::Synthesis;
use workloads::{Budget, Outcome, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "fabric_soak" => bench::<FabricSoak>(&args),
        "gateway_edge" => bench::<GatewayEdge>(&args),
        "admission_churn" => bench::<AdmissionChurn>(&args),
        "synthesis" => bench::<Synthesis>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Set up (repeatedly, keeping the last state), run, report. `Ok(false)`
/// when an output check failed.
fn bench<W: Workload>(args: &Args) -> Result<bool, String> {
    let fp = Fingerprint::probe();
    let input = W::generate(args.seed);
    let mut tr = Tracer::new(args.trace);
    let mut setup_s = Vec::with_capacity(W::SETUP_REPEATS);
    let mut state = None;
    for _ in 0..W::SETUP_REPEATS {
        drop(state.take());
        tr.reset_setup();
        let t0 = Instant::now();
        state = Some(W::setup(&input, &mut tr)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let state = state.expect("at least one set-up");
    let out = W::run(&input, state, Budget::Seconds(args.seconds), &mut tr);

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut verdict = out.verdict.clone();
    if args.trace {
        // Replay the same rounds untraced: same simulated results, and the
        // time ratio is what tracing costs.
        let mut quiet = Tracer::new(false);
        let replay = W::run(
            &input,
            W::setup(&input, &mut quiet)?,
            Budget::Rounds(out.rounds),
            &mut quiet,
        );
        if verdict.is_ok() {
            verdict = replay.verdict.clone();
        }
        if verdict.is_ok() && (replay.digest != out.digest || replay.attempted != out.attempted) {
            verdict =
                Err("traced and untraced runs of one seed simulated different results".into());
        }
        metrics.extend(layer_metrics(&tr, &out, &replay));
    } else {
        // `ops_per_s` divides by process CPU time, which repeats better
        // than wall-clock time on a small shared VM (README.md).
        metrics.push(("ops_per_s".into(), out.meter.ops_per_cpu_s(), "1/s"));
        metrics.push((
            "op_p50_us".into(),
            out.meter.latency_quantile(0.50) * 1e-3,
            "us",
        ));
        metrics.push((
            "op_p99_us".into(),
            out.meter.latency_quantile(0.99) * 1e-3,
            "us",
        ));
        metrics.push(("setup_s".into(), median(&setup_s), "s"));
        metrics.push(("peak_rss_mb".into(), host::peak_rss_mb(), "MiB"));
    }

    println!(
        "# host: nproc={} cpu=\"{}\" rustc=\"{}\"",
        fp.nproc, fp.cpu_model, fp.rustc
    );
    let m = &out.meter;
    println!(
        "# loop: rounds={} ops={} windows={} min_window_ops={} wall_s={:.6} cpu_s={:.6} off_cpu_s={:.6} runqueue_wait_s={:.6} ops_per_wall_s={:.1} ops_per_cpu_s={:.1} setup_s=[{}]",
        out.rounds,
        out.attempted,
        m.windows(),
        m.min_window_ops(),
        m.wall_s(),
        m.cpu_s(),
        (m.wall_s() - m.cpu_s()).max(0.0),
        m.runqueue_wait_s(),
        m.ops_per_wall_s(),
        m.ops_per_cpu_s(),
        setup_s
            .iter()
            .map(|s| format!("{s:.6}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    println!(
        "# windows: ops_per_cpu_s=[{}]",
        m.window_rates()
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    if let Err(e) = &verdict {
        println!("# check failed: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.is_ok(),
        out.attempted,
        out.failed,
        body.join(", ")
    );
    Ok(verdict.is_ok())
}

/// The per-layer table of a traced run.
fn layer_metrics(tr: &Tracer, out: &Outcome, replay: &Outcome) -> Vec<(String, f64, &'static str)> {
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let busy = |c: Call| tr.span(c).map_or(0.0, |s| s.busy_ns as f64 * 1e-9);
    let q_us = |c: Call, q: f64| tr.span(c).map_or(0.0, |s| s.hist.quantile(q) * 1e-3);
    for c in Call::ALL {
        m.push((format!("{}.busy_s", c.name()), busy(c), "s"));
        let calls = tr.span(c).map_or(0, |s| s.hist.count());
        m.push((format!("{}.calls", c.name()), calls as f64, "count"));
    }
    for c in [Call::StepSlot, Call::OpenConnection] {
        m.push((format!("{}.p50_us", c.name()), q_us(c, 0.50), "us"));
        m.push((format!("{}.p99_us", c.name()), q_us(c, 0.99), "us"));
    }
    m.push((
        format!("{}.p99_us", Call::CloseConnection.name()),
        q_us(Call::CloseConnection, 0.99),
        "us",
    ));
    m.push((
        format!("{}.p50_ns", Call::Ingress.name()),
        q_us(Call::Ingress, 0.50) * 1e3,
        "ns",
    ));
    for (name, unit) in COUNTS {
        let v = out
            .counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        m.push((name.to_string(), v, unit));
    }
    let wall = out.meter.wall_s();
    let harness = tr.harness_s();
    let layers = tr.loop_layer_busy_s();
    m.push(("host.cpu_s".into(), out.meter.cpu_s(), "s"));
    m.push((
        "host.off_cpu_s".into(),
        (wall - out.meter.cpu_s()).max(0.0),
        "s",
    ));
    m.push((
        "host.runqueue_wait_s".into(),
        out.meter.runqueue_wait_s(),
        "s",
    ));
    m.push(("harness.self_s".into(), harness, "s"));
    m.push(("trace.loop_wall_s".into(), wall, "s"));
    m.push((
        "trace.unaccounted_ratio".into(),
        1.0 - (layers + harness) / wall.max(1e-12),
        "ratio",
    ));
    m.push((
        "trace.overhead_ratio".into(),
        wall / replay.meter.wall_s().max(1e-12),
        "ratio",
    ));
    m
}

/// Counts read from the program's metrics structs after a traced run,
/// with their units; a workload that does not use a layer reports 0.
const COUNTS: [(&str, &str); 19] = [
    ("edf.grants_per_slot", "grants/slot"),
    ("edf.deliveries", "count"),
    ("edf.idle_slots", "count"),
    ("edf.handover_hops_mean", "hops"),
    ("multiring.forwarded", "count"),
    ("multiring.peak_bridge_occupancy", "count"),
    ("multiring.external_injected", "count"),
    ("calculus.incremental_solves", "count"),
    ("calculus.full_solves", "count"),
    ("admission.resident_checks", "count"),
    ("gateway.frames_in", "count"),
    ("gateway.deferred", "count"),
    ("gateway.injected", "count"),
    ("synth.certifier_calls", "count"),
    ("synth.full_solves", "count"),
    ("synth.moves_attempted", "count"),
    ("synth.moves_accepted", "count"),
    ("synth.move_accept_ratio", "ratio"),
    ("synth.matrices_checked", "count"),
];
