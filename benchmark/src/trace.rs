//! Per-call timing of the stack's public functions, taken from outside the
//! program: every call a workload makes into a layer goes through
//! [`Tracer::time`]. With tracing off the call runs untimed, so the
//! end-to-end figures carry no tracing cost.
//!
//! Inside the timed loop the timestamps are chained: the time between one
//! call's end and the next call's start is the harness's own (its
//! bookkeeping, checks and the timers themselves), so the layer spans and
//! the harness together cover the loop's wall-clock time.

use crate::stats::Hist;
use std::time::Instant;

/// One public entry point of the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    FabricNew,
    OpenConnections,
    OpenConnection,
    CloseConnection,
    E2eBound,
    StepSlot,
    FabricNow,
    ConfigParse,
    GatewayOpen,
    Reconcile,
    Ingress,
    Pace,
    PollEgress,
    GatewayMetrics,
    MatrixParse,
    Synthesize,
}

impl Call {
    pub const ALL: [Call; 16] = [
        Call::FabricNew,
        Call::OpenConnections,
        Call::OpenConnection,
        Call::CloseConnection,
        Call::E2eBound,
        Call::StepSlot,
        Call::FabricNow,
        Call::ConfigParse,
        Call::GatewayOpen,
        Call::Reconcile,
        Call::Ingress,
        Call::Pace,
        Call::PollEgress,
        Call::GatewayMetrics,
        Call::MatrixParse,
        Call::Synthesize,
    ];

    /// Metric-name stem of the span.
    pub fn name(self) -> &'static str {
        match self {
            Call::FabricNew => "multiring.fabric_new",
            Call::OpenConnections => "multiring.open_connections",
            Call::OpenConnection => "multiring.open_connection",
            Call::CloseConnection => "multiring.close_connection",
            Call::E2eBound => "multiring.e2e_bound",
            Call::StepSlot => "multiring.step_slot",
            Call::FabricNow => "multiring.now",
            Call::ConfigParse => "gateway.config_parse",
            Call::GatewayOpen => "gateway.open",
            Call::Reconcile => "gateway.reconcile",
            Call::Ingress => "gateway.ingress",
            Call::Pace => "gateway.pace",
            Call::PollEgress => "gateway.poll_egress",
            Call::GatewayMetrics => "gateway.metrics",
            Call::MatrixParse => "synth.parse",
            Call::Synthesize => "synth.synthesize",
        }
    }

    /// Set-up calls happen before the timed loop and reconcile with
    /// `setup_s`, not with the loop's wall-clock time.
    pub fn is_setup(self) -> bool {
        matches!(
            self,
            Call::FabricNew
                | Call::OpenConnections
                | Call::ConfigParse
                | Call::GatewayOpen
                | Call::MatrixParse
        )
    }
}

#[derive(Default, Clone)]
pub struct Span {
    pub busy_ns: u64,
    pub hist: Hist,
}

/// Span accumulators, one per [`Call`]; inert unless tracing is on.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    /// End of the last call, while the timed loop runs.
    last: Option<Instant>,
    harness_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        let spans = if on {
            vec![Span::default(); Call::ALL.len()]
        } else {
            Vec::new()
        };
        Tracer {
            on,
            spans,
            last: None,
            harness_ns: 0,
        }
    }

    #[inline]
    pub fn time<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        let span = &mut self.spans[call as usize];
        span.busy_ns += ns;
        span.hist.record(ns);
        if let Some(last) = self.last {
            self.harness_ns += (t0 - last).as_nanos() as u64;
            self.last = Some(t1);
        }
        r
    }

    /// The timed loop (re)starts: time from here to the next call is the
    /// harness's.
    pub fn resume(&mut self) {
        if self.on {
            self.last = Some(Instant::now());
        }
    }

    /// The timed loop pauses.
    pub fn pause(&mut self) {
        if let Some(last) = self.last.take() {
            self.harness_ns += last.elapsed().as_nanos() as u64;
        }
    }

    /// Loop time spent outside every call into the stack.
    pub fn harness_s(&self) -> f64 {
        self.harness_ns as f64 * 1e-9
    }

    /// Forget the set-up spans only.
    pub fn reset_setup(&mut self) {
        for c in Call::ALL {
            if c.is_setup() && self.on {
                self.spans[c as usize] = Span::default();
            }
        }
    }

    pub fn span(&self, call: Call) -> Option<&Span> {
        self.spans.get(call as usize)
    }

    /// Busy seconds of every call made inside the timed loop.
    pub fn loop_layer_busy_s(&self) -> f64 {
        Call::ALL
            .iter()
            .filter(|c| !c.is_setup())
            .filter_map(|&c| self.span(c))
            .map(|s| s.busy_ns as f64 * 1e-9)
            .sum()
    }
}
