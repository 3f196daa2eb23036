//! The timed loop's clock. Time is kept in windows of equal wall-clock
//! length; each end-to-end figure is the median over windows, so a burst
//! of interference from other tenants of the machine moves one window, not
//! the result. The clock pauses while the benchmark checks outputs, so
//! checking never counts as work done.

use crate::host::{process_cpu_ns, schedstat};
use crate::stats::{median, Hist};
use crate::trace::Tracer;
use std::time::Instant;

/// Windows a time-budgeted run is cut into.
pub const WINDOWS: usize = 20;

#[derive(Default)]
struct Window {
    ops: u64,
    wall_s: f64,
    cpu_s: f64,
    latency: Hist,
}

pub struct Meter {
    window_s: f64,
    /// Every window the loop can reach, allocated up front.
    windows: Vec<Window>,
    cur: usize,
    wall_s: f64,
    cpu_s: f64,
    wait_s: f64,
    /// Wall time, CPU ns and run-queue wait ns at the last resume.
    started: Option<(Instant, u64, u64)>,
}

impl Meter {
    /// A meter cutting the loop into `windows` windows of `window_s` wall
    /// seconds; time past the last window counts into the last one.
    pub fn new(window_s: f64, windows: usize) -> Self {
        Meter {
            window_s,
            windows: (0..windows).map(|_| Window::default()).collect(),
            cur: 0,
            wall_s: 0.0,
            cpu_s: 0.0,
            wait_s: 0.0,
            started: None,
        }
    }

    pub fn resume(&mut self, tr: &mut Tracer) {
        debug_assert!(self.started.is_none(), "meter already running");
        tr.resume();
        self.cur = ((self.wall_s / self.window_s) as usize).min(self.windows.len() - 1);
        self.started = Some((Instant::now(), process_cpu_ns(), schedstat().1));
    }

    /// Stop the clock, crediting `ops` completed operations to the
    /// current window.
    pub fn pause(&mut self, ops: u64, tr: &mut Tracer) {
        tr.pause();
        let (t0, cpu0, wait0) = self.started.take().expect("meter running");
        let wall = t0.elapsed().as_secs_f64();
        let cpu = process_cpu_ns().saturating_sub(cpu0) as f64 * 1e-9;
        self.wait_s += schedstat().1.saturating_sub(wait0) as f64 * 1e-9;
        self.wall_s += wall;
        self.cpu_s += cpu;
        let w = &mut self.windows[self.cur];
        w.ops += ops;
        w.wall_s += wall;
        w.cpu_s += cpu;
    }

    /// Record one operation's host latency in the current window.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.windows[self.cur].latency.record(ns);
    }

    pub fn wall_s(&self) -> f64 {
        self.wall_s
    }

    pub fn cpu_s(&self) -> f64 {
        self.cpu_s
    }

    pub fn runqueue_wait_s(&self) -> f64 {
        self.wait_s
    }

    /// Windows that did work.
    fn full(&self) -> impl Iterator<Item = &Window> {
        self.windows.iter().filter(|w| w.ops > 0 && w.cpu_s > 0.0)
    }

    /// Median over windows of operations per CPU second.
    pub fn ops_per_cpu_s(&self) -> f64 {
        median(
            &self
                .full()
                .map(|w| w.ops as f64 / w.cpu_s)
                .collect::<Vec<_>>(),
        )
    }

    /// Median over windows of operations per wall-clock second.
    pub fn ops_per_wall_s(&self) -> f64 {
        median(
            &self
                .full()
                .map(|w| w.ops as f64 / w.wall_s)
                .collect::<Vec<_>>(),
        )
    }

    /// Median over windows of each window's latency quantile `q`, in ns.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        median(
            &self
                .full()
                .map(|w| w.latency.quantile(q))
                .collect::<Vec<_>>(),
        )
    }

    /// Fewest operations any working window holds.
    pub fn min_window_ops(&self) -> u64 {
        self.full().map(|w| w.latency.count()).min().unwrap_or(0)
    }

    pub fn windows(&self) -> usize {
        self.full().count()
    }

    /// Operations per CPU second of each working window, in order.
    pub fn window_rates(&self) -> Vec<f64> {
        self.full().map(|w| w.ops as f64 / w.cpu_s).collect()
    }
}
