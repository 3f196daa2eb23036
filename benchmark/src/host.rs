//! Host-side measurement: process CPU time, scheduler statistics, peak
//! resident memory and the machine fingerprint. Linux only — everything
//! here reads `/proc` or the POSIX process CPU clock.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by the whole process (every thread), in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call; the clock id is the
    // POSIX process CPU-time clock, which every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The calling thread's `(on-CPU ns, run-queue wait ns)` from
/// `/proc/thread-self/schedstat`; zeros where the kernel does not keep
/// scheduler statistics.
pub fn schedstat() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut fields = text
        .split_whitespace()
        .map(|f| f.parse::<u64>().unwrap_or(0));
    (fields.next().unwrap_or(0), fields.next().unwrap_or(0))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("/proc/self/status reports VmHWM")
}

/// What the figures were measured on.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
}

impl Fingerprint {
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                (k.trim() == "model name").then(|| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("BENCH_RUSTC_VERSION"),
        }
    }
}
