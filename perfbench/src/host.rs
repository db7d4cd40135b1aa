//! Host and build stamp, process CPU clock and peak resident memory.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux process clocks and /proc");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU seconds of the whole process (all threads, live
/// and exited), at nanosecond resolution.
pub fn cpu_time_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable struct with the layout of the C
    // `struct timespec` on 64-bit Linux (two 64-bit fields), and the clock
    // id is the kernel's constant for the calling process's CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

pub fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The lines that make a measurement comparable only to runs on the same
/// machine and build.
pub fn stamp(threads: usize) -> Vec<String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    vec![
        format!("host.logical_cores  {}", logical_cores()),
        format!("host.cpu            {cpu}"),
        format!(
            "host.os             {} {kernel} ({})",
            std::env::consts::OS,
            std::env::consts::ARCH
        ),
        format!("build.rustc         {}", env!("PERFBENCH_RUSTC_VERSION")),
        format!(
            "build.profile       {}",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (codegen-units=1, lto=thin)"
            }
        ),
        // The benchmark enables no cargo feature of the crates it links.
        "build.features      simd=off".to_string(),
        format!("run.threads         {threads}"),
    ]
}
