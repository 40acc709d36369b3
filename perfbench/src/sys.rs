//! Process measurements (CPU time, peak RSS) and host facts.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU time of the whole process (all threads).
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout, and
    // CLOCK_PROCESS_CPUTIME_ID is supported by every Linux kernel.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Reset the kernel's peak-RSS mark (VmHWM) to the current RSS.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size (VmHWM) in MiB since the last reset.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))?;
    Ok(kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Production lines of code per crate under `crates_dir`: non-blank,
/// non-comment lines of `src/**/*.rs`, stopping in each file at its first
/// `#[cfg(test)]` (the unit-test module closes every file by convention).
pub fn production_loc(crates_dir: &Path) -> std::io::Result<BTreeMap<String, usize>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(crates_dir)? {
        let dir = entry?.path();
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        out.insert(name, loc_in(&src)?);
    }
    Ok(out)
}

fn loc_in(dir: &Path) -> std::io::Result<usize> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            total += loc_in(&path)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            total += std::fs::read_to_string(&path)?
                .lines()
                .map(str::trim)
                .take_while(|l| *l != "#[cfg(test)]")
                .filter(|l| !l.is_empty() && !l.starts_with("//"))
                .count();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_advances_with_work() {
        let start = process_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu() > start);
    }

    #[test]
    fn peak_rss_is_readable() {
        reset_peak_rss().unwrap();
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
