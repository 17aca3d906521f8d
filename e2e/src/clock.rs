//! Clocks and host controls the standard library does not expose: the
//! calling thread's and the process's CPU time, CPU affinity, peak
//! resident memory, and the hypervisor's steal counter.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `cpu_set_t`: 1024 bits.
#[derive(Clone, Copy)]
#[repr(C)]
pub struct CpuSet([u64; 16]);

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread — and every thread it spawns from now
/// on — to the highest-numbered CPU it may run on. Returns that CPU and
/// the mask it had, or `None` where the kernel refuses (the run then
/// goes on unpinned).
pub fn pin_to_one_cpu() -> Option<(usize, CpuSet)> {
    let mut before = CpuSet([0; 16]);
    // SAFETY: `before` is a live, writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut before) } != 0 {
        return None;
    }
    let (word, bits) = before.0.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let cpu = word * 64 + 63 - bits.leading_zeros() as usize;
    let mut one = CpuSet([0; 16]);
    one.0[word] = 1 << (cpu % 64);
    set_affinity(&one).then_some((cpu, before))
}

/// Sets the calling thread's affinity mask; inherited by threads it spawns.
pub fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a live buffer of the size passed; pid 0 is the caller.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
}

// <time.h> on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock_id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target, which is all this benchmark
    // builds for), and both ids are valid on any Linux since 2.6.12.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed by the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by every thread of the process, exited ones too.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set size (`VmHWM`) in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The aggregate `cpu` line of `/proc/stat` as (steal, total) jiffies.
pub fn host_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Filesystem type of the mount that holds `path`, from
/// `/proc/self/mountinfo` (longest mount-point prefix wins).
pub fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best = (0usize, "unknown".to_string());
    for line in mounts.lines() {
        // id parent major:minor root mount-point options... - fstype source superopts
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(point), Some(fstype)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if path.starts_with(point) && point.len() >= best.0 {
            best = (point.len(), fstype.to_string());
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burn() -> u64 {
        (0..200_000u64).fold(0, |acc, i| std::hint::black_box(acc ^ i.wrapping_mul(31)))
    }

    #[test]
    fn cpu_clocks_are_monotone_and_advance_under_load() {
        let (t0, p0) = (thread_cpu(), process_cpu());
        let mut last = (t0, p0);
        for _ in 0..50 {
            std::hint::black_box(burn());
            let now = (thread_cpu(), process_cpu());
            assert!(now.0 >= last.0 && now.1 >= last.1, "a CPU clock went back");
            last = now;
        }
        assert!(last.0 > t0, "thread CPU clock did not advance");
        assert!(last.1 > p0, "process CPU clock did not advance");
        // Another thread's work shows in the process clock only.
        let before = thread_cpu();
        std::thread::spawn(|| (0..20).map(|_| burn()).sum::<u64>())
            .join()
            .unwrap();
        assert!(thread_cpu() - before < process_cpu() - p0);
    }

    #[test]
    fn pinning_narrows_the_mask_to_one_cpu_and_restores() {
        // On its own thread: affinity is per thread, tests share the process.
        std::thread::spawn(|| {
            let Some((cpu, before)) = pin_to_one_cpu() else {
                return; // the kernel refused: nothing to check
            };
            let mut now = CpuSet([0; 16]);
            // SAFETY: `now` is a live, writable buffer of the size passed.
            assert_eq!(unsafe { sched_getaffinity(0, 128, &mut now) }, 0);
            assert_eq!(now.0.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_ne!(now.0[cpu / 64] & (1 << (cpu % 64)), 0);
            assert_ne!(before.0[cpu / 64] & (1 << (cpu % 64)), 0);
            assert!(set_affinity(&before));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn proc_readings_parse() {
        assert!(peak_rss_mb().unwrap() > 0.5);
        let (steal, total) = host_steal().unwrap();
        assert!(total > 0 && steal <= total);
        assert_ne!(filesystem_of(std::path::Path::new("/")), "unknown");
    }
}
