//! The host-speed probe that the timing metrics are normalised by.
//!
//! The benchmark runs on a few CPUs of a host shared with other tenants.
//! They slow the same code by up to 1.8× (README.md, Steadiness): in
//! phases that last seconds, where the same sort takes 1.15 ms or 1.7 ms
//! and a Workshop SP run 290 ms or 420 ms, and in a level that drifts over
//! tens of minutes. No estimator over one run's own samples removes the
//! drift between runs.
//!
//! The probe is a fixed unit of work that belongs to the benchmark, not to
//! the program: sorting the same 64 Ki pseudo-random `u32` values. It runs
//! on the benchmark's own thread between units of program work, never at
//! the same time, one sample per `PROBE_EVERY` of program time, so its mean
//! follows the host's speed over the same stretch. A timing divided by
//! [`Probe::slowdown`] reads as it would on the host at the probe's
//! reference speed. No change to the program changes the probe's work.
//!
//! [`pin_to_one_cpu`] pins the process to one CPU before any thread
//! starts, so the probe and every thread of the program share it: when the
//! host takes that CPU away for a while, both see it. With the server's threads
//! spread over two CPUs, a stall of either one held up the loop while the
//! probe, on one of them, saw half the stalls.

use std::os::raw::c_int;
use std::time::{Duration, Instant};

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// Pin the calling thread, and so every thread it starts later, to the
/// highest-numbered CPU it may run on. Returns the CPU, or `None` when the
/// affinity could not be read or set (the run goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    // SAFETY: plain libc calls on buffers that outlive them; the mask
    // sizes are the buffers' sizes.
    unsafe {
        let mut mask = [0u64; 16];
        if sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) != 0 {
            return None;
        }
        let cpu = (0..mask.len() * 64)
            .rev()
            .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        (sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0).then_some(cpu)
    }
}

/// The probe's mean sample time, in milliseconds, that counts as a
/// slowdown of 1: roughly its mean on the 2-CPU Xeon host the benchmark
/// was tuned on. Only the scale of the normalised figures depends on it.
pub const REFERENCE_MS: f64 = 1.5;

/// Values sorted per sample: 256 KiB, inside a core's private L2.
const PROBE_LEN: usize = 1 << 16;

/// Program time per probe sample: about 6 % of the run goes to probing.
pub const PROBE_EVERY: Duration = Duration::from_millis(25);

pub struct Probe {
    buf: Vec<u32>,
    samples_ms: Vec<f64>,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            buf: vec![0; PROBE_LEN],
            samples_ms: Vec::new(),
        }
    }

    /// Sample in proportion to `work`, the program time since the last
    /// samples: one sample per `PROBE_EVERY`, at least one.
    pub fn after(&mut self, work: Duration) {
        let n = (work.as_secs_f64() / PROBE_EVERY.as_secs_f64())
            .round()
            .max(1.0);
        for _ in 0..n as usize {
            self.sample();
        }
    }

    /// Refill the buffer with the same sequence (which also brings it back
    /// into cache) and time the sort.
    fn sample(&mut self) {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for v in &mut self.buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x as u32;
        }
        let t = Instant::now();
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
        self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    pub fn mean_ms(&self) -> f64 {
        self.samples_ms.iter().sum::<f64>() / self.samples_ms.len().max(1) as f64
    }

    /// How much slower than the reference the host ran while sampled: the
    /// mean, not the median, because the samples fall into a fast and a
    /// slow mode and the mean weighs them by the time spent in each.
    pub fn slowdown(&self) -> f64 {
        if self.samples_ms.is_empty() {
            1.0
        } else {
            self.mean_ms() / REFERENCE_MS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_follow_the_work_they_are_paced_by() {
        let mut probe = Probe::new();
        probe.after(Duration::ZERO);
        assert_eq!(probe.samples(), 1);
        probe.after(PROBE_EVERY * 4);
        assert_eq!(probe.samples(), 5);
        assert!(probe.mean_ms() > 0.0 && probe.slowdown() > 0.0);
        assert!(probe.buf.windows(2).all(|w| w[0] <= w[1]));
    }
}
