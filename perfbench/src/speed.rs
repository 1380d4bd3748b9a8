//! Host-speed reference: a fixed piece of benchmark-owned work timed between
//! the workload's operations, so host time can be reported at a fixed
//! reference speed.
//!
//! The reference host (a 2-core KVM guest) drifts in speed by up to ±30% in
//! phases of seconds to minutes, and CPU time drifts with wall time, so
//! neither is steady across runs: raw medians of the same workload moved by
//! 40–60% between ten-run sets taken within three hours. This kernel mixes the
//! workload's kinds of work — hashing into a map of vectors, ordered-set
//! inserts, sorting and scattered reads and writes over a 16 MiB array — and
//! its time tracks the drift: summed over 5–25 s blocks of `deep_shortlist`'s
//! first spec, it correlated with the spec's own time at 0.88–0.94. No
//! change to the program under test can change this kernel.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use crate::stats::SplitMix64;

/// The kernel's duration at the reference host's usual speed. Host times
/// are scaled to it.
const NOMINAL_S: f64 = 0.049;
/// Rounds of the kernel per sample (about 49 ms at nominal speed).
const ROUNDS: usize = 80;
/// Share of the workload's own host time spent sampling the kernel.
const SHARE: f64 = 0.08;
/// Length of the scattered-access array: 16 MiB, beyond the L2 cache.
const ARRAY_WORDS: usize = 2 << 20;

/// Samples of the reference kernel's duration over one run.
pub struct HostSpeed {
    array: Vec<u64>,
    samples: Vec<f64>,
    /// Host seconds of the operations timed so far.
    busy_s: f64,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed {
            array: vec![1; ARRAY_WORDS],
            samples: Vec::new(),
            busy_s: 0.0,
        }
    }

    /// Runs one operation of the workload and returns its result and host
    /// seconds. Before it, the kernel is sampled once, and again until the
    /// samples add up to [`SHARE`] of the operations' time so far — so the
    /// factor rests on a similar number of samples per second of workload
    /// whatever its operations' lengths.
    pub fn time<R>(&mut self, op: impl FnOnce() -> R) -> (R, f64) {
        self.sample();
        while self.samples.iter().sum::<f64>() < SHARE * self.busy_s {
            self.sample();
        }
        let start = Instant::now();
        let out = op();
        let op_s = start.elapsed().as_secs_f64();
        self.busy_s += op_s;
        (out, op_s)
    }

    /// Runs the kernel once and records its duration. The array is read
    /// through first, untimed, so the sample does not depend on how much of
    /// it the workload's last operation evicted from the caches.
    fn sample(&mut self) {
        let warm = self.array.iter().fold(0u64, |acc, &word| acc ^ word);
        std::hint::black_box(warm);
        let start = Instant::now();
        let mut rng = SplitMix64::new(7);
        let mut acc = 0u64;
        for _ in 0..ROUNDS {
            let mut groups: HashMap<u64, Vec<u32>> = HashMap::new();
            let mut ordered = BTreeSet::new();
            for i in 0..2000u32 {
                let x = rng.next_u64();
                groups.entry(x % 257).or_default().push(i);
                ordered.insert(x % 5000);
                let j = x as usize % ARRAY_WORDS;
                self.array[j] = self.array[j].wrapping_add(x);
                acc ^= self.array[(x >> 20) as usize % ARRAY_WORDS];
            }
            let mut sorted: Vec<u64> = ordered.into_iter().collect();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            acc ^= sorted[0] ^ groups.len() as u64;
        }
        std::hint::black_box(acc);
        self.samples.push(start.elapsed().as_secs_f64());
    }

    /// How much faster than nominal the host ran over the samples so far:
    /// nominal ÷ mean sample. Multiplying a host time by it gives the time
    /// at the reference speed.
    pub fn factor(&self) -> f64 {
        let mean = self.samples.iter().sum::<f64>() / self.samples.len() as f64;
        NOMINAL_S / mean
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_samples_the_kernel_and_paces_by_the_operations() {
        let mut speed = HostSpeed::new();
        let (value, op_s) = speed.time(|| 7);
        assert_eq!(value, 7);
        assert!(op_s >= 0.0);
        assert_eq!(speed.samples(), 1);
        // An operation many times the kernel's length buys more samples
        // before the next one.
        speed.time(|| std::thread::sleep(std::time::Duration::from_millis(1500)));
        speed.time(|| ());
        assert!(speed.samples() >= 3, "{} samples", speed.samples());
        let expected = NOMINAL_S / (speed.samples.iter().sum::<f64>() / speed.samples() as f64);
        assert_eq!(speed.factor(), expected);
        assert!(speed.factor().is_finite() && speed.factor() > 0.0);
    }
}
