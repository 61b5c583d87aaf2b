//! The reference kernel that calibrates the timed metrics to the host's
//! current speed.
//!
//! A shared guest runs the same code up to a third faster or slower for a
//! minute at a time. The kernel is fixed work of the kind the live layers
//! do — hash-map updates, a binary heap, a sort and floating-point sums
//! over 1 MiB of tables it allocates once — written here with `std` only,
//! so no change to the workspace can change its cost. Timed next to the
//! workload in the same process, it slows down and speeds up with the
//! host, and dividing by its time removes much of that drift (see
//! `README.md`).

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Duration;

use crate::cpu_time;

/// The kernel's CPU time, warm, on a host at its usual speed: about the
/// median on an Intel Xeon guest with two vCPUs. The calibrated metrics
/// read as if measured on a host where one run of the kernel takes exactly
/// this long.
pub const NOMINAL: Duration = Duration::from_micros(6_300);

/// Share of a round's CPU time spent re-timing the kernel after it.
pub const SHARE: f64 = 0.1;

/// Entries of the kernel's table; 20 000 keys fill about 1 MiB.
const KEYS: u64 = 20_000;

/// The kernel's tables. They are allocated by the first run and reused,
/// cleared, by every later one, so the kernel never goes back to the
/// allocator: its cost must not depend on the heap the workload left.
#[derive(Debug, Default)]
struct Kernel {
    table: HashMap<u64, (u64, f64), BuildHasherDefault<DefaultHasher>>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    drained: Vec<(u64, f64)>,
}

impl Kernel {
    /// Runs the kernel once and returns its CPU time.
    fn run_once(&mut self) -> Duration {
        let start = cpu_time();
        self.table.clear();
        self.heap.clear();
        self.drained.clear();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..2 * KEYS {
            let k = next() % KEYS;
            let e = self.table.entry(k).or_insert((i, 0.0));
            e.1 += (k as f64).sqrt();
            let value = e.1;
            self.heap.push(Reverse((next() % 1_000_000, i)));
            if i % 3 == 0 {
                if let Some(Reverse((t, _))) = self.heap.pop() {
                    self.drained.push((t, value));
                }
            }
        }
        self.drained
            .sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut sum = 0.0;
        for &(t, f) in &self.drained {
            sum += f * t as f64;
            if let Some(e) = self.table.get(&(t % KEYS)) {
                sum += e.1;
            }
        }
        std::hint::black_box(sum);
        cpu_time().saturating_sub(start)
    }
}

/// Kernel runs and their total CPU time.
#[derive(Debug, Default)]
pub struct Calibration {
    kernel: Kernel,
    /// Kernel runs.
    pub runs: u64,
    /// Their total CPU time.
    pub cpu: Duration,
}

impl Calibration {
    /// Re-times the kernel after a round that took `round_cpu`: runs it
    /// until it has taken [`SHARE`] of that, at least once. A first,
    /// untimed run brings its tables back into cache, so how much of the
    /// cache the round left dirty does not count.
    pub fn sample(&mut self, round_cpu: Duration) {
        self.kernel.run_once();
        let budget = round_cpu.mul_f64(SHARE);
        let mut spent = Duration::ZERO;
        while spent.is_zero() || spent < budget {
            spent += self.kernel.run_once();
            self.runs += 1;
        }
        self.cpu += spent;
    }

    /// How much slower than nominal the host ran the kernel: its mean CPU
    /// time over [`NOMINAL`] (1 before any sample).
    pub fn slowdown(&self) -> f64 {
        if self.runs == 0 {
            return 1.0;
        }
        self.cpu.as_secs_f64() / self.runs as f64 / NOMINAL.as_secs_f64()
    }
}
