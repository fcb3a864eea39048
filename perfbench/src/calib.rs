//! Host-speed calibration: a fixed loop timed just before and just after
//! every timed op, so that op times can be given at a reference host
//! speed.
//!
//! The benchmark runs on a shared host. Co-tenant load slows this process
//! by up to 1.8x for stretches of seconds to minutes, and a run cannot
//! outlast that. The loop below is the benchmark's own code, which no
//! change to the program touches: dividing an op's wall time by the loop's
//! time around it, and multiplying by [`REFERENCE_MS`], gives the op's
//! time on the host at the speed the loop was sized on. The integer loop
//! has eight independent dependency chains, so it slows with co-tenant
//! load much as the flows do; a memory-latency-bound loop did not slow at
//! all.

use std::time::Instant;

/// The loop's wall time (ms) on the 2-vCPU reference VM when the host is
/// quiet: the unit the benchmark's timings are scaled to.
pub const REFERENCE_MS: f64 = 1.0;

/// Iterations of the loop: about [`REFERENCE_MS`] on the reference VM.
const ITERATIONS: u64 = 200_000;

/// Runs the calibration loop once and returns its wall time in ms.
#[must_use]
pub fn sample() -> f64 {
    let t = Instant::now();
    let mut lanes: [u64; 8] = std::hint::black_box([1, 2, 3, 4, 5, 6, 7, 8]);
    for i in 0..ITERATIONS {
        for (k, v) in lanes.iter_mut().enumerate() {
            *v = v
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i ^ k as u64);
            *v ^= *v >> 29;
        }
        if lanes[0] & 1 == 0 {
            lanes[1] = lanes[1].rotate_left(3);
        }
    }
    std::hint::black_box(lanes);
    t.elapsed().as_secs_f64() * 1e3
}

/// Times ops on one thread, each scaled by the calibration samples taken
/// just before and just after it.
pub struct Clock {
    /// The latest calibration sample (ms).
    last: f64,
}

/// One timed op: its wall time and its time at reference host speed (ms).
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub wall_ms: f64,
    pub ms: f64,
}

impl Clock {
    #[must_use]
    pub fn new() -> Clock {
        Clock { last: sample() }
    }

    /// A clock whose first timing is the span from `start` to now, scaled
    /// by the calibration sample taken just after it.
    #[must_use]
    pub fn started_at(start: Instant) -> (Clock, Timing) {
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let clock = Clock::new();
        let ms = wall_ms * REFERENCE_MS / clock.last;
        (clock, Timing { wall_ms, ms })
    }

    /// Runs `op` and returns its result with its timing.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, Timing) {
        let t = Instant::now();
        let out = op();
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let after = sample();
        let ms = wall_ms * REFERENCE_MS / ((self.last + after) / 2.0);
        self.last = after;
        (out, Timing { wall_ms, ms })
    }
}
