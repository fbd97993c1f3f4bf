//! A dependency-free micro-benchmark harness (criterion is unavailable in
//! the offline build environment).
//!
//! Each benchmark runs a closure repeatedly, reports min/median wall time,
//! and black-boxes the result so the optimizer cannot delete the work. Used
//! by the `data_plane` bench target (`cargo bench`).

use std::time::{Duration, Instant};

/// Prevent the optimizer from deleting a computed value.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Run `f` repeatedly for roughly `budget` (at least `min_iters` times) and
/// print `name: min .. median` timings.
pub fn bench<T>(name: &str, budget: Duration, min_iters: usize, mut f: impl FnMut() -> T) {
    // One warm-up iteration.
    black_box(f());
    let mut samples: Vec<Duration> = Vec::new();
    let start = Instant::now();
    while samples.len() < min_iters || (start.elapsed() < budget && samples.len() < 1000) {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed());
    }
    samples.sort_unstable();
    let min = samples[0];
    let median = samples[samples.len() / 2];
    println!(
        "{name:<40} min {:>10.3?}  median {:>10.3?}  ({} iters)",
        min,
        median,
        samples.len()
    );
}

/// Default per-benchmark time budget.
pub fn default_budget() -> Duration {
    Duration::from_secs(2)
}
