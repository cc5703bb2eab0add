//! Offline shim for `criterion`.
//!
//! Keeps the `criterion_group!` / `criterion_main!` / `bench_function` /
//! `iter` / `iter_with_setup` surface so the workspace's `harness = false`
//! bench targets compile and run offline. Measurement is a simple
//! calibrated wall-clock loop printing mean ns/iter — adequate for
//! relative comparisons, with none of real criterion's statistics.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Passed to the closure given to [`Criterion::bench_function`].
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `f`, repeating it enough times to get a stable-ish estimate.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        self.calibrate(|n| {
            timed(|| {
                for _ in 0..n {
                    black_box(f());
                }
            })
            .1
        });
    }

    /// Time `routine` on a fresh input from `setup` per iteration. As in
    /// upstream criterion, neither `setup` nor dropping the routine's
    /// output is timed.
    pub fn iter_with_setup<I, O, S, R>(&mut self, mut setup: S, mut routine: R)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.calibrate(|n| {
            let mut total = Duration::ZERO;
            for _ in 0..n {
                let input = setup();
                let (out, took) = timed(|| black_box(routine(input)));
                total += took;
                drop(out);
            }
            total
        });
    }

    /// Grow the iteration count until `run(n)` reports ~50ms of timed work.
    fn calibrate(&mut self, mut run: impl FnMut(u64) -> Duration) {
        let mut n: u64 = 1;
        loop {
            let took = run(n);
            if took >= Duration::from_millis(50) || n >= 1 << 20 {
                self.iters = n;
                self.elapsed = took;
                return;
            }
            n = n.saturating_mul(4);
        }
    }

    fn ns_per_iter(&self) -> f64 {
        if self.iters == 0 {
            return f64::NAN;
        }
        self.elapsed.as_nanos() as f64 / self.iters as f64
    }
}

/// Run `f` once; its output and the wall-clock time it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Top-level bench context.
pub struct Criterion {
    _private: (),
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { _private: () }
    }
}

impl Criterion {
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            iters: 0,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        println!(
            "bench {name:<40} {:>14.1} ns/iter  ({} iters)",
            b.ns_per_iter(),
            b.iters
        );
        self
    }

    /// Real criterion parses CLI args here; the shim has none.
    pub fn final_summary(&mut self) {}
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        c.bench_function("noop_add", |b| b.iter(|| black_box(1u64) + black_box(2)));
    }

    #[test]
    fn iter_with_setup_times_only_the_routine() {
        let mut b = Bencher {
            iters: 0,
            elapsed: Duration::ZERO,
        };
        let (mut setups, mut runs) = (0u64, 0u64);
        let mut setup_time = Duration::ZERO;
        b.iter_with_setup(
            || {
                let start = Instant::now();
                setups += 1;
                std::thread::sleep(Duration::from_millis(8));
                setup_time += start.elapsed();
            },
            |()| {
                runs += 1;
                std::thread::sleep(Duration::from_millis(1));
            },
        );
        assert_eq!(setups, runs, "one fresh input per iteration");
        // A timed iteration sleeps 1 ms; were the setup timed too, each
        // would take longer than the mean (8 ms) setup alone.
        let (ns, mean_setup_ns) = (
            b.ns_per_iter(),
            setup_time.as_nanos() as f64 / setups as f64,
        );
        assert!(
            ns >= 1e6 && ns < mean_setup_ns,
            "{ns} ns/iter, setup {mean_setup_ns} ns"
        );
    }
}
