//! The host-speed probe. On a shared host a core's speed drifts by up to
//! two-fold over seconds to minutes as other tenants load its sibling
//! threads, and no span of a run is long enough to average that out. So
//! the benchmark times a fixed kernel of its own after every operation and
//! set-up sample, and reports host times scaled to the speed at which that
//! kernel takes [`CALIB_REF_S`]. The kernel is part of the benchmark, so a
//! change to the program moves the raw times and leaves the probe alone.

use std::hint::black_box;
use std::time::Instant;

/// Side of the probe's square matrices.
const N: usize = 96;
/// Matrix products per probe.
const REPS: usize = 20;
/// Seconds the probe takes at the reference speed: about its time on an
/// otherwise idle core of a 2.1 GHz Xeon (27–29 ms at the tenth
/// percentile, 32–39 ms at the median under other tenants' load).
pub const CALIB_REF_S: f64 = 0.027;

/// Seconds the probe takes now: [`REPS`] naive `N`×`N` f32 matrix
/// products accumulated into one result, about 18 million multiply-adds.
pub fn calibrate() -> f64 {
    let a: Vec<f32> = black_box((0..N * N).map(|i| (i % 7) as f32 * 0.1).collect());
    let mut c = vec![0f32; N * N];
    let start = Instant::now();
    for _ in 0..REPS {
        for i in 0..N {
            for k in 0..N {
                let x = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += x * a[k * N + j];
                }
            }
        }
        black_box(&mut c);
    }
    start.elapsed().as_secs_f64()
}

/// `raw_s` host seconds, measured while the probe took `calib_s`, scaled
/// to the reference speed.
pub fn at_reference_speed(raw_s: f64, calib_s: f64) -> f64 {
    raw_s * CALIB_REF_S / calib_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_time() {
        let s = calibrate();
        assert!(s > 0.0 && s < 10.0, "{s}");
    }

    #[test]
    fn scaling_is_proportional_to_probe_speed() {
        assert_eq!(at_reference_speed(2.0, CALIB_REF_S), 2.0);
        assert_eq!(at_reference_speed(2.0, 2.0 * CALIB_REF_S), 1.0);
        assert_eq!(at_reference_speed(3.0, CALIB_REF_S / 2.0), 6.0);
    }
}
