//! Small numeric and host helpers: order statistics and the mean, the
//! report digest, a seeded generator for probe inputs, and the process's
//! peak RSS.

/// Linear-interpolated percentile (`p` in `[0, 100]`) of `values`; 0 for an
/// empty slice. NaNs sort last and so never become a median.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Arithmetic mean; NaN for an empty slice, so a missing value is never
/// reported as a measurement.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// 64-bit FNV-1a over the bytes written to it: a stable fingerprint of an
/// operation's deterministic output, printed so two commits can be
/// compared run by run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn of(text: &str) -> Digest {
        let mut d = Digest::new();
        d.write(text.as_bytes());
        d
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// SplitMix64: the seeded source of probe inputs (ground points), so the
/// same seed always probes the same points.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in
/// KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kib),
        _ => None,
    }
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 25.0), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_robust_to_order_and_outliers() {
        let v = [1.0, 2.0, 3.0, 4.0, 1000.0];
        assert_eq!(median(&v), 3.0);
        let mut w = v;
        w.reverse();
        assert_eq!(median(&w), 3.0);
        assert_eq!(percentile(&v, 99.0), percentile(&w, 99.0));
    }

    #[test]
    fn mean_weights_every_value_and_is_nan_when_empty() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[2.5]), 2.5);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn digest_matches_fnv1a_reference_values() {
        assert_eq!(Digest::of("").to_string(), "cbf29ce484222325");
        assert_eq!(Digest::of("a").to_string(), "af63dc4c8601ec8c");
        assert_eq!(Digest::of("foobar").to_string(), "85944171f73967e8");
    }

    #[test]
    fn digest_separates_inputs_and_is_incremental() {
        assert_ne!(Digest::of("ab"), Digest::of("ba"));
        let mut d = Digest::new();
        d.write(b"foo");
        d.write(b"bar");
        assert_eq!(d, Digest::of("foobar"));
    }

    #[test]
    fn splitmix_is_seeded_and_in_range() {
        let mut a = SplitMix::new(9);
        let mut b = SplitMix::new(9);
        for _ in 0..100 {
            let x = a.uniform(-2.0, 3.0);
            assert_eq!(x, b.uniform(-2.0, 3.0));
            assert!((-2.0..3.0).contains(&x));
        }
        assert_ne!(SplitMix::new(1).next_u64(), SplitMix::new(2).next_u64());
    }

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51200));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        let mib = peak_rss_mib().expect("/proc/self/status has VmHWM");
        assert!(mib > 0.0);
    }
}
