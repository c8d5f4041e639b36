//! Pure helpers: percentiles, the tail-percentile rule, a seeded RNG and
//! metric-name validation. Everything here is deterministic and tested.

/// Percentiles the tail rule may pick, highest first. The ladder stops at
/// p99: deeper tails of sub-millisecond operations measure host noise.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it (50 when none does).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND as f64 - 1e-9)
        .unwrap_or(50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `values`; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `values`; NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Mean of `values`; NaN when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// splitmix64: a tiny seeded generator, so the benchmark's inputs depend
/// on `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two users of
    /// one seed draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.index(i + 1));
        }
    }
}

/// Whether `name` is a valid metric or workload name: 1–64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(5), 50.0);
        for n in [100, 150, 200, 1_000, 5_000, 123_456] {
            let p = tail_percentile(n);
            assert!(n as f64 * (1.0 - p / 100.0) >= 9.999, "n={n} p={p}");
        }
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0], 50.0), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        let mut r = Rng::new(9, 0);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("mpc.solve_us_p50"));
        assert!(valid_name("setup_s"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
