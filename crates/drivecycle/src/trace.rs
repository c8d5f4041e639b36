//! Power-request traces: the `P_e` input of the paper's Algorithm 1.

use otem_units::{Joules, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// A uniformly sampled power-request trace.
///
/// # Examples
///
/// ```
/// use otem_drivecycle::PowerTrace;
/// use otem_units::{Seconds, Watts};
///
/// let trace = PowerTrace::new(
///     Seconds::new(1.0),
///     vec![Watts::new(1000.0), Watts::new(2000.0), Watts::new(-500.0)],
/// );
/// assert_eq!(trace.peak(), Watts::new(2000.0));
/// assert_eq!(trace.energy(), otem_units::Joules::new(2500.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    dt: Seconds,
    samples: Vec<Watts>,
}

impl PowerTrace {
    /// Builds a trace from its sampling period and samples.
    pub fn new(dt: Seconds, samples: Vec<Watts>) -> Self {
        Self { dt, samples }
    }

    /// Sampling period.
    pub fn dt(&self) -> Seconds {
        self.dt
    }

    /// The samples.
    pub fn samples(&self) -> &[Watts] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total duration.
    pub fn duration(&self) -> Seconds {
        self.dt * self.samples.len() as f64
    }

    /// Sample at index `i`, or zero past the end (convenient for MPC
    /// look-ahead windows that extend beyond the route).
    pub fn get(&self, i: usize) -> Watts {
        self.samples.get(i).copied().unwrap_or(Watts::ZERO)
    }

    /// Largest (most demanding) sample.
    pub fn peak(&self) -> Watts {
        self.samples.iter().copied().fold(Watts::ZERO, Watts::max)
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> Watts {
        if self.samples.is_empty() {
            return Watts::ZERO;
        }
        self.samples.iter().copied().sum::<Watts>() / self.samples.len() as f64
    }

    /// Net energy over the trace (discharge positive, regen negative).
    pub fn energy(&self) -> Joules {
        self.samples.iter().copied().sum::<Watts>() * self.dt
    }

    /// The forecast window `[start, start + n)` padded with zeros past
    /// the end of the route — what the MPC hands to the optimiser at
    /// each step (Algorithm 1 lines 11–12).
    pub fn window(&self, start: usize, n: usize) -> Vec<Watts> {
        let mut window = Vec::with_capacity(n);
        self.window_into(start, n, &mut window);
        window
    }

    /// [`PowerTrace::window`] without allocating: the samples are borrowed
    /// when the window lies inside the route, and otherwise written,
    /// zero-padded, into `pad`. A closed loop passes the same `pad` every
    /// step, so once it has grown to `n` samples no call allocates.
    pub fn window_in<'a>(&'a self, start: usize, n: usize, pad: &'a mut Vec<Watts>) -> &'a [Watts] {
        match self.samples.get(start..start.saturating_add(n)) {
            Some(inside) => inside,
            None => {
                self.window_into(start, n, pad);
                pad
            }
        }
    }

    /// The one zero-padding implementation: [`PowerTrace::window`]
    /// written into `out`, replacing its contents.
    fn window_into(&self, start: usize, n: usize, out: &mut Vec<Watts>) {
        out.clear();
        let ahead = self.samples.get(start..).unwrap_or_default();
        out.extend_from_slice(&ahead[..n.min(ahead.len())]);
        out.resize(n, Watts::ZERO);
    }

    /// Concatenates `n` repetitions of the trace.
    pub fn repeat(&self, n: usize) -> PowerTrace {
        let mut samples = Vec::with_capacity(self.samples.len() * n.max(1));
        for _ in 0..n.max(1) {
            samples.extend_from_slice(&self.samples);
        }
        PowerTrace {
            dt: self.dt,
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> PowerTrace {
        PowerTrace::new(
            Seconds::new(1.0),
            vec![
                Watts::new(100.0),
                Watts::new(300.0),
                Watts::new(-50.0),
                Watts::new(0.0),
            ],
        )
    }

    #[test]
    fn stats() {
        let t = trace();
        assert_eq!(t.len(), 4);
        assert_eq!(t.duration(), Seconds::new(4.0));
        assert_eq!(t.peak(), Watts::new(300.0));
        assert_eq!(t.mean(), Watts::new(87.5));
        assert_eq!(t.energy(), Joules::new(350.0));
    }

    #[test]
    fn get_pads_with_zero() {
        let t = trace();
        assert_eq!(t.get(2), Watts::new(-50.0));
        assert_eq!(t.get(99), Watts::ZERO);
    }

    #[test]
    fn window_spans_the_end() {
        let t = trace();
        let w = t.window(2, 4);
        assert_eq!(
            w,
            vec![Watts::new(-50.0), Watts::ZERO, Watts::ZERO, Watts::ZERO]
        );
    }

    /// `window`, `window_into` and `window_in` (into a dirty, reused
    /// buffer) all equal the definition — `get(i)` for every `i` in
    /// `[start, start + n)` — bit for bit, on an empty trace, mid-trace,
    /// straddling the end, fully past it, and wider than the trace.
    #[test]
    fn windows_match_the_per_sample_definition() {
        let empty = PowerTrace::new(Seconds::new(1.0), vec![]);
        let mut reused = vec![Watts::new(f64::NAN); 9];
        for t in [empty, trace()] {
            for start in 0..7 {
                for n in 0..7 {
                    let expected: Vec<u64> = (start..start + n)
                        .map(|i| t.get(i).value().to_bits())
                        .collect();
                    let bits =
                        |w: &[Watts]| w.iter().map(|x| x.value().to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&t.window(start, n)), expected, "window({start}, {n})");
                    t.window_into(start, n, &mut reused);
                    assert_eq!(bits(&reused), expected, "window_into({start}, {n})");
                    let borrowed = t.window_in(start, n, &mut reused);
                    assert_eq!(bits(borrowed), expected, "window_in({start}, {n})");
                }
            }
        }
    }

    #[test]
    fn repeat_scales_energy() {
        let t = trace();
        let t3 = t.repeat(3);
        assert_eq!(t3.len(), 12);
        assert_eq!(t3.energy(), Joules::new(3.0 * 350.0));
    }

    #[test]
    fn empty_trace_stats_are_defined() {
        let t = PowerTrace::new(Seconds::new(1.0), vec![]);
        assert!(t.is_empty());
        assert_eq!(t.mean(), Watts::ZERO);
        assert_eq!(t.peak(), Watts::ZERO);
        assert_eq!(t.energy(), Joules::ZERO);
    }
}
