//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks; `0.0` for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The largest of `samples` (`0.0` for an empty set).
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// The geometric mean of positive `samples` (`0.0` for an empty set).
pub fn geo_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|v| v.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// `part / whole`, or `0.0` when nothing was counted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// One timed window of a run: a served round, or one whole sweep.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// The window's length, seconds.
    pub seconds: f64,
    /// Units of work it completed.
    pub units: u64,
    /// Its latency samples (round trips or cell times), ms.
    pub samples_ms: Vec<f64>,
}

/// Windows with fewer samples (a round cut short by the end of the run)
/// are left out of [`window_medians`].
const MIN_WINDOW_SAMPLES: usize = 10;

/// The median over full windows of each window's throughput, p50 and
/// `q`-quantile, plus the number of windows used. Medians over windows
/// keep a burst of interference on a shared machine from moving the whole
/// run's figure.
pub fn window_medians(windows: &[Window], q: f64) -> (f64, f64, f64, usize) {
    let full: Vec<&Window> = windows
        .iter()
        .filter(|w| w.samples_ms.len() >= MIN_WINDOW_SAMPLES)
        .collect();
    let per = |f: &dyn Fn(&Window) -> f64| median(&full.iter().map(|w| f(w)).collect::<Vec<_>>());
    (
        per(&|w| ratio(w.units as f64, w.seconds)),
        per(&|w| median(&w.samples_ms)),
        per(&|w| quantile(&w.samples_ms, q)),
        full.len(),
    )
}

/// Nanoseconds in `d` as a float, for converting to any unit.
pub fn nanos(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(max(&v), 4.0);
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn window_medians_skip_short_windows() {
        let window = |seconds: f64, ms: f64, n: usize| Window {
            seconds,
            units: n as u64,
            samples_ms: vec![ms; n],
        };
        let windows = [
            window(1.0, 2.0, 10),
            window(2.0, 4.0, 10),
            window(1.0, 3.0, 10),
            window(0.1, 90.0, 3),
        ];
        let (rate, p50, tail, used) = window_medians(&windows, 0.9);
        assert_eq!((rate, p50, tail, used), (10.0, 3.0, 3.0, 3));
    }
}
