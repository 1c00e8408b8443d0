//! Metric math: medians, the percentile-with-ten-beyond rule, the
//! fixed-window rate median, the roofline formula, and steal-adjusted
//! timings.

/// Median of `samples` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The `p`-quantile (`0 < p < 1`) of `samples` by nearest rank, reported
/// only when at least ten samples lie strictly beyond its rank — a tail
/// figure with fewer samples behind it is one or two outliers, not a tail.
pub fn percentile_ten_beyond(samples: &[f64], p: f64) -> Option<f64> {
    assert!(
        p > 0.0 && p < 1.0,
        "percentile must lie strictly between 0 and 1"
    );
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    (n - 1 - rank >= 10).then(|| sorted[rank])
}

/// Completions per second in one window of `elapsed`. The window median
/// of a run is the [`median`] of these, so one stalled window moves it no
/// more than one fast window does.
pub fn window_rate(completions: u64, elapsed: std::time::Duration) -> f64 {
    completions as f64 / elapsed.as_secs_f64()
}

/// The roofline of a master-worker product in GFLOP/s: the lesser of the
/// compute bound — enrolled workers, capped at the cores, times the
/// one-core kernel rate — and the one-port bound, the rate at which the
/// port moves the run's `bytes` (every transfer serializes through the
/// master's single port, so the run takes at least `bytes / port rate`).
pub fn roofline_gflops(
    workers: usize,
    cores: usize,
    kernel_gflops: f64,
    flops: f64,
    bytes: f64,
    port_gbps: f64,
) -> f64 {
    let compute = workers.min(cores) as f64 * kernel_gflops;
    let port = flops / bytes * port_gbps;
    compute.min(port)
}

/// Timed samples, each with the host steal share of its interval.
///
/// The host steals CPU time from the guest in bursts: on the 2-vCPU
/// reference machine up to 40% of the time the guest wanted to run, from
/// one second to the next. The gated times take that share out, as
/// `wall × (1 − steal)`: while steal share `s` of every runnable thread's
/// time goes to other guests, the program progresses at `1 − s` of its
/// own speed. The steal counter moves only with the host's load, so the
/// scaling cannot hide a change in the program.
#[derive(Debug, Default)]
pub struct Timings {
    wall: Vec<f64>,
    steal: Vec<f64>,
}

impl Timings {
    /// Record one wall time; its steal share comes with the next
    /// [`Timings::settle`].
    pub fn push(&mut self, wall: f64) {
        self.wall.push(wall);
    }

    /// Attribute `share` to every time pushed since the last settle.
    pub fn settle(&mut self, share: f64) {
        self.steal.resize(self.wall.len(), share);
    }

    pub fn len(&self) -> usize {
        self.wall.len()
    }

    /// The raw wall times.
    pub fn wall(&self) -> &[f64] {
        &self.wall
    }

    /// Median wall time.
    pub fn median_wall(&self) -> Option<f64> {
        median(&self.wall)
    }

    /// Median of `wall × (1 − steal)` over the settled samples.
    pub fn median_unstolen(&self) -> Option<f64> {
        let v: Vec<f64> = self
            .wall
            .iter()
            .zip(&self.steal)
            .map(|(w, s)| w * (1.0 - s))
            .collect();
        median(&v)
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 1..=100: p90 by nearest rank is 90, with exactly ten beyond.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_ten_beyond(&s, 0.9), Some(90.0));
        // 99 samples: p90 is the 90th (rank 89) with nine beyond — refused.
        assert_eq!(percentile_ten_beyond(&s[..99], 0.9), None);
        // p99 of 100 samples has one beyond — refused.
        assert_eq!(percentile_ten_beyond(&s, 0.99), None);
        // p99 of 1100 samples has eleven beyond.
        let big: Vec<f64> = (1..=1100).map(f64::from).collect();
        assert_eq!(percentile_ten_beyond(&big, 0.99), Some(1089.0));
        assert_eq!(percentile_ten_beyond(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut s: Vec<f64> = (1..=40).map(f64::from).collect();
        s.reverse();
        assert_eq!(percentile_ten_beyond(&s, 0.5), Some(20.0));
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        use std::time::Duration;
        let w = Duration::from_millis(250);
        // 3000, 3200 and 3600 jobs/s, then a window stalled to 40 jobs/s.
        let rates: Vec<f64> = [750, 800, 900, 10]
            .iter()
            .map(|&n| window_rate(n, w))
            .collect();
        assert_eq!(rates[0], 3000.0);
        assert_eq!(median(&rates), Some(3100.0));
    }

    #[test]
    fn timings_take_the_stolen_share_out() {
        let mut t = Timings::default();
        t.push(1.0);
        t.settle(0.5);
        t.push(2.0);
        t.push(4.0);
        // Unsettled samples are left out of the adjusted median.
        assert_eq!(t.median_unstolen(), Some(0.5));
        t.settle(0.25);
        // 0.5, 1.5 and 3.0.
        assert_eq!(t.median_unstolen(), Some(1.5));
        assert_eq!(t.median_wall(), Some(2.0));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn roofline_is_the_lesser_bound() {
        // Compute-bound: 2 workers × 20 GFLOP/s, port far faster.
        let r = roofline_gflops(2, 2, 20.0, 14.2e9, 236e6, 10.0);
        assert_eq!(r, 40.0);
        // Workers beyond the cores add nothing.
        assert_eq!(roofline_gflops(4, 2, 20.0, 14.2e9, 236e6, 10.0), 40.0);
        // Port-bound: 1 GB/s moving 1e9 bytes for 10e9 flops is 10 GFLOP/s.
        assert_eq!(roofline_gflops(2, 2, 20.0, 10e9, 1e9, 1.0), 10.0);
    }
}
