//! Host steal share from `/proc/stat`: the part of the CPU time the guest
//! wanted to run that the hypervisor gave to other guests instead.

/// Fewest ticks of wanted CPU time (busy plus stolen, summed over CPUs)
/// an interval needs before its steal share is read: 100 ms of one CPU.
pub const MIN_TICKS: u64 = 20;

/// Aggregate CPU counters at one instant, in ticks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuTimes {
    /// user + nice + system + irq + softirq: time the guest ran.
    busy: u64,
    /// Time the guest was ready to run but the host ran someone else.
    steal: u64,
}

impl CpuTimes {
    /// Read the aggregate `cpu` line; `None` where `/proc/stat` is absent
    /// or unreadable.
    pub fn now() -> Option<CpuTimes> {
        parse(&std::fs::read_to_string("/proc/stat").ok()?)
    }

    /// Steal share of the CPU time wanted between `self` and `later`:
    /// stolen ÷ (busy + stolen). Idle time is left out because an idle
    /// CPU cannot be stolen from; counting it would dilute the share by
    /// however idle the program happened to be. The counters tick every
    /// 10 ms per CPU, so an interval under [`MIN_TICKS`] reads as 0: one
    /// tick more or less would swing its share by several percent.
    pub fn steal_frac_until(&self, later: &CpuTimes) -> f64 {
        let steal = later.steal.saturating_sub(self.steal);
        let wanted = later.busy.saturating_sub(self.busy) + steal;
        if wanted < MIN_TICKS {
            return 0.0;
        }
        steal as f64 / wanted as f64
    }
}

/// Measures the steal share of an interval that starts at [`Meter::start`]
/// (or the last [`Meter::lap`]). Reads as 0 where `/proc/stat` is absent.
pub struct Meter(Option<CpuTimes>);

impl Meter {
    pub fn start() -> Meter {
        Meter(CpuTimes::now())
    }

    /// Steal share since the interval began.
    pub fn share(&self) -> f64 {
        match (&self.0, CpuTimes::now()) {
            (Some(a), Some(b)) => a.steal_frac_until(&b),
            _ => 0.0,
        }
    }

    /// Steal share since the interval began; a new interval starts now.
    pub fn lap(&mut self) -> f64 {
        let now = CpuTimes::now();
        let share = match (&self.0, &now) {
            (Some(a), Some(b)) => a.steal_frac_until(b),
            _ => 0.0,
        };
        self.0 = now;
        share
    }
}

/// Parse the first (aggregate) `cpu` line of a `/proc/stat` image. The
/// first eight fields are user, nice, system, idle, iowait, irq, softirq
/// and steal; guest time is already inside user and nice.
pub fn parse(stat: &str) -> Option<CpuTimes> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if f.len() < 8 {
        return None;
    }
    Some(CpuTimes {
        busy: f[0] + f[1] + f[2] + f[5] + f[6],
        steal: f[7],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_of_wanted_time() {
        let a = parse("cpu  100 0 50 800 0 0 0 50 0 0\ncpu0 1 2 3 4 5 6 7 8\n").unwrap();
        // 150 busy and 50 stolen ticks pass; the 700 idle ones do not count.
        let b = parse("cpu  200 0 100 1500 0 0 0 100 0 0\n").unwrap();
        assert!((a.steal_frac_until(&b) - 0.25).abs() < 1e-12);
        assert_eq!(a.steal_frac_until(&a), 0.0);
        // Ten busy ticks, five stolen: too short to read.
        let c = parse("cpu  105 0 55 900 0 0 0 55 0 0\n").unwrap();
        assert_eq!(a.steal_frac_until(&c), 0.0);
    }

    #[test]
    fn short_or_missing_lines_are_refused() {
        assert_eq!(parse("cpu0 1 2 3\n"), None);
        assert_eq!(parse("cpu  1 2 3 4\n"), None);
        assert_eq!(parse(""), None);
    }
}
