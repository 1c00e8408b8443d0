//! The traced run's spans: the benchmark's own spans around each call
//! into a layer, plus the program's existing spans (master port, worker
//! compute, pack and kernel) folded in through an in-process capture.
//! Everything is held in memory and written out once, at the end.
//!
//! The capture alternates with untraced stretches on the same warm
//! session, so the traced and untraced operation times that give
//! `trace.overhead` share one session's thread placement.

use crate::stats::median;
use mwp_trace::record::{self, Capture};
use mwp_trace::{ActivityKind, Resource, Trace};
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Length of one traced or untraced stretch. A stretch ends with the
/// first operation that completes after it, so a paper-scale operation
/// (about 0.5 s) alternates one by one.
const STRETCH: Duration = Duration::from_millis(100);

/// One benchmark span, in seconds on the program's trace clock.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

/// Clock and span store. When off it is only a clock: no capture, and
/// no span is kept.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// Trace-clock reading at `epoch`, so benchmark and program spans
    /// share one timeline.
    offset: f64,
    /// Start of the current stretch, once [`Tracer::begin`] was called.
    stretch: Option<Instant>,
    /// The capture of the current stretch, when it is a traced one.
    capture: Option<Capture>,
    /// Program spans of the traced stretches already closed.
    trace: Trace,
    spans: Vec<Span>,
    /// Operation times, seconds, in traced and in untraced stretches.
    traced_ops: Vec<f64>,
    untraced_ops: Vec<f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        let offset = if enabled { record::now().value() } else { 0.0 };
        Tracer {
            enabled,
            epoch: Instant::now(),
            offset,
            stretch: None,
            capture: None,
            trace: Trace::default(),
            spans: Vec::new(),
            traced_ops: Vec::new(),
            untraced_ops: Vec::new(),
        }
    }

    /// Open the first traced stretch (when enabled). Workloads call this
    /// right before their timed loop, so set-up is not captured.
    pub fn begin(&mut self) {
        if self.enabled && self.stretch.is_none() {
            self.stretch = Some(Instant::now());
            self.capture = Some(Capture::begin());
        }
    }

    /// Seconds on the trace clock.
    pub fn now(&self) -> f64 {
        self.at(Instant::now())
    }

    /// `instant` on the trace clock.
    pub fn at(&self, instant: Instant) -> f64 {
        let since = match instant.checked_duration_since(self.epoch) {
            Some(d) => d.as_secs_f64(),
            None => -(self.epoch - instant).as_secs_f64(),
        };
        self.offset + since
    }

    /// Keep a benchmark span (dropped outside a traced stretch).
    pub fn span(&mut self, name: &'static str, start: f64, end: f64) {
        if self.capture.is_some() {
            self.spans.push(Span { name, start, end });
        }
    }

    /// Record one timed operation: its span, and its time in the traced
    /// or untraced set. Once the stretch is over, the next one starts
    /// with the capture switched the other way.
    pub fn op(&mut self, name: &'static str, start: f64, end: f64) {
        let Some(stretch) = self.stretch else { return };
        if self.capture.is_some() {
            self.traced_ops.push(end - start);
        } else {
            self.untraced_ops.push(end - start);
        }
        self.span(name, start, end);
        if stretch.elapsed() >= STRETCH {
            match self.capture.take() {
                Some(c) => self.trace.activities.extend(c.end().activities),
                None => self.capture = Some(Capture::begin()),
            }
            self.stretch = Some(Instant::now());
        }
    }

    /// Median traced over median untraced operation time.
    pub fn overhead(&self) -> f64 {
        match (median(&self.traced_ops), median(&self.untraced_ops)) {
            (Some(t), Some(u)) => t / u,
            _ => f64::NAN,
        }
    }

    /// Stop capturing; the program's trace and the benchmark's spans.
    pub fn finish(mut self) -> (Trace, Vec<Span>) {
        if let Some(c) = self.capture.take() {
            self.trace.activities.extend(c.end().activities);
        }
        (self.trace, self.spans)
    }
}

/// Merge intervals into a sorted, disjoint list.
fn merged(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.retain(|(s, e)| e > s);
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of `iv ∩ window`, both given as intervals (merged here).
fn covered(iv: Vec<(f64, f64)>, window: &[(f64, f64)]) -> f64 {
    let iv = merged(iv);
    let mut total = 0.0;
    let mut k = 0;
    for &(ws, we) in window {
        while k < iv.len() && iv[k].1 <= ws {
            k += 1;
        }
        let mut i = k;
        while i < iv.len() && iv[i].0 < we {
            total += iv[i].1.min(we) - iv[i].0.max(ws);
            i += 1;
        }
    }
    total
}

/// The per-layer breakdown of a traced run. The window is the union of
/// the benchmark's `op` spans; every figure is per timed operation or a
/// share of the window.
pub fn breakdown(
    trace: &Trace,
    spans: &[Span],
    op: &str,
    workers: usize,
) -> Vec<(&'static str, f64, &'static str)> {
    let window = merged(
        spans
            .iter()
            .filter(|s| s.name == op)
            .map(|s| (s.start, s.end))
            .collect(),
    );
    let ops = spans.iter().filter(|s| s.name == op).count().max(1) as f64;
    let wall: f64 = window.iter().map(|(s, e)| e - s).sum();
    let iv = |keep: &dyn Fn(Resource, ActivityKind) -> bool| -> Vec<(f64, f64)> {
        trace
            .activities
            .iter()
            .filter(|a| keep(a.resource, a.kind))
            .map(|a| (a.start.value(), a.end.value()))
            .collect()
    };
    // Spans of one kind may overlap (two workers, several waiters), so
    // their in-window durations add instead of merging.
    let sum = |kind: ActivityKind| -> f64 {
        trace
            .activities
            .iter()
            .filter(|a| a.kind == kind)
            .map(|a| covered(vec![(a.start.value(), a.end.value())], &window))
            .fold(0.0, |acc, d| acc + d)
    };
    let port = covered(
        iv(&|r, k| {
            r == Resource::MasterPort && matches!(k, ActivityKind::Send | ActivityKind::Recv)
        }),
        &window,
    );
    let compute: f64 = (0..workers)
        .map(|w| {
            covered(
                iv(&|r, k| {
                    r == Resource::Worker(mwp_platform::WorkerId(w)) && k == ActivityKind::Compute
                }),
                &window,
            )
        })
        .sum();
    // Lifecycle spans bracket whole runs and would attribute everything.
    let attributed = covered(iv(&|_, k| k != ActivityKind::Run), &window);
    let frac = |x: f64| if wall > 0.0 { x / wall } else { f64::NAN };
    vec![
        ("trace.port_busy_frac", frac(port), "fraction"),
        ("trace.port_wait_s", sum(ActivityKind::Wait) / ops, "s"),
        (
            "trace.worker_kernel_s",
            sum(ActivityKind::Kernel) / ops,
            "s",
        ),
        ("trace.worker_pack_s", sum(ActivityKind::Pack) / ops, "s"),
        (
            "trace.worker_idle_frac",
            1.0 - frac(compute) / workers as f64,
            "fraction",
        ),
        (
            "trace.unattributed_frac",
            1.0 - frac(attributed),
            "fraction",
        ),
    ]
}

/// Write the program's spans and the benchmark's spans as one Chrome
/// trace (`pid` 1 is the program, `pid` 2 the benchmark).
pub fn write_chrome(path: &Path, trace: &Trace, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[\n")?;
    let mut first = true;
    let mut sep = |out: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
        if !std::mem::take(&mut first) {
            out.write_all(b",\n")?;
        }
        Ok(())
    };
    for a in &trace.activities {
        sep(&mut out)?;
        out.write_all(mwp_trace::chrome::event_json(a).as_bytes())?;
    }
    for s in spans {
        sep(&mut out)?;
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":2,\"tid\":1}}",
            s.name,
            s.start * 1e6,
            (s.end - s.start) * 1e6
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwp_platform::WorkerId;
    use mwp_trace::{Activity, SimTime};

    fn act(r: Resource, k: ActivityKind, s: f64, e: f64) -> Activity {
        Activity::new(r, k, WorkerId(0), SimTime(s), SimTime(e), "x".into())
    }

    #[test]
    fn coverage_merges_and_clips_to_the_window() {
        let iv = vec![(0.5, 2.0), (1.0, 1.5), (3.0, 4.0), (9.0, 9.5)];
        // Window [1, 3.5) ∪ [5, 6): covered [1, 2) and [3, 3.5).
        assert!((covered(iv, &[(1.0, 3.5), (5.0, 6.0)]) - 1.5).abs() < 1e-12);
        assert_eq!(
            merged(vec![(2.0, 3.0), (0.0, 1.0), (1.0, 2.5)]),
            vec![(0.0, 3.0)]
        );
    }

    #[test]
    fn stretches_alternate_and_give_the_overhead() {
        let mut t = Tracer::new(true);
        // Before `begin`, nothing is kept.
        t.op("op", 0.0, 9.0);
        t.begin();
        t.op("op", 0.0, 1.0);
        std::thread::sleep(STRETCH);
        // Still traced; it closes the stretch.
        t.op("op", 1.0, 3.0);
        t.op("op", 3.0, 4.0);
        t.span("check", 4.0, 4.5);
        // Traced ops took 1 and 2, the untraced one 1.
        assert_eq!(t.overhead(), 1.5);
        let (_, spans) = t.finish();
        let ends: Vec<f64> = spans.iter().map(|s| s.end).collect();
        assert_eq!(ends, vec![1.0, 3.0]);
    }

    #[test]
    fn breakdown_accounts_for_the_window() {
        // One 10 s op: port busy 2 s, worker 0 computes 6 s (4 s kernel,
        // 1 s pack), 1 s waiting on the port; [9, 10) has no span.
        let trace = Trace {
            activities: vec![
                act(Resource::MasterPort, ActivityKind::Send, 0.0, 2.0),
                act(Resource::MasterPort, ActivityKind::Wait, 8.0, 9.0),
                act(
                    Resource::Worker(WorkerId(0)),
                    ActivityKind::Compute,
                    2.0,
                    8.0,
                ),
                act(
                    Resource::WorkerDetail(WorkerId(0)),
                    ActivityKind::Kernel,
                    2.0,
                    6.0,
                ),
                act(
                    Resource::WorkerDetail(WorkerId(0)),
                    ActivityKind::Pack,
                    6.0,
                    7.0,
                ),
                act(Resource::Master, ActivityKind::Run, 0.0, 10.0),
            ],
        };
        let spans = vec![Span {
            name: "op",
            start: 0.0,
            end: 10.0,
        }];
        let got = breakdown(&trace, &spans, "op", 2);
        let get = |n: &str| got.iter().find(|m| m.0 == n).unwrap().1;
        assert!((get("trace.port_busy_frac") - 0.2).abs() < 1e-12);
        assert!((get("trace.port_wait_s") - 1.0).abs() < 1e-12);
        assert!((get("trace.worker_kernel_s") - 4.0).abs() < 1e-12);
        assert!((get("trace.worker_pack_s") - 1.0).abs() < 1e-12);
        // Two workers over 10 s, 6 s of compute: 70 % idle.
        assert!((get("trace.worker_idle_frac") - 0.7).abs() < 1e-12);
        assert!((get("trace.unattributed_frac") - 0.1).abs() < 1e-12);
    }
}
