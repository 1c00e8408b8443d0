//! The three end-to-end workloads. Each one makes its inputs from the
//! seed and computes its reference once, outside every timed window. It
//! times cold starts (`setup_s`, `peak_heap_mb`) and then checked
//! steady-state operations on several warm sessions in turn, each for
//! its share of the budget.

use crate::alloc;
use crate::stats::{median, percentile_ten_beyond, window_rate, Timings};
use crate::steal::Meter;
use crate::tracing::Tracer;
use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_blockmat::gemm::gemm_serial;
use mwp_blockmat::lu::{lu_blocked_in_place, Dense};
use mwp_blockmat::BlockMatrix;
use mwp_core::runtime::{RunOutcome, RuntimeError};
use mwp_core::serving::{JobSpec, MatrixServer};
use mwp_core::session::RuntimeSession;
use mwp_lu::runtime::{LuRunOutcome, LuSession};
use mwp_msg::sched::{Completed, JobHandle};
use mwp_msg::TransportMode;
use mwp_platform::Platform;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Block side of the paper-scale workloads.
pub const Q: usize = 80;
/// Blocks per side of the paper-scale workloads: 24 × 80 = 1920.
pub const N_BLOCKS: usize = 24;
/// Block side of the serving jobs.
const JOB_Q: usize = 20;
/// Jobs the serving loop keeps outstanding.
const OUTSTANDING: usize = 24;
/// Distinct serving jobs drawn from the seed and cycled through.
const JOB_POOL: usize = 64;
/// Dispatcher threads of the serving workload.
const DISPATCHERS: usize = 2;
/// Window of the `jobs_per_s` window median and of serving's steal share.
const RATE_WINDOW: Duration = Duration::from_millis(250);

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// HoLM 24×24×24 blocks of q = 80 over loopback TCP.
    HolmTcp,
    /// LU of a 24×24-block, q = 80 matrix with µ = 1 over channels.
    LuChan,
    /// A closed loop of single-block q = 20 jobs over loopback TCP.
    ServeTcp,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HolmTcp, Workload::LuChan, Workload::ServeTcp];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HolmTcp => "holm-tcp",
            Workload::LuChan => "lu-chan",
            Workload::ServeTcp => "serve-tcp",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sessions a run measures, one after the other. Each one starts
    /// cold and then gets its share of the timed budget. Where the OS
    /// places a fresh session's threads on the two CPUs sets its speed
    /// for as long as it lives (serving jobs run 1.3–1.9 ms from one
    /// server to the next on a quiet host), so a run pools several.
    pub fn segments(self) -> usize {
        match self {
            Workload::HolmTcp | Workload::LuChan => 9,
            Workload::ServeTcp => 12,
        }
    }

    /// Name of the benchmark span around one timed operation.
    pub fn op_span(self) -> &'static str {
        match self {
            Workload::HolmTcp => "run_holm",
            Workload::LuChan => "lu_run",
            Workload::ServeTcp => "job",
        }
    }

    /// Timed budget of the traced run: about eight paper-scale
    /// operations, half of them traced, or about 200k spans of serving.
    pub fn traced_budget(self) -> Duration {
        match self {
            Workload::HolmTcp | Workload::LuChan => Duration::from_secs(4),
            Workload::ServeTcp => Duration::from_secs(1),
        }
    }
}

/// The platform every workload runs on: 2 workers (the cores of the
/// reference machine), c = 1, w = 20, m = 60 blocks, so HoLM enrolls
/// both workers with µ = 6 (µ² + 4µ = 60).
pub fn platform() -> Platform {
    Platform::homogeneous(2, 1.0, 20.0, 60).expect("valid platform")
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Checked results attempted (cold starts, warm-up and timed).
    pub attempted: u64,
    /// Attempts that returned an error or a wrong result.
    pub failed: u64,
    /// Time of each timed operation, seconds.
    pub ops: Timings,
    /// Construction-to-first-checked-result time of each cold start, s.
    pub setups: Timings,
    /// Heap high-water mark above the pre-construction baseline of each
    /// cold start, bytes.
    pub peak_heap: Vec<f64>,
    /// Runtime-specific figures for the per-layer table.
    pub layer: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Median time of one timed operation with the host's steal taken
    /// out, ms.
    pub fn makespan_ms(&self) -> Option<f64> {
        self.ops.median_unstolen().map(|s| s * 1e3)
    }

    /// Median cold start with the host's steal taken out, s.
    pub fn setup_s(&self) -> Option<f64> {
        self.setups.median_unstolen()
    }

    pub fn peak_heap_mb(&self) -> Option<f64> {
        median(&self.peak_heap).map(|b| b / 1e6)
    }

    /// Time one cold start: `start` builds a session and returns it with
    /// whether its first result checked out. The heap baseline and the
    /// clock are taken before construction; the benchmark's inputs
    /// already exist. The caller settles the steal share of `setups`.
    fn cold_start<S>(&mut self, start: impl FnOnce() -> (S, bool)) -> S {
        let base = alloc::reset_peak();
        let t0 = Instant::now();
        let (session, ok) = start();
        self.setups.push(t0.elapsed().as_secs_f64());
        self.peak_heap
            .push(alloc::peak().saturating_sub(base) as f64);
        self.tally(ok);
        session
    }
}

/// How much of a workload one call runs.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Sessions measured in turn, each started cold, then timed ops.
    pub segments: usize,
    /// Timed steady state, shared evenly by the segments.
    pub budget: Duration,
}

impl Plan {
    fn segment_budget(&self) -> Duration {
        self.budget / self.segments.max(1) as u32
    }
}

/// Run `workload` as `plan` says. `tracer` records the benchmark's spans
/// around each timed call (a no-op when off).
pub fn run(workload: Workload, seed: u64, plan: Plan, tracer: &mut Tracer) -> Report {
    match workload {
        Workload::HolmTcp => holm_tcp(seed, plan, tracer),
        Workload::LuChan => lu_chan(seed, plan, tracer),
        Workload::ServeTcp => serve_tcp(seed, plan, tracer),
    }
}

/// Whether a segment's timed loop should run another operation: always
/// at least one, then until its budget is spent.
fn more(started: Instant, budget: Duration, done: usize) -> bool {
    done == 0 || started.elapsed() < budget
}

/// The seeded HoLM operands and their reference product.
pub struct HolmInputs {
    pub a: BlockMatrix,
    pub b: BlockMatrix,
    pub c0: BlockMatrix,
    pub expect: BlockMatrix,
}

impl HolmInputs {
    /// FLOPs of one product: 2 (rq)(tq)(sq).
    pub const FLOPS: f64 = 2.0 * ((N_BLOCKS * Q) * (N_BLOCKS * Q) * (N_BLOCKS * Q)) as f64;

    /// The left operand A alone (what the payload microbenchmark
    /// serializes).
    pub fn operand(seed: u64) -> BlockMatrix {
        random_matrix(N_BLOCKS, N_BLOCKS, Q, seed.wrapping_mul(3))
    }

    pub fn new(seed: u64) -> Self {
        let s = seed.wrapping_mul(3);
        let a = Self::operand(seed);
        let b = random_matrix(N_BLOCKS, N_BLOCKS, Q, s.wrapping_add(1));
        let c0 = random_matrix(N_BLOCKS, N_BLOCKS, Q, s.wrapping_add(2));
        // The runtime accumulates each C block over k in ascending order
        // with the same kernel as the serial product, so the two agree
        // bit for bit.
        let mut expect = c0.clone();
        gemm_serial(&mut expect, &a, &b);
        HolmInputs { a, b, c0, expect }
    }
}

/// The paper's communication volume of a HoLM run with chunk side µ:
/// every C block goes out and comes back, and each chunk receives a
/// µ-block column of A and a µ-block row of B for each of the t steps.
pub fn holm_volume(r: usize, t: usize, s: usize, mu: usize) -> u64 {
    let chunks = r.div_ceil(mu) * s.div_ceil(mu);
    (2 * r * s + chunks * t * 2 * mu) as u64
}

fn holm_tcp(seed: u64, plan: Plan, tracer: &mut Tracer) -> Report {
    let pf = platform();
    let inp = HolmInputs::new(seed);
    let mut report = Report::default();
    let check = |out: &Result<RunOutcome, RuntimeError>| matches!(out, Ok(o) if same_matrix(&o.c, &inp.expect));

    let (mut packs, mut last) = (0, None);
    for _ in 0..plan.segments {
        // The cold start's product also warms the worker scratch and
        // payload pools for the timed products after it.
        let c = inp.c0.clone();
        let steal = Meter::start();
        let session = report.cold_start(|| {
            let session = RuntimeSession::with_transport(&pf, 0.0, TransportMode::Tcp);
            let ok = check(&session.run_holm(&inp.a, &inp.b, c));
            (session, ok)
        });
        report.setups.settle(steal.share());
        tracer.begin();
        let packs0 = mwp_blockmat::kernel::pack_count();
        let (started, mut done) = (Instant::now(), 0);
        while more(started, plan.segment_budget(), done) {
            let c = inp.c0.clone();
            let steal = Meter::start();
            let t0 = tracer.now();
            let out = session.run_holm(&inp.a, &inp.b, c);
            let t1 = tracer.now();
            report.ops.push(t1 - t0);
            report.ops.settle(steal.share());
            let ok = check(&out);
            tracer.span("check", t1, tracer.now());
            tracer.op(Workload::HolmTcp.op_span(), t0, t1);
            report.tally(ok);
            done += 1;
            if let Ok(o) = out {
                last = Some((o.blocks_moved, o.workers_used, o.chunk_side));
            }
        }
        packs += mwp_blockmat::kernel::pack_count() - packs0;
        session.shutdown();
    }

    if let Some((moved, workers, mu)) = last {
        // The volume is the paper's formula exactly; anything else is a
        // failed check.
        if moved != holm_volume(N_BLOCKS, N_BLOCKS, N_BLOCKS, mu) {
            report.failed += 1;
        }
        let gflops = HolmInputs::FLOPS / report.ops.median_wall().unwrap_or(f64::INFINITY) / 1e9;
        report.layer.extend([
            (
                "pack.count_per_run",
                packs as f64 / report.ops.len() as f64,
                "count",
            ),
            ("holm.blocks_moved", moved as f64, "count"),
            ("holm.workers_used", workers as f64, "count"),
            ("holm.chunk_side", mu as f64, "blocks"),
            ("holm.gflops", gflops, "GFLOP/s"),
        ]);
    }
    report
}

/// Whether two coefficient slices agree bit for bit. A NaN never matches
/// a finite reference here, while `max_abs_diff` reads it as 0.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two block matrices agree bit for bit.
pub fn same_matrix(a: &BlockMatrix, b: &BlockMatrix) -> bool {
    (a.dims(), a.q()) == (b.dims(), b.q())
        && a.iter_blocks()
            .zip(b.iter_blocks())
            .all(|((_, _, x), (_, _, y))| same_bits(x.as_slice(), y.as_slice()))
}

/// Whether packed LU factors have a non-zero, finite pivot everywhere on
/// U's diagonal, i.e. describe a non-singular matrix.
pub fn nonsingular(packed: &Dense) -> bool {
    let n = packed.rows();
    let s = packed.as_slice();
    (0..n).all(|d| {
        let u = s[d * packed.cols() + d];
        u.is_finite() && u != 0.0
    })
}

/// Whether an LU run checks out: it finished, its factors describe a
/// non-singular matrix, and they are bit for bit the serial reference.
pub fn lu_ok(out: &LuRunOutcome, expect: &Dense) -> bool {
    !out.aborted && nonsingular(&out.packed) && same_bits(out.packed.as_slice(), expect.as_slice())
}

fn lu_chan(seed: u64, plan: Plan, tracer: &mut Tracer) -> Report {
    /// Panel width in blocks: the most panel-step messages per FLOP.
    const MU: usize = 1;
    let pf = platform();
    let m = random_diagonally_dominant(N_BLOCKS, Q, seed);
    // The threaded factorization is bit-identical to the serial blocked
    // one of the same panel width.
    let mut expect = Dense::from_blocks(&m);
    lu_blocked_in_place(&mut expect, MU * Q);
    let mut report = Report::default();
    let check = |out: &LuRunOutcome| lu_ok(out, &expect);

    let mut messages = 0;
    for _ in 0..plan.segments {
        let steal = Meter::start();
        let session = report.cold_start(|| {
            let session = LuSession::with_transport(&pf, 0.0, TransportMode::Channel);
            let ok = check(&session.run(&m, MU));
            (session, ok)
        });
        report.setups.settle(steal.share());
        tracer.begin();
        let (started, mut done) = (Instant::now(), 0);
        while more(started, plan.segment_budget(), done) {
            let steal = Meter::start();
            let t0 = tracer.now();
            let out = session.run(&m, MU);
            let t1 = tracer.now();
            report.ops.push(t1 - t0);
            report.ops.settle(steal.share());
            let ok = check(&out);
            tracer.span("check", t1, tracer.now());
            tracer.op(Workload::LuChan.op_span(), t0, t1);
            report.tally(ok);
            done += 1;
            messages = out.messages;
        }
        session.shutdown();
    }

    let n = (N_BLOCKS * Q) as f64;
    let gflops = 2.0 / 3.0 * n * n * n / report.ops.median_wall().unwrap_or(f64::INFINITY) / 1e9;
    report.layer.extend([
        ("lu.messages", messages as f64, "count"),
        ("lu.gflops", gflops, "GFLOP/s"),
    ]);
    report
}

/// What a serving job returns.
type JobResult = Result<RunOutcome, RuntimeError>;

/// The seeded pool of serving jobs and their reference results.
struct Jobs {
    specs: Vec<JobSpec>,
    expect: Vec<BlockMatrix>,
}

impl Jobs {
    fn new(seed: u64) -> Self {
        let (specs, expect) = (0..JOB_POOL as u64)
            .map(|j| {
                let s = seed.wrapping_mul(1000).wrapping_add(3 * j);
                let spec = JobSpec {
                    a: random_matrix(1, 1, JOB_Q, s),
                    b: random_matrix(1, 1, JOB_Q, s.wrapping_add(1)),
                    c: random_matrix(1, 1, JOB_Q, s.wrapping_add(2)),
                    select: false,
                };
                let mut c = spec.c.clone();
                gemm_serial(&mut c, &spec.a, &spec.b);
                (spec, c)
            })
            .unzip();
        Jobs { specs, expect }
    }

    fn check(&self, j: usize, out: &JobResult) -> bool {
        matches!(out, Ok(o) if same_matrix(&o.c, &self.expect[j]))
    }
}

/// The serving closed loop's view of one server: the jobs in flight and
/// the next job of the pool to submit.
struct Loop<'a> {
    server: &'a MatrixServer,
    jobs: &'a Jobs,
    next: usize,
    queue: VecDeque<(usize, Instant, JobHandle<JobResult>)>,
}

impl<'a> Loop<'a> {
    fn fill(server: &'a MatrixServer, jobs: &'a Jobs) -> Self {
        let mut lp = Loop {
            server,
            jobs,
            next: 0,
            queue: VecDeque::with_capacity(OUTSTANDING),
        };
        for _ in 0..OUTSTANDING {
            lp.submit();
        }
        lp
    }

    fn submit(&mut self) {
        let j = self.next % JOB_POOL;
        self.next += 1;
        let handle = self.server.submit(self.jobs.specs[j].clone());
        self.queue.push_back((j, Instant::now(), handle));
    }

    /// Wait for the oldest job; returns its pool index, submit time,
    /// completion and end time, and puts the next job in its place.
    fn turn(&mut self) -> (usize, Instant, Completed<JobResult>, Instant) {
        let (j, at, handle) = self.queue.pop_front().expect("jobs outstanding");
        let done = handle.wait();
        let end = Instant::now();
        self.submit();
        (j, at, done, end)
    }

    /// Wait for every job still in flight; how many checked out and how
    /// many were waited for.
    fn drain(&mut self) -> (u64, u64) {
        let jobs = self.jobs;
        self.queue.drain(..).fold((0, 0), |(ok, n), (j, _, h)| {
            (ok + u64::from(jobs.check(j, &h.wait().result)), n + 1)
        })
    }
}

fn serve_tcp(seed: u64, plan: Plan, tracer: &mut Tracer) -> Report {
    /// Untimed warm-up of each server, until the batching tier settles.
    const WARM: Duration = Duration::from_millis(100);
    /// Cold starts that set up a server, check its first job and shut it
    /// down again: `setup_s` and `peak_heap_mb` are their medians.
    const COLD_STARTS: usize = 60;
    let pf = platform();
    let jobs = Jobs::new(seed);
    let mut report = Report::default();
    let server = || {
        let session = RuntimeSession::with_transport(&pf, 0.0, TransportMode::Tcp);
        MatrixServer::with_options(session, DISPATCHERS, true)
    };
    for k in 0..COLD_STARTS {
        let j = k % JOB_POOL;
        let spec = jobs.specs[j].clone();
        report
            .cold_start(|| {
                let server = server();
                let ok = jobs.check(j, &server.run(spec).result);
                (server, ok)
            })
            .shutdown();
    }
    // A server's cold start mostly waits on threads and sockets, so the
    // guest's steal share, which counts every process on it, does not
    // measure its slowdown: the times stay as measured.
    report.setups.settle(0.0);

    let (mut rates, mut queue_wait, mut service, mut cohort) =
        (Vec::new(), Vec::new(), Vec::new(), 0.0);
    let (mut stale, mut dead) = (0, 0);
    for _ in 0..plan.segments {
        // The warm-up's jobs are the server's first, checked like all.
        let server = server();
        let mut lp = Loop::fill(&server, &jobs);
        let warm = Instant::now();
        while warm.elapsed() < WARM {
            let (j, _, done, _) = lp.turn();
            report.tally(jobs.check(j, &done.result));
        }

        tracer.begin();
        // Jobs take the steal share of the window they completed in; the
        // same windows give the completion rate.
        let (started, mut done_n) = (Instant::now(), 0);
        let (mut steal, mut window, mut in_window) = (Meter::start(), Instant::now(), 0);
        while more(started, plan.segment_budget(), done_n) {
            let (j, at, done, end) = lp.turn();
            tracer.op(Workload::ServeTcp.op_span(), tracer.at(at), tracer.at(end));
            report.ops.push((end - at).as_secs_f64());
            queue_wait.push(done.report.queue_wait.as_secs_f64());
            service.push(done.report.service.as_secs_f64());
            cohort += (done.report.batched_with + 1) as f64;
            report.tally(jobs.check(j, &done.result));
            done_n += 1;
            in_window += 1;
            if window.elapsed() >= RATE_WINDOW {
                rates.push(window_rate(in_window, window.elapsed()));
                report.ops.settle(steal.lap());
                (window, in_window) = (Instant::now(), 0);
            }
        }
        report.ops.settle(steal.lap());
        let (ok, n) = lp.drain();
        report.attempted += n;
        report.failed += n - ok;
        stale += server.stale_rejections();
        dead += server.dead_workers();
        server.shutdown();
    }

    let ms = |v: Option<f64>| v.map_or(f64::NAN, |s| s * 1e3);
    report.layer.extend([
        (
            "serving.jobs_per_s",
            median(&rates).unwrap_or(f64::NAN),
            "1/s",
        ),
        (
            "serving.job_p90_ms",
            ms(percentile_ten_beyond(report.ops.wall(), 0.9)),
            "ms",
        ),
        ("serving.queue_wait_ms", ms(median(&queue_wait)), "ms"),
        ("serving.service_ms", ms(median(&service)), "ms"),
        (
            "serving.cohort_mean",
            cohort / report.ops.len() as f64,
            "jobs",
        ),
        ("serving.stale_rejected", stale as f64, "count"),
        ("serving.dead_workers", dead as f64, "count"),
    ]);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holm_volume_is_the_paper_formula() {
        // 24³ blocks with µ = 6: 16 chunks × 24 steps × 12 blocks, plus C
        // out and back.
        assert_eq!(holm_volume(24, 24, 24, 6), 2 * 576 + 16 * 24 * 12);
        // Ragged edge: 7 × 5 with µ = 3 has 3 × 2 chunks.
        assert_eq!(holm_volume(7, 4, 5, 3), 2 * 35 + 6 * 4 * 6);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("holm"), None);
    }

    #[test]
    fn nonsingular_rejects_a_zero_pivot() {
        let mut d = Dense::identity(3);
        assert!(nonsingular(&d));
        d.as_mut_slice()[4] = 0.0;
        assert!(!nonsingular(&d));
    }

    #[test]
    fn a_nan_result_fails_the_checks() {
        let expect = random_matrix(2, 2, 3, 7);
        let mut got = expect.clone();
        assert!(same_matrix(&got, &expect));
        got.set(4, 1, f64::NAN);
        assert!(!same_matrix(&got, &expect));
        // Bit for bit: a signed zero differs too.
        assert!(!same_bits(&[0.0], &[-0.0]));

        let packed = Dense::identity(3);
        let out = |packed: Dense| LuRunOutcome {
            packed,
            wall: Duration::ZERO,
            messages: 0,
            workers_used: 2,
            aborted: false,
        };
        assert!(lu_ok(&out(packed.clone()), &packed));
        let mut bad = packed.clone();
        bad.as_mut_slice()[4] = f64::NAN;
        assert!(!lu_ok(&out(bad.clone()), &packed));
        // A NaN pivot fails even where the reference shares it.
        assert!(!lu_ok(&out(bad.clone()), &bad));
        let mut aborted = out(packed.clone());
        aborted.aborted = true;
        assert!(!lu_ok(&aborted, &packed));
    }
}
