//! One microbenchmark per layer, each in that layer's own unit, calling
//! only the layer's public functions. Every rate is the median over
//! short windows, so one preempted window does not move it.

use crate::stats::median;
use bytes::Bytes;
use mwp_blockmat::fill::random_block;
use mwp_blockmat::payload::SharedPayloads;
use mwp_blockmat::{Block, BlockMatrix};
use mwp_msg::sched::{JobDone, JobExecutor, JobScheduler};
use mwp_msg::session::{RunExit, RUN_ABORT, RUN_END};
use mwp_msg::transport::write_frame_to;
use mwp_msg::{checksum, Frame, FrameKind, OnePort, Session, Tag, TransportMode, WorkerEndpoint};
use mwp_platform::{Platform, WorkerId};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Windows per rate measurement.
const WINDOWS: usize = 9;
/// Length of one window.
const WINDOW: Duration = Duration::from_millis(25);

/// Median over [`WINDOWS`] windows of `f` calls per second.
fn calls_per_s(mut f: impl FnMut()) -> f64 {
    f();
    let rates: Vec<f64> = (0..WINDOWS)
        .map(|_| {
            let t0 = Instant::now();
            let mut calls = 0u64;
            while t0.elapsed() < WINDOW {
                f();
                calls += 1;
            }
            calls as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates).expect("at least one window")
}

/// Median wall time of `n` calls of `f`, seconds.
fn median_call_s(n: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times).expect("at least one call")
}

/// `Block::gemm_acc` at q = 80 on one thread, GFLOP/s.
pub fn kernel_q80_gflops() -> f64 {
    let q = 80;
    let a = random_block(q, 1);
    let b = random_block(q, 2);
    let mut c = Block::zeros(q);
    calls_per_s(|| c.gemm_acc(black_box(&a), black_box(&b))) * 2.0 * (q * q * q) as f64 / 1e9
}

/// `SharedPayloads::new` over `m` (the serialization of a whole operand
/// into one shared buffer), GB/s of payload built.
pub fn payload_build_gbps(m: &BlockMatrix) -> f64 {
    let bytes = m.byte_len() as f64;
    bytes / median_call_s(7, || drop(black_box(SharedPayloads::new(m)))) / 1e9
}

fn block_frame(q: usize) -> Frame {
    Frame::new(
        Tag::new(FrameKind::BlockA, 0, 0),
        Bytes::from(random_block(q, 3).to_bytes()),
    )
}

/// `write_frame_to` of a q = 80 block frame with its CRC32C trailer into
/// a reused memory buffer, GB/s of payload.
pub fn frame_encode_crc_gbps() -> f64 {
    let frame = block_frame(80);
    let mut sink = Vec::with_capacity(frame.wire_len() + 16);
    let rate = calls_per_s(|| {
        sink.clear();
        write_frame_to(&mut sink, black_box(&frame), true).expect("memory sink");
    });
    rate * frame.payload.len() as f64 / 1e9
}

/// `checksum::crc32c` over one q = 80 block payload, GB/s.
pub fn crc_gbps() -> f64 {
    let payload = random_block(80, 4).to_bytes();
    calls_per_s(|| {
        black_box(checksum::crc32c(black_box(&payload)));
    }) * payload.len() as f64
        / 1e9
}

/// The benchmark's echo worker: returns every data frame of a run to the
/// master unchanged, as a result frame. A run without data frames leaves
/// it idle until the run ends.
fn echo(_q: u32, ep: &WorkerEndpoint) -> RunExit {
    loop {
        let Ok(frame) = ep.recv() else {
            return RunExit::Terminate;
        };
        match frame.tag.kind {
            FrameKind::Shutdown => return RunExit::Terminate,
            FrameKind::Control if frame.tag.i == RUN_END || frame.tag.i == RUN_ABORT => {
                return RunExit::Completed
            }
            _ => ep.send(Frame::new(
                Tag {
                    kind: FrameKind::CResult,
                    ..frame.tag
                },
                frame.payload,
            )),
        }
    }
}

/// Echo frames through the socket pumps of a loopback TCP session:
/// `(GB/s of q = 80 payload moved both ways with 8 frames in flight,
/// µs per round trip of one q = 20 frame)`. Returns `None` if an echoed
/// frame came back altered or the link failed.
pub fn pump() -> Option<(f64, f64)> {
    let pf = Platform::homogeneous(1, 1.0, 1.0, 60).expect("valid platform");
    let session = Session::spawn_with_transport(&pf, 0.0, TransportMode::Tcp, |_, _| echo);
    let master = session.master();
    let w = WorkerId(0);
    let mut intact = true;
    let mut round = |frame: &Frame, n: usize| {
        for _ in 0..n {
            master.send(w, frame.clone(), 1);
        }
        for _ in 0..n {
            match master.recv(w, 1) {
                Ok((back, _)) => intact &= back.payload == frame.payload,
                Err(_) => intact = false,
            }
        }
    };

    let big = block_frame(80);
    let epoch = session.begin_run(1, 80);
    const IN_FLIGHT: usize = 8;
    let gbps =
        calls_per_s(|| round(&big, IN_FLIGHT)) * (2 * IN_FLIGHT * big.payload.len()) as f64 / 1e9;
    session.finish_run(1, epoch);

    let small = block_frame(20);
    let epoch = session.begin_run(1, 20);
    let frame_us = median_call_s(2000, || round(&small, 1)) * 1e6;
    session.finish_run(1, epoch);
    session.shutdown();
    intact.then_some((gbps, frame_us))
}

/// `OnePort::acquire` and release: `(ns uncontended, ns per acquire with
/// two threads taking turns)`.
pub fn port_acquire_ns() -> (f64, f64) {
    let port = OnePort::new();
    let alone = 1e9 / calls_per_s(|| drop(black_box(port.acquire())));
    // Each thread counts its own acquires until the window closes; a
    // contended hand-off costs microseconds, so windows bound the time.
    let pair: Vec<f64> = (0..WINDOWS)
        .map(|_| {
            let t0 = Instant::now();
            let calls: u64 = std::thread::scope(|s| {
                let threads: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            let mut n = 0u64;
                            while t0.elapsed() < WINDOW {
                                drop(black_box(port.acquire()));
                                n += 1;
                            }
                            n
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .map(|t| t.join().expect("port thread"))
                    .sum()
            });
            t0.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    (alone, median(&pair).expect("windows"))
}

/// `Session::begin_run` → `finish_run` on 2 loopback TCP workers that
/// get no data frame in the run, µs.
pub fn run_empty_us() -> f64 {
    let pf = Platform::homogeneous(2, 1.0, 1.0, 60).expect("valid platform");
    let session = Session::spawn_with_transport(&pf, 0.0, TransportMode::Tcp, |_, _| echo);
    let us = median_call_s(2000, || {
        let epoch = session.begin_run(2, 0);
        session.finish_run(2, epoch);
    }) * 1e6;
    session.shutdown();
    us
}

/// A job executor that does no work.
struct Noop;

impl JobExecutor<(), ()> for Noop {
    fn execute(&self, jobs: Vec<()>) -> Vec<JobDone<()>> {
        jobs.into_iter()
            .map(|()| JobDone {
                result: (),
                blocks_moved: 0,
                run_gen: 0,
            })
            .collect()
    }
}

/// `JobScheduler::submit` until a dispatcher starts the job, with a no-op
/// executor and one job at a time, µs.
pub fn sched_dispatch_us() -> f64 {
    let sched = JobScheduler::spawn(1, Arc::new(Noop));
    let waits: Vec<f64> = (0..2000)
        .map(|_| sched.submit(()).wait().report.queue_wait.as_secs_f64())
        .collect();
    sched.shutdown();
    median(&waits).expect("jobs") * 1e6
}
