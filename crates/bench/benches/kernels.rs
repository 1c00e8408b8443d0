//! Substrate kernels: the real `q × q` block GEMM (the paper's unit of
//! computation) and the end-to-end threaded runtime.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mwp_blockmat::fill::{random_block, random_matrix};
use mwp_blockmat::gemm::{gemm_parallel, gemm_serial};
use mwp_blockmat::Block;
use mwp_core::runtime::run_holm;
use mwp_core::session::RuntimeSession;
use mwp_platform::Platform;
use std::hint::black_box;

fn bench_block_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("block_gemm");
    for q in [40usize, 80, 100] {
        let a = random_block(q, 1);
        let b_blk = random_block(q, 2);
        let flops = 2 * q * q * q;
        g.throughput(Throughput::Elements(flops as u64));
        // One series per runnable kernel (scalar always; avx2 and avx512
        // where the CPU supports them), plus the dispatched default and
        // the oracle.
        for kernel in mwp_blockmat::kernel::available() {
            g.bench_with_input(BenchmarkId::new(kernel.name(), q), &q, |bch, _| {
                let mut cblk = Block::zeros(q);
                bch.iter(|| cblk.gemm_acc_with(kernel, black_box(&a), black_box(&b_blk)))
            });
        }
        g.bench_with_input(BenchmarkId::new("dispatched", q), &q, |bch, _| {
            let mut cblk = Block::zeros(q);
            bch.iter(|| cblk.gemm_acc(black_box(&a), black_box(&b_blk)))
        });
        g.bench_with_input(BenchmarkId::new("naive", q), &q, |bch, _| {
            let mut cblk = Block::zeros(q);
            bch.iter(|| cblk.gemm_acc_naive(black_box(&a), black_box(&b_blk)))
        });
    }
    g.finish();
}

fn bench_matrix_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("matrix_gemm");
    g.sample_size(10);
    let q = 40;
    let a = random_matrix(6, 6, q, 1);
    let b = random_matrix(6, 6, q, 2);
    // Clone a pre-generated C per iteration so the timing measures the
    // product, not the RNG.
    let c0 = random_matrix(6, 6, q, 3);
    g.bench_function("serial_6x6_q40", |bch| {
        bch.iter(|| {
            let mut cmat = c0.clone();
            gemm_serial(&mut cmat, black_box(&a), &b);
            cmat
        })
    });
    g.bench_function("rayon_6x6_q40", |bch| {
        bch.iter(|| {
            let mut cmat = c0.clone();
            gemm_parallel(&mut cmat, black_box(&a), &b);
            cmat
        })
    });
    g.finish();
}

fn bench_runtime(c: &mut Criterion) {
    let mut g = c.benchmark_group("threaded_runtime");
    g.sample_size(10);
    let pf = Platform::homogeneous(4, 4.0, 1.0, 60).expect("valid");
    let q = 20;
    let a = random_matrix(6, 6, q, 10);
    let b = random_matrix(6, 8, q, 11);
    let c0 = random_matrix(6, 8, q, 12);
    g.bench_function("holm_6x6x8_q20", |bch| {
        bch.iter(|| {
            run_holm(black_box(&pf), &a, &b, c0.clone(), 0.0)
                .expect("runtime succeeds")
                .blocks_moved
        })
    });
    // One persistent session across the whole sweep: each iteration is a
    // RUN_BEGIN/RUN_END-delimited run on already-parked workers, so the
    // delta against `holm_6x6x8_q20` is the per-call spawn/join cost.
    let session = RuntimeSession::new(&pf, 0.0);
    g.bench_function("holm_session_6x6x8_q20", |bch| {
        bch.iter(|| {
            session
                .run_holm(black_box(&a), &b, c0.clone())
                .expect("runtime succeeds")
                .blocks_moved
        })
    });
    g.finish();
}

criterion_group!(benches, bench_block_gemm, bench_matrix_gemm, bench_runtime);
criterion_main!(benches);
