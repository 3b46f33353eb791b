//! Criterion benches for the integer GEMM path: u8×i8 micro-kernels
//! against their f32 twins, at the gate shapes `repro perf` times, plus
//! the int8 layer forward.

use criterion::{criterion_group, criterion_main, Criterion};
use prism_tensor::{igemm, ops, Tensor};

fn mat(rows: usize, cols: usize, seed: f32) -> Tensor {
    Tensor::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 7) as f32 * seed).sin() * 0.5
    })
}

fn bench_igemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("igemm");
    // The perf-suite gate shape: 1024 activation rows x 256-wide
    // projection (k = 256, a multiple of 4, so the packed VNNI tiling
    // is live on machines that have it).
    let x = mat(1024, 256, 0.005);
    let w = mat(256, 256, 0.003);
    let qw = igemm::Int8Matrix::quantize(&w).unwrap();
    let mut block = igemm::RowQuantBlock::new();
    block.encode_into(&x).unwrap();
    let mut out = Tensor::zeros(0, 0);

    g.bench_function("f32_transb_1024x256x256", |bencher| {
        bencher.iter(|| ops::matmul_transb(std::hint::black_box(&x), &w).unwrap());
    });
    // Steady-state kernel cost: activations already rowq-encoded, the
    // shape a spilled hidden state arrives in.
    g.bench_function("int8_rowq_1024x256x256", |bencher| {
        bencher.iter(|| {
            qw.matmul_rowq_into(std::hint::black_box(&block), &mut out)
                .unwrap();
        });
    });
    // End-to-end cost including the encode, what the engine pays when
    // the activation starts as f32.
    let mut scratch = igemm::RowQuantBlock::new();
    g.bench_function("int8_encode_plus_gemm_1024x256x256", |bencher| {
        bencher.iter(|| {
            scratch.encode_into(std::hint::black_box(&x)).unwrap();
            qw.matmul_rowq_into(&scratch, &mut out).unwrap();
        });
    });
    // Odd k keeps the packed tiling empty: the madd fallback path.
    let x_odd = mat(1024, 255, 0.005);
    let w_odd = mat(256, 255, 0.003);
    let qw_odd = igemm::Int8Matrix::quantize(&w_odd).unwrap();
    let mut block_odd = igemm::RowQuantBlock::new();
    block_odd.encode_into(&x_odd).unwrap();
    g.bench_function("int8_rowq_unpacked_1024x255x256", |bencher| {
        bencher.iter(|| {
            qw_odd
                .matmul_rowq_into(std::hint::black_box(&block_odd), &mut out)
                .unwrap();
        });
    });
    g.finish();
}

fn bench_forward_layer_precision(c: &mut Criterion) {
    use prism_model::layer::{forward_layer_with, ForwardScratch};
    use prism_model::{LayerWeights, ModelConfig};

    let mut g = c.benchmark_group("forward_layer_precision");
    // Same hidden-256 single layer the perf suite gates: wide enough
    // for the integer kernels' vector bodies (mini's hidden 32 is not).
    let config = ModelConfig {
        hidden_dim: 256,
        num_heads: 8,
        ffn_dim: 512,
        ..ModelConfig::bge_m3().mini_twin()
    };
    let weights = LayerWeights::generate(&config, 0, 11);
    let iweights = weights.to_int8().unwrap();
    let tokens = 20 * 32;
    let base = Tensor::from_fn(tokens, config.hidden_dim, |r, c| {
        ((r * 7 + c * 3) as f32 * 0.13).sin() * 0.5
    });
    let ranges: Vec<(usize, usize)> = (0..20).map(|i| (i * 32, (i + 1) * 32)).collect();
    let mut scratch = ForwardScratch::new(&config, tokens);
    let mut hidden = base.clone();
    g.bench_function("f32_h256_640tok", |bencher| {
        bencher.iter(|| {
            hidden.data_mut().copy_from_slice(base.data());
            forward_layer_with(&config, &weights, 0, &mut hidden, &ranges, &mut scratch).unwrap();
        });
    });
    g.bench_function("int8_h256_640tok", |bencher| {
        bencher.iter(|| {
            hidden.data_mut().copy_from_slice(base.data());
            forward_layer_with(&config, &iweights, 0, &mut hidden, &ranges, &mut scratch).unwrap();
        });
    });
    g.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_igemm, bench_forward_layer_precision
}
criterion_main!(benches);
