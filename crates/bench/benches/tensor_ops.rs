//! Criterion benches for the tensor kernels: matmul variants, softmax,
//! normalization, and the W4A16 quantized matmul.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prism_tensor::{ops, QuantMatrix, Tensor};

fn mat(rows: usize, cols: usize, seed: f32) -> Tensor {
    Tensor::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 7) as f32 * seed).sin() * 0.5
    })
}

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    // 256 exceeds every tile boundary (KC=64 k-panels, NB=64 column
    // panels), exercising the full cache-blocked path.
    for &n in &[32_usize, 64, 128, 256] {
        let a = mat(n, n, 0.013);
        let b = mat(n, n, 0.017);
        g.throughput(Throughput::Elements((n * n * n) as u64));
        g.bench_with_input(BenchmarkId::new("square", n), &n, |bencher, _| {
            bencher
                .iter(|| ops::matmul(std::hint::black_box(&a), std::hint::black_box(&b)).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("transb", n), &n, |bencher, _| {
            bencher.iter(|| {
                ops::matmul_transb(std::hint::black_box(&a), std::hint::black_box(&b)).unwrap()
            });
        });
    }
    // Allocation-free `_into` variant with a reused output tensor.
    let a = mat(640, 64, 0.013);
    let b = mat(64, 64, 0.017);
    let mut out = prism_tensor::Tensor::zeros(640, 64);
    g.bench_function("transb_into_640x64x64_reused", |bencher| {
        bencher.iter(|| {
            ops::matmul_transb_into(std::hint::black_box(&a), &b, &mut out).unwrap();
        });
    });
    g.finish();
}

fn bench_quant_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("quant_matmul");
    // Weight shapes of the mini transformer layer.
    let w = mat(64, 32, 0.011);
    let q = QuantMatrix::quantize(&w).unwrap();
    let x = mat(640, 32, 0.007); // 20 candidates x 32 tokens
    g.bench_function("dense_transb_640x32x64", |bencher| {
        bencher.iter(|| ops::matmul_transb(std::hint::black_box(&x), &w).unwrap());
    });
    g.bench_function("q4_transb_640x32x64", |bencher| {
        bencher.iter(|| q.matmul_transb(std::hint::black_box(&x)).unwrap());
    });
    // Paper-mini projection: the fused nibble-decode panel path across
    // many k-panels.
    let wl = mat(256, 256, 0.003);
    let ql = QuantMatrix::quantize(&wl).unwrap();
    let xl = mat(512, 256, 0.005);
    g.bench_function("dense_transb_512x256x256", |bencher| {
        bencher.iter(|| ops::matmul_transb(std::hint::black_box(&xl), &wl).unwrap());
    });
    g.bench_function("q4_fused_transb_512x256x256", |bencher| {
        bencher.iter(|| ql.matmul_transb(std::hint::black_box(&xl)).unwrap());
    });
    g.finish();
}

fn bench_strided_attention_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("strided");
    // One attention head's shapes at mini scale: s=32 tokens, hd=8, packed
    // into a [tokens, 32] buffer (row stride 32, column offset 8).
    let d = 32;
    let q = mat(32, d, 0.019);
    let k = mat(32, d, 0.023);
    let mut logits = vec![0.0_f32; 32 * 32];
    g.bench_function("qk_logits_32x8x32", |bencher| {
        bencher.iter(|| {
            ops::gemm_transb_strided(
                std::hint::black_box(&q.data()[8..]),
                d,
                std::hint::black_box(&k.data()[8..]),
                d,
                &mut logits,
                32,
                32,
                8,
                32,
            );
        });
    });
    let mut out = mat(32, d, 0.0);
    g.bench_function("attn_value_32x32x8", |bencher| {
        bencher.iter(|| {
            ops::gemm_strided(
                std::hint::black_box(&logits),
                32,
                std::hint::black_box(&q.data()[8..]),
                d,
                &mut out.data_mut()[8..],
                d,
                32,
                32,
                8,
            );
        });
    });
    g.finish();
}

fn bench_rowwise_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("rowwise");
    let base = mat(640, 64, 0.019);
    let gain = vec![1.0_f32; 64];
    let bias = vec![0.0_f32; 64];
    g.bench_function("softmax_640x64", |bencher| {
        bencher.iter_batched(
            || base.clone(),
            |mut t| ops::softmax_rows_inplace(&mut t).unwrap(),
            criterion::BatchSize::SmallInput,
        );
    });
    g.bench_function("rms_norm_640x64", |bencher| {
        bencher.iter_batched(
            || base.clone(),
            |mut t| ops::rms_norm_inplace(&mut t, &gain, 1e-6).unwrap(),
            criterion::BatchSize::SmallInput,
        );
    });
    g.bench_function("layer_norm_640x64", |bencher| {
        bencher.iter_batched(
            || base.clone(),
            |mut t| ops::layer_norm_inplace(&mut t, &gain, &bias, 1e-6).unwrap(),
            criterion::BatchSize::SmallInput,
        );
    });
    g.bench_function("silu_640x64", |bencher| {
        bencher.iter_batched(
            || base.clone(),
            |mut t| ops::silu_inplace(&mut t),
            criterion::BatchSize::SmallInput,
        );
    });
    g.bench_function("gelu_640x64", |bencher| {
        bencher.iter_batched(
            || base.clone(),
            |mut t| ops::gelu_inplace(&mut t),
            criterion::BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_forward_layer(c: &mut Criterion) {
    use prism_model::layer::{forward_layer_with, ForwardScratch};
    use prism_model::{LayerWeights, ModelConfig};

    let mut g = c.benchmark_group("forward_layer");
    // Paper-mini twin: 20 candidates x 32 tokens through one layer.
    let config = ModelConfig::bge_m3().mini_twin();
    let weights = LayerWeights::generate(&config, 0, 11);
    let qweights = weights.quantize().unwrap();
    let tokens = 20 * 32;
    let base = Tensor::from_fn(tokens, config.hidden_dim, |r, c| {
        ((r * 7 + c * 3) as f32 * 0.13).sin() * 0.5
    });
    let ranges: Vec<(usize, usize)> = (0..20).map(|i| (i * 32, (i + 1) * 32)).collect();
    let mut scratch = ForwardScratch::new(&config, tokens);
    let mut hidden = base.clone();
    g.bench_function("mini_640tok_scratch", |bencher| {
        bencher.iter(|| {
            hidden.data_mut().copy_from_slice(base.data());
            forward_layer_with(&config, &weights, 0, &mut hidden, &ranges, &mut scratch).unwrap();
        });
    });
    g.bench_function("mini_640tok_scratch_q4", |bencher| {
        bencher.iter(|| {
            hidden.data_mut().copy_from_slice(base.data());
            forward_layer_with(&config, &qweights, 0, &mut hidden, &ranges, &mut scratch).unwrap();
        });
    });
    g.finish();
}

fn bench_rowq_codec(c: &mut Criterion) {
    use prism_tensor::igemm::RowQuantBlock;
    let mut g = c.benchmark_group("rowq");
    // One paper-mini spilled chunk (128 rows x 256 cols) and one
    // test-scale chunk (40 rows x 16 cols).
    for &(rows, cols) in &[(40_usize, 16_usize), (128, 256)] {
        let src = mat(rows, cols, 0.019);
        let mut block = RowQuantBlock::encode(&src).unwrap();
        g.throughput(Throughput::Elements((rows * cols) as u64));
        g.bench_with_input(
            BenchmarkId::new("encode", format!("{rows}x{cols}")),
            &rows,
            |bencher, _| {
                bencher.iter(|| block.encode_into(std::hint::black_box(&src)).unwrap());
            },
        );
        let mut back = Tensor::zeros(rows, cols);
        g.bench_with_input(
            BenchmarkId::new("decode", format!("{rows}x{cols}")),
            &rows,
            |bencher, _| {
                bencher.iter(|| std::hint::black_box(&block).decode_into(&mut back).unwrap());
            },
        );
    }
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
    targets = bench_matmul, bench_quant_matmul, bench_strided_attention_kernels,
        bench_rowwise_ops, bench_forward_layer, bench_rowq_codec
}
criterion_main!(benches);
