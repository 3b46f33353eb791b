//! Embedding-cache bench: hit/miss throughput on Zipf-skewed token
//! slices at the paper's 10% capacity point versus a generous 50% cache,
//! and the miss fetch itself under the paper's 16 MB/s throttle — one
//! vectored read of the distinct rows against one paced read per row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prism_storage::{
    Container, ContainerWriter, DiskRowSource, EmbeddingCache, RowSource, Throttle,
};
use prism_tensor::Tensor;
use prism_workload::ZipfSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(vocab: usize, dim: usize) -> (std::path::PathBuf, Container) {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "prism-bench-embcache-{}-{vocab}.prsm",
        std::process::id()
    ));
    let table = Tensor::from_fn(vocab, dim, |r, c| ((r * dim + c) as f32 * 0.001).sin());
    let mut w = ContainerWriter::create(&path);
    w.add_f32("embedding", &table);
    w.finish().expect("write");
    let c = Container::open(&path).expect("open");
    (path, c)
}

fn bench_cache(c: &mut Criterion) {
    let vocab = 4096;
    let dim = 64;
    let (path, container) = setup(vocab, dim);
    let mut g = c.benchmark_group("embedding_cache");

    for &capacity_pct in &[10_usize, 50] {
        let source =
            DiskRowSource::new(&container, "embedding", Throttle::unlimited()).expect("source");
        let mut cache = EmbeddingCache::new(source, vocab * capacity_pct / 100);
        let zipf = ZipfSampler::new(vocab, 1.05);
        let mut rng = StdRng::seed_from_u64(5);
        let tokens: Vec<u32> = (0..512).map(|_| zipf.sample(&mut rng) as u32).collect();
        // Warm up.
        let mut out = vec![0.0_f32; tokens.len() * dim];
        cache.embed_into(&tokens, &mut out).unwrap();
        g.bench_with_input(
            BenchmarkId::new("zipf_embed_512", capacity_pct),
            &capacity_pct,
            |bencher, _| {
                bencher.iter(|| {
                    cache
                        .embed_into(std::hint::black_box(&tokens), &mut out)
                        .unwrap();
                });
            },
        );
    }

    // The miss path alone: 256 scattered rows (64 KiB, 4 ms of device
    // time at 16 MB/s), fetched by one vectored read or row by row.
    let source = DiskRowSource::new(&container, "embedding", Throttle::bandwidth(16_000_000))
        .expect("source");
    let wanted: Vec<(u32, u32)> = (0..256).map(|i| (i * 13, i)).collect();
    let mut out = vec![0.0_f32; wanted.len() * dim];
    g.bench_function("throttled_miss_fetch_256/batched", |bencher| {
        bencher.iter(|| {
            source
                .read_rows(std::hint::black_box(&wanted), &mut out)
                .unwrap()
        });
    });
    g.bench_function("throttled_miss_fetch_256/per_row", |bencher| {
        bencher.iter(|| {
            for row in std::hint::black_box(&wanted) {
                source
                    .read_rows(std::slice::from_ref(row), &mut out)
                    .unwrap();
            }
        });
    });
    g.finish();
    std::fs::remove_file(&path).ok();
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
    targets = bench_cache
}
criterion_main!(benches);
