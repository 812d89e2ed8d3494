//! Criterion bench behind Figure 4: host cost of interval vs detailed
//! simulation under each component-isolation configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iss_sim::experiments::fig4_variants;
use iss_sim::runner::{run, CoreModel};
use iss_sim::workload::WorkloadSpec;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_components");
    group.sample_size(10);
    let spec = WorkloadSpec::single("gcc", 20_000);
    for (name, machine) in fig4_variants() {
        let config = machine.resolve(1).expect("fig4 presets resolve");
        for model in [CoreModel::Interval, CoreModel::Detailed] {
            group.bench_with_input(BenchmarkId::new(name, model.name()), &model, |b, &model| {
                b.iter(|| run(model, &config, &spec, 42))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
