//! Criterion micro-benchmarks of the runtime: the context bit vector,
//! batch routing, and full engine throughput on a small Linear Road
//! stream in both execution modes.

use caesar_algebra::context_table::ContextTable;
use caesar_core::prelude::*;
use caesar_linear_road::{build_lr_system, LinearRoadConfig, TrafficSim};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn bench_context_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("context_table");
    group.bench_function("admit_lookup", |b| {
        let mut table = ContextTable::new(16, 0);
        table.partition_mut(PartitionId(3)).initiate(5, 10);
        b.iter(|| black_box(table.admits(PartitionId(3), 5, black_box(42))))
    });
    group.bench_function("initiate_terminate_cycle", |b| {
        let mut table = ContextTable::new(16, 0);
        let mut t = 1u64;
        b.iter(|| {
            let pc = table.partition_mut(PartitionId(0));
            pc.initiate(3, t);
            pc.terminate(3, t + 1);
            t += 2;
            black_box(pc.bits())
        })
    });
    group.finish();
}

fn bench_engine_throughput(c: &mut Criterion) {
    let mut sim = TrafficSim::new(LinearRoadConfig {
        roads: 1,
        segments_per_road: 4,
        duration: 300,
        seed: 99,
        ..Default::default()
    });
    let events = sim.generate();
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.sample_size(20);
    for (label, mode) in [
        ("context_aware", ExecutionMode::ContextAware),
        ("context_independent", ExecutionMode::ContextIndependent),
    ] {
        group.bench_function(format!("lr_300s_{label}"), |b| {
            b.iter(|| {
                let mut system = build_lr_system(
                    5,
                    OptimizerConfig::default(),
                    EngineConfig::builder().mode(mode).build(),
                );
                let report = system.run_stream(events.clone()).unwrap();
                black_box(report.events_out)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_context_table, bench_engine_throughput);
criterion_main!(benches);
