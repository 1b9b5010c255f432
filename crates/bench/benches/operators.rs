//! Criterion micro-benchmarks of the CAESAR algebra operators:
//! pass-through pattern, sequence construction, negation checks,
//! filter evaluation and projection.

use caesar_algebra::expr::{BindingLayout, CompiledExpr, LayoutVar, SlotSource};
use caesar_algebra::nfa::PatternBuilder;
use caesar_algebra::ops::{FilterOp, ProjectOp};
use caesar_algebra::pattern::{PatternOp, RunState};
use caesar_events::{AttrType, Event, PartitionId, Schema, SchemaRegistry, Value};
use caesar_query::ast::{BinOp, Expr};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn registry() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    reg.register(Schema::new(
        "R",
        &[
            ("vid", AttrType::Int),
            ("sec", AttrType::Int),
            ("speed", AttrType::Int),
        ],
    ))
    .unwrap();
    reg.register(Schema::new(
        "M",
        &[
            ("a.vid", AttrType::Int),
            ("a.sec", AttrType::Int),
            ("a.speed", AttrType::Int),
            ("b.vid", AttrType::Int),
            ("b.sec", AttrType::Int),
            ("b.speed", AttrType::Int),
        ],
    ))
    .unwrap();
    reg
}

fn events(reg: &SchemaRegistry, n: u64) -> Vec<Event> {
    let tid = reg.lookup("R").unwrap();
    (0..n)
        .map(|t| {
            Event::simple(
                tid,
                t,
                PartitionId(0),
                vec![
                    Value::Int((t % 100) as i64),
                    Value::Int(t as i64),
                    Value::Int((t * 7 % 90) as i64),
                ],
            )
        })
        .collect()
}

fn bench_passthrough(c: &mut Criterion) {
    let reg = registry();
    let stream = events(&reg, 10_000);
    let mut group = c.benchmark_group("pattern");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("passthrough_10k_events", |b| {
        b.iter(|| {
            let mut p = PatternOp::passthrough(reg.lookup("R").unwrap());
            let (mut run, mut out) = (RunState::default(), Vec::new());
            for e in &stream {
                p.process(&mut run, black_box(e), &mut out);
            }
            black_box(out.len())
        })
    });
    group.finish();
}

fn bench_sequence(c: &mut Criterion) {
    let reg = registry();
    let stream = events(&reg, 2_000);
    let tid = reg.lookup("R").unwrap();
    let layout = BindingLayout {
        vars: vec![
            LayoutVar {
                name: "a".into(),
                type_id: tid,
                source: SlotSource::EventSlot(0),
            },
            LayoutVar {
                name: "b".into(),
                type_id: tid,
                source: SlotSource::EventSlot(1),
            },
        ],
    };
    let step = CompiledExpr::compile(
        &Expr::bin(BinOp::Eq, Expr::attr("a", "vid"), Expr::attr("b", "vid")),
        &layout,
        &reg,
    )
    .unwrap();
    let mut group = c.benchmark_group("pattern");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("seq_pair_vid_join_2k_events", |b| {
        b.iter(|| {
            let mut p = PatternBuilder::new(reg.lookup("M").unwrap())
                .then(tid)
                .then(tid)
                .filter(step.clone())
                .within(50)
                .offsets(vec![0, 3])
                .build();
            let (mut run, mut out) = (RunState::default(), Vec::new());
            for e in &stream {
                p.process(&mut run, black_box(e), &mut out);
                p.advance_time(&mut run, e.time(), &mut out);
            }
            black_box(out.len())
        })
    });
    group.bench_function("seq_with_leading_negation_2k_events", |b| {
        let neg_layout = BindingLayout {
            vars: vec![
                LayoutVar {
                    name: "b".into(),
                    type_id: tid,
                    source: SlotSource::EventSlot(0),
                },
                LayoutVar {
                    name: "a".into(),
                    type_id: tid,
                    source: SlotSource::EventSlot(1),
                },
            ],
        };
        let pred = CompiledExpr::compile(
            &Expr::bin(
                BinOp::Eq,
                Expr::bin(BinOp::Add, Expr::attr("a", "sec"), Expr::int(30)),
                Expr::attr("b", "sec"),
            ),
            &neg_layout,
            &reg,
        )
        .unwrap();
        b.iter(|| {
            let mut p = PatternBuilder::new(reg.lookup("M").unwrap())
                .then(tid)
                .not_before(tid, vec![pred.clone()])
                .within(60)
                .offsets(vec![0])
                .build();
            let (mut run, mut out) = (RunState::default(), Vec::new());
            for e in &stream {
                p.process(&mut run, black_box(e), &mut out);
                p.advance_time(&mut run, e.time(), &mut out);
            }
            black_box(out.len())
        })
    });
    group.finish();
}

fn bench_filter_project(c: &mut Criterion) {
    let reg = registry();
    let stream = events(&reg, 10_000);
    let tid = reg.lookup("R").unwrap();
    let layout = BindingLayout {
        vars: vec![LayoutVar {
            name: "r".into(),
            type_id: tid,
            source: SlotSource::CombinedOffset(0),
        }],
    };
    let pred = CompiledExpr::compile(
        &Expr::bin(BinOp::Lt, Expr::attr("r", "speed"), Expr::int(40)),
        &layout,
        &reg,
    )
    .unwrap();
    let mut group = c.benchmark_group("stateless_ops");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("filter_speed_lt_40", |b| {
        b.iter(|| {
            let mut f = FilterOp::new(vec![pred.clone()]);
            let mut hits = 0usize;
            for e in &stream {
                if f.accepts(black_box(e)) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    let args = vec![
        CompiledExpr::compile(&Expr::attr("r", "vid"), &layout, &reg).unwrap(),
        CompiledExpr::Const(Value::Int(5)),
    ];
    group.bench_function("project_two_args", |b| {
        b.iter(|| {
            let mut pr = ProjectOp::new(tid, args.clone());
            let mut produced = 0usize;
            for e in &stream {
                if pr.project(black_box(e)).is_some() {
                    produced += 1;
                }
            }
            black_box(produced)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_passthrough,
    bench_sequence,
    bench_filter_project
);
criterion_main!(benches);
