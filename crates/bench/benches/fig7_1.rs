//! Criterion bench for paper Figure 7-1: regenerates the user-mode CPU
//! availability series under each cycle-limit threshold, then times a
//! representative trial per threshold.

use criterion::{criterion_group, criterion_main, Criterion};
use livelock_bench::{fig7_1, render_figure};
use livelock_kernel::par::Parallelism;
use livelock_kernel::experiment::{run_trial, TrialSpec};

fn bench(c: &mut Criterion) {
    let fig = fig7_1();
    let rendered = render_figure(&fig, 2_000, Parallelism::Serial);
    println!("{}", rendered.to_table());

    let mut g = c.benchmark_group("fig7-1");
    g.sample_size(10);
    for (label, cfg) in &fig.curves {
        let cfg = cfg.clone();
        g.bench_function(label, |b| {
            b.iter(|| {
                run_trial(&TrialSpec {
                    rate_pps: 6_000.0,
                    n_packets: 1_000,
                    ..TrialSpec::new(cfg.clone())
                })
                .aggregate()
                .user_cpu_frac
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
