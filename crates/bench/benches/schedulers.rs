//! Head-to-head microbenchmarks of the two event-scheduler backends
//! behind the engine ([`livelock_sim::Scheduler`]): the reference binary
//! heap vs the calendar queue, plus the batched same-cycle drain
//! (`pop_due_batch`) the executor's step 1 uses.
//!
//! The access patterns mirror the engine's real ones:
//!
//! * **prefill+drain** — schedule a timeline up front, then consume it in
//!   time order (what a harness preloading events through
//!   `Engine::state_schedule` does);
//! * **churn** — steady state: every pop schedules a successor a jittered
//!   spacing ahead (wire completions, clock ticks), holding the pending
//!   population constant;
//! * **peek-heavy** — the executor peeks (`step_stop`) several times per
//!   pop; the calendar's min cache is what makes this O(1);
//! * **batched drain** — many events due at the same cycle drained in one
//!   `pop_due_batch` pass.
//!
//! Pending populations: 16 events — what a trial holds, its arrivals
//! streaming in from the engine's arrival source (a clock pulse, a wire
//! completion or two, a deferred interrupt) — run for many rounds on one
//! queue, plus 1k and 100k for the scaling picture.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use livelock_sim::{CalendarQueue, Cycles, EventQueue, Rng, Scheduler};

const SPACING: u64 = 10_000;

fn heap() -> EventQueue<u64> {
    EventQueue::new()
}

fn calendar() -> CalendarQueue<u64> {
    CalendarQueue::new(Cycles::new(SPACING))
}

/// Schedule `n` events with jittered `SPACING` from time `start` on, then
/// drain them all; returns the checksum and the time the timeline ended
/// (where a further round on the same queue may start).
fn prefill_drain<S: Scheduler<u64>>(q: &mut S, start: u64, n: u64) -> (u64, u64) {
    let mut rng = Rng::seed_from(7);
    let mut t = start;
    for i in 0..n {
        t += rng.next_below(2 * SPACING);
        q.schedule(Cycles::new(t), i);
    }
    let mut acc = 0u64;
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    (acc, t)
}

/// Hold `n` pending: each pop schedules a successor ahead of the tail.
fn churn<S: Scheduler<u64>>(mut q: S, n: u64, ops: u64) -> u64 {
    let mut rng = Rng::seed_from(7);
    let mut tail = 0u64;
    for i in 0..n {
        tail += rng.next_below(2 * SPACING);
        q.schedule(Cycles::new(tail), i);
    }
    let mut acc = 0u64;
    for i in 0..ops {
        let (now, v) = q.pop().expect("population held constant");
        acc = acc.wrapping_add(v).wrapping_add(now.raw());
        tail += rng.next_below(2 * SPACING);
        q.schedule(Cycles::new(tail), i);
    }
    acc
}

/// The executor's pattern: several peeks (chunk stops) per actual pop.
fn peek_heavy<S: Scheduler<u64>>(q: &mut S, start: u64, n: u64) -> (u64, u64) {
    let mut rng = Rng::seed_from(7);
    let mut t = start;
    for i in 0..n {
        t += rng.next_below(2 * SPACING);
        q.schedule(Cycles::new(t), i);
    }
    let mut acc = 0u64;
    loop {
        for _ in 0..8 {
            if let Some(t) = q.peek_time() {
                acc = acc.wrapping_add(t.raw());
            }
        }
        match q.pop() {
            Some((_, v)) => acc = acc.wrapping_add(v),
            None => break,
        }
    }
    (acc, t)
}

/// Same-cycle bursts drained with `pop_due_batch`.
fn batched_drain<S: Scheduler<u64>>(
    q: &mut S,
    start: u64,
    bursts: u64,
    per_burst: u64,
) -> (u64, u64) {
    let mut id = 0u64;
    for b in 0..bursts {
        for _ in 0..per_burst {
            q.schedule(Cycles::new(start + b * SPACING), id);
            id += 1;
        }
    }
    let mut acc = 0u64;
    let mut buf = Vec::new();
    for b in 0..bursts {
        q.pop_due_batch(Cycles::new(start + b * SPACING), &mut buf);
        for (_, v) in buf.drain(..) {
            acc = acc.wrapping_add(v);
        }
    }
    (acc, start + bursts * SPACING)
}

/// The population a streamed trial holds, and how many rounds of it one
/// measured iteration runs.
const SMALL_PENDING: u64 = 16;
const SMALL_ROUNDS: u64 = 1_000;

/// Runs `round(&mut q, start)` [`SMALL_ROUNDS`] times on one long-lived
/// queue, each round starting where the last one's timeline ended — a
/// small population exercised for as long as a trial exercises it.
fn small_rounds<S: Scheduler<u64>>(mut q: S, round: impl Fn(&mut S, u64) -> (u64, u64)) -> u64 {
    let mut acc = 0u64;
    let mut t = 0u64;
    for _ in 0..SMALL_ROUNDS {
        let (a, end) = round(&mut q, t);
        acc = acc.wrapping_add(a);
        t = end;
    }
    acc
}

fn bench_small_backend<S: Scheduler<u64>>(
    g: &mut criterion::BenchmarkGroup<'_>,
    backend: &str,
    make: fn() -> S,
) {
    let n = SMALL_PENDING;
    g.bench_function(format!("{backend} prefill+drain"), |b| {
        b.iter(|| black_box(small_rounds(make(), |q, t| prefill_drain(q, t, n))))
    });
    g.bench_function(format!("{backend} churn"), |b| {
        b.iter(|| black_box(churn(make(), n, n * SMALL_ROUNDS)))
    });
    g.bench_function(format!("{backend} peek-heavy"), |b| {
        b.iter(|| black_box(small_rounds(make(), |q, t| peek_heavy(q, t, n))))
    });
    g.bench_function(format!("{backend} batched drain"), |b| {
        b.iter(|| black_box(small_rounds(make(), |q, t| batched_drain(q, t, 4, n / 4))))
    });
}

fn bench_small_population(c: &mut Criterion) {
    let mut g = c.benchmark_group(format!("schedulers/{SMALL_PENDING}-pending"));
    g.throughput(Throughput::Elements(SMALL_PENDING * SMALL_ROUNDS));
    bench_small_backend(&mut g, "heap", heap);
    bench_small_backend(&mut g, "calendar", calendar);
    g.finish();
}

fn bench_backends(c: &mut Criterion) {
    for n in [1_000u64, 100_000] {
        let mut g = c.benchmark_group(format!("schedulers/{n}-pending"));
        g.throughput(Throughput::Elements(n));
        if n >= 100_000 {
            g.sample_size(10);
        }
        g.bench_function("heap prefill+drain", |b| {
            b.iter(|| black_box(prefill_drain(&mut heap(), 0, n)))
        });
        g.bench_function("calendar prefill+drain", |b| {
            b.iter(|| black_box(prefill_drain(&mut calendar(), 0, n)))
        });
        g.bench_function("heap churn", |b| b.iter(|| black_box(churn(heap(), n, n))));
        g.bench_function("calendar churn", |b| {
            b.iter(|| black_box(churn(calendar(), n, n)))
        });
        g.bench_function("heap peek-heavy", |b| {
            b.iter(|| black_box(peek_heavy(&mut heap(), 0, n)))
        });
        g.bench_function("calendar peek-heavy", |b| {
            b.iter(|| black_box(peek_heavy(&mut calendar(), 0, n)))
        });
        g.bench_function("heap batched drain", |b| {
            b.iter(|| black_box(batched_drain(&mut heap(), 0, n / 50, 50)))
        });
        g.bench_function("calendar batched drain", |b| {
            b.iter(|| black_box(batched_drain(&mut calendar(), 0, n / 50, 50)))
        });
        g.finish();
    }
}

criterion_group!(benches, bench_small_population, bench_backends);
criterion_main!(benches);
