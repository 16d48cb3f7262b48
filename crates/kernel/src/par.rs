//! A zero-dependency parallel work queue for independent trials.
//!
//! Every simulated trial is a self-contained, seeded, single-threaded
//! event loop, so a rate sweep is embarrassingly parallel: [`par_map`]
//! fans items out to scoped worker threads that claim work off a shared
//! atomic index, then reassembles the results **in input order**. Because
//! each call of the mapped function builds its own engine, pool and RNG
//! from the item alone, the output is bit-for-bit identical to a serial
//! map — parallelism changes wall-clock time and nothing else.
//!
//! The simulation crates stay single-threaded by charter (`livelock-sim`
//! has "no threads"); this module is the only place worker threads exist,
//! and only `std::thread::scope` is used — no external dependency.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The most worker threads a command line may ask for. A fixed bound,
/// not the host's CPU count: asking for more workers than CPUs is a
/// legitimate way to check that output does not depend on the job count,
/// but every job is an OS thread (and `mlfrr` probes one rate per job per
/// round), so an unchecked count would start that many.
pub const MAX_JOBS: usize = 64;

/// The number of worker threads to use when the caller does not say:
/// the host's available parallelism (at most [`MAX_JOBS`]), or 1 when
/// that cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_JOBS))
}

/// How much parallelism an experiment-layer entry point may use.
///
/// Every trial is an independent seeded simulation and results always come
/// back in input order, so this choice changes wall-clock time and nothing
/// else — outputs are bit-for-bit identical across all three variants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Run every trial inline on the calling thread.
    Serial,
    /// Fan out across up to this many worker threads (0 is treated as 1).
    Jobs(usize),
    /// Use the host's available parallelism ([`default_jobs`]).
    #[default]
    Auto,
}

impl Parallelism {
    /// The worker-thread count this policy resolves to (always >= 1).
    pub fn jobs(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Jobs(n) => n.max(1),
            Parallelism::Auto => default_jobs(),
        }
    }
}

/// Maps `f` over `items` on up to `jobs` scoped worker threads, returning
/// results in input order.
///
/// `jobs` is clamped to `[1, items.len()]`. With `jobs == 1` the map runs
/// inline on the calling thread — the parallel path produces the same
/// results, in the same order.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    #[expect(
        clippy::disallowed_methods,
        reason = "the sanctioned worker pool: results are restored to input order below"
    )]
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| match w.join() {
                Ok(local) => local,
                // Re-raise the worker's own panic payload.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let out = par_map(&items, jobs, |&x| x * x);
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = par_map(&[] as &[u64], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Later items finish first; order must still be the input's.
        let items: Vec<u64> = (0..20).collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "the sleep reorders completion on purpose, to show the output order does not follow it"
        )]
        let out = par_map(&items, 4, |&x| {
            std::thread::sleep(std::time::Duration::from_micros(200 * (20 - x)));
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!((1..=MAX_JOBS).contains(&default_jobs()));
    }

    #[test]
    fn parallelism_resolves_to_positive_job_counts() {
        assert_eq!(Parallelism::Serial.jobs(), 1);
        assert_eq!(Parallelism::Jobs(6).jobs(), 6);
        assert_eq!(Parallelism::Jobs(0).jobs(), 1, "zero clamps to one");
        assert_eq!(Parallelism::Auto.jobs(), default_jobs());
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items = vec![1u64, 2, 3, 4];
        let _ = par_map(&items, 2, |&x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }
}
