//! A zero-dependency parallel work queue for independent trials.
//!
//! Every simulated trial is a self-contained, seeded, single-threaded
//! event loop, so a rate sweep is embarrassingly parallel: [`par_map`]
//! fans items out to scoped worker threads, the caller among them, that
//! claim work off one shared queue, then reassembles the results **in
//! input order**. Because each call of the mapped function builds its
//! own engine, pool and RNG from the item alone, the output is
//! bit-for-bit identical to a serial map — parallelism changes
//! wall-clock time and nothing else. The same holds one level down: the
//! CPUs of a trial that share no channel are independent simulations
//! too, and the trial pipeline maps them through [`par_map`] as well.
//!
//! The simulation crates stay single-threaded by charter (`livelock-sim`
//! has "no threads"); this module is the only place worker threads exist,
//! and only `std::thread::scope` is used — no external dependency.

use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

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
    /// Fan out across up to this many threads, the caller's among them
    /// (0 is treated as 1).
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

thread_local! {
    /// Whether this thread is running a [`par_map`] item: a worker
    /// thread, or a caller inside its own map.
    static INSIDE: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as inside a [`par_map`] until dropped, then
/// restores what it was (so an inline map inside another leaves the
/// outer one's mark in place, panic or not).
struct Inside(bool);

impl Inside {
    fn enter() -> Self {
        Inside(INSIDE.with(|inside| inside.replace(true)))
    }
}

impl Drop for Inside {
    fn drop(&mut self) {
        INSIDE.with(|inside| inside.set(self.0));
    }
}

/// Maps `f` over `items` on up to `jobs` threads, the calling thread
/// among them, returning results in input order.
///
/// `jobs` is clamped to `[1, items.len()]`, and a map called from inside
/// another map's item runs inline: worker threads never multiply, so a
/// trial that fans its CPUs out inside a sweep at `--jobs N` stays
/// within N threads. With one job the map runs inline on the calling
/// thread — the parallel path produces the same results, in the same
/// order. Items are claimed in input order off one shared queue, so an
/// owned item (a `Vec` rather than a slice) moves into the job that
/// takes it.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn par_map<I, R, F>(items: I, jobs: usize, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let nested = INSIDE.with(Cell::get);
    let jobs = if nested {
        1
    } else {
        jobs.max(1).min(items.len().max(1))
    };
    let _inside = Inside::enter();
    if jobs == 1 {
        return items.map(f).collect();
    }

    let queue = Mutex::new(items.enumerate());
    let work = || {
        let mut local = Vec::new();
        loop {
            // The guard drops with this statement: items run unlocked.
            // Only `next` runs under the lock, and no claim can leave the
            // queue half-updated, so a poisoned lock's queue is sound.
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, item)) = next else {
                break;
            };
            local.push((i, f(item)));
        }
        local
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the sanctioned worker pool: results are restored to input order below"
    )]
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (1..jobs)
            .map(|_| {
                s.spawn(|| {
                    let _inside = Inside::enter();
                    work()
                })
            })
            .collect();
        let mut tagged = work();
        for w in workers {
            match w.join() {
                Ok(local) => tagged.extend(local),
                // Re-raise the worker's own panic payload.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        tagged
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
    fn owned_items_move_into_their_jobs() {
        let items: Vec<Vec<u64>> = (0..9).map(|i| vec![i; 3]).collect();
        let out = par_map(items, 3, |v| v.into_iter().sum::<u64>());
        assert_eq!(out, (0..9).map(|i| 3 * i).collect::<Vec<_>>());
    }

    #[test]
    fn a_nested_map_starts_no_threads() {
        // Every inner item runs on the thread that ran its outer item,
        // whether the outer map fanned out or ran inline at one job.
        for outer_jobs in [1, 2, 4] {
            let outer: Vec<u64> = (0..4).collect();
            let nested_inline = par_map(&outer, outer_jobs, |_| {
                let me = std::thread::current().id();
                let inner: Vec<u64> = (0..8).collect();
                par_map(&inner, 8, |_| std::thread::current().id())
                    .into_iter()
                    .all(|id| id == me)
            });
            assert!(
                nested_inline.into_iter().all(|b| b),
                "outer jobs {outer_jobs}"
            );
        }
        // Outside every map, the mark is gone: a top-level map fans out.
        assert!(!INSIDE.with(Cell::get));
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
