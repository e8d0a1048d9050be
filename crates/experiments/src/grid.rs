//! The job grid: the one place this workspace spawns worker threads.
//!
//! Every parallel runner (the sweep, chaos and fuzz campaigns,
//! the export records, `diff`'s two sides and [`crate::run_all_parallel`])
//! builds a job list, maps it through [`par_map`] and reduces the results
//! in job order. Workers steal job indices from a shared atomic counter,
//! so *which* thread runs a job varies run to run, but each result comes
//! back in its job's slot. A reduction that walks the returned vector is
//! therefore independent of scheduling, which is what keeps every
//! campaign report byte-identical across `--threads` values.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Map `f` over `jobs` on up to `threads` worker threads and return the
/// results in job order.
///
/// `None` means the machine's available parallelism. The worker count is
/// clamped to `1..=jobs.len()`; with one worker the jobs run in order on
/// the calling thread. A panic in `f` propagates to the caller, so
/// experiment jobs catch their own panics (see [`crate::run_captured`]).
#[allow(clippy::disallowed_methods)]
pub fn par_map<J, R, F>(jobs: &[J], threads: Option<usize>, f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let workers = threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .clamp(1, jobs.len().max(1));
    if workers == 1 {
        return jobs.iter().map(f).collect();
    }
    // The counter only hands out indices; results travel back through
    // `join`, which synchronizes, so relaxed ordering suffices.
    let next = AtomicUsize::new(0);
    let mut harvested: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(index) else { break };
                        local.push((index, f(job)));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("grid jobs do not panic")).collect()
    });
    harvested.sort_by_key(|(index, _)| *index);
    harvested.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order_at_every_thread_count() {
        for n in 0..=40u64 {
            let jobs: Vec<u64> = (0..n).collect();
            let expected: Vec<u64> = jobs.iter().map(|j| j * j + 1).collect();
            for threads in std::iter::once(None).chain((1..=8).map(Some)) {
                assert_eq!(
                    par_map(&jobs, threads, |j| j * j + 1),
                    expected,
                    "{n} jobs at threads {threads:?}"
                );
            }
        }
    }

    #[test]
    fn interleaved_workers_still_return_job_order() {
        // Jobs 0 and 1 meet at one barrier, jobs 2 and 3 at another, so
        // each pair runs on two different workers at once: each worker
        // harvests one job of each pair, and only the final sort puts
        // the results back in job order.
        let barriers = [std::sync::Barrier::new(2), std::sync::Barrier::new(2)];
        let out = par_map(&[0usize, 1, 2, 3], Some(2), |&j| {
            barriers[j / 2].wait();
            (j, std::thread::current().id())
        });
        let jobs: Vec<usize> = out.iter().map(|(j, _)| *j).collect();
        assert_eq!(jobs, [0, 1, 2, 3]);
        assert_ne!(out[0].1, out[1].1, "jobs 0 and 1 ran on different workers");
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = par_map(&[1, 2, 3], Some(1), |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }
}
