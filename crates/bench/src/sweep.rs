//! Parallel experiment sweeps over OS threads.
//!
//! Every experiment grid point (protocol × processors × scheme × geometry)
//! is an independent, deterministic simulation, so the runners fan the
//! points out over [`std::thread::scope`] threads. Results are written to
//! a per-index slot and collected in input order, so the output of a sweep
//! is **identical** to the serial loop it replaces — parallelism changes
//! wall-clock time, never content.
//!
//! No thread pool, no channels, no dependencies: a shared atomic cursor
//! hands indices to workers (work stealing), and the scope joins them all
//! before returning. A panic in any grid point propagates to the caller.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Optional global cap on worker threads; `0` means "use all cores".
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Caps the number of worker threads used by subsequent [`sweep`] calls
/// (`0` restores the all-cores default). `1` forces serial execution —
/// the engine benchmark uses this to time the pre-parallelism baseline.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// Upper bound on worker threads (grid points are CPU-bound simulations;
/// more threads than cores just adds scheduling noise).
fn worker_count(points: usize) -> usize {
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let cap = MAX_THREADS.load(Ordering::Relaxed);
    let limit = if cap > 0 { cap.min(cores) } else { cores };
    limit.min(points).max(1)
}

/// Applies `f` to every point, in parallel, returning results in input
/// order. `f` receives the point's index and a reference to the point.
///
/// # Panics
///
/// Propagates the first panic raised by `f` on any worker thread.
pub fn sweep<T: Sync, R: Send>(points: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    let n = points.len();
    let workers = worker_count(n);
    if workers <= 1 {
        return points.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = f(i, &points[i]);
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                })
            })
            .collect();
        // Join explicitly and re-raise the worker's own payload: left to
        // the scope, a worker panic surfaces as a generic "a scoped thread
        // panicked" instead of the grid point's message.
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| panic!("sweep point {i} produced no result"))
        })
        .collect()
}

/// Convenience for sweeping owned work items.
pub fn sweep_into<T: Send + Sync, R: Send>(
    points: Vec<T>,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    sweep(&points, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let points: Vec<usize> = (0..100).collect();
        let out = sweep(&points, |i, &p| {
            // Stagger finish order so late indices often finish first.
            std::thread::sleep(std::time::Duration::from_micros((100 - i as u64) * 10));
            p * 2
        });
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(sweep(&empty, |_, &x| x).is_empty());
        assert_eq!(sweep(&[7u32], |i, &x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn index_matches_point() {
        let points: Vec<usize> = (0..50).collect();
        let out = sweep(&points, |i, &p| {
            assert_eq!(i, p);
            i
        });
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn matches_serial_execution() {
        let points: Vec<u64> = (1..40).collect();
        let serial: Vec<u64> = points.iter().map(|&p| p * p + 1).collect();
        assert_eq!(sweep(&points, |_, &p| p * p + 1), serial);
        assert_eq!(sweep_into(points, |_, &p| p * p + 1), serial);
    }

    #[test]
    #[should_panic(expected = "grid point failed")]
    fn propagates_worker_panics() {
        let points: Vec<usize> = (0..8).collect();
        sweep(&points, |_, &p| {
            if p == 5 {
                panic!("grid point failed");
            }
            p
        });
    }
}
