//! Graceful-degradation tests: one failing benchmark must not take the
//! rest of a figure down with it.
//!
//! These tests set the `VISIM_FAIL_BENCH` fault-injection variable, so
//! they live in their own integration-test binary (their own process)
//! where no unrelated test can race with the environment, and they hold
//! [`ENV_LOCK`] while the variable is set so they cannot race with each
//! other under parallel test threads.

use media_kernels::Variant;
use visim::bench::{Bench, WorkloadSize};
use visim::config::Arch;
use visim::experiment::{try_fig2, try_run_timed, FAIL_BENCH_ENV};
use visim_util::SimError;

/// Serialises the tests' `set_var`…`remove_var` spans: the variable is
/// process-wide, so one test's injected benchmark would otherwise leak
/// into the other.
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn env_lock() -> std::sync::MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny() -> WorkloadSize {
    let mut s = WorkloadSize::tiny();
    s.image_w = 32;
    s.image_h = 32;
    s.dotprod_n = 512;
    s
}

#[test]
fn injected_fault_degrades_one_benchmark_not_the_figure() {
    let guard = env_lock();
    std::env::set_var(FAIL_BENCH_ENV, "blend");
    let outcomes = try_fig2(&tiny());
    std::env::remove_var(FAIL_BENCH_ENV);
    drop(guard);

    assert_eq!(outcomes.len(), 12, "every benchmark reports an outcome");
    for (bench, row) in &outcomes {
        if *bench == Bench::Blend {
            match row {
                Err(SimError::Workload { bench, detail }) => {
                    assert_eq!(bench, "blend");
                    assert!(detail.contains(FAIL_BENCH_ENV), "{detail}");
                }
                other => panic!("expected injected Workload error, got {other:?}"),
            }
        } else {
            let row = row.as_ref().unwrap_or_else(|e| panic!("{bench}: {e}"));
            assert!(row.base.retired > 500, "{bench} still produced counts");
        }
    }
}

#[test]
fn injection_also_covers_the_timed_path() {
    let guard = env_lock();
    std::env::set_var(FAIL_BENCH_ENV, "addition");
    let r = try_run_timed(Bench::Addition, Arch::Ooo4, None, &tiny(), Variant::SCALAR);
    let ok = try_run_timed(Bench::Thresh, Arch::Ooo4, None, &tiny(), Variant::SCALAR);
    std::env::remove_var(FAIL_BENCH_ENV);
    drop(guard);

    assert!(matches!(r, Err(SimError::Workload { .. })), "{r:?}");
    let ok = ok.expect("uninjected benchmark unaffected");
    assert!(ok.cycles() > 0);
}
