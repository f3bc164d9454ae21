//! `ParallelConfig::from_env` reads the environment once per process. This
//! file is a test binary of its own with a single test, so changing the
//! variable here races no other test.

use par_exec::ParallelConfig;

#[test]
fn the_environment_default_is_read_once_per_process() {
    let first = ParallelConfig::from_env();
    std::env::set_var("NETUNCERT_THREADS", (first.threads() + 3).to_string());
    assert_eq!(ParallelConfig::from_env(), first);
}
