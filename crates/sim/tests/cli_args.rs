//! CLI integration tests for numeric budget flags: a zero `--samples` or
//! `--restarts` is rejected with the flag's own "positive integer" message
//! before any cell is computed, instead of running a vacuous sweep (zero
//! samples) or stamping a budget the kernel silently clamps (zero restarts).

use std::process::Command;

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_run_experiments"))
}

#[test]
fn zero_and_malformed_budgets_exit_2_before_computing() {
    for (flag, value) in [
        ("--samples", "0"),
        ("--restarts", "0"),
        ("--samples", "-3"),
        ("--restarts", "many"),
    ] {
        let output = binary()
            .args([flag, value, "--experiment", "three_users"])
            .output()
            .expect("binary runs");
        assert_eq!(
            output.status.code(),
            Some(2),
            "`{flag} {value}` must exit 2"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        let expected = format!("{flag} requires a positive integer");
        assert!(
            stderr.contains(&expected),
            "`{flag} {value}` stderr missing `{expected}`:\n{stderr}"
        );
        assert!(
            !stderr.contains("running"),
            "`{flag} {value}` must not start the sweep:\n{stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "`{flag} {value}` must print no report"
        );
    }
}
