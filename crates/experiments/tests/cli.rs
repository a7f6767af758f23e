//! Exit statuses of the `experiments` binary on bad input: a malformed
//! environment variable is a usage error (exit 2, never a panic), and a
//! CSV tree that cannot be written fails the run (exit 1) instead of
//! passing with a message on stderr.

use std::path::PathBuf;
use std::process::{Command, Output};

fn experiments(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(args)
        .env_remove("SWITCHLESS_JOBS")
        .env_remove("SWITCHLESS_ENGINE");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("run the experiments binary")
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn unwritable_out_dir_exits_1_after_the_timing_table() {
    // A directory cannot be created under a regular file, whoever runs
    // the test.
    let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-out-is-a-file");
    std::fs::write(&file, b"not a directory").expect("create the blocking file");
    let out = file.join("results");
    let o = experiments(
        &["t2", "--quick", "--out", out.to_str().expect("utf-8 path")],
        &[],
    );
    assert_eq!(o.status.code(), Some(1), "stderr: {}", stderr(&o));
    assert!(stderr(&o).contains("csv write failed"), "{}", stderr(&o));
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert!(stdout.contains("Run timing"), "timing table still printed");
}

#[test]
fn malformed_jobs_env_exits_2() {
    let o = experiments(&["list"], &[("SWITCHLESS_JOBS", "4x")]);
    assert_eq!(o.status.code(), Some(2), "stderr: {}", stderr(&o));
    assert!(stderr(&o).contains("SWITCHLESS_JOBS"), "{}", stderr(&o));
}

#[test]
fn unknown_engine_env_exits_2() {
    let o = experiments(&["list"], &[("SWITCHLESS_ENGINE", "maybe")]);
    assert_eq!(o.status.code(), Some(2), "stderr: {}", stderr(&o));
    assert!(stderr(&o).contains("SWITCHLESS_ENGINE"), "{}", stderr(&o));
}
