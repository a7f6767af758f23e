//! Exit statuses of the `experiments` binary on bad input: a malformed
//! environment variable is a usage error (exit 2, never a panic), and a
//! CSV tree that cannot be written fails the run (exit 1) instead of
//! passing with a message on stderr, a chaos replay artifact whose
//! duration is out of range is refused (exit 1) instead of running
//! forever, and a replay whose digest does not match fails (exit 1) with
//! a message that names the verdict.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use switchless_sim::chaos::{ChaosConfig, ChaosPlan};
use switchless_sim::time::Cycles;

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

#[test]
fn replay_of_an_unbounded_duration_exits_1_promptly() {
    let plan = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-endless-plan.txt");
    std::fs::write(
        &plan,
        format!("chaos-plan/v1\nseed 1\nduration {}\ndevices 1\n", u64::MAX),
    )
    .expect("write the plan");
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--replay")
        .arg(&plan)
        .env_remove("SWITCHLESS_JOBS")
        .env_remove("SWITCHLESS_ENGINE")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run the experiments binary");
    // Generous for a parse error, far short of "until killed".
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll the child").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill the runaway replay");
            panic!("--replay of an unbounded plan did not exit within 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let o = child.wait_with_output().expect("collect the output");
    assert_eq!(o.status.code(), Some(1), "stderr: {}", stderr(&o));
    assert!(stderr(&o).contains("duration"), "{}", stderr(&o));
}

#[test]
fn replay_digest_mismatch_exits_1_naming_the_verdict() {
    let mut plan = ChaosPlan::generate(7, &ChaosConfig::new(Cycles(600_000)));
    plan.digest = Some(0);
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-digest-mismatch-plan.txt");
    std::fs::write(&path, plan.to_text()).expect("write the plan");
    let o = experiments(&["--replay", path.to_str().expect("utf-8 path")], &[]);
    assert_eq!(o.status.code(), Some(1), "stderr: {}", stderr(&o));
    let err = stderr(&o);
    assert!(
        err.contains("replay failed: chaos replay verdict: digest mismatch: run "),
        "{err}"
    );
    assert!(err.contains("artifact 0000000000000000"), "{err}");
    assert!(!err.contains("machine setup"), "{err}");
}
