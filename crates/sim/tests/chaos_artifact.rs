//! Pins the `chaos-plan/v1` artifact format.
//!
//! `data/chaos-plan-v1-seed19.txt` is the quick-soak plan for seed 19
//! (1.5 M cycles), written together with its run digest by an earlier
//! build. Parsing and re-rendering it must reproduce it byte for byte,
//! and the fixed `devices 1` line and `0` device column must refuse any
//! other value with a line-numbered parse error.

use switchless_sim::chaos::ChaosPlan;
use switchless_sim::error::SimError;
use switchless_sim::time::Cycles;

const ARTIFACT: &str = include_str!("data/chaos-plan-v1-seed19.txt");

#[test]
fn committed_artifact_round_trips_byte_for_byte() {
    let plan = ChaosPlan::parse(ARTIFACT).expect("the committed artifact parses");
    assert_eq!(plan.to_text(), ARTIFACT);
    assert_eq!(plan.digest, Some(0xa102_98e0_57b2_b0fc));
    // The artifact is exactly what the generator writes for its seed.
    let mut generated = ChaosPlan::generate(19, Cycles(1_500_000));
    generated.digest = plan.digest;
    assert_eq!(generated, plan);
}

fn parse_line_of(text: &str) -> usize {
    match ChaosPlan::parse(text) {
        Err(SimError::Parse { line, .. }) => line,
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn device_counts_other_than_one_are_refused_with_their_line() {
    for count in ["0", "2", "255", "256"] {
        let text = ARTIFACT.replace("devices 1\n", &format!("devices {count}\n"));
        assert_eq!(parse_line_of(&text), 4, "devices {count}");
    }
}

#[test]
fn nonzero_device_columns_are_refused_with_their_line() {
    let lines: Vec<&str> = ARTIFACT.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.starts_with("burst fabric.loss 0 "))
        .expect("the artifact has a fabric-loss burst");
    for device in ["1", "2", "300"] {
        let mut edited = lines.clone();
        let line = lines[at].replacen(" 0 ", &format!(" {device} "), 1);
        edited[at] = &line;
        let text = edited.join("\n") + "\n";
        assert_eq!(parse_line_of(&text), at + 1, "device {device}");
    }
}
