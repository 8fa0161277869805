//! Pins the paper-reproduction CLI byte for byte: `repro all` must print
//! exactly the committed fixture.  Every experiment is deterministic, so any
//! difference is a change in a reproduced figure, table or equation.

use std::process::Command;

#[test]
fn repro_all_prints_the_committed_fixture_byte_for_byte() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("all")
        .output()
        .expect("the repro binary runs");
    assert!(
        output.status.success(),
        "repro all exited {}",
        output.status
    );
    let expected = include_str!("fixtures/repro_all.txt");
    let actual = String::from_utf8(output.stdout).expect("repro prints UTF-8");
    if actual != expected {
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "repro all differs from tests/fixtures/repro_all.txt at line {}: got {:?}, expected {:?}",
            line + 1,
            actual.lines().nth(line),
            expected.lines().nth(line)
        );
    }
}
