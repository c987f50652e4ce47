//! The shortest round-trip float writer against `Display` on the angles
//! this workspace actually writes: every number in the wire corpus and
//! every rotation angle of the 19 Table II programs.

use std::fmt::Write as _;

use quclear::circuit::float::push_f64;
use quclear::pauli::PauliRotation;
use quclear::workloads::Benchmark;

fn assert_matches_display(values: impl IntoIterator<Item = f64>) -> usize {
    let (mut ours, mut theirs) = (String::new(), String::new());
    let mut checked = 0;
    for x in values {
        ours.clear();
        theirs.clear();
        push_f64(&mut ours, x);
        let _ = write!(theirs, "{x}");
        assert_eq!(ours, theirs, "bits {:#018x}", x.to_bits());
        checked += 1;
    }
    checked
}

#[test]
fn writer_equals_display_on_every_wire_corpus_number() {
    let corpus = include_str!("../crates/serve/tests/wire_corpus.txt");
    let numbers = corpus
        .split(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '.' | 'e' | 'E' | '+')))
        .filter_map(|token| token.parse::<f64>().ok());
    let checked = assert_matches_display(numbers.flat_map(|x| [x, -x]));
    assert!(checked > 200, "only {checked} numbers in the corpus");
}

#[test]
fn writer_equals_display_on_every_table2_angle() {
    let mut checked = 0;
    for benchmark in Benchmark::all() {
        let angles = benchmark
            .rotations()
            .iter()
            .map(PauliRotation::angle)
            .collect::<Vec<_>>();
        checked += assert_matches_display(angles);
    }
    assert!(checked > 10_000, "only {checked} angles");
}
