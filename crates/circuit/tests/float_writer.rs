//! The shortest round-trip float writer against the `fmt` call it
//! replaced: `push_f64` must append exactly what `write!(out, "{x}")`
//! appends, and `push_u64` what `write!(out, "{n}")` does.

#[path = "support/float_cases.rs"]
mod float_cases;

use std::fmt::Write as _;

use quclear_circuit::float::{push_f64, push_u64};

/// The old spelling, kept as the oracle.
fn display(x: f64) -> String {
    let mut out = String::new();
    let _ = write!(out, "{x}");
    out
}

fn assert_matches_display(values: impl IntoIterator<Item = f64>) -> usize {
    let mut out = String::from("prefix ");
    let mut checked = 0;
    for x in values {
        out.truncate(7);
        push_f64(&mut out, x);
        assert_eq!(&out[7..], display(x), "bits {:#018x}", x.to_bits());
        checked += 1;
    }
    checked
}

#[test]
fn writer_equals_display_on_a_million_random_bit_patterns() {
    let checked = assert_matches_display(float_cases::random_bit_patterns(0x5EED, 1_000_000));
    assert_eq!(checked, 1_000_000);
}

#[test]
fn writer_equals_display_on_the_edges() {
    let checked = assert_matches_display(float_cases::edge_values());
    assert!(checked > 500_000, "{checked} edge values");
}

#[test]
fn writer_reads_back_as_the_same_double() {
    let mut out = String::new();
    for x in float_cases::random_bit_patterns(7, 100_000).filter(|x| x.is_finite()) {
        out.clear();
        push_f64(&mut out, x);
        assert_eq!(out.parse::<f64>().unwrap().to_bits(), x.to_bits(), "{out}");
    }
}

#[test]
fn integers_equal_display() {
    let mut out = String::new();
    let mut values: Vec<u64> = (0..10_000).collect();
    for digits in 1..20 {
        let power = 10u64.pow(digits);
        values.extend([power - 1, power, power + 1]);
    }
    values.extend([u64::MAX, u64::MAX - 1, 1 << 63]);
    values.extend(
        float_cases::random_bit_patterns(11, 10_000).map(|x| x.to_bits() >> (x.to_bits() % 64)),
    );
    for n in values {
        out.clear();
        push_u64(&mut out, n);
        assert_eq!(out, n.to_string());
    }
}
