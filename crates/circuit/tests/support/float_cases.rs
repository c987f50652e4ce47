//! Inputs for checking the shortest round-trip float writer
//! (`quclear_circuit::float`) against the `fmt` spellings it replaces: a
//! seeded stream of random bit patterns and the hand-picked edges. Test
//! files include this module with `#[path]`.

/// `count` doubles from uniformly random bit patterns (every sign,
/// exponent and mantissa, NaNs and infinities included), drawn by
/// SplitMix64 from `seed`.
pub fn random_bit_patterns(seed: u64, count: usize) -> impl Iterator<Item = f64> {
    let mut state = seed;
    (0..count).map(move |_| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        f64::from_bits(z ^ (z >> 31))
    })
}

/// The doubles `radius` steps of one ulp either side of `x`, `x` included.
fn around(x: f64, radius: u64) -> impl Iterator<Item = f64> {
    let bits = x.to_bits();
    (bits.saturating_sub(radius)..=bits.saturating_add(radius)).map(f64::from_bits)
}

/// The edges, both signs of each: zeros, the extremes, subnormals and
/// `f64::MIN_POSITIVE`, every power of 2 and 10 with its neighbours,
/// values around `1e15`, `1e16` and `1e-5` (where `Display` changes
/// layout), integers around 2^53, and decimals with up to six digits
/// after the point, with their neighbours.
pub fn edge_values() -> Vec<f64> {
    let mut values = vec![
        0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::EPSILON,
        f64::NAN,
        f64::INFINITY,
    ];
    values.extend(around(f64::from_bits(1), 1000));
    values.extend(around(f64::MIN_POSITIVE, 1000));
    values.extend(around(f64::MAX, 1000).filter(|x| x.is_finite()));
    for e in -1074..=1023 {
        values.extend(around(2f64.powi(e), 2));
    }
    for e in -323..=308 {
        let power: f64 = format!("1e{e}").parse().expect("a power of ten parses");
        values.extend(around(power, 3));
    }
    for x in [1e15, 1e16, 1e-5, 1e21, 1e-7] {
        values.extend(around(x, 2000));
    }
    for base in [1u64 << 53, 1 << 54, 10u64.pow(15), 10u64.pow(16)] {
        values.extend((base - 2000..=base + 2000).map(|n| n as f64));
    }
    for digits in 0..=6 {
        let scale = 10f64.powi(digits);
        for n in (0..20_000).chain((1..200).map(|k| k * 997_331)) {
            values.extend(around(n as f64 / scale, 1));
        }
    }
    let negated: Vec<f64> = values.iter().map(|x| -x).collect();
    values.extend(negated);
    values
}
