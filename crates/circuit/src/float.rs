//! Decimal text for `f64` and `u64`, appended to a `String` without the
//! `fmt` machinery.
//!
//! [`push_f64`] writes the shortest decimal that reads back as the same
//! double, laid out exactly as `f64`'s `Display` lays it out: plain
//! decimal, never an exponent (`1e300` is 301 digits, `1e-7` is
//! `0.0000001`), `-0` for negative zero, integers without `.0`. The digits
//! come from Ryū (Ulf Adams, "Ryū: fast float-to-string conversion",
//! PLDI 2018): one 64×128-bit multiply against a power of 5 scales the
//! rounding interval of the double to decimal, and digits are removed while
//! the interval still holds a shorter number. Among the shortest numbers in
//! the interval it keeps the one closest to the double, as `Display` does.
//! [`push_u64`] writes an integer in decimal, two digits per step.
//!
//! Both OpenQASM angles (`quclear_circuit::qasm`) and JSON numbers (the
//! `serde_json` stand-in, which includes this file with `#[path]`) are
//! written here. The power-of-5 tables are built at compile time by
//! `const fn`s over a 1024-bit integer, so nothing is initialized at run
//! time.

/// Bits kept of each power of 5 (and of each inverse power) in the tables.
const POW5_BITCOUNT: i32 = 125;
/// Entries of [`POW5_INV_SPLIT`]: `5^-q` for the decimal exponents `q` a
/// double with a non-negative binary exponent needs.
const POW5_INV_TABLE_SIZE: usize = 342;
/// Entries of [`POW5_SPLIT`]: `5^i` for the negative binary exponents.
const POW5_TABLE_SIZE: usize = 326;
/// Limbs of the compile-time big integer: 1024 bits, enough for `2^1023`
/// and for `5^325` (755 bits).
const LIMBS: usize = 16;

/// `5^i` scaled to exactly [`POW5_BITCOUNT`] bits: its top 125 bits.
static POW5_SPLIT: [u128; POW5_TABLE_SIZE] = pow5_table();
/// `⌊2^(pow5bits(q) − 1 + 125) / 5^q⌋ + 1`, a 125-bit over-estimate of
/// `5^-q`.
static POW5_INV_SPLIT: [u128; POW5_INV_TABLE_SIZE] = pow5_inv_table();

/// Two ASCII digits for every value in `0..100`.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// A run of zeros to copy from when the decimal point is far from the
/// digits.
const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";

/// Appends `x` exactly as `write!(out, "{x}")` would: the shortest decimal
/// that parses back to `x`, with no exponent. `NaN`, `inf` and `-inf` are
/// spelled as `Display` spells them.
pub fn push_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str(if x.is_nan() {
            "NaN"
        } else if x > 0.0 {
            "inf"
        } else {
            "-inf"
        });
        return;
    }
    let bits = x.to_bits();
    let mantissa = bits & ((1 << 52) - 1);
    let exponent = ((bits >> 52) & 0x7ff) as u32;
    if mantissa == 0 && exponent == 0 {
        out.push_str(if x.is_sign_negative() { "-0" } else { "0" });
        return;
    }
    let (digits, exponent) = shortest(mantissa, exponent);
    // The text is built right to left in `buf` when it fits; a decimal
    // point far from the digits adds a run of zeros pushed separately.
    let mut buf = [0u8; 32];
    let end = buf.len();
    let len = write_digits(&mut buf, end, digits);
    let mut start = end - len;
    // Digits before the decimal point; the value is `0.d₁d₂… × 10^point`.
    let point = len as i32 + exponent;
    let mut trailing_zeros = 0;
    if point <= 0 {
        let zeros = (-point) as usize;
        if zeros + 3 <= start {
            for _ in 0..zeros {
                start -= 1;
                buf[start] = b'0';
            }
        } else {
            push_ascii(out, if x < 0.0 { b"-0." } else { b"0." });
            push_zeros(out, zeros);
            push_ascii(out, &buf[start..]);
            return;
        }
        start -= 2;
        buf[start..start + 2].copy_from_slice(b"0.");
    } else if (point as usize) < len {
        let point = point as usize;
        // Byte loops here and above, not `copy_within`/`fill`: the runs are
        // a few bytes, and a libc call per float costs more than the copy.
        for i in start..start + point {
            buf[i - 1] = buf[i];
        }
        start -= 1;
        buf[start + point] = b'.';
    } else {
        trailing_zeros = point as usize - len;
    }
    if x < 0.0 {
        start -= 1;
        buf[start] = b'-';
    }
    push_ascii(out, &buf[start..]);
    push_zeros(out, trailing_zeros);
}

/// Appends `n` in decimal.
pub fn push_u64(out: &mut String, n: u64) {
    // Qubit indices: one or two chars cost less than the digit buffer, its
    // UTF-8 check and the copy.
    if n < 100 {
        if n >= 10 {
            out.push(char::from(b'0' + (n / 10) as u8));
        }
        out.push(char::from(b'0' + (n % 10) as u8));
        return;
    }
    let mut buf = [0u8; 20];
    let len = write_digits(&mut buf, 20, n);
    push_ascii(out, &buf[20 - len..]);
}

/// Appends bytes this module wrote, which are all ASCII.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.push_str(std::str::from_utf8(bytes).expect("decimal text is ASCII"));
}

fn push_zeros(out: &mut String, mut count: usize) {
    while count > 0 {
        let run = count.min(ZEROS.len());
        out.push_str(&ZEROS[..run]);
        count -= run;
    }
}

/// Writes `n`'s decimal digits so that they end at `buf[end]` and returns
/// how many it wrote: eight digits at a time, split into two independent
/// halves, then two at a time.
fn write_digits(buf: &mut [u8], end: usize, mut n: u64) -> usize {
    let mut at = end;
    while n >= 100_000_000 {
        let low = (n % 100_000_000) as u32;
        n /= 100_000_000;
        let (high, low) = (low / 10_000, low % 10_000);
        at -= 8;
        write_pair(buf, at, high / 100);
        write_pair(buf, at + 2, high % 100);
        write_pair(buf, at + 4, low / 100);
        write_pair(buf, at + 6, low % 100);
    }
    let mut n = n as u32;
    while n >= 100 {
        at -= 2;
        write_pair(buf, at, n % 100);
        n /= 100;
    }
    if n >= 10 {
        at -= 2;
        write_pair(buf, at, n);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    end - at
}

/// Writes the two digits of `pair < 100` at `buf[at..at + 2]`.
fn write_pair(buf: &mut [u8], at: usize, pair: u32) {
    let pair = pair as usize * 2;
    buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
}

/// Ryū's shortest decimal for a positive finite double given its raw
/// mantissa and biased exponent fields: `(digits, e)` such that
/// `digits × 10^e` reads back as the double, `digits` is as short as
/// possible and, among the shortest, closest to the double.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // Step 1: the double is `m2 × 2^e2`, with two extra bits of room so the
    // interval's half-way points are integers too.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - 1023 - 52 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - 1023 - 52 - 2,
            (1 << 52) | ieee_mantissa,
        )
    };
    let accept_bounds = m2 & 1 == 0;

    // Step 2: the interval of decimals that round to the double is
    // `[mm, mp] × 2^e2` around `mv`. Its lower half is half as wide when
    // the mantissa is a power of two (the next double down is closer).
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Step 3: scale `mv`, `mp`, `mm` to decimal, `× 10^-e10`, with one
    // multiply each. Where `mm` itself may be a short decimal, note
    // whether it is exact (then the bound is in the interval when
    // `accept_bounds`); where `mp` may be, take it out of the interval.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITCOUNT + pow5bits(q as i32) - 1;
        let shift = (-e2 + q as i32 + k) as u32;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mv + 2, mul, shift);
        vm = mul_shift(mv - 1 - mm_shift, mul, shift);
        // At most one of `mp`, `mv`, `mm` is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let shift = (q as i32 - k) as u32;
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mv + 2, mul, shift);
        vm = mul_shift(mv - 1 - mm_shift, mul, shift);
        if q <= 1 {
            // `mm = mv − 1 − mm_shift` has a trailing zero bit iff
            // `mm_shift` is 1; `mp = mv + 2` always has one.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Step 4: drop digits while the interval still holds a shorter number,
    // then round the kept digits of `vr` to nearest. A tie rounds up, as
    // `Display` rounds it (Ryū's reference rounds it to even).
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // The rare case of an exact lower bound: it may be the shortest
        // number in the interval, so its zeros are dropped too.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        let outside = vr == vm && !(accept_bounds && vm_is_trailing_zeros);
        vr + u64::from(outside || last_removed_digit >= 5)
    } else {
        // The common case. Ryū's reference drops two digits if it can
        // and then one at a time, which suits a full-precision double (its
        // 17 digits shrink by one or two) but takes some fifteen divisions
        // for `0.5`; four at a time while they can go, then two, then one,
        // costs a full-precision double one more check. Only the last
        // removed digit rounds.
        let mut round_up = false;
        while vp / 10_000 > vm / 10_000 {
            round_up = vr % 10_000 >= 5_000;
            vr /= 10_000;
            vp /= 10_000;
            vm /= 10_000;
            removed += 4;
        }
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        if vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `⌊m × mul / 2^shift⌋` for a 125-bit `mul`, keeping the 64 bits Ryū's
/// bounds guarantee and dropping the low product word (`shift ≥ 64`).
fn mul_shift(m: u64, mul: u128, shift: u32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

fn multiple_of_power_of_5(mut value: u64, power: u32) -> bool {
    let mut count = 0;
    while count < power && value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= power
}

/// The bit length of `5^e`, `⌊e·log₂5⌋ + 1`, exact for `0 ≤ e ≤ 3528`.
const fn pow5bits(e: i32) -> i32 {
    (((e as u32) * 1_217_359) >> 19) as i32 + 1
}

/// `⌊e·log₁₀2⌋`, exact for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    ((e as u32) * 78_913) >> 18
}

/// `⌊e·log₁₀5⌋`, exact for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    ((e as u32) * 732_923) >> 20
}

/// `x >> shift` of a little-endian big integer, truncated to 128 bits.
const fn shr_to_u128(x: &[u64; LIMBS], shift: u32) -> u128 {
    let limb = (shift / 64) as usize;
    let bit = shift % 64;
    let mut words = [0u64; 2];
    let mut w = 0;
    while w < 2 {
        let at = limb + w;
        let low = if at < LIMBS { x[at] >> bit } else { 0 };
        let high = if bit > 0 && at + 1 < LIMBS {
            x[at + 1] << (64 - bit)
        } else {
            0
        };
        words[w] = low | high;
        w += 1;
    }
    (words[1] as u128) << 64 | words[0] as u128
}

/// [`POW5_SPLIT`]: `5^i` by repeated multiplication by 5, cut to its top
/// [`POW5_BITCOUNT`] bits.
const fn pow5_table() -> [u128; POW5_TABLE_SIZE] {
    let mut table = [0u128; POW5_TABLE_SIZE];
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_TABLE_SIZE {
        let bits = pow5bits(i as i32);
        table[i] = if bits <= POW5_BITCOUNT {
            shr_to_u128(&pow, 0) << (POW5_BITCOUNT - bits)
        } else {
            shr_to_u128(&pow, (bits - POW5_BITCOUNT) as u32)
        };
        let mut carry = 0u128;
        let mut l = 0;
        while l < LIMBS {
            let product = pow[l] as u128 * 5 + carry;
            pow[l] = product as u64;
            carry = product >> 64;
            l += 1;
        }
        i += 1;
    }
    table
}

/// [`POW5_INV_SPLIT`]: `⌊2^1023 / 5^q⌋` by repeated division by 5 (a floor
/// of a floor is the floor of the whole quotient), shifted down to
/// `⌊2^(pow5bits(q) − 1 + 125) / 5^q⌋`, plus one.
const fn pow5_inv_table() -> [u128; POW5_INV_TABLE_SIZE] {
    let mut table = [0u128; POW5_INV_TABLE_SIZE];
    let mut quotient = [0u64; LIMBS];
    quotient[LIMBS - 1] = 1 << 63;
    let mut q = 0;
    while q < POW5_INV_TABLE_SIZE {
        let k = pow5bits(q as i32) - 1 + POW5_BITCOUNT;
        table[q] = shr_to_u128(&quotient, (1023 - k) as u32) + 1;
        let mut remainder = 0u128;
        let mut l = LIMBS;
        while l > 0 {
            l -= 1;
            let current = remainder << 64 | quotient[l] as u128;
            quotient[l] = (current / 5) as u64;
            remainder = current % 5;
        }
        q += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A little-endian base-2^32 integer, for recomputing the tables by a
    /// different route than the `const fn`s.
    fn big_mul_small(x: &mut Vec<u32>, factor: u32) {
        let mut carry = 0u64;
        for limb in x.iter_mut() {
            let product = u64::from(*limb) * u64::from(factor) + carry;
            *limb = product as u32;
            carry = product >> 32;
        }
        if carry > 0 {
            x.push(carry as u32);
        }
    }

    fn big_bits(x: &[u32]) -> usize {
        let top = x.iter().rposition(|&limb| limb != 0).unwrap();
        top * 32 + (32 - x[top].leading_zeros() as usize)
    }

    fn big_bit(x: &[u32], at: usize) -> bool {
        x.get(at / 32)
            .is_some_and(|limb| limb >> (at % 32) & 1 == 1)
    }

    /// `x × m` for a 128-bit `m`.
    fn big_mul_u128(x: &[u32], m: u128) -> Vec<u32> {
        let m_limbs: Vec<u32> = (0..4).map(|i| (m >> (32 * i)) as u32).collect();
        let mut product = vec![0u32; x.len() + 4];
        for (i, &a) in x.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in m_limbs.iter().enumerate() {
                let sum = u64::from(product[i + j]) + u64::from(a) * u64::from(b) + carry;
                product[i + j] = sum as u32;
                carry = sum >> 32;
            }
            let mut at = i + 4;
            while carry > 0 {
                let sum = u64::from(product[at]) + carry;
                product[at] = sum as u32;
                carry = sum >> 32;
                at += 1;
            }
        }
        product
    }

    /// `x` compared with `2^power`.
    fn cmp_pow2(x: &[u32], power: usize) -> std::cmp::Ordering {
        let bits = big_bits(x);
        if bits != power + 1 {
            return bits.cmp(&(power + 1));
        }
        if (0..power).any(|at| big_bit(x, at)) {
            std::cmp::Ordering::Greater
        } else {
            std::cmp::Ordering::Equal
        }
    }

    #[test]
    fn tables_match_big_integer_recomputation() {
        let mut pow = vec![1u32];
        for i in 0..POW5_INV_TABLE_SIZE {
            let bits = big_bits(&pow);
            assert_eq!(pow5bits(i as i32) as usize, bits, "bit length of 5^{i}");
            if i < POW5_TABLE_SIZE {
                // The top 125 bits of 5^i, read bit by bit.
                let top = (0..POW5_BITCOUNT as usize).fold(0u128, |acc, b| {
                    let at = (bits + b).checked_sub(POW5_BITCOUNT as usize);
                    acc | u128::from(at.is_some_and(|at| big_bit(&pow, at))) << b
                });
                assert_eq!(POW5_SPLIT[i], top, "5^{i}");
            }
            // inv − 1 = ⌊2^k / 5^i⌋  ⇔  (inv − 1)·5^i ≤ 2^k < inv·5^i.
            let k = bits - 1 + POW5_BITCOUNT as usize;
            let inv = POW5_INV_SPLIT[i];
            assert_ne!(
                cmp_pow2(&big_mul_u128(&pow, inv - 1), k),
                std::cmp::Ordering::Greater,
                "5^-{i} too large"
            );
            assert_eq!(
                cmp_pow2(&big_mul_u128(&pow, inv), k),
                std::cmp::Ordering::Greater,
                "5^-{i} too small"
            );
            big_mul_small(&mut pow, 5);
        }
    }
}
