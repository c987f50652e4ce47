//! Angle-independent structural fingerprints of Pauli-rotation programs.
//!
//! QuCLEAR's Clifford Extraction depends only on the rotation *axes* (and
//! the pipeline configuration), never on the rotation angles — that is what
//! makes compiled templates reusable across a parameter sweep. The
//! [`ProgramFingerprint`] captures exactly that structural information:
//!
//! * the register size,
//! * the ordered sequence of signed Pauli axes (X/Z symplectic words plus
//!   the axis sign), and
//! * every field of the [`QuClearConfig`] that influences compilation.
//!
//! Two programs with the same axes and different angles hash identically;
//! flipping the sign of one axis, reordering rotations, or changing any
//! config switch changes the fingerprint.
//!
//! The digest is 128 bits built from two independent 64-bit mixing lanes, so
//! accidental collisions are negligible for any realistic cache population
//! (the construction is *not* adversarially collision-resistant; the cache
//! is a compiler memo table, not a security boundary).

use std::fmt;

use quclear_core::QuClearConfig;
use quclear_pauli::{PauliRotation, SignedPauli};

/// A 128-bit angle-independent structural hash of a rotation program plus
/// its pipeline configuration.
///
/// # Examples
///
/// ```
/// use quclear_core::QuClearConfig;
/// use quclear_engine::ProgramFingerprint;
/// use quclear_pauli::PauliRotation;
///
/// let config = QuClearConfig::default();
/// let a = [PauliRotation::parse("ZZXY", 0.1)?];
/// let b = [PauliRotation::parse("ZZXY", -2.7)?];
/// let c = [PauliRotation::parse("ZZXX", 0.1)?];
/// assert_eq!(
///     ProgramFingerprint::of_program(&a, &config),
///     ProgramFingerprint::of_program(&b, &config),
/// );
/// assert_ne!(
///     ProgramFingerprint::of_program(&a, &config),
///     ProgramFingerprint::of_program(&c, &config),
/// );
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProgramFingerprint {
    hi: u64,
    lo: u64,
}

impl ProgramFingerprint {
    /// Fingerprints a program of (unsigned-axis) Pauli rotations.
    ///
    /// The rotation angles are deliberately ignored; only the axes enter the
    /// hash. The axes are treated as positive — use [`Self::of_axes`] for
    /// programs whose terms carry structural signs.
    #[must_use]
    pub fn of_program(program: &[PauliRotation], config: &QuClearConfig) -> Self {
        let mut builder = FingerprintBuilder::new(config);
        for rotation in program {
            let pauli = rotation.pauli();
            builder.axis(
                pauli.num_qubits(),
                pauli.x_bits().words(),
                pauli.z_bits().words(),
                false,
            );
        }
        builder.finish()
    }

    /// Fingerprints a program given as signed Pauli axes.
    ///
    /// The sign of each axis is structural (it flips the sign of the bound
    /// angle), so `-ZZ` and `+ZZ` produce different fingerprints.
    #[must_use]
    pub fn of_axes(axes: &[SignedPauli], config: &QuClearConfig) -> Self {
        let mut builder = FingerprintBuilder::new(config);
        for axis in axes {
            let pauli = axis.pauli();
            builder.axis(
                pauli.num_qubits(),
                pauli.x_bits().words(),
                pauli.z_bits().words(),
                axis.is_negative(),
            );
        }
        builder.finish()
    }
}

/// A [`ProgramFingerprint`] fed one axis at a time, as X/Z words, so a
/// reader can fingerprint a program without building its Pauli strings.
/// [`ProgramFingerprint::of_program`] and [`ProgramFingerprint::of_axes`]
/// are loops over it.
///
/// # Examples
///
/// ```
/// use quclear_core::QuClearConfig;
/// use quclear_engine::{FingerprintBuilder, ProgramFingerprint};
/// use quclear_pauli::SignedPauli;
///
/// let config = QuClearConfig::default();
/// let axes: Vec<SignedPauli> = vec!["XYZ".parse()?, "-ZZI".parse()?];
/// let mut builder = FingerprintBuilder::new(&config);
/// builder.axis(3, &[0b011], &[0b110], false);
/// builder.axis(3, &[0b000], &[0b011], true);
/// assert_eq!(builder.finish(), ProgramFingerprint::of_axes(&axes, &config));
/// # Ok::<(), quclear_pauli::ParsePauliError>(())
/// ```
#[derive(Debug)]
pub struct FingerprintBuilder {
    lanes: Lanes,
    axes: u64,
}

impl FingerprintBuilder {
    /// Starts a fingerprint of a program compiled under `config`.
    #[must_use]
    pub fn new(config: &QuClearConfig) -> Self {
        let mut lanes = Lanes::new();
        hash_config(&mut lanes, config);
        FingerprintBuilder { lanes, axes: 0 }
    }

    /// Adds the next axis: `num_qubits` operators whose X and Z bits are
    /// `x_words` and `z_words` (64 qubits per word, padding bits zero), with
    /// its sign.
    ///
    /// # Panics
    ///
    /// In debug builds, if either slice is not `num_qubits.div_ceil(64)`
    /// words long.
    pub fn axis(&mut self, num_qubits: usize, x_words: &[u64], z_words: &[u64], negative: bool) {
        debug_assert_eq!(x_words.len(), num_qubits.div_ceil(64));
        debug_assert_eq!(z_words.len(), num_qubits.div_ceil(64));
        let lanes = &mut self.lanes;
        // One header word per axis: the register size enters explicitly,
        // since the words are zero-padded ("ZZ" and "ZZI" share them), and
        // it fixes the axis's word count, so the (X, Z) framing is
        // unambiguous across axes.
        lanes.write_u64(0x5eed_0000_0000_000f ^ ((num_qubits as u64) << 1 | u64::from(negative)));
        for &w in x_words.iter().chain(z_words) {
            lanes.write_u64(w);
        }
        self.axes += 1;
    }

    /// The fingerprint of the axes added so far.
    #[must_use]
    pub fn finish(mut self) -> ProgramFingerprint {
        self.lanes.write_u64(self.axes);
        self.lanes.finish()
    }
}

impl fmt::Debug for ProgramFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProgramFingerprint({self})")
    }
}

impl fmt::Display for ProgramFingerprint {
    /// Renders the digest as 32 hex digits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

fn hash_config(hasher: &mut Lanes, config: &QuClearConfig) {
    hasher.write_u64(u64::from(config.extraction.recursive_tree));
    hasher.write_u64(u64::from(config.extraction.reorder_commuting));
    hasher.write_u64(config.extraction.lookahead_depth as u64);
    hasher.write_u64(u64::from(config.apply_peephole));
}

/// Two independent 64-bit mixing lanes (SplitMix64-style finalizers over an
/// FNV-like accumulation), combined into the 128-bit digest.
#[derive(Debug)]
struct Lanes {
    a: u64,
    b: u64,
}

impl Lanes {
    fn new() -> Self {
        Lanes {
            a: 0x9ae1_6a3b_2f90_404f,
            b: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.a = mix(self.a ^ word, 0xff51_afd7_ed55_8ccd);
        self.b = mix(self.b.wrapping_add(word), 0xc4ce_b9fe_1a85_ec53);
    }

    fn finish(&self) -> ProgramFingerprint {
        ProgramFingerprint {
            hi: mix(self.a, 0xc4ce_b9fe_1a85_ec53),
            lo: mix(self.b, 0xff51_afd7_ed55_8ccd),
        }
    }
}

#[inline]
fn mix(mut z: u64, multiplier: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(multiplier);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quclear_core::QuClearConfig;

    fn rot(s: &str, angle: f64) -> PauliRotation {
        PauliRotation::parse(s, angle).unwrap()
    }

    #[test]
    fn same_axes_different_angles_collide() {
        let config = QuClearConfig::default();
        let a = [rot("XXZZ", 0.1), rot("YIYI", 0.2)];
        let b = [rot("XXZZ", -1.9), rot("YIYI", 2.4)];
        assert_eq!(
            ProgramFingerprint::of_program(&a, &config),
            ProgramFingerprint::of_program(&b, &config)
        );
    }

    #[test]
    fn different_axes_or_order_differ() {
        let config = QuClearConfig::default();
        let a = [rot("XXZZ", 0.1), rot("YIYI", 0.2)];
        let b = [rot("XXZX", 0.1), rot("YIYI", 0.2)];
        let c = [rot("YIYI", 0.2), rot("XXZZ", 0.1)];
        assert_ne!(
            ProgramFingerprint::of_program(&a, &config),
            ProgramFingerprint::of_program(&b, &config)
        );
        assert_ne!(
            ProgramFingerprint::of_program(&a, &config),
            ProgramFingerprint::of_program(&c, &config)
        );
    }

    #[test]
    fn signs_are_structural() {
        let config = QuClearConfig::default();
        let plus: SignedPauli = "+ZZ".parse().unwrap();
        let minus: SignedPauli = "-ZZ".parse().unwrap();
        assert_ne!(
            ProgramFingerprint::of_axes(std::slice::from_ref(&plus), &config),
            ProgramFingerprint::of_axes(&[minus], &config)
        );
        // Positive signed axes agree with the unsigned-program hash.
        assert_eq!(
            ProgramFingerprint::of_axes(&[plus], &config),
            ProgramFingerprint::of_program(&[rot("ZZ", 0.7)], &config)
        );
    }

    #[test]
    fn config_changes_the_key() {
        let program = [rot("XYZ", 0.4)];
        let full = QuClearConfig::default();
        let bare = QuClearConfig::without_peephole();
        assert_ne!(
            ProgramFingerprint::of_program(&program, &full),
            ProgramFingerprint::of_program(&program, &bare)
        );
    }

    #[test]
    fn register_size_is_part_of_the_key() {
        // "ZZ" and "ZZI" share identical zero-padded backing words; only the
        // explicit register-size word separates them.
        let config = QuClearConfig::default();
        assert_ne!(
            ProgramFingerprint::of_program(&[rot("ZZ", 0.1)], &config),
            ProgramFingerprint::of_program(&[rot("ZZI", 0.1)], &config)
        );
    }

    #[test]
    fn every_axis_width_is_part_of_the_key() {
        // A later axis of another width shares the words of an equal-width
        // one; the program must not hit the equal-width program's template.
        let config = QuClearConfig::default();
        assert_ne!(
            ProgramFingerprint::of_program(&[rot("ZZ", 0.1), rot("ZZ", 0.1)], &config),
            ProgramFingerprint::of_program(&[rot("ZZ", 0.1), rot("ZZI", 0.1)], &config)
        );
    }

    #[test]
    fn register_size_framing_is_unambiguous() {
        // One 70-qubit axis vs. the "same words" split across two axes must
        // not collide (this is what the separators protect against).
        let config = QuClearConfig::default();
        let wide = [rot(&"Z".repeat(70), 0.1)];
        let narrow = [rot(&"Z".repeat(35), 0.1), rot(&"Z".repeat(35), 0.1)];
        assert_ne!(
            ProgramFingerprint::of_program(&wide, &config),
            ProgramFingerprint::of_program(&narrow, &config)
        );
    }

    #[test]
    fn display_is_32_hex_digits() {
        let config = QuClearConfig::default();
        let fp = ProgramFingerprint::of_program(&[rot("X", 0.1)], &config);
        let text = fp.to_string();
        assert_eq!(text.len(), 32);
        assert!(text.chars().all(|c| c.is_ascii_hexdigit()));
        let digest = (u128::from(fp.hi) << 64) | u128::from(fp.lo);
        assert_eq!(u128::from_str_radix(&text, 16).unwrap(), digest);
    }
}
