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
        let mut hasher = Lanes::new();
        hash_config(&mut hasher, config);
        // The register size must enter the hash explicitly: BitVec words are
        // zero-padded, so e.g. "ZZ" and "ZZI" share identical backing words.
        hasher.write_u64(program.first().map_or(0, PauliRotation::num_qubits) as u64);
        hasher.write_u64(program.len() as u64);
        for rotation in program {
            hash_axis(
                &mut hasher,
                rotation.pauli().x_bits().words(),
                rotation.pauli().z_bits().words(),
                false,
            );
        }
        hasher.finish()
    }

    /// Fingerprints a program given as signed Pauli axes.
    ///
    /// The sign of each axis is structural (it flips the sign of the bound
    /// angle), so `-ZZ` and `+ZZ` produce different fingerprints.
    #[must_use]
    pub fn of_axes(axes: &[SignedPauli], config: &QuClearConfig) -> Self {
        let mut hasher = Lanes::new();
        hash_config(&mut hasher, config);
        hasher.write_u64(axes.first().map_or(0, SignedPauli::num_qubits) as u64);
        hasher.write_u64(axes.len() as u64);
        for axis in axes {
            hash_axis(
                &mut hasher,
                axis.pauli().x_bits().words(),
                axis.pauli().z_bits().words(),
                axis.is_negative(),
            );
        }
        hasher.finish()
    }

    /// The digest as one 128-bit integer.
    #[must_use]
    pub fn as_u128(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
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

fn hash_axis(hasher: &mut Lanes, x_words: &[u64], z_words: &[u64], negative: bool) {
    // Separators make (X, Z) framing unambiguous across register sizes.
    hasher.write_u64(0x5eed_0000_0000_000f ^ u64::from(negative));
    hasher.write_u64(x_words.len() as u64);
    for &w in x_words {
        hasher.write_u64(w);
    }
    for &w in z_words {
        hasher.write_u64(w);
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
        assert_eq!(u128::from_str_radix(&text, 16).unwrap(), fp.as_u128());
    }
}
