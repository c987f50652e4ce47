//! Minimal complex arithmetic and 2×2 unitary helpers.
//!
//! The workspace intentionally avoids a complex-number dependency; this tiny
//! module provides exactly what the peephole optimizer and the state-vector
//! simulator need.

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use quclear_circuit::C64;
/// let i = C64::new(0.0, 1.0);
/// assert!((i * i + C64::ONE).norm() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// The additive identity.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[must_use]
    pub fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// `e^{iθ}`.
    #[must_use]
    pub fn cis(theta: f64) -> Self {
        C64::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    #[must_use]
    pub fn conj(self) -> Self {
        C64::new(self.re, -self.im)
    }

    /// Modulus.
    #[must_use]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus.
    #[must_use]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument in `(-π, π]`.
    #[must_use]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[must_use]
    pub fn scale(self, s: f64) -> Self {
        C64::new(self.re * s, self.im * s)
    }

    /// Multiplies by `i^p` (`p` taken mod 4) exactly: an odd `p` swaps the
    /// components, and the signs flip by bit operations, so the result is
    /// what `S`, `S†` and `Z` produce bit for bit, with no branch.
    #[must_use]
    pub fn times_i_pow(self, p: u32) -> Self {
        let swap = 0u64.wrapping_sub(u64::from(p & 1));
        let (re, im) = (self.re.to_bits(), self.im.to_bits());
        let (a, b) = ((re & !swap) | (im & swap), (im & !swap) | (re & swap));
        // i^p·(x + iy) negates the new re for p ∈ {1, 2} and the new im for p ∈ {2, 3}.
        let flip_re = u64::from((p ^ (p >> 1)) & 1) << 63;
        let flip_im = u64::from((p >> 1) & 1) << 63;
        C64::new(f64::from_bits(a ^ flip_re), f64::from_bits(b ^ flip_im))
    }
}

impl Add for C64 {
    type Output = C64;
    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for C64 {
    fn add_assign(&mut self, rhs: C64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for C64 {
    type Output = C64;
    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    fn mul(self, rhs: C64) -> C64 {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for C64 {
    type Output = C64;
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

/// A 2×2 complex matrix in row-major order: `[[m00, m01], [m10, m11]]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mat2 {
    /// Entries in row-major order.
    pub m: [[C64; 2]; 2],
}

impl Mat2 {
    /// The identity matrix.
    #[must_use]
    pub fn identity() -> Self {
        Mat2 {
            m: [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]],
        }
    }

    /// Builds a matrix from four entries.
    #[must_use]
    pub fn new(m00: C64, m01: C64, m10: C64, m11: C64) -> Self {
        Mat2 {
            m: [[m00, m01], [m10, m11]],
        }
    }

    /// Matrix product `self · rhs`.
    #[must_use]
    pub fn mul(&self, rhs: &Mat2) -> Mat2 {
        let mut out = [[C64::ZERO; 2]; 2];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, entry) in row.iter_mut().enumerate() {
                *entry = self.m[i][0] * rhs.m[0][j] + self.m[i][1] * rhs.m[1][j];
            }
        }
        Mat2 { m: out }
    }

    /// Maximum entry-wise distance to `rhs`, minimized over a global phase.
    #[must_use]
    pub fn distance_up_to_phase(&self, rhs: &Mat2) -> f64 {
        // Find the entry of rhs with the largest modulus to fix the phase.
        let mut best = (0, 0);
        let mut best_norm = 0.0;
        for i in 0..2 {
            for j in 0..2 {
                let n = rhs.m[i][j].norm();
                if n > best_norm {
                    best_norm = n;
                    best = (i, j);
                }
            }
        }
        if best_norm < 1e-14 {
            return f64::INFINITY;
        }
        let (bi, bj) = best;
        let target = rhs.m[bi][bj];
        let source = self.m[bi][bj];
        if source.norm() < 1e-14 {
            return f64::INFINITY;
        }
        let phase = C64::cis(target.arg() - source.arg());
        let mut max_diff: f64 = 0.0;
        for i in 0..2 {
            for j in 0..2 {
                let diff = (self.m[i][j] * phase - rhs.m[i][j]).norm();
                max_diff = max_diff.max(diff);
            }
        }
        max_diff
    }

    /// Returns `true` if the matrix is the identity up to a global phase.
    #[must_use]
    pub fn is_identity_up_to_phase(&self, tol: f64) -> bool {
        // Cheap exact early-out: the entry-wise distance to the identity is
        // at least |u01| for any phase choice, so a visibly off-diagonal
        // matrix can never pass. This is the common case in gate fusion.
        if self.m[0][1].norm() >= tol {
            return false;
        }
        self.distance_up_to_phase(&Mat2::identity()) < tol
            || Mat2::identity().distance_up_to_phase(self) < tol
    }
}

/// Decomposes a 2×2 unitary into ZYZ Euler angles `(α, β, γ)` such that
/// `U ≅ Rz(α) · Ry(β) · Rz(γ)` up to a global phase.
#[must_use]
pub fn zyz_decompose(u: &Mat2) -> (f64, f64, f64) {
    let c = u.m[0][0].norm();
    let s = u.m[1][0].norm();
    let beta = 2.0 * s.atan2(c);
    let eps = 1e-12;
    if s < eps {
        // Diagonal: only α + γ matters; put it all in α.
        let sum = u.m[1][1].arg() - u.m[0][0].arg();
        (sum, 0.0, 0.0)
    } else if c < eps {
        // Anti-diagonal: only α − γ matters.
        let diff = u.m[1][0].arg() - u.m[0][1].arg() - std::f64::consts::PI;
        (diff, beta, 0.0)
    } else {
        let sum = u.m[1][1].arg() - u.m[0][0].arg();
        let diff = u.m[1][0].arg() - u.m[0][1].arg() - std::f64::consts::PI;
        // The halved angles are only defined modulo π: adding π to both α
        // and γ flips the sign of the Ry block (up to a global phase), so
        // exactly one of the two candidates reproduces the matrix. Selecting
        // it needs no reconstruction: for `Rz(α)·Ry(β)·Rz(γ)` with our
        // sign conventions (`sin(β/2) ≥ 0`), the phase difference
        // `arg(u10) − arg(u00)` equals α modulo 2π, independent of the
        // global phase. Pick the candidate whose α is angularly closer.
        let alpha_a = (sum + diff) / 2.0;
        let measured_alpha = u.m[1][0].arg() - u.m[0][0].arg();
        if angular_distance(alpha_a, measured_alpha)
            <= angular_distance(alpha_a + std::f64::consts::PI, measured_alpha)
        {
            (alpha_a, beta, (sum - diff) / 2.0)
        } else {
            (
                alpha_a + std::f64::consts::PI,
                beta,
                (sum - diff) / 2.0 + std::f64::consts::PI,
            )
        }
    }
}

/// Distance between two angles on the circle, in `[0, π]`.
fn angular_distance(a: f64, b: f64) -> f64 {
    let two_pi = 2.0 * std::f64::consts::PI;
    let d = (a - b).rem_euclid(two_pi);
    d.min(two_pi - d)
}

/// Matrix of `Rz(θ)`.
#[must_use]
pub fn rz_matrix(theta: f64) -> Mat2 {
    Mat2::new(
        C64::cis(-theta / 2.0),
        C64::ZERO,
        C64::ZERO,
        C64::cis(theta / 2.0),
    )
}

/// Matrix of `Ry(θ)`.
#[must_use]
pub fn ry_matrix(theta: f64) -> Mat2 {
    let (s, c) = (theta / 2.0).sin_cos();
    Mat2::new(
        C64::new(c, 0.0),
        C64::new(-s, 0.0),
        C64::new(s, 0.0),
        C64::new(c, 0.0),
    )
}

/// Matrix of `Rx(θ)`.
#[must_use]
pub fn rx_matrix(theta: f64) -> Mat2 {
    let (s, c) = (theta / 2.0).sin_cos();
    Mat2::new(
        C64::new(c, 0.0),
        C64::new(0.0, -s),
        C64::new(0.0, -s),
        C64::new(c, 0.0),
    )
}

/// Matrix of a single-qubit gate from the circuit IR.
///
/// # Panics
///
/// Panics if called with a two-qubit gate.
#[must_use]
pub fn single_qubit_matrix(gate: &crate::Gate) -> Mat2 {
    use crate::Gate;
    let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
    match *gate {
        Gate::H(_) => Mat2::new(
            C64::new(inv_sqrt2, 0.0),
            C64::new(inv_sqrt2, 0.0),
            C64::new(inv_sqrt2, 0.0),
            C64::new(-inv_sqrt2, 0.0),
        ),
        Gate::S(_) => Mat2::new(C64::ONE, C64::ZERO, C64::ZERO, C64::I),
        Gate::Sdg(_) => Mat2::new(C64::ONE, C64::ZERO, C64::ZERO, -C64::I),
        Gate::X(_) => Mat2::new(C64::ZERO, C64::ONE, C64::ONE, C64::ZERO),
        Gate::Y(_) => Mat2::new(C64::ZERO, -C64::I, C64::I, C64::ZERO),
        Gate::Z(_) => Mat2::new(C64::ONE, C64::ZERO, C64::ZERO, -C64::ONE),
        Gate::SqrtX(_) => Mat2::new(
            C64::new(0.5, 0.5),
            C64::new(0.5, -0.5),
            C64::new(0.5, -0.5),
            C64::new(0.5, 0.5),
        ),
        Gate::SqrtXdg(_) => Mat2::new(
            C64::new(0.5, -0.5),
            C64::new(0.5, 0.5),
            C64::new(0.5, 0.5),
            C64::new(0.5, -0.5),
        ),
        Gate::Rz { angle, .. } => rz_matrix(angle),
        Gate::Rx { angle, .. } => rx_matrix(angle),
        Gate::Ry { angle, .. } => ry_matrix(angle),
        ref g => panic!("single_qubit_matrix called with two-qubit gate {g}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gate;

    /// The ZYZ matrix `Rz(α) · Ry(β) · Rz(γ)` (no global phase).
    fn zyz_matrix(alpha: f64, beta: f64, gamma: f64) -> Mat2 {
        rz_matrix(alpha)
            .mul(&ry_matrix(beta))
            .mul(&rz_matrix(gamma))
    }

    #[test]
    fn complex_basics() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -1.0);
        assert_eq!(a + b, C64::new(4.0, 1.0));
        assert_eq!(a * b, C64::new(5.0, 5.0));
        assert!((C64::cis(std::f64::consts::PI) + C64::ONE).norm() < 1e-12);
        assert!((a.conj().im + 2.0).abs() < 1e-15);
    }

    #[test]
    fn zyz_roundtrip_on_standard_gates() {
        for gate in [
            Gate::H(0),
            Gate::S(0),
            Gate::Sdg(0),
            Gate::X(0),
            Gate::Y(0),
            Gate::Z(0),
            Gate::SqrtX(0),
            Gate::Rz {
                qubit: 0,
                angle: 0.7,
            },
            Gate::Rx {
                qubit: 0,
                angle: -1.3,
            },
            Gate::Ry {
                qubit: 0,
                angle: 2.2,
            },
        ] {
            let u = single_qubit_matrix(&gate);
            let (a, b, g) = zyz_decompose(&u);
            let rebuilt = zyz_matrix(a, b, g);
            assert!(
                rebuilt.distance_up_to_phase(&u) < 1e-9,
                "ZYZ roundtrip failed for {gate}"
            );
        }
    }

    #[test]
    fn zyz_roundtrip_on_products() {
        let gates = [
            Gate::H(0),
            Gate::S(0),
            Gate::Rz {
                qubit: 0,
                angle: 0.3,
            },
            Gate::H(0),
        ];
        let mut u = Mat2::identity();
        for g in &gates {
            u = single_qubit_matrix(g).mul(&u);
        }
        let (a, b, g) = zyz_decompose(&u);
        assert!(zyz_matrix(a, b, g).distance_up_to_phase(&u) < 1e-9);
    }

    #[test]
    fn hadamard_squared_is_identity() {
        let h = single_qubit_matrix(&Gate::H(0));
        assert!(h.mul(&h).is_identity_up_to_phase(1e-12));
    }

    #[test]
    fn sqrtx_squared_is_x() {
        let sx = single_qubit_matrix(&Gate::SqrtX(0));
        let x = single_qubit_matrix(&Gate::X(0));
        assert!(sx.mul(&sx).distance_up_to_phase(&x) < 1e-12);
    }

    #[test]
    fn s_times_sdg_is_identity() {
        let s = single_qubit_matrix(&Gate::S(0));
        let sdg = single_qubit_matrix(&Gate::Sdg(0));
        assert!(s.mul(&sdg).is_identity_up_to_phase(1e-12));
    }
}
