//! Galois-field GF(2^s) arithmetic for the Reed-Solomon baseline.
//!
//! Fields of width 2..=12 bits are supported, which covers every symbol size
//! the paper's Reed-Solomon comparisons use (4..=8 bits). Multiplication and
//! division run on log/antilog tables, mirroring the lookup-table hardware
//! implementation the paper synthesizes ("for simplicity, we picked lookup
//! tables to implement Galois Field arithmetic").
//!
//! # Examples
//!
//! ```
//! use muse_gf::Gf;
//!
//! # fn main() -> Result<(), muse_gf::GfError> {
//! let gf = Gf::new(8)?; // GF(256) with the standard polynomial 0x11D
//! let a = 0x53;
//! let b = 0xCA;
//! let p = gf.mul(a, b);
//! assert_eq!(gf.div(p, b), a);
//! assert_eq!(gf.add(a, a), 0); // characteristic 2
//! # Ok(())
//! # }
//! ```

use std::fmt;

/// Error constructing a [`Gf`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GfError {
    /// Field width outside the supported 2..=12 range.
    UnsupportedWidth(u32),
    /// The polynomial has the wrong degree for the width.
    WrongDegree {
        /// The rejected polynomial.
        poly: u32,
        /// The requested field width.
        width: u32,
    },
    /// The polynomial is not primitive (α does not generate the
    /// multiplicative group).
    NotPrimitive(u32),
}

impl fmt::Display for GfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnsupportedWidth(w) => write!(f, "unsupported field width {w} (need 2..=12)"),
            Self::WrongDegree { poly, width } => {
                write!(f, "polynomial {poly:#x} does not have degree {width}")
            }
            Self::NotPrimitive(poly) => write!(f, "polynomial {poly:#x} is not primitive"),
        }
    }
}

impl std::error::Error for GfError {}

/// Default primitive polynomials per width (minimum-weight, the usual
/// standards: e.g. `x^8+x^4+x^3+x^2+1` for GF(256)).
const DEFAULT_POLYS: [u32; 13] = [
    0, 0, 0b111, 0b1011, 0x13, 0x25, 0x43, 0x89, 0x11D, 0x211, 0x409, 0x805, 0x1053,
];

/// A finite field GF(2^s) with log/antilog multiplication tables.
#[derive(Clone)]
pub struct Gf {
    width: u32,
    size: u32,
    poly: u32,
    exp: Vec<u16>,   // exp[i] = α^i for i in [0, 2(size-1))
    log: Vec<u16>,   // log[x] for x in [1, size)
    qroot: Vec<u16>, // qroot[c] = min y with y²+y=c, or NO_ROOT (Tr(c)=1)
}

/// Sentinel in the quadratic-root table: `y² + y = c` has no solution
/// (equivalently `Tr(c) = 1`, true for exactly half the field).
const NO_ROOT: u16 = u16::MAX;

impl fmt::Debug for Gf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf(2^{}, poly={:#x})", self.width, self.poly)
    }
}

impl Gf {
    /// Constructs GF(2^width) with the standard primitive polynomial.
    ///
    /// # Errors
    ///
    /// Fails if `width` is outside 2..=12.
    pub fn new(width: u32) -> Result<Self, GfError> {
        if !(2..=12).contains(&width) {
            return Err(GfError::UnsupportedWidth(width));
        }
        Self::with_poly(width, DEFAULT_POLYS[width as usize])
    }

    /// Constructs GF(2^width) with an explicit primitive polynomial
    /// (degree-`width`, given with its leading term, e.g. `0x11D`).
    ///
    /// # Errors
    ///
    /// Fails if the width is unsupported, the degree is wrong, or the
    /// polynomial is not primitive.
    pub fn with_poly(width: u32, poly: u32) -> Result<Self, GfError> {
        if !(2..=12).contains(&width) {
            return Err(GfError::UnsupportedWidth(width));
        }
        if 32 - poly.leading_zeros() != width + 1 {
            return Err(GfError::WrongDegree { poly, width });
        }
        let size = 1u32 << width;
        let mut exp = vec![0u16; 2 * (size as usize - 1)];
        let mut log = vec![0u16; size as usize];
        let mut x: u32 = 1;
        for (i, slot) in exp.iter_mut().enumerate().take(size as usize - 1) {
            if x == 1 && i != 0 {
                return Err(GfError::NotPrimitive(poly)); // short cycle
            }
            *slot = x as u16;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & size != 0 {
                x ^= poly;
            }
        }
        if x != 1 {
            return Err(GfError::NotPrimitive(poly));
        }
        for i in 0..size as usize - 1 {
            exp[i + size as usize - 1] = exp[i];
        }
        let mut gf = Self {
            width,
            size,
            poly,
            exp,
            log,
            qroot: Vec::new(),
        };
        // Tabulated half-trace: y ↦ y² + y is 2-to-1 (y and y+1 collide)
        // onto the trace-zero hyperplane, so recording the smaller preimage
        // of every image yields a constant-time solver for the normalized
        // quadratic y² + y = c — the root step of the closed-form t = 2
        // error locator in `muse-rs`.
        let mut qroot = vec![NO_ROOT; size as usize];
        for y in 0..size as u16 {
            let c = gf.mul(y, y) ^ y;
            if qroot[c as usize] == NO_ROOT {
                qroot[c as usize] = y;
            }
        }
        gf.qroot = qroot;
        Ok(gf)
    }

    /// Field width `s` in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of field elements `2^s`.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// The construction polynomial.
    pub fn poly(&self) -> u32 {
        self.poly
    }

    /// Addition (= subtraction): bitwise XOR.
    #[inline]
    pub fn add(&self, a: u16, b: u16) -> u16 {
        a ^ b
    }

    /// Multiplication via log/antilog tables.
    ///
    /// # Panics
    ///
    /// Panics (debug) if an operand is outside the field.
    #[inline]
    pub fn mul(&self, a: u16, b: u16) -> u16 {
        debug_assert!((a as u32) < self.size && (b as u32) < self.size);
        if a == 0 || b == 0 {
            return 0;
        }
        self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
    }

    /// Division: one lookup in the doubled antilog table, since
    /// `log a + (2^s − 1) − log b < 2(2^s − 1)` needs no modular reduction.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    #[inline]
    pub fn div(&self, a: u16, b: u16) -> u16 {
        assert!(b != 0, "GF division by zero");
        if a == 0 {
            return 0;
        }
        let order = self.size as usize - 1;
        self.exp[self.log[a as usize] as usize + order - self.log[b as usize] as usize]
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0`.
    #[inline]
    pub fn inv(&self, a: u16) -> u16 {
        self.div(1, a)
    }

    /// `α^i` for any integer exponent (negative exponents allowed).
    pub fn alpha_pow(&self, i: i64) -> u16 {
        let order = self.size as i64 - 1;
        let e = i.rem_euclid(order) as usize;
        self.exp[e]
    }

    /// `a^e` by exponent arithmetic in the log domain.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0` and `e <= 0`.
    pub fn pow(&self, a: u16, e: i64) -> u16 {
        if a == 0 {
            assert!(e > 0, "0^e undefined for e <= 0");
            return 0;
        }
        let order = self.size as i64 - 1;
        let la = self.log[a as usize] as i64;
        self.exp[(la * e).rem_euclid(order) as usize]
    }

    /// `α^(la + lb)` for two discrete logs `la, lb < 2^s − 1`: one lookup
    /// in the doubled antilog table, no modular reduction — the hot-loop
    /// form of a product whose factors' logs are already known.
    #[inline]
    pub fn exp_sum(&self, la: u32, lb: u32) -> u16 {
        self.exp[(la + lb) as usize]
    }

    /// `α^e` for an exponent already known to lie in `[0, 2(2^s − 1))`: a
    /// bare doubled-antilog lookup. The division-free form of
    /// [`Self::alpha_pow`] for hot loops whose exponent arithmetic is
    /// bounded by construction (reduce with conditional subtraction of the
    /// group order first).
    ///
    /// # Panics
    ///
    /// Panics if `e ≥ 2(2^s − 1)`.
    #[inline]
    pub fn exp_at(&self, e: u32) -> u16 {
        self.exp[e as usize]
    }

    /// Discrete log base α, or `None` for zero.
    pub fn log(&self, a: u16) -> Option<u32> {
        if a == 0 {
            None
        } else {
            Some(self.log[a as usize] as u32)
        }
    }

    /// The absolute trace `Tr(a) = a + a² + a⁴ + … + a^(2^(s-1))`,
    /// always 0 or 1.
    pub fn trace(&self, a: u16) -> u16 {
        let mut acc = 0u16;
        let mut x = a;
        for _ in 0..self.width {
            acc ^= x;
            x = self.mul(x, x);
        }
        debug_assert!(acc <= 1, "trace lies in the prime subfield");
        acc
    }

    /// Solves the normalized quadratic `y² + y = c` in constant time via
    /// the precomputed half-trace table: returns the smaller root (the
    /// other is `y ^ 1`), or `None` when `Tr(c) = 1` and no root exists.
    #[inline]
    pub fn quad_solve(&self, c: u16) -> Option<u16> {
        match self.qroot[c as usize] {
            NO_ROOT => None,
            y => Some(y),
        }
    }

    /// Evaluates a polynomial (coefficients low-degree-first) at `x` by
    /// Horner's rule.
    pub fn poly_eval(&self, coeffs: &[u16], x: u16) -> u16 {
        let mut acc = 0u16;
        for &c in coeffs.iter().rev() {
            acc = self.add(self.mul(acc, x), c);
        }
        acc
    }

    /// Multiplies two polynomials (coefficients low-degree-first).
    ///
    /// # Panics
    ///
    /// Panics if either polynomial is empty.
    pub fn poly_mul(&self, a: &[u16], b: &[u16]) -> Vec<u16> {
        assert!(!a.is_empty() && !b.is_empty(), "empty polynomial");
        let mut out = vec![0u16; a.len() + b.len() - 1];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            for (j, &bj) in b.iter().enumerate() {
                out[i + j] ^= self.mul(ai, bj);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_default_polys_are_primitive() {
        for width in 2..=12 {
            let gf = Gf::new(width).unwrap();
            assert_eq!(gf.size(), 1 << width);
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(matches!(Gf::new(1), Err(GfError::UnsupportedWidth(1))));
        assert!(matches!(Gf::new(13), Err(GfError::UnsupportedWidth(13))));
        assert!(matches!(
            Gf::with_poly(8, 0x3),
            Err(GfError::WrongDegree { .. })
        ));
        // x^4 + x^3 + x^2 + x + 1 has order 5, not primitive in GF(16).
        assert!(matches!(
            Gf::with_poly(4, 0b11111),
            Err(GfError::NotPrimitive(0b11111))
        ));
    }

    #[test]
    fn gf16_multiplication_table_spot_checks() {
        let gf = Gf::new(4).unwrap(); // x^4 + x + 1
        assert_eq!(gf.mul(0b0010, 0b0010), 0b0100); // α·α = α²
        assert_eq!(gf.mul(0b1000, 0b0010), 0b0011); // α³·α = α⁴ = α+1
        assert_eq!(gf.mul(0, 7), 0);
        assert_eq!(gf.mul(1, 7), 7);
    }

    #[test]
    fn field_axioms_exhaustive_gf16() {
        let gf = Gf::new(4).unwrap();
        let n = gf.size() as u16;
        for a in 0..n {
            for b in 0..n {
                assert_eq!(gf.mul(a, b), gf.mul(b, a));
                for c in 0..n {
                    assert_eq!(gf.mul(a, gf.mul(b, c)), gf.mul(gf.mul(a, b), c));
                    assert_eq!(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn inverses_gf256() {
        let gf = Gf::new(8).unwrap();
        for a in 1..256u16 {
            let inv = gf.inv(a);
            assert_eq!(gf.mul(a, inv), 1, "a={a}");
            assert_eq!(gf.div(a, a), 1);
        }
    }

    #[test]
    fn div_inverts_mul_at_every_width() {
        // Exhaustive over every (a, b ≠ 0) pair: 16.8M pairs at 12 bits.
        for width in 2..=12 {
            let gf = Gf::new(width).unwrap();
            let n = gf.size() as u16;
            for a in 0..n {
                for b in 1..n {
                    assert_eq!(gf.mul(gf.div(a, b), b), a, "width {width}: {a}/{b}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let gf = Gf::new(4).unwrap();
        let _ = gf.div(3, 0);
    }

    #[test]
    fn alpha_powers_wrap() {
        let gf = Gf::new(8).unwrap();
        assert_eq!(gf.alpha_pow(0), 1);
        assert_eq!(gf.alpha_pow(255), 1);
        assert_eq!(gf.alpha_pow(-1), gf.inv(gf.alpha_pow(1)));
        assert_eq!(gf.alpha_pow(256), gf.alpha_pow(1));
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let gf = Gf::new(5).unwrap();
        for a in 1..32u16 {
            let mut acc = 1u16;
            for e in 0..40i64 {
                assert_eq!(gf.pow(a, e), acc, "a={a} e={e}");
                acc = gf.mul(acc, a);
            }
        }
    }

    #[test]
    fn log_exp_roundtrip() {
        let gf = Gf::new(6).unwrap();
        assert_eq!(gf.log(0), None);
        for a in 1..64u16 {
            let l = gf.log(a).unwrap();
            assert_eq!(gf.alpha_pow(l as i64), a);
        }
    }

    #[test]
    fn trace_is_additive_and_balanced() {
        for width in [4u32, 8] {
            let gf = Gf::new(width).unwrap();
            let n = gf.size() as u16;
            let ones: u32 = (0..n).map(|a| gf.trace(a) as u32).sum();
            // Tr is a surjective linear form onto GF(2): half the field
            // on each fiber.
            assert_eq!(ones, gf.size() / 2);
            for a in 0..n {
                for b in [0u16, 1, 7, n - 1] {
                    assert_eq!(gf.trace(a ^ b), gf.trace(a) ^ gf.trace(b));
                }
                // Frobenius invariance: Tr(a²) = Tr(a).
                assert_eq!(gf.trace(gf.mul(a, a)), gf.trace(a));
            }
        }
    }

    #[test]
    fn quad_solve_exhaustive() {
        for width in [4u32, 8, 10] {
            let gf = Gf::new(width).unwrap();
            for c in 0..gf.size() as u16 {
                match gf.quad_solve(c) {
                    Some(y) => {
                        assert_eq!(gf.mul(y, y) ^ y, c, "root check c={c}");
                        // The companion root is y+1; the table holds the
                        // smaller one, and solvable ⇔ Tr(c) = 0.
                        let y2 = y ^ 1;
                        assert_eq!(gf.mul(y2, y2) ^ y2, c);
                        assert_eq!(y, y.min(y2));
                        assert_eq!(gf.trace(c), 0, "c={c}");
                    }
                    None => assert_eq!(gf.trace(c), 1, "c={c}"),
                }
            }
        }
    }

    #[test]
    fn poly_eval_horner() {
        let gf = Gf::new(4).unwrap();
        // p(x) = 3 + x (coefficients low-first): p(α) = 3 ^ α
        let p = [3u16, 1];
        assert_eq!(gf.poly_eval(&p, 2), 3 ^ 2);
        assert_eq!(gf.poly_eval(&[], 5), 0);
    }

    #[test]
    fn poly_mul_against_eval() {
        let gf = Gf::new(8).unwrap();
        let a = [1u16, 7, 0, 3];
        let b = [5u16, 2];
        let prod = gf.poly_mul(&a, &b);
        for x in [0u16, 1, 2, 77, 200] {
            assert_eq!(
                gf.poly_eval(&prod, x),
                gf.mul(gf.poly_eval(&a, x), gf.poly_eval(&b, x))
            );
        }
    }
}
