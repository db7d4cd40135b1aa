//! Symbol-domain Reed-Solomon code with a PGZ decoder, Vandermonde erasure
//! solving, and closed-form combined error-and-erasure decoding for
//! degraded reads.

use std::fmt;

use muse_gf::{Gf, GfError};

/// Error constructing an [`RsCode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// Underlying field construction failed.
    Field(GfError),
    /// `n` exceeds the field's maximum codeword length `2^s − 1`.
    TooLong {
        /// Requested codeword length in symbols.
        n: usize,
        /// The field's maximum length.
        max: usize,
    },
    /// `k ≥ n`, or the redundancy is not `2t` for `t ∈ {1, 2}`.
    BadGeometry {
        /// Requested codeword length in symbols.
        n: usize,
        /// Requested data length in symbols.
        k: usize,
    },
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Field(e) => write!(f, "field error: {e}"),
            Self::TooLong { n, max } => write!(f, "codeword length {n} exceeds field max {max}"),
            Self::BadGeometry { n, k } => write!(f, "unsupported RS geometry ({n},{k})"),
        }
    }
}

impl std::error::Error for RsError {}

impl From<GfError> for RsError {
    fn from(e: GfError) -> Self {
        Self::Field(e)
    }
}

/// Outcome of Reed-Solomon decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsDecoded {
    /// All syndromes were zero.
    Clean {
        /// The recovered data symbols.
        data: Vec<u16>,
    },
    /// Errors were located and corrected.
    Corrected {
        /// The recovered data symbols.
        data: Vec<u16>,
        /// `(position, error value)` pairs, positions in codeword order.
        errors: Vec<(usize, u16)>,
    },
    /// A detected-but-uncorrectable error.
    Detected,
}

impl RsDecoded {
    /// The data, if the word was clean or corrected.
    pub fn data(&self) -> Option<&[u16]> {
        match self {
            Self::Clean { data } | Self::Corrected { data, .. } => Some(data),
            Self::Detected => None,
        }
    }
}

/// A systematic Reed-Solomon code over GF(2^s).
///
/// The codeword vector `c[0..n]` holds the `2t` parity symbols in positions
/// `0..2t` and data in positions `2t..n` (remainder encoding: the codeword
/// polynomial is divisible by the generator `g(x) = Π (x − α^i)`,
/// `i ∈ [0, 2t)`).
///
/// # Examples
///
/// ```
/// use muse_rs::{RsCode, RsDecoded};
///
/// # fn main() -> Result<(), muse_rs::RsError> {
/// // RS(18,16) over GF(256): the paper's RS(144,128) ChipKill baseline.
/// let rs = RsCode::new(8, 18, 16)?;
/// let data: Vec<u16> = (0..16).map(|i| (i * 17) as u16).collect();
/// let mut cw = rs.encode(&data);
/// cw[5] ^= 0xA7; // corrupt one symbol
/// match rs.decode(&cw) {
///     RsDecoded::Corrected { data: d, errors } => {
///         assert_eq!(d, data);
///         assert_eq!(errors, vec![(5, 0xA7)]);
///     }
///     other => panic!("{other:?}"),
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RsCode {
    gf: Gf,
    n: usize,
    k: usize,
    t: usize,
    generator: Vec<u16>,
}

impl RsCode {
    /// Builds an RS code with `n` total and `k` data symbols over GF(2^s).
    ///
    /// # Errors
    ///
    /// Fails when the geometry is unsupported: `n − k` must be `2` or `4`
    /// (single- or double-symbol correction), and `n ≤ 2^s − 1`.
    pub fn new(symbol_bits: u32, n: usize, k: usize) -> Result<Self, RsError> {
        let gf = Gf::new(symbol_bits)?;
        let max = gf.size() as usize - 1;
        if n > max {
            return Err(RsError::TooLong { n, max });
        }
        if k >= n || !matches!(n - k, 2 | 4) {
            return Err(RsError::BadGeometry { n, k });
        }
        let t = (n - k) / 2;
        // g(x) = Π_{i=0}^{2t-1} (x − α^i)
        let mut generator = vec![1u16];
        for i in 0..2 * t {
            generator = gf.poly_mul(&generator, &[gf.alpha_pow(i as i64), 1]);
        }
        Ok(Self {
            gf,
            n,
            k,
            t,
            generator,
        })
    }

    /// Total symbols `n`.
    pub fn n_symbols(&self) -> usize {
        self.n
    }

    /// Data symbols `k`.
    pub fn k_symbols(&self) -> usize {
        self.k
    }

    /// Correctable symbol count `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// The underlying field.
    pub fn field(&self) -> &Gf {
        &self.gf
    }

    /// The generator polynomial, low-degree coefficient first.
    pub fn generator(&self) -> &[u16] {
        &self.generator
    }

    /// Encodes `k` data symbols into an `n`-symbol codeword
    /// (parity in positions `0..2t`, data above).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k` or a symbol exceeds the field.
    pub fn encode(&self, data: &[u16]) -> Vec<u16> {
        assert_eq!(data.len(), self.k, "expected {} data symbols", self.k);
        for &d in data {
            assert!(
                (d as u32) < self.gf.size(),
                "symbol {d:#x} outside the field"
            );
        }
        let r = 2 * self.t;
        let mut cw = vec![0u16; self.n];
        cw[r..].copy_from_slice(data);
        // Long division of data·x^r by g(x); the remainder is the parity.
        let mut rem = vec![0u16; r];
        for &d in data.iter().rev() {
            let feedback = self.gf.add(d, rem[r - 1]);
            for j in (1..r).rev() {
                rem[j] = self
                    .gf
                    .add(rem[j - 1], self.gf.mul(feedback, self.generator[j]));
            }
            rem[0] = self.gf.mul(feedback, self.generator[0]);
        }
        cw[..r].copy_from_slice(&rem);
        cw
    }

    /// Computes the `2t` syndromes `S_l = c(α^l)`.
    ///
    /// # Panics
    ///
    /// Panics if `cw.len() != n`.
    pub fn syndromes(&self, cw: &[u16]) -> Vec<u16> {
        assert_eq!(cw.len(), self.n, "expected {} codeword symbols", self.n);
        (0..2 * self.t)
            .map(|l| {
                let mut acc = 0u16;
                for &c in cw.iter().rev() {
                    acc = self
                        .gf
                        .add(self.gf.mul(acc, self.gf.alpha_pow(l as i64)), c);
                }
                acc
            })
            .collect()
    }

    /// Decodes a (possibly corrupted) codeword via the
    /// Peterson–Gorenstein–Zierler procedure.
    ///
    /// # Panics
    ///
    /// Panics if `cw.len() != n`.
    pub fn decode(&self, cw: &[u16]) -> RsDecoded {
        let synd = self.syndromes(cw);
        if synd.iter().all(|&s| s == 0) {
            return RsDecoded::Clean {
                data: cw[2 * self.t..].to_vec(),
            };
        }
        let errors = match self.locate_errors_fixed(&synd) {
            Some(located) => located.corrections().to_vec(),
            None => return RsDecoded::Detected,
        };
        let mut fixed = cw.to_vec();
        for &(pos, val) in &errors {
            fixed[pos] ^= val;
        }
        debug_assert!(self.syndromes(&fixed).iter().all(|&s| s == 0));
        RsDecoded::Corrected {
            data: fixed[2 * self.t..].to_vec(),
            errors,
        }
    }

    fn locate_t1(&self, synd: &[u16]) -> Option<RsCorrections> {
        let (s0, s1) = (synd[0], synd[1]);
        if s0 == 0 || s1 == 0 {
            // A true single error e at position j has S0 = e ≠ 0 and
            // S1 = e·α^j ≠ 0; anything else is uncorrectable.
            return None;
        }
        let pos = self.gf.log(self.gf.div(s1, s0)).expect("nonzero ratio") as usize;
        if pos >= self.n {
            return None;
        }
        Some(RsCorrections::of(&[(pos, s0)]))
    }

    /// Erasure decoding: corrects up to `2t` symbol errors at *known*
    /// positions (a code with `2t` parity symbols corrects twice as many
    /// erasures as errors — the permanent-chip-failure mode).
    ///
    /// Solves the Vandermonde system `Σ e_i·α^(l·p_i) = S_l` for the erased
    /// magnitudes ([`Self::erasure_magnitudes`]) and applies them.
    ///
    /// # Panics
    ///
    /// Panics if `cw.len() != n`, positions are out of range or duplicated,
    /// or more than `2t` positions are given.
    ///
    /// # Examples
    ///
    /// A `t = 1` code corrects **one** unknown symbol error but **two**
    /// erased symbols once the failed positions are known — the ChipKill
    /// degraded mode:
    ///
    /// ```
    /// use muse_rs::RsCode;
    ///
    /// # fn main() -> Result<(), muse_rs::RsError> {
    /// let rs = RsCode::new(8, 18, 16)?; // RS(144,128) in symbols, t = 1
    /// let data: Vec<u16> = (0..16).map(|i| (i * 7) as u16).collect();
    /// let mut cw = rs.encode(&data);
    /// cw[4] ^= 0xDE; // two known-failed chips return garbage
    /// cw[11] ^= 0xAD;
    /// assert_eq!(rs.decode_erasures(&cw, &[4, 11]), Some(data.clone()));
    ///
    /// // One erasure leaves a syndrome of margin: an extra unknown error
    /// // fails the residual check and is detected.
    /// let mut cw = rs.encode(&data);
    /// cw[4] ^= 0xDE;
    /// cw[7] ^= 0x01;
    /// assert_eq!(rs.decode_erasures(&cw, &[4]), None);
    /// # Ok(())
    /// # }
    /// ```
    pub fn decode_erasures(&self, cw: &[u16], positions: &[usize]) -> Option<Vec<u16>> {
        assert_eq!(cw.len(), self.n, "expected {} codeword symbols", self.n);
        let synd = self.syndromes(cw);
        let magnitudes = self.erasure_magnitudes(&synd, positions)?;
        let mut fixed = cw.to_vec();
        for (&p, &e) in positions.iter().zip(&magnitudes) {
            fixed[p] ^= e;
        }
        debug_assert!(self.syndromes(&fixed).iter().all(|&s| s == 0));
        Some(fixed[2 * self.t..].to_vec())
    }

    /// Syndrome-domain erasure solving: the error magnitudes at the known
    /// positions implied by the `2t` syndromes, or `None` when no
    /// assignment satisfies all of them (errors outside the erased set).
    ///
    /// This is [`Self::decode_erasures`] without the codeword: because the
    /// code is linear, `syndromes(cw ⊕ e) = syndromes(e)`, so it takes
    /// syndromes accumulated straight from the error pattern
    /// ([`RsMemoryCode::error_syndromes`](crate::RsMemoryCode::error_syndromes))
    /// and never materializes a word. Solves the leading `k × k` Vandermonde
    /// system by Gaussian elimination, then checks the `2t − k` remaining
    /// syndrome equations. It allocates per call, so the degraded read path
    /// uses the closed form of [`Self::decode_combined_ctx`] instead; this
    /// general solver backs [`Self::decode_erasures`] and is the reference
    /// the combined-decoding oracles compare against.
    ///
    /// # Panics
    ///
    /// Panics if `synd.len() != 2t`, positions are out of range or
    /// duplicated, or more than `2t` positions are given.
    pub fn erasure_magnitudes(&self, synd: &[u16], positions: &[usize]) -> Option<Vec<u16>> {
        assert_eq!(synd.len(), 2 * self.t, "expected {} syndromes", 2 * self.t);
        assert!(
            positions.len() <= 2 * self.t,
            "more erasures than parity symbols"
        );
        for (i, &p) in positions.iter().enumerate() {
            assert!(p < self.n, "erasure position {p} out of range");
            assert!(
                !positions[..i].contains(&p),
                "duplicate erasure position {p}"
            );
        }
        let k = positions.len();
        if k == 0 {
            return synd.iter().all(|&s| s == 0).then(Vec::new);
        }
        let gf = &self.gf;
        // Build the augmented matrix [α^(l·p_i) | S_l], l = 0..k.
        let mut mat: Vec<Vec<u16>> = (0..k)
            .map(|l| {
                let mut row: Vec<u16> = positions
                    .iter()
                    .map(|&p| gf.alpha_pow((l * p) as i64))
                    .collect();
                row.push(synd[l]);
                row
            })
            .collect();
        // Gaussian elimination (the Vandermonde system in distinct α^p_i is
        // nonsingular, so a pivot always exists).
        for col in 0..k {
            let pivot = (col..k).find(|&r| mat[r][col] != 0)?;
            mat.swap(col, pivot);
            let inv = gf.inv(mat[col][col]);
            for v in mat[col].iter_mut() {
                *v = gf.mul(*v, inv);
            }
            for r in 0..k {
                if r != col && mat[r][col] != 0 {
                    let factor = mat[r][col];
                    let pivot_row = mat[col].clone();
                    for (cell, &p) in mat[r].iter_mut().zip(&pivot_row) {
                        *cell = gf.add(*cell, gf.mul(factor, p));
                    }
                }
            }
        }
        let magnitudes: Vec<u16> = (0..k).map(|i| mat[i][k]).collect();
        // The solution must also satisfy the remaining syndrome equations.
        for (l, &s) in synd.iter().enumerate().skip(k) {
            let mut acc = s;
            for (&p, &e) in positions.iter().zip(&magnitudes) {
                acc = gf.add(acc, gf.mul(e, gf.alpha_pow((l * p) as i64)));
            }
            if acc != 0 {
                return None;
            }
        }
        Some(magnitudes)
    }

    /// Syndrome-domain error location: the PGZ procedure of
    /// [`Self::decode`] applied directly to a (nonzero) syndrome vector,
    /// returning the `(position, magnitude)` corrections the decoder would
    /// apply in a fixed-capacity [`RsCorrections`], or `None` for a
    /// detected-uncorrectable pattern.
    ///
    /// Feed it [`RsMemoryCode::error_syndromes`](crate::RsMemoryCode::error_syndromes)
    /// output to classify trials without a codeword. All-zero syndromes are
    /// the caller's "clean" fast path, not a location problem.
    ///
    /// # Panics
    ///
    /// Panics if `synd.len() != 2t` or all syndromes are zero.
    pub fn locate_errors_fixed(&self, synd: &[u16]) -> Option<RsCorrections> {
        assert_eq!(synd.len(), 2 * self.t, "expected {} syndromes", 2 * self.t);
        assert!(
            synd.iter().any(|&s| s != 0),
            "all-zero syndromes are a clean word, not a location problem"
        );
        match self.t {
            1 => self.locate_t1(synd),
            2 => self.locate_t2(synd),
            _ => unreachable!("t is validated to 1 or 2"),
        }
    }

    /// Precomputes every per-erasure-set constant of
    /// [`Self::decode_combined_ctx`] — the erasure locator `Γ(x)`, the
    /// inverse of the leading `ν × ν` syndrome Vandermonde, and the
    /// residual-check rows `α^(l·p_i)` — so repeated degraded reads against
    /// the same erased set do none of that work. `RsClassifier::resolve`
    /// builds one of these per degraded context.
    ///
    /// # Panics
    ///
    /// Panics if `erasures` is empty, has positions out of range or
    /// duplicated, or holds more than `2t` positions.
    pub fn combined_context(&self, erasures: &[usize]) -> CombinedContext {
        let nu = erasures.len();
        assert!(nu >= 1, "combined_context needs at least one erasure");
        assert!(nu <= 2 * self.t, "more erasures than parity symbols");
        for (i, &p) in erasures.iter().enumerate() {
            assert!(p < self.n, "erasure position {p} out of range");
            assert!(
                !erasures[..i].contains(&p),
                "duplicate erasure position {p}"
            );
        }
        let gf = &self.gf;
        // Erasure locator Γ(x) = Π (1 + X_i·x), X_i = α^{p_i} (char 2).
        let mut gamma = vec![1u16];
        for &p in erasures {
            gamma = gf.poly_mul(&gamma, &[1, gf.alpha_pow(p as i64)]);
        }
        // Invert the leading ν × ν Vandermonde V[l][i] = α^(l·p_i) by
        // Gauss-Jordan on [V | I] (nonsingular: the α^{p_i} are distinct).
        let mut mat: Vec<Vec<u16>> = (0..nu)
            .map(|l| {
                let mut row: Vec<u16> = erasures
                    .iter()
                    .map(|&p| gf.alpha_pow((l * p) as i64))
                    .collect();
                row.extend((0..nu).map(|i| u16::from(i == l)));
                row
            })
            .collect();
        for col in 0..nu {
            let pivot = (col..nu)
                .find(|&r| mat[r][col] != 0)
                .expect("distinct locators make the Vandermonde nonsingular");
            mat.swap(col, pivot);
            let inv = gf.inv(mat[col][col]);
            for v in mat[col].iter_mut() {
                *v = gf.mul(*v, inv);
            }
            for r in 0..nu {
                if r != col && mat[r][col] != 0 {
                    let factor = mat[r][col];
                    let pivot_row = mat[col].clone();
                    for (cell, &p) in mat[r].iter_mut().zip(&pivot_row) {
                        *cell = gf.add(*cell, gf.mul(factor, p));
                    }
                }
            }
        }
        let vinv: Vec<u16> = (0..nu).flat_map(|r| mat[r][nu..].to_vec()).collect();
        // Residual-check rows for the 2t − ν unconsumed syndromes.
        let check_rows: Vec<u16> = (nu..2 * self.t)
            .flat_map(|l| erasures.iter().map(move |&p| gf.alpha_pow((l * p) as i64)))
            .collect();
        CombinedContext {
            positions: erasures.to_vec(),
            gamma,
            vinv,
            check_rows,
        }
    }

    /// Forney-style **combined error-and-erasure** decoding in the syndrome
    /// domain, against the erased set of a precomputed [`CombinedContext`]:
    /// corrects `e` unknown errors on top of `ν` known-position erasures
    /// whenever `2e + ν ≤ 2t`, returning the full `(position, xor-magnitude)`
    /// correction list (the `ν` erasure fills — zero magnitudes included —
    /// plus any located error), or `None` for a detected-uncorrectable
    /// pattern.
    ///
    /// The procedure multiplies the syndrome polynomial by the erasure
    /// locator `Γ(x) = Π (1 + X_i x)`: in the modified syndromes
    /// `Ξ_j = Σ_k Γ_k·S_{j−k}` (`j ≥ ν`) the erasure contributions cancel,
    /// leaving pure error syndromes of capacity `⌊(2t − ν)/2⌋`, which for
    /// `t ≤ 2` and `ν ≥ 1` is at most one error. A single error `Y` at
    /// `X_q = α^q` leaves `Ξ_j = Y·X_q^j·Γ(X_q⁻¹)`, so the surviving
    /// geometric ratio `Ξ_{j+1}/Ξ_j = X_q` locates it and
    /// `Y = Ξ_ν / (X_q^ν·Γ(X_q⁻¹))` gives its value (`Γ(X_q⁻¹) ≠ 0` because
    /// `q` is not erased); all-zero `Ξ` means `Y = 0`. Either way the
    /// erasure fills are `V⁻¹·(S_l + Y·X_q^l)` over `l < ν` and every
    /// trailing equation `l ≥ ν` must hold with `Y·X_q^l` added. That is
    /// the unique solution of the leading `ν + 1` syndrome equations, so it
    /// equals what [`Self::erasure_magnitudes`] returns for the positions
    /// plus `q`; that general solver stays behind [`Self::decode_erasures`]
    /// and serves as the tests' reference. Per read there is no allocation,
    /// no elimination and no integer division: powers of `X_q` come from
    /// running products.
    ///
    /// # Panics
    ///
    /// Panics if `synd.len() != 2t`.
    ///
    /// # Examples
    ///
    /// A `t = 2` code correcting a transient error *under* an erased chip —
    /// the degraded-mode read a plain erasure decoder flags as DUE:
    ///
    /// ```
    /// use muse_rs::RsCode;
    ///
    /// # fn main() -> Result<(), muse_rs::RsError> {
    /// let rs = RsCode::new(8, 18, 14)?; // RS(144,112), t = 2
    /// let ctx = rs.combined_context(&[6]); // the known-failed (erased) chip
    /// let data: Vec<u16> = (0..14).map(|i| (i * 29) as u16 & 0xFF).collect();
    /// let mut cw = rs.encode(&data);
    /// cw[6] ^= 0x5A;  // the erased chip returns garbage
    /// cw[11] ^= 0x03; // an unknown transient strikes elsewhere
    ///
    /// let synd = rs.syndromes(&cw);
    /// let located = rs.decode_combined_ctx(&synd, &ctx).expect("2e + ν = 3 ≤ 2t");
    /// assert_eq!(located.corrections(), &[(6, 0x5A), (11, 0x03)]);
    /// for &(pos, mag) in located.corrections() {
    ///     cw[pos] ^= mag;
    /// }
    /// assert_eq!(&cw[4..], data.as_slice());
    ///
    /// // One more unknown error exceeds the budget and must flag DUE.
    /// let mut bad = rs.encode(&data);
    /// bad[6] ^= 0x5A;
    /// bad[11] ^= 0x03;
    /// bad[2] ^= 0x47;
    /// assert_eq!(rs.decode_combined_ctx(&rs.syndromes(&bad), &ctx), None);
    /// # Ok(())
    /// # }
    /// ```
    pub fn decode_combined_ctx(
        &self,
        synd: &[u16],
        ctx: &CombinedContext,
    ) -> Option<RsCorrections> {
        assert_eq!(synd.len(), 2 * self.t, "expected {} syndromes", 2 * self.t);
        let gf = &self.gf;
        let nu = ctx.positions.len();
        // Modified syndromes Ξ_j (j ≥ ν): erasure contributions vanish.
        let mut modified = [0u16; 4];
        let modified = &mut modified[..2 * self.t - nu];
        for (slot, j) in modified.iter_mut().zip(nu..) {
            for (k, &g) in ctx.gamma.iter().enumerate() {
                *slot ^= gf.mul(g, synd[j - k]);
            }
        }
        // The located error (q, Y) and X_q = α^q, or none when Ξ = 0.
        let (mut error, mut x_q) = (None, 0);
        if modified.iter().any(|&x| x != 0) {
            // A genuine single error makes every Ξ_j nonzero with constant
            // consecutive ratio X_q; fewer than two Ξ leave no capacity.
            // Only the first ratio is taken: the trailing checks below fail
            // for any Ξ that is not geometric.
            if modified.len() < 2 || modified[0] == 0 {
                return None;
            }
            x_q = gf.div(modified[1], modified[0]);
            let q = gf.log(x_q)? as usize;
            if q >= self.n || ctx.positions.contains(&q) {
                return None;
            }
            // X_q^ν·Γ(X_q⁻¹) = Σ_k Γ_k·X_q^(ν−k), by Horner in X_q; nonzero
            // because q is not erased, and Ξ_ν ≠ 0 makes Y nonzero.
            let scaled_gamma = ctx.gamma.iter().fold(0, |acc, &g| gf.mul(acc, x_q) ^ g);
            error = Some((q, gf.div(modified[0], scaled_gamma)));
        }
        // Y·X_q^l for l = 0..2t, as a running product.
        let mut error_term = [0u16; 4];
        let mut term = error.map_or(0, |(_, y)| y);
        for slot in &mut error_term[..2 * self.t] {
            *slot = term;
            term = gf.mul(term, x_q);
        }
        let mut out = RsCorrections::default();
        for (i, &p) in ctx.positions.iter().enumerate() {
            let row = &ctx.vinv[i * nu..(i + 1) * nu];
            let mut mag = 0u16;
            for ((&v, &s), &e) in row.iter().zip(synd).zip(&error_term) {
                mag ^= gf.mul(v, s ^ e);
            }
            out.pairs[i] = (p, mag);
        }
        out.len = nu as u8;
        for (l, row) in (nu..2 * self.t).zip(ctx.check_rows.chunks_exact(nu)) {
            let mut acc = synd[l] ^ error_term[l];
            for (&r, &(_, e)) in row.iter().zip(&out.pairs[..nu]) {
                acc ^= gf.mul(e, r);
            }
            if acc != 0 {
                return None;
            }
        }
        if let Some(located) = error {
            out.pairs[nu] = located;
            out.len += 1;
        }
        Some(out)
    }

    fn locate_t2(&self, synd: &[u16]) -> Option<RsCorrections> {
        let gf = &self.gf;
        let (s0, s1, s2, s3) = (synd[0], synd[1], synd[2], synd[3]);
        // ν = 2: solve [S0 S1; S1 S2]·[σ2 σ1]ᵀ = [S2 S3]ᵀ. The three 2×2
        // minors below (det = S0S2+S1², A = S0S3+S1S2, B = S1S3+S2²) come
        // from four logs plus six doubled-antilog lookups when every
        // syndrome is nonzero — the overwhelmingly common two-error shape —
        // with the general zero-checked products as the rare fallback.
        let (det, a, b) = if s0 != 0 && s1 != 0 && s2 != 0 && s3 != 0 {
            let l0 = gf.log(s0).expect("nonzero");
            let l1 = gf.log(s1).expect("nonzero");
            let l2 = gf.log(s2).expect("nonzero");
            let l3 = gf.log(s3).expect("nonzero");
            (
                gf.exp_sum(l0, l2) ^ gf.exp_sum(l1, l1),
                gf.exp_sum(l0, l3) ^ gf.exp_sum(l1, l2),
                gf.exp_sum(l1, l3) ^ gf.exp_sum(l2, l2),
            )
        } else {
            (
                gf.add(gf.mul(s0, s2), gf.mul(s1, s1)),
                gf.add(gf.mul(s0, s3), gf.mul(s1, s2)),
                gf.add(gf.mul(s1, s3), gf.mul(s2, s2)),
            )
        };
        if det != 0 {
            // Λ(x) = 1 + σ1·x + σ2·x² (σ1 = A/det, σ2 = B/det) must have
            // two distinct in-range roots (the inverse locators
            // X_i⁻¹ = α^{-pos}). Closed form instead of a per-position
            // Chien scan: a degenerate Λ (σ2 = 0: degree < 2; σ1 = 0: a
            // repeated root, since squaring is bijective in char 2) never
            // has two distinct roots, and otherwise the substitution
            // x = (σ1/σ2)·y normalizes it to y² + y = c with
            // c = σ2/σ1² = B·det/A², which the field's precomputed
            // half-trace table solves in O(1) (`Gf::quad_solve`);
            // Tr(c) = 1 means Λ is irreducible. Everything else is
            // exponent arithmetic in the log domain:
            // pos_i = −log((A/B)·y_i) = log B − log A − log y_i.
            if a == 0 || b == 0 {
                return None;
            }
            let la = gf.log(a).expect("nonzero") as i64;
            let lb = gf.log(b).expect("nonzero") as i64;
            let ldet = gf.log(det).expect("nonzero") as i64;
            // Every exponent below is bounded in [0, 4·order) by
            // construction (sums/differences of at most three reduced
            // logs), so two conditional subtractions replace the general
            // modular reduction — no integer division on the hot path.
            let order = gf.size() as i64 - 1;
            let red = |mut e: i64| -> u32 {
                debug_assert!((0..4 * order).contains(&e));
                if e >= 2 * order {
                    e -= 2 * order;
                }
                if e >= order {
                    e -= order;
                }
                e as u32
            };
            let c = gf.exp_at(red(lb + ldet - 2 * la + 2 * order));
            let y = gf.quad_solve(c)?;
            // c ≠ 0 (σ2 ≠ 0), so y ∉ {0, 1} and both roots are nonzero.
            let ly1 = gf.log(y).expect("y ∉ {0, 1}") as i64;
            let ly2 = gf.log(y ^ 1).expect("y ∉ {0, 1}") as i64;
            let p1 = red(lb - la - ly1 + 2 * order) as usize;
            let p2 = red(lb - la - ly2 + 2 * order) as usize;
            if p1 >= self.n || p2 >= self.n {
                // A root beyond the (shortened) length is not a codeword
                // position: detected-uncorrectable.
                return None;
            }
            let (p1, p2) = (p1.min(p2), p1.max(p2));
            let (x1, x2) = (gf.exp_at(p1 as u32), gf.exp_at(p2 as u32));
            // e1 + e2 = S0; e1·X1 + e2·X2 = S1.
            let num = gf.add(s1, gf.mul(s0, x2));
            if num == 0 {
                // e1 = 0: fewer than two genuine errors.
                return None;
            }
            let lnum = gf.log(num).expect("nonzero");
            let lden = gf.log(gf.add(x1, x2)).expect("p1 ≠ p2");
            let e1 = gf.exp_at(lnum + order as u32 - lden);
            let e2 = gf.add(s0, e1);
            if e2 == 0 {
                return None;
            }
            return Some(RsCorrections::of(&[(p1, e1), (p2, e2)]));
        }
        // ν = 1: S_l = e·α^{l·pos} for all four syndromes.
        if s0 == 0 {
            return None;
        }
        let ratio = gf.div(s1, s0);
        let pos = gf.log(ratio)? as usize;
        if pos >= self.n {
            return None;
        }
        if gf.mul(s1, ratio) != s2 || gf.mul(s2, ratio) != s3 {
            return None;
        }
        Some(RsCorrections::of(&[(pos, s0)]))
    }
}

/// The precomputed per-erasure-set constants of combined decoding: the
/// erasure locator `Γ(x)`, the inverse of the leading `ν × ν` syndrome
/// Vandermonde, and the residual-check rows. Built once per degraded
/// context by [`RsCode::combined_context`]; consumed per read by
/// [`RsCode::decode_combined_ctx`].
#[derive(Debug, Clone)]
pub struct CombinedContext {
    /// The erased symbol positions, in the order given at construction.
    positions: Vec<usize>,
    /// `Γ(x) = Π (1 + α^{p_i}·x)` coefficients, low-degree-first (ν + 1).
    gamma: Vec<u16>,
    /// Row-major inverse of `V[l][i] = α^(l·p_i)`, `l, i < ν`:
    /// `mags = V⁻¹ · synd[..ν]`.
    vinv: Vec<u16>,
    /// Rows `α^(l·p_i)` for `l = ν..2t`: the trailing syndrome equations
    /// the solved magnitudes must also satisfy.
    check_rows: Vec<u16>,
}

impl CombinedContext {
    /// The erased symbol positions this context was built for.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }
}

/// A decoder's correction list in fixed-capacity form: up to `t ≤ 2`
/// located errors, or `ν ≤ 2t ≤ 4` erasure fills plus at most one located
/// error — no allocation on the Monte-Carlo and degraded hot paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RsCorrections {
    pairs: [(usize, u16); 5],
    len: u8,
}

impl RsCorrections {
    fn of(pairs: &[(usize, u16)]) -> Self {
        let mut out = Self::default();
        out.pairs[..pairs.len()].copy_from_slice(pairs);
        out.len = pairs.len() as u8;
        out
    }

    /// The `(position, xor-magnitude)` corrections (erasure fills — zero
    /// magnitudes included — plus any located error).
    pub fn corrections(&self) -> &[(usize, u16)] {
        &self.pairs[..self.len as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs_18_16() -> RsCode {
        RsCode::new(8, 18, 16).unwrap()
    }

    #[test]
    fn geometry_validation() {
        assert!(matches!(
            RsCode::new(4, 20, 18),
            Err(RsError::TooLong { n: 20, max: 15 })
        ));
        assert!(matches!(
            RsCode::new(8, 18, 15),
            Err(RsError::BadGeometry { .. })
        ));
        assert!(matches!(
            RsCode::new(8, 18, 18),
            Err(RsError::BadGeometry { .. })
        ));
        assert!(RsCode::new(8, 18, 14).is_ok()); // t = 2
    }

    #[test]
    fn generator_has_expected_roots() {
        let rs = rs_18_16();
        let gf = rs.field();
        for i in 0..2 {
            assert_eq!(gf.poly_eval(rs.generator(), gf.alpha_pow(i)), 0);
        }
        assert_eq!(rs.generator().len(), 3);
    }

    #[test]
    fn encode_is_systematic_and_valid() {
        let rs = rs_18_16();
        let data: Vec<u16> = (0..16).map(|i| (i * 13 + 7) as u16 & 0xFF).collect();
        let cw = rs.encode(&data);
        assert_eq!(&cw[2..], data.as_slice());
        assert!(rs.syndromes(&cw).iter().all(|&s| s == 0));
    }

    #[test]
    fn clean_decode() {
        let rs = rs_18_16();
        let data = vec![0xAB; 16];
        match rs.decode(&rs.encode(&data)) {
            RsDecoded::Clean { data: d } => assert_eq!(d, data),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn corrects_every_single_symbol_error() {
        let rs = rs_18_16();
        let data: Vec<u16> = (0..16).map(|i| (i * i) as u16 & 0xFF).collect();
        let cw = rs.encode(&data);
        for pos in 0..18 {
            for val in [1u16, 0x80, 0xFF, 0x5A] {
                let mut bad = cw.clone();
                bad[pos] ^= val;
                match rs.decode(&bad) {
                    RsDecoded::Corrected { data: d, errors } => {
                        assert_eq!(d, data, "pos {pos} val {val:#x}");
                        assert_eq!(errors, vec![(pos, val)]);
                    }
                    other => panic!("pos {pos} val {val:#x}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn t2_corrects_double_symbol_errors() {
        let rs = RsCode::new(8, 18, 14).unwrap();
        let data: Vec<u16> = (0..14).map(|i| (0xE0 + i) as u16).collect();
        let cw = rs.encode(&data);
        for (a, b) in [(0usize, 1usize), (3, 17), (5, 9), (16, 17)] {
            let mut bad = cw.clone();
            bad[a] ^= 0x3C;
            bad[b] ^= 0xC3;
            match rs.decode(&bad) {
                RsDecoded::Corrected {
                    data: d,
                    mut errors,
                } => {
                    assert_eq!(d, data, "({a},{b})");
                    errors.sort_unstable();
                    assert_eq!(errors, vec![(a, 0x3C), (b, 0xC3)]);
                }
                other => panic!("({a},{b}): {other:?}"),
            }
        }
    }

    #[test]
    fn t2_still_corrects_single_errors() {
        let rs = RsCode::new(8, 18, 14).unwrap();
        let data = vec![0x11; 14];
        let cw = rs.encode(&data);
        let mut bad = cw.clone();
        bad[7] ^= 0x42;
        match rs.decode(&bad) {
            RsDecoded::Corrected { data: d, errors } => {
                assert_eq!(d, data);
                assert_eq!(errors, vec![(7, 0x42)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shortened_code_rejects_out_of_range_locations() {
        // A heavily shortened code: many locator values point beyond n and
        // must be flagged Detected rather than miscorrected.
        let rs = RsCode::new(8, 10, 8).unwrap();
        let data = vec![0x77; 8];
        let cw = rs.encode(&data);
        let mut detected = 0;
        let mut trials = 0;
        for a in 0..10usize {
            for b in (a + 1)..10 {
                let mut bad = cw.clone();
                bad[a] ^= 0x0F;
                bad[b] ^= 0xF0;
                trials += 1;
                match rs.decode(&bad) {
                    RsDecoded::Clean { .. } => panic!("double error read clean"),
                    RsDecoded::Detected => detected += 1,
                    RsDecoded::Corrected { data: d, .. } => assert_ne!(d, data),
                }
            }
        }
        assert!(trials > 0 && detected > 0);
    }

    #[test]
    fn gf16_chipkill_geometry() {
        // RS over GF(16) is limited to 15 symbols: exactly why 4-bit-symbol
        // RS cannot cover a 144-bit (36-nibble) channel (Section VII-A).
        assert!(matches!(
            RsCode::new(4, 36, 34),
            Err(RsError::TooLong { n: 36, max: 15 })
        ));
        let rs = RsCode::new(4, 15, 13).unwrap();
        let data: Vec<u16> = (0..13).map(|i| i as u16 & 0xF).collect();
        let cw = rs.encode(&data);
        let mut bad = cw.clone();
        bad[14] ^= 0x9;
        assert_eq!(rs.decode(&bad).data(), Some(data.as_slice()));
    }

    #[test]
    fn erasure_decoding_doubles_correction_power() {
        // A t=1 code (2 parity symbols) corrects TWO erased symbols.
        let rs = rs_18_16();
        let data: Vec<u16> = (0..16).map(|i| (i * 31 + 5) as u16 & 0xFF).collect();
        let cw = rs.encode(&data);
        for (a, b) in [(0usize, 1usize), (2, 17), (9, 10), (16, 17)] {
            let mut bad = cw.clone();
            bad[a] ^= 0xDE;
            bad[b] ^= 0xAD;
            assert_eq!(
                rs.decode_erasures(&bad, &[a, b]),
                Some(data.clone()),
                "({a},{b})"
            );
        }
        // Also with only one of the two actually corrupted.
        let mut bad = cw.clone();
        bad[7] ^= 0x42;
        assert_eq!(rs.decode_erasures(&bad, &[7, 8]), Some(data.clone()));
        // And with none corrupted.
        assert_eq!(rs.decode_erasures(&cw, &[3, 4]), Some(data.clone()));
        assert_eq!(rs.decode_erasures(&cw, &[]), Some(data));
    }

    #[test]
    fn erasure_decoding_rejects_extra_errors() {
        // An error OUTSIDE the erased set leaves residual syndromes... for a
        // t=1 code both syndromes are consumed by two erasures, so instead
        // test with a t=2 code: 4 syndromes, 2 erasures, 1 extra error.
        let rs = RsCode::new(8, 18, 14).unwrap();
        let data = vec![0x21u16; 14];
        let cw = rs.encode(&data);
        let mut bad = cw.clone();
        bad[3] ^= 0x11;
        bad[4] ^= 0x22;
        bad[10] ^= 0x33; // not in the erased set
        assert_eq!(rs.decode_erasures(&bad, &[3, 4]), None);
    }

    #[test]
    fn erasure_magnitudes_match_wide_erasure_decode() {
        // Syndrome-domain solving == codeword-domain decode_erasures, for
        // t = 1 and t = 2, random erasure sets and extra errors.
        let mut state = 0x0E2A_5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (n, k_data) in [(18usize, 16usize), (18, 14), (10, 8)] {
            let rs = RsCode::new(8, n, k_data).unwrap();
            let t2 = 2 * rs.t();
            let data: Vec<u16> = (0..k_data).map(|_| (next() & 0xFF) as u16).collect();
            let cw = rs.encode(&data);
            for trial in 0..300u64 {
                // Erase 0..=2t distinct positions, inject 0..3 errors
                // anywhere (inside or outside the erased set).
                let n_erase = (next() % (t2 as u64 + 1)) as usize;
                let mut positions: Vec<usize> = Vec::new();
                while positions.len() < n_erase {
                    let p = (next() % n as u64) as usize;
                    if !positions.contains(&p) {
                        positions.push(p);
                    }
                }
                let mut bad = cw.clone();
                for _ in 0..next() % 3 {
                    bad[(next() % n as u64) as usize] ^= (next() & 0xFF) as u16;
                }
                let wide = rs.decode_erasures(&bad, &positions);
                let synd = rs.syndromes(&bad);
                match (rs.erasure_magnitudes(&synd, &positions), &wide) {
                    (None, None) => {}
                    (Some(mags), Some(d)) => {
                        let mut fixed = bad.clone();
                        for (&p, &e) in positions.iter().zip(&mags) {
                            fixed[p] ^= e;
                        }
                        assert_eq!(&fixed[t2..], d.as_slice(), "n={n} trial {trial}");
                    }
                    (fast, wide) => {
                        panic!("n={n} trial {trial}: fast {fast:?} vs wide {wide:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn locate_errors_matches_decode() {
        for (n, k_data) in [(18usize, 16usize), (18, 14)] {
            let rs = RsCode::new(8, n, k_data).unwrap();
            let data: Vec<u16> = (0..k_data).map(|i| (i * 11 + 3) as u16 & 0xFF).collect();
            let cw = rs.encode(&data);
            let mut state = 0x10CAu64;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 16
            };
            for trial in 0..300u64 {
                let k_err = 1 + (trial % 3) as usize;
                let mut bad = cw.clone();
                for _ in 0..k_err {
                    bad[(next() % n as u64) as usize] ^= (next() & 0xFF) as u16;
                }
                let synd = rs.syndromes(&bad);
                if synd.iter().all(|&s| s == 0) {
                    continue; // errors cancelled: a clean word
                }
                match (rs.locate_errors_fixed(&synd), rs.decode(&bad)) {
                    (None, RsDecoded::Detected) => {}
                    (Some(located), RsDecoded::Corrected { mut errors, .. }) => {
                        let mut located = located.corrections().to_vec();
                        located.sort_unstable();
                        errors.sort_unstable();
                        assert_eq!(located, errors, "n={n} trial {trial}");
                    }
                    (fast, wide) => panic!("n={n} trial {trial}: {fast:?} vs {wide:?}"),
                }
            }
        }
    }

    #[test]
    fn full_erasure_budget_has_no_detection_margin() {
        // k = 2t erasures consume every syndrome: the solve always succeeds,
        // so an extra unknown error silently lands in the recovered data.
        let rs = rs_18_16();
        let data = vec![0x3Cu16; 16];
        let mut bad = rs.encode(&data);
        bad[2] ^= 0x55; // erased pair
        bad[3] ^= 0xAA;
        bad[9] ^= 0x01; // the extra, unknown error
        let recovered = rs
            .decode_erasures(&bad, &[2, 3])
            .expect("no residual syndromes remain to reject it");
        assert_ne!(recovered, data, "the extra error is silent corruption");
    }

    #[test]
    #[should_panic(expected = "more erasures than parity")]
    fn too_many_erasures_panics() {
        let rs = rs_18_16();
        let cw = rs.encode(&[0u16; 16]);
        let _ = rs.decode_erasures(&cw, &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "duplicate erasure")]
    fn duplicate_erasures_panic() {
        let rs = rs_18_16();
        let cw = rs.encode(&[0u16; 16]);
        let _ = rs.decode_erasures(&cw, &[5, 5]);
    }

    #[test]
    #[should_panic(expected = "outside the field")]
    fn oversized_symbol_panics() {
        let rs = RsCode::new(4, 15, 13).unwrap();
        let _ = rs.encode(&[0x1F; 13]);
    }
}
