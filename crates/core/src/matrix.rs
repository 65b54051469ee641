//! The communication matrix (Section III-C).
//!
//! Cell `(i, j)` accumulates the amount of communication detected between
//! threads `i` and `j`. The matrix is symmetric with a zero diagonal —
//! communication is evaluated between *pairs* of threads to keep complexity
//! Θ(N²).

use tlbmap_obs::{Json, JsonError};

/// A symmetric, zero-diagonal matrix of per-thread-pair communication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommMatrix {
    n: usize,
    /// Row-major n×n storage; kept symmetric by construction.
    data: Vec<u64>,
}

impl CommMatrix {
    /// An all-zero matrix for `n` threads.
    pub fn new(n: usize) -> Self {
        CommMatrix {
            n,
            data: vec![0; n * n],
        }
    }

    /// Build from explicit row-major data (tests, tools).
    ///
    /// # Panics
    /// Panics if `data` is not n×n, not symmetric, or has a nonzero
    /// diagonal.
    pub fn from_rows(n: usize, data: Vec<u64>) -> Self {
        assert_eq!(data.len(), n * n, "expected {}x{} entries", n, n);
        let m = CommMatrix { n, data };
        for i in 0..n {
            assert_eq!(m.get(i, i), 0, "diagonal must be zero at ({i},{i})");
            for j in 0..i {
                assert_eq!(
                    m.get(i, j),
                    m.get(j, i),
                    "matrix must be symmetric at ({i},{j})"
                );
            }
        }
        m
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.n
    }

    /// Communication between threads `i` and `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> u64 {
        self.data[i * self.n + j]
    }

    /// Add `amount` to the pair `(i, j)`. Ignores the diagonal (a thread
    /// does not communicate with itself).
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, amount: u64) {
        if i == j {
            return;
        }
        self.data[i * self.n + j] += amount;
        self.data[j * self.n + i] += amount;
    }

    /// Record one detected match between the threads on two cores.
    #[inline]
    pub fn record(&mut self, i: usize, j: usize) {
        self.add(i, j, 1);
    }

    /// Sum of the upper triangle — total communication units detected.
    pub fn total(&self) -> u64 {
        // Each row's above-diagonal cells form one contiguous slice.
        (0..self.n)
            .map(|i| {
                self.data[i * self.n + i + 1..(i + 1) * self.n]
                    .iter()
                    .sum::<u64>()
            })
            .sum()
    }

    /// Largest cell value.
    pub fn max(&self) -> u64 {
        self.data.iter().copied().max().unwrap_or(0)
    }

    /// Element-wise accumulate.
    ///
    /// # Panics
    /// Panics on size mismatch.
    pub fn merge(&mut self, other: &CommMatrix) {
        assert_eq!(self.n, other.n, "matrix sizes differ");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Upper-triangle cells as `(i, j, value)`, `i < j`.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        (0..self.n).flat_map(move |i| ((i + 1)..self.n).map(move |j| (i, j, self.get(i, j))))
    }

    /// Normalized copy: every cell divided by the maximum (all in `[0, 1]`).
    /// An all-zero matrix normalizes to all zeros.
    pub fn normalized(&self) -> Vec<f64> {
        let max = self.max();
        if max == 0 {
            return vec![0.0; self.data.len()];
        }
        self.data.iter().map(|&v| v as f64 / max as f64).collect()
    }

    /// Render the matrix as an ASCII heatmap like the paper's Figures 4–5:
    /// darker glyphs = more communication.
    pub fn heatmap(&self) -> String {
        const SHADES: &[char] = &[' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let norm = self.normalized();
        let mut out = String::new();
        out.push_str("    ");
        for j in 0..self.n {
            out.push_str(&format!("{j:>2} "));
        }
        out.push('\n');
        for i in 0..self.n {
            out.push_str(&format!("{i:>2} |"));
            for j in 0..self.n {
                let v = norm[i * self.n + j];
                let idx = ((v * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1);
                let c = SHADES[idx];
                out.push(' ');
                out.push(c);
                out.push(' ');
            }
            out.push('\n');
        }
        out
    }

    /// CSV rendering (header row `t0,t1,...`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &(0..self.n)
                .map(|j| format!("t{j}"))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for i in 0..self.n {
            out.push_str(
                &(0..self.n)
                    .map(|j| self.get(i, j).to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
        }
        out
    }

    /// JSON rendering: `{"n":N,"rows":[[...],...]}`, row-major.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = (0..self.n)
            .map(|i| Json::Arr((0..self.n).map(|j| Json::U64(self.get(i, j))).collect()))
            .collect();
        Json::obj(vec![
            ("n", Json::U64(self.n as u64)),
            ("rows", Json::Arr(rows)),
        ])
    }

    /// Rebuild from [`CommMatrix::to_json`] output. Unlike [`from_rows`]
    /// this returns an error (rather than panicking) on malformed input —
    /// JSON arrives from outside the process.
    ///
    /// [`from_rows`]: CommMatrix::from_rows
    ///
    /// # Errors
    /// Fails on missing/mistyped fields, ragged rows, an asymmetric matrix,
    /// or a nonzero diagonal.
    pub fn from_json(json: &Json) -> Result<CommMatrix, JsonError> {
        let err = |message: &str| JsonError {
            message: message.to_string(),
            offset: 0,
        };
        let n = json
            .get("n")
            .and_then(Json::as_u64)
            .ok_or_else(|| err("missing or mistyped field: n"))? as usize;
        let rows = json
            .get("rows")
            .and_then(Json::as_array)
            .ok_or_else(|| err("missing or mistyped field: rows"))?;
        if rows.len() != n {
            return Err(err("row count does not match n"));
        }
        for row in rows {
            let cells = row.as_array().ok_or_else(|| err("row is not an array"))?;
            if cells.len() != n {
                return Err(err("ragged row"));
            }
        }
        // Sized only now that the document really holds n² cells: n rows
        // of `[]` fit in a small frame, n² reserved cells may not fit in
        // memory.
        let mut data = Vec::with_capacity(n * n);
        for row in rows {
            for cell in row.as_array().into_iter().flatten() {
                data.push(cell.as_u64().ok_or_else(|| err("non-integer cell"))?);
            }
        }
        let m = CommMatrix { n, data };
        for i in 0..n {
            if m.get(i, i) != 0 {
                return Err(err("nonzero diagonal"));
            }
            for j in 0..i {
                if m.get(i, j) != m.get(j, i) {
                    return Err(err("matrix not symmetric"));
                }
            }
        }
        Ok(m)
    }

    /// A stable 64-bit fingerprint of the communication *pattern*.
    ///
    /// Two properties make it a usable cache key for mapping decisions:
    ///
    /// * **Order-independent** — the fingerprint depends only on the final
    ///   cell values, never on the order in which communication was
    ///   accumulated (`add`/`record`/`merge` in any interleaving).
    /// * **Normalization-stable** — uniformly scaling every cell leaves the
    ///   fingerprint unchanged: cells are divided by their collective GCD
    ///   before hashing, so `M` and `3·M` fingerprint identically. Mapping
    ///   algorithms only consume *relative* weights, so such matrices
    ///   yield the same placement.
    ///
    /// The hash is FNV-1a over the thread count and the reduced
    /// upper-triangle cells in row-major order, giving a deterministic
    /// value across runs and platforms (useful for run diffing too).
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        fn gcd(mut a: u64, mut b: u64) -> u64 {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        }
        let mut g = 0u64;
        for (_, _, v) in self.pairs() {
            g = gcd(g, v);
            if g == 1 {
                break;
            }
        }
        let g = g.max(1);
        let mut hash = FNV_OFFSET;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.n as u64);
        for (_, _, v) in self.pairs() {
            mix(v / g);
        }
        hash
    }

    /// Render the matrix as a binary PPM (P6) image like the paper's
    /// Figures 4–5: one `cell` × `cell` pixel block per matrix entry,
    /// darker = more communication, 1-pixel grid lines.
    pub fn to_ppm(&self, cell: usize) -> Vec<u8> {
        let n = self.n;
        let cell = cell.max(1);
        let side = n * cell + (n + 1); // grid lines between cells
        let norm = self.normalized();
        let mut img = vec![200u8; side * side * 3]; // grid gray
        for i in 0..n {
            for j in 0..n {
                // 0 → white (255), max → near-black (16).
                let v = norm[i * n + j];
                let shade = (255.0 - v * 239.0).round() as u8;
                let y0 = 1 + i * (cell + 1);
                let x0 = 1 + j * (cell + 1);
                for dy in 0..cell {
                    for dx in 0..cell {
                        let px = ((y0 + dy) * side + (x0 + dx)) * 3;
                        img[px] = shade;
                        img[px + 1] = shade;
                        img[px + 2] = shade;
                    }
                }
            }
        }
        let mut out = format!("P6\n{side} {side}\n255\n").into_bytes();
        out.extend_from_slice(&img);
        out
    }

    /// Check the structural invariants (symmetry, zero diagonal). Property
    /// tests call this after arbitrary operation sequences.
    pub fn invariants_hold(&self) -> bool {
        for i in 0..self.n {
            if self.get(i, i) != 0 {
                return false;
            }
            for j in 0..i {
                if self.get(i, j) != self.get(j, i) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zero() {
        let m = CommMatrix::new(4);
        assert_eq!(m.total(), 0);
        assert_eq!(m.max(), 0);
        assert!(m.invariants_hold());
    }

    #[test]
    fn add_is_symmetric() {
        let mut m = CommMatrix::new(4);
        m.add(1, 3, 5);
        assert_eq!(m.get(1, 3), 5);
        assert_eq!(m.get(3, 1), 5);
        assert_eq!(m.total(), 5);
        assert!(m.invariants_hold());
    }

    #[test]
    fn diagonal_adds_ignored() {
        let mut m = CommMatrix::new(3);
        m.add(2, 2, 100);
        assert_eq!(m.total(), 0);
        assert!(m.invariants_hold());
    }

    #[test]
    fn record_increments_by_one() {
        let mut m = CommMatrix::new(2);
        m.record(0, 1);
        m.record(1, 0);
        assert_eq!(m.get(0, 1), 2);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CommMatrix::new(3);
        let mut b = CommMatrix::new(3);
        a.add(0, 1, 2);
        b.add(0, 1, 3);
        b.add(1, 2, 7);
        a.merge(&b);
        assert_eq!(a.get(0, 1), 5);
        assert_eq!(a.get(1, 2), 7);
        assert!(a.invariants_hold());
    }

    #[test]
    fn pairs_iterates_upper_triangle() {
        let mut m = CommMatrix::new(3);
        m.add(0, 1, 1);
        m.add(0, 2, 2);
        m.add(1, 2, 3);
        let pairs: Vec<_> = m.pairs().collect();
        assert_eq!(pairs, vec![(0, 1, 1), (0, 2, 2), (1, 2, 3)]);
    }

    #[test]
    fn normalized_peaks_at_one() {
        let mut m = CommMatrix::new(2);
        m.add(0, 1, 8);
        let n = m.normalized();
        assert_eq!(n[1], 1.0);
        assert_eq!(n[0], 0.0);
    }

    #[test]
    fn normalized_zero_matrix() {
        let m = CommMatrix::new(2);
        assert!(m.normalized().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn heatmap_shape() {
        let mut m = CommMatrix::new(3);
        m.add(0, 2, 10);
        let h = m.heatmap();
        assert_eq!(h.lines().count(), 4); // header + 3 rows
        assert!(h.contains('@')); // the max cell renders darkest
    }

    #[test]
    fn csv_roundtrip_values() {
        let mut m = CommMatrix::new(2);
        m.add(0, 1, 9);
        let csv = m.to_csv();
        assert!(csv.starts_with("t0,t1\n"));
        assert!(csv.contains("0,9"));
        assert!(csv.contains("9,0"));
    }

    #[test]
    fn ppm_has_correct_header_and_size() {
        let mut m = CommMatrix::new(3);
        m.add(0, 1, 10);
        let ppm = m.to_ppm(4);
        // side = 3*4 + 4 = 16
        assert!(ppm.starts_with(b"P6\n16 16\n255\n"));
        let header_len = b"P6\n16 16\n255\n".len();
        assert_eq!(ppm.len(), header_len + 16 * 16 * 3);
        // The max cell (0,1) must be darker than an empty cell (0,2).
        // Cell (0,1) top-left pixel: y=1, x=1+5=6; cell (0,2): x=11.
        let px = |y: usize, x: usize| ppm[header_len + (y * 16 + x) * 3];
        assert!(px(1, 6) < px(1, 11), "hot cell must be darker");
        assert_eq!(px(1, 11), 255, "empty cell is white");
    }

    #[test]
    fn json_round_trip() {
        let mut m = CommMatrix::new(3);
        m.add(0, 1, 9);
        m.add(1, 2, 4);
        let text = m.to_json().render();
        assert_eq!(text, "{\"n\":3,\"rows\":[[0,9,0],[9,0,4],[0,4,0]]}");
        let back = CommMatrix::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn from_json_rejects_malformed() {
        let cases = [
            "{}",
            "{\"n\":2}",
            "{\"n\":2,\"rows\":[[0,1]]}",
            "{\"n\":2,\"rows\":[[0,1],[1]]}",
            "{\"n\":2,\"rows\":[[0,1],[2,0]]}",
            "{\"n\":2,\"rows\":[[5,1],[1,0]]}",
            "{\"n\":2,\"rows\":[[0,\"x\"],[1,0]]}",
        ];
        for text in cases {
            let json = Json::parse(text).unwrap();
            assert!(CommMatrix::from_json(&json).is_err(), "accepted: {text}");
        }
    }

    #[test]
    fn fingerprint_is_accumulation_order_independent() {
        let mut a = CommMatrix::new(4);
        a.add(0, 1, 5);
        a.add(2, 3, 9);
        a.record(1, 2);
        let mut b = CommMatrix::new(4);
        b.record(2, 1);
        b.add(3, 2, 4);
        b.add(1, 0, 5);
        b.add(2, 3, 5);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_is_scale_invariant() {
        let mut a = CommMatrix::new(4);
        a.add(0, 1, 2);
        a.add(1, 3, 6);
        let mut b = CommMatrix::new(4);
        b.add(0, 1, 14);
        b.add(1, 3, 42);
        assert_eq!(a.fingerprint(), b.fingerprint(), "7·M fingerprints as M");
        // But a genuinely different relative pattern differs.
        let mut c = CommMatrix::new(4);
        c.add(0, 1, 2);
        c.add(1, 3, 7);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_sizes_and_patterns() {
        assert_ne!(
            CommMatrix::new(2).fingerprint(),
            CommMatrix::new(3).fingerprint(),
            "thread count is part of the pattern"
        );
        assert_eq!(
            CommMatrix::new(4).fingerprint(),
            CommMatrix::new(4).fingerprint()
        );
        let mut a = CommMatrix::new(4);
        a.add(0, 1, 1);
        let mut b = CommMatrix::new(4);
        b.add(0, 2, 1);
        assert_ne!(
            a.fingerprint(),
            b.fingerprint(),
            "same weight, different pair"
        );
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn from_rows_rejects_asymmetry() {
        CommMatrix::from_rows(2, vec![0, 1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn from_rows_rejects_diagonal() {
        CommMatrix::from_rows(2, vec![1, 0, 0, 0]);
    }
}
