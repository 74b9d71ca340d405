//! Distance metrics between domain names.
//!
//! Three metrics from the paper's Section 3:
//!
//! * [`damerau_levenshtein`] — minimum number of insertions, deletions,
//!   substitutions, or transpositions of adjacent characters (the "DL"
//!   distance; typosquatting papers conventionally use DL-1).
//! * [`fat_finger`] — Moore & Edelman's restriction of DL where every
//!   operation must involve characters adjacent on a QWERTY keyboard
//!   (an FF-1 typo is always a DL-1 typo).
//! * [`visual`] — a heuristic measuring how different a mistyped string
//!   *looks*, built from per-character confusability weights (`o`/`0` and
//!   `l`/`1` are nearly invisible; `g`/`h` is glaring).
//!
//! Domain labels are ASCII, so every metric has a byte-level kernel: the
//! DL distance runs a three-row DP with common-affix trimming and early
//! outs, the fat-finger DP reads the `const` [`keyboard::ADJACENCY`]
//! table, and the visual DP reads `const` per-byte-pair confusability and
//! glyph-prominence tables. The visual DP runs column by column; for a
//! DL-1 variant it reuses the target's own columns before the edit and
//! skips the cells outside the diagonal band that the edit's cost allows.
//! Every cell a fast kernel evaluates performs the *same* floating-point
//! operations in the same order as the original `char` implementation,
//! and no skipped cell can reach the answer, so results are
//! bit-identical; the originals survive as `*_legacy` reference
//! functions for equivalence tests and benchmarks.

use crate::keyboard;

/// Damerau-Levenshtein distance (restricted edit distance with adjacent
/// transpositions), computed over the full strings.
///
/// This is the "optimal string alignment" variant used throughout the
/// typosquatting literature: a substring may not be edited more than once,
/// which is exactly the regime of single typing mistakes that DL-1 captures.
///
/// ```
/// use ets_core::distance::damerau_levenshtein;
/// assert_eq!(damerau_levenshtein("gmail", "gmial"), 1); // transposition
/// assert_eq!(damerau_levenshtein("gmail", "gmal"), 1);  // deletion
/// assert_eq!(damerau_levenshtein("gmail", "gmaiql"), 1); // addition
/// assert_eq!(damerau_levenshtein("gmail", "gmaik"), 1); // substitution
/// assert_eq!(damerau_levenshtein("gmail", "gmail"), 0);
/// ```
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    if a.is_ascii() && b.is_ascii() {
        dl_bytes(a.as_bytes(), b.as_bytes())
    } else {
        damerau_levenshtein_legacy(a, b)
    }
}

/// Reference `char`-level implementation of [`damerau_levenshtein`]
/// (full DP matrix, no early-outs). Kept for the equivalence suite
/// (`tests/typo_equivalence.rs`) and the `ets-bench` `distances` bench.
pub fn damerau_levenshtein_legacy(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    dl_matrix(&a, &b)
}

/// Fat-finger distance: like [`damerau_levenshtein`], but substitutions and
/// insertions only count as a single operation when the characters involved
/// are QWERTY-adjacent; otherwise that alignment is forbidden (treated as
/// unreachable, cost ∞ for the restricted operation).
///
/// Deletions and transpositions are always allowed (deleting a character or
/// swapping two neighbors is a fat-finger slip regardless of geometry),
/// matching Moore & Edelman's definition where the *typed* stray character
/// must be adjacent to an intended one. An inserted character equal to a
/// neighboring intended character is also allowed: double-pressing a key is
/// the canonical fat-finger insertion (`outlook` → `outloook`).
///
/// Returns `None` when `b` cannot be produced from `a` by *any* sequence
/// of fat-finger operations. Note that a non-FF-1 string may still have a
/// finite fat-finger distance greater than one via a chain of allowed
/// operations (e.g. a deletion plus an adjacent insertion); use
/// [`is_ff1`] when testing the single-mistake regime the paper studies.
///
/// ```
/// use ets_core::distance::fat_finger;
/// assert_eq!(fat_finger("outlook", "outlo0k"), Some(1));  // 0 adjacent to o
/// assert_eq!(fat_finger("outlook", "outloook"), Some(1)); // doubled key
/// assert_eq!(fat_finger("gmail", "gmial"), Some(1));      // transposition
/// assert_ne!(fat_finger("verizon", "vexizon"), Some(1));  // x not near r
/// ```
pub fn fat_finger(a: &str, b: &str) -> Option<usize> {
    if a.is_ascii() && b.is_ascii() {
        let d = dl_rows_ff_bytes(a.as_bytes(), b.as_bytes());
        if d > a.len() + b.len() {
            None
        } else {
            Some(d)
        }
    } else {
        fat_finger_legacy(a, b)
    }
}

/// Reference `char`-level implementation of [`fat_finger`] (full DP
/// matrix, per-call adjacency scans). Kept for the equivalence suite
/// (`tests/typo_equivalence.rs`) and the `ets-bench` `distances` bench.
pub fn fat_finger_legacy(a: &str, b: &str) -> Option<usize> {
    let av: Vec<char> = a.chars().collect();
    let bv: Vec<char> = b.chars().collect();
    let d = dl_matrix_ff(&av, &bv);
    if d > av.len() + bv.len() {
        None
    } else {
        Some(d)
    }
}

/// True when `typo` is at fat-finger distance exactly one from `target`.
pub fn is_ff1(target: &str, typo: &str) -> bool {
    fat_finger(target, typo) == Some(1)
}

/// True when `typo` is at Damerau-Levenshtein distance exactly one from
/// `target`.
pub fn is_dl1(target: &str, typo: &str) -> bool {
    damerau_levenshtein(target, typo) == 1
}

/// Byte-level DL kernel: trims the common prefix/suffix, then runs a
/// three-row DP over what remains. Distance-preserving for the OSA
/// variant (transpositions never span a matched boundary character
/// profitably); the property suite cross-checks this against the full
/// matrix on random inputs.
fn dl_bytes(a: &[u8], b: &[u8]) -> usize {
    let mut lo = 0;
    let (mut ahi, mut bhi) = (a.len(), b.len());
    while lo < ahi && lo < bhi && a[lo] == b[lo] {
        lo += 1;
    }
    while ahi > lo && bhi > lo && a[ahi - 1] == b[bhi - 1] {
        ahi -= 1;
        bhi -= 1;
    }
    let a = &a[lo..ahi];
    let b = &b[lo..bhi];
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return m;
    }
    if m == 0 {
        return n;
    }
    let mut prev2 = vec![0usize; m + 1];
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        cur[0] = i;
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut best = (prev[j] + 1) // deletion
                .min(cur[j - 1] + 1) // insertion
                .min(prev[j - 1] + cost); // substitution / match
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                best = best.min(prev2[j - 2] + 1); // transposition
            }
            cur[j] = best;
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

#[allow(clippy::needless_range_loop)] // DP matrix init reads clearer indexed
fn dl_matrix(a: &[char], b: &[char]) -> usize {
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return m;
    }
    if m == 0 {
        return n;
    }
    let w = m + 1;
    let mut d = vec![0usize; (n + 1) * w];
    for i in 0..=n {
        d[i * w] = i;
    }
    for j in 0..=m {
        d[j] = j;
    }
    for i in 1..=n {
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut best = (d[(i - 1) * w + j] + 1) // deletion
                .min(d[i * w + j - 1] + 1) // insertion
                .min(d[(i - 1) * w + j - 1] + cost); // substitution / match
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                best = best.min(d[(i - 2) * w + j - 2] + 1); // transposition
            }
            d[i * w + j] = best;
        }
    }
    d[n * w + m]
}

/// Unreachable-alignment sentinel for the fat-finger DPs.
const INF: usize = usize::MAX / 4;

/// Byte-level fat-finger DL kernel: same recurrence as [`dl_matrix_ff`],
/// but three rolling rows and [`keyboard::ADJACENCY`] lookups instead of
/// per-cell row scans. No affix trimming — insertion legality depends on
/// the neighboring *intended* characters, which trimming would remove.
fn dl_rows_ff_bytes(a: &[u8], b: &[u8]) -> usize {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return if n == m { 0 } else { INF };
    }
    let mut prev2 = vec![INF; m + 1];
    let mut prev = vec![INF; m + 1];
    let mut cur = vec![INF; m + 1];
    prev[0] = 0;
    for j in 1..=m {
        // Leading insertions: inserted b[j-1] must neighbor (or equal —
        // doubled keypress) the first intended character a[0].
        if (b[j - 1] == a[0] || keyboard::adjacent_bytes(b[j - 1], a[0])) && prev[j - 1] < INF {
            prev[j] = prev[j - 1] + 1;
        }
    }
    for i in 1..=n {
        cur[0] = i; // deletions always allowed
        for j in 1..=m {
            let mut best = INF;
            // deletion of a[i-1]
            if prev[j] < INF {
                best = best.min(prev[j] + 1);
            }
            // insertion of b[j-1]: the stray key must be adjacent to (or a
            // double-press of) an intended character next to the insertion
            // point.
            if cur[j - 1] < INF {
                let near = |x: u8| b[j - 1] == x || keyboard::adjacent_bytes(b[j - 1], x);
                if near(a[i - 1]) || (i < n && near(a[i])) {
                    best = best.min(cur[j - 1] + 1);
                }
            }
            // match / substitution
            if prev[j - 1] < INF {
                if a[i - 1] == b[j - 1] {
                    best = best.min(prev[j - 1]);
                } else if keyboard::adjacent_bytes(a[i - 1], b[j - 1]) {
                    best = best.min(prev[j - 1] + 1);
                }
            }
            // transposition
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] && prev2[j - 2] < INF
            {
                best = best.min(prev2[j - 2] + 1);
            }
            cur[j] = best;
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// Fat-finger DL matrix: substitutions require adjacency between the
/// intended and the typed character; insertions require the inserted
/// character to be adjacent to a neighboring intended character.
fn dl_matrix_ff(a: &[char], b: &[char]) -> usize {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        // Pure insertion of arbitrary characters is not a fat-finger typo
        // unless each inserted character is adjacent to something intended;
        // with an empty reference there is nothing to be adjacent to.
        return if n == m { 0 } else { INF };
    }
    let w = m + 1;
    let mut d = vec![INF; (n + 1) * w];
    d[0] = 0;
    for i in 1..=n {
        d[i * w] = i; // deletions always allowed
    }
    for j in 1..=m {
        // Leading insertions: inserted b[j-1] must neighbor (or equal —
        // doubled keypress) the first intended character a[0].
        if (b[j - 1] == a[0] || keyboard::adjacent(b[j - 1], a[0])) && d[j - 1] < INF {
            d[j] = d[j - 1] + 1;
        }
    }
    for i in 1..=n {
        for j in 1..=m {
            let mut best = INF;
            // deletion of a[i-1]
            if d[(i - 1) * w + j] < INF {
                best = best.min(d[(i - 1) * w + j] + 1);
            }
            // insertion of b[j-1]: the stray key must be adjacent to (or a
            // double-press of) an intended character next to the insertion
            // point.
            if d[i * w + j - 1] < INF {
                let near = |x: char| b[j - 1] == x || keyboard::adjacent(b[j - 1], x);
                if near(a[i - 1]) || (i < n && near(a[i])) {
                    best = best.min(d[i * w + j - 1] + 1);
                }
            }
            // match / substitution
            if d[(i - 1) * w + j - 1] < INF {
                if a[i - 1] == b[j - 1] {
                    best = best.min(d[(i - 1) * w + j - 1]);
                } else if keyboard::adjacent(a[i - 1], b[j - 1]) {
                    best = best.min(d[(i - 1) * w + j - 1] + 1);
                }
            }
            // transposition
            if i > 1
                && j > 1
                && a[i - 1] == b[j - 2]
                && a[i - 2] == b[j - 1]
                && d[(i - 2) * w + j - 2] < INF
            {
                best = best.min(d[(i - 2) * w + j - 2] + 1);
            }
            d[i * w + j] = best;
        }
    }
    d[n * w + m]
}

/// Near-identical glyph pairs (byte form, lowercase).
const NEAR: &[(u8, u8, f64)] = &[
    (b'o', b'0', 0.05),
    (b'l', b'1', 0.05),
    (b'i', b'1', 0.10),
    (b'i', b'l', 0.10),
    (b'i', b'j', 0.25),
    (b'm', b'n', 0.25),
    (b'u', b'v', 0.25),
    (b'v', b'w', 0.30),
    (b'u', b'w', 0.40),
    (b'c', b'e', 0.40),
    (b'e', b'o', 0.45),
    (b'c', b'o', 0.40),
    (b'g', b'q', 0.35),
    (b'b', b'd', 0.45),
    (b'p', b'q', 0.45),
    (b'h', b'n', 0.40),
    (b'f', b't', 0.45),
    (b's', b'5', 0.30),
    (b'b', b'8', 0.35),
    (b'g', b'9', 0.40),
    (b'z', b'2', 0.40),
    (b'a', b'4', 0.50),
    (b't', b'7', 0.50),
    (b'e', b'3', 0.40),
];

/// `const` twin of the confusability scan, used to fill [`CONFUSABILITY`].
const fn confusability_scan(a: u8, b: u8) -> f64 {
    let a = a.to_ascii_lowercase();
    let b = b.to_ascii_lowercase();
    if a == b {
        return 0.0;
    }
    let mut k = 0;
    while k < NEAR.len() {
        let (x, y, v) = NEAR[k];
        if (a == x && b == y) || (a == y && b == x) {
            return v;
        }
        k += 1;
    }
    let digit_a = a.is_ascii_digit();
    let digit_b = b.is_ascii_digit();
    match (digit_a, digit_b) {
        // Letter for letter: moderately visible.
        (false, false) if a != b'-' && b != b'-' => 0.8,
        // Digit for digit.
        (true, true) => 0.7,
        // Letter/digit with no glyph similarity: glaring.
        (true, false) | (false, true) => 0.9,
        // Hyphen involved: a dash in a name is conspicuous but thin.
        _ => 0.6,
    }
}

const fn build_confusability() -> [[f64; 128]; 128] {
    let mut table = [[0.0f64; 128]; 128];
    let mut a = 0;
    while a < 128 {
        let mut b = 0;
        while b < 128 {
            table[a][b] = confusability_scan(a as u8, b as u8);
            b += 1;
        }
        a += 1;
    }
    table
}

/// Precomputed [`char_confusability`] for every pair of ASCII bytes.
/// Entries are the exact literals of the scan version, so lookups are
/// bit-identical to the legacy per-call pair walk. A `static` rather than
/// a `const` so the 128 KiB table is built exactly once, here, instead of
/// at every use site.
#[allow(long_running_const_eval)] // 16k-cell table; finite by construction
pub static CONFUSABILITY: [[f64; 128]; 128] = build_confusability();

/// Visual confusability of substituting `typed` for `intended`, in `[0, 1]`:
/// `0.0` means the substitution is essentially invisible, `1.0` maximally
/// conspicuous.
///
/// The heuristic encodes the paper's observation that letter/digit
/// look-alikes (`o`/`0`, `l`/`1`) are far more likely to go unnoticed than
/// two different letters, and that some letter pairs (`i`/`l`, `m`/`n`,
/// `u`/`v`) are themselves easily confused.
pub fn char_confusability(intended: char, typed: char) -> f64 {
    if intended.is_ascii() && typed.is_ascii() {
        CONFUSABILITY[intended as usize][typed as usize]
    } else {
        char_confusability_legacy(intended, typed)
    }
}

/// Reference scan implementation of [`char_confusability`] (pair-list
/// walk per call). Kept for equivalence tests, benchmarks, and the
/// non-ASCII fallback.
pub fn char_confusability_legacy(intended: char, typed: char) -> f64 {
    let (a, b) = (intended.to_ascii_lowercase(), typed.to_ascii_lowercase());
    if a == b {
        return 0.0;
    }
    if a.is_ascii() && b.is_ascii() {
        for &(x, y, v) in NEAR {
            let (x, y) = (x as char, y as char);
            if (a == x && b == y) || (a == y && b == x) {
                return v;
            }
        }
    }
    let digit_a = a.is_ascii_digit();
    let digit_b = b.is_ascii_digit();
    match (digit_a, digit_b) {
        // Letter for letter: moderately visible.
        (false, false) if a != '-' && b != '-' => 0.8,
        // Digit for digit.
        (true, true) => 0.7,
        // Letter/digit with no glyph similarity: glaring.
        (true, false) | (false, true) => 0.9,
        // Hyphen involved: a dash in a name is conspicuous but thin.
        _ => 0.6,
    }
}

/// `const` twin of [`glyph_prominence`], used to fill [`GLYPH`].
const fn glyph_scan(c: u8) -> f64 {
    match c {
        b'i' | b'l' | b'1' | b'j' | b'.' | b'-' => 0.35,
        b't' | b'f' | b'r' => 0.55,
        b'm' | b'w' => 0.9,
        _ => 0.7,
    }
}

const fn build_glyph() -> [f64; 128] {
    let mut table = [0.0f64; 128];
    let mut c = 0;
    while c < 128 {
        table[c] = glyph_scan(c as u8);
        c += 1;
    }
    table
}

/// Precomputed glyph prominence per ASCII byte (how much visual weight a
/// character carries when inserted or deleted).
pub const GLYPH: [f64; 128] = build_glyph();

/// Visual distance between a target name and a candidate typo.
///
/// Aligns the two strings with a DL trace and sums per-operation visual
/// weights: substitutions use [`char_confusability`]; transpositions of two
/// characters are mildly visible (0.3); a deletion is weighted by how much
/// the string shrinks visually (thin glyphs like `i`, `l` barely register);
/// an addition weighs like the inserted glyph's prominence. The result is
/// *not* normalized; the Section-6 regression normalizes by target length.
///
/// ```
/// use ets_core::distance::visual;
/// // outlo0k looks much closer to outlook than outmook does
/// assert!(visual("outlook", "outlo0k") < visual("outlook", "outmook"));
/// ```
pub fn visual(target: &str, typo: &str) -> f64 {
    if target.is_ascii() && typo.is_ascii() {
        let mut d = Vec::new();
        visual_columns(target.as_bytes(), typo.as_bytes(), &mut d, 0, usize::MAX)
    } else {
        visual_legacy(target, typo)
    }
}

/// Reference `char`-level implementation of [`visual`] (full DP matrix,
/// scan-based confusability). Kept for the equivalence suite
/// (`tests/typo_equivalence.rs`) and the `ets-bench` `distances` bench;
/// bit-identical to [`visual`].
pub fn visual_legacy(target: &str, typo: &str) -> f64 {
    let a: Vec<char> = target.chars().collect();
    let b: Vec<char> = typo.chars().collect();
    visual_cost(&a, &b)
}

/// Cost of transposing two distinct neighbours in the visual DP.
pub(crate) const TRANSPOSITION: f64 = 0.3;

/// The cheapest insertion or deletion in the visual DP: the smallest
/// [`GLYPH`] entry (a unit test pins it).
const MIN_INDEL: f64 = 0.35;

/// Half-width of the diagonal band of the visual DP that holds every
/// cell worth at most `u`.
///
/// A cell `d` diagonals off the main one lies behind at least `d`
/// insertions or deletions, each costing at least [`MIN_INDEL`], and
/// adding a non-negative cost never lowers a float sum, so such a cell
/// is worth more than `u` once `d > u / MIN_INDEL`. The `+ 1` absorbs
/// the rounding of the division and of the sums.
pub(crate) fn visual_band(u: f64) -> usize {
    (u / MIN_INDEL) as usize + 1
}

/// Visual distance from `target` to a string whose cheapest known
/// alignment with it costs `u`, such as the one edit that produced a
/// DL-1 variant: [`visual`] restricted to [`visual_band`]`(u)`. Equal
/// to [`visual`] bit for bit whenever the answer is at most `u`.
pub(crate) fn visual_within(target: &[u8], typo: &[u8], u: f64) -> f64 {
    let mut d = Vec::new();
    visual_columns(target, typo, &mut d, 0, visual_band(u))
}

/// Visual scores of the DL-1 variants of one target (the kernel behind
/// [`crate::typogen::TypoScorer`]).
///
/// Column `j` of the visual DP depends only on the target and the
/// variant's first `j` bytes, and every variant keeps the target's bytes
/// before its edit position. So columns `0..=position` of a variant's DP
/// are those of the target against itself, computed once here; each
/// variant evaluates only the later columns, inside the band of its own
/// edit's cost.
pub(crate) struct Dl1Visual<'t> {
    target: &'t [u8],
    /// The target's DP against itself, column-major.
    target_dp: Vec<f64>,
    /// One variant's DP, column-major.
    scratch: Vec<f64>,
}

impl<'t> Dl1Visual<'t> {
    pub(crate) fn new(target: &'t [u8]) -> Self {
        let mut target_dp = Vec::new();
        visual_columns(target, target, &mut target_dp, 0, usize::MAX);
        Dl1Visual {
            target,
            target_dp,
            scratch: Vec::new(),
        }
    }

    /// Visual distance from the target to `variant`, which equals it
    /// before `position` and is one edit of cost `u` away from it.
    /// Bit-identical to [`visual`].
    pub(crate) fn score(&mut self, variant: &[u8], position: usize, u: f64) -> f64 {
        let h = self.target.len() + 1;
        self.scratch.resize((variant.len() + 1) * h, f64::INFINITY);
        // The kernel reads the two columns before the first it evaluates.
        let shared = position.saturating_sub(1) * h..(position + 1) * h;
        self.scratch[shared.clone()].copy_from_slice(&self.target_dp[shared]);
        visual_columns(
            self.target,
            variant,
            &mut self.scratch,
            position + 1,
            visual_band(u),
        )
    }
}

#[cfg(test)]
thread_local! {
    /// Visual-DP cells evaluated on this thread, for the test that bounds
    /// the kernel's work.
    static VISUAL_CELLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Returns the visual-DP cells evaluated on this thread since the last
/// call.
#[cfg(test)]
pub(crate) fn take_visual_cells() -> usize {
    VISUAL_CELLS.with(|n| n.replace(0))
}

/// The visual DP over bytes, column by column: the kernel behind
/// [`visual`], [`visual_within`] and [`Dl1Visual`].
///
/// `d` is the column-major `(b.len() + 1) × (a.len() + 1)` matrix whose
/// column `j` aligns every prefix of `a` with `b[..j]`. The kernel
/// evaluates columns `from..=b.len()` and returns the last cell; when
/// `from > 0`, the caller has filled columns `from - 2` (if any) and
/// `from - 1`. Only cells at most `band` diagonals off the main one are
/// evaluated, and the cell just past either end of a column's band is set
/// to +∞ for its neighbours to read; `b` may be at most `band + 1` bytes
/// longer than `a`, so that every column keeps a cell. Each evaluated
/// cell performs the floating-point operations of [`visual_cost`] in the
/// same order, so every cell the band cannot exclude from the answer's
/// alignment is bit-identical to the full matrix's.
fn visual_columns(a: &[u8], b: &[u8], d: &mut Vec<f64>, from: usize, band: usize) -> f64 {
    let (n, m) = (a.len(), b.len());
    let h = n + 1;
    d.resize((m + 1) * h, f64::INFINITY);
    for j in from..=m {
        let lo = j.saturating_sub(band);
        let hi = n.min(j.saturating_add(band));
        #[cfg(test)]
        VISUAL_CELLS.with(|c| c.set(c.get() + hi + 1 - lo));
        let (done, rest) = d.split_at_mut(j * h);
        let cur = &mut rest[..h];
        if j == 0 {
            cur[0] = 0.0;
            for i in 1..=hi {
                cur[i] = cur[i - 1] + GLYPH[a[i - 1] as usize];
            }
        } else {
            let bj = b[j - 1];
            let glyph_bj = GLYPH[bj as usize];
            let prev = &done[(j - 1) * h..];
            // `up` is the cell above the one being evaluated, kept in a
            // register across the column's dependency chain.
            let (first, mut up) = if lo == 0 {
                cur[0] = prev[0] + glyph_bj;
                (1, cur[0])
            } else {
                cur[lo - 1] = f64::INFINITY;
                (lo, f64::INFINITY)
            };
            for i in first..=hi {
                let ai = a[i - 1];
                let del = up + GLYPH[ai as usize];
                let ins = prev[i] + glyph_bj;
                let sub_cost = if ai == bj {
                    0.0
                } else {
                    CONFUSABILITY[ai as usize][bj as usize]
                };
                let sub = prev[i - 1] + sub_cost;
                let mut best = del.min(ins).min(sub);
                if i > 1 && j > 1 && ai == b[j - 2] && a[i - 2] == bj && ai != a[i - 2] {
                    best = best.min(done[(j - 2) * h + i - 2] + TRANSPOSITION);
                }
                cur[i] = best;
                up = best;
            }
        }
        if hi < n {
            cur[hi + 1] = f64::INFINITY;
        }
    }
    d[m * h + n]
}

fn glyph_prominence(c: char) -> f64 {
    match c {
        'i' | 'l' | '1' | 'j' | '.' | '-' => 0.35,
        't' | 'f' | 'r' => 0.55,
        'm' | 'w' => 0.9,
        _ => 0.7,
    }
}

fn visual_cost(a: &[char], b: &[char]) -> f64 {
    let (n, m) = (a.len(), b.len());
    let w = m + 1;
    let mut d = vec![f64::INFINITY; (n + 1) * w];
    d[0] = 0.0;
    for i in 1..=n {
        d[i * w] = d[(i - 1) * w] + glyph_prominence(a[i - 1]);
    }
    for j in 1..=m {
        d[j] = d[j - 1] + glyph_prominence(b[j - 1]);
    }
    for i in 1..=n {
        for j in 1..=m {
            let del = d[(i - 1) * w + j] + glyph_prominence(a[i - 1]);
            let ins = d[i * w + j - 1] + glyph_prominence(b[j - 1]);
            let sub_cost = if a[i - 1] == b[j - 1] {
                0.0
            } else {
                char_confusability_legacy(a[i - 1], b[j - 1])
            };
            let sub = d[(i - 1) * w + j - 1] + sub_cost;
            let mut best = del.min(ins).min(sub);
            if i > 1
                && j > 1
                && a[i - 1] == b[j - 2]
                && a[i - 2] == b[j - 1]
                && a[i - 1] != a[i - 2]
            {
                best = best.min(d[(i - 2) * w + j - 2] + 0.3);
            }
            d[i * w + j] = best;
        }
    }
    d[n * w + m]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dl_identity() {
        assert_eq!(damerau_levenshtein("gmail", "gmail"), 0);
        assert_eq!(damerau_levenshtein("", ""), 0);
    }

    #[test]
    fn dl_empty() {
        assert_eq!(damerau_levenshtein("", "abc"), 3);
        assert_eq!(damerau_levenshtein("abc", ""), 3);
    }

    #[test]
    fn dl_single_ops() {
        assert_eq!(damerau_levenshtein("hotmail", "hotmial"), 1); // transposition
        assert_eq!(damerau_levenshtein("hotmail", "hotmal"), 1); // deletion
        assert_eq!(damerau_levenshtein("hotmail", "hotmaill"), 1); // addition
        assert_eq!(damerau_levenshtein("hotmail", "hovmail"), 1); // substitution
    }

    #[test]
    fn dl_counts_multiple_ops() {
        assert_eq!(damerau_levenshtein("gmail", "gmx"), 3);
        assert_eq!(damerau_levenshtein("verizon", "horizon"), 2);
    }

    #[test]
    fn dl_transposition_not_two_substitutions() {
        assert_eq!(damerau_levenshtein("ab", "ba"), 1);
        assert_eq!(damerau_levenshtein("abcd", "acbd"), 1);
    }

    #[test]
    fn dl_fast_matches_legacy_on_affix_cases() {
        // Cases where trimming interacts with transpositions.
        let pairs = [
            ("aab", "aba"),
            ("aba", "aab"),
            ("baa", "aba"),
            ("abab", "baba"),
            ("xxabyy", "xxbayy"),
            ("aaaa", "aaa"),
            ("abcde", "abcde"),
            ("ab", "ba"),
            ("a", ""),
        ];
        for (a, b) in pairs {
            assert_eq!(
                damerau_levenshtein(a, b),
                damerau_levenshtein_legacy(a, b),
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn ff_implies_dl() {
        // Every FF-1 pair must be DL-1 (the paper states this implication).
        let pairs = [
            ("outlook", "outlo0k"),
            ("outlook", "ohtlook"),
            ("outlook", "outloook"),
            ("hotmail", "ho6mail"),
            ("verizon", "ve5izon"),
        ];
        for (t, typo) in pairs {
            assert_eq!(fat_finger(t, typo), Some(1), "{t} -> {typo}");
            assert_eq!(damerau_levenshtein(t, typo), 1, "{t} -> {typo}");
        }
    }

    #[test]
    fn ff_rejects_distant_keys() {
        assert_ne!(fat_finger("verizon", "vexizon"), Some(1)); // r vs x
        assert_eq!(fat_finger("gmail", "gmqil"), Some(1)); // a vs q adjacent
        assert_eq!(fat_finger("gmail", "gmzil"), Some(1)); // a vs z adjacent
        assert_ne!(fat_finger("gmail", "gmpil"), Some(1)); // a vs p distant
    }

    #[test]
    fn ff_deletion_always_allowed() {
        assert_eq!(fat_finger("yopmail", "yopail"), Some(1));
        assert_eq!(fat_finger("zohomail", "zohomil"), Some(1));
    }

    #[test]
    fn ff_transposition_always_allowed() {
        assert_eq!(fat_finger("zohomail", "zohomial"), Some(1));
    }

    #[test]
    fn ff_insertion_needs_adjacency() {
        // k is adjacent to both i and l, so inserting it between them is FF-1.
        assert_eq!(fat_finger("gmail", "gmaikl"), Some(1));
        // Inserting x between a and i: x neighbors z,c,s,d — none of a/i/l,
        // so the single-insertion route is forbidden and the cheapest
        // fat-finger route needs several operations.
        assert!(fat_finger("gmail", "gmaxil").is_none_or(|d| d > 1));
        // gmaiql (a domain the paper registered) is DL-1 but NOT FF-1:
        // q neighbors neither i nor l.
        assert_eq!(damerau_levenshtein("gmail", "gmaiql"), 1);
        assert!(!is_ff1("gmail", "gmaiql"));
    }

    #[test]
    fn ff_double_press_insertion() {
        assert_eq!(fat_finger("outlook", "outloook"), Some(1));
        assert_eq!(fat_finger("gmail", "ggmail"), Some(1));
        assert_eq!(fat_finger("gmail", "gmaill"), Some(1));
    }

    #[test]
    fn ff_identity_is_zero() {
        assert_eq!(fat_finger("comcast", "comcast"), Some(0));
    }

    #[test]
    fn ff_fast_matches_legacy() {
        let pairs = [
            ("outlook", "outlo0k"),
            ("outlook", "xoutlook"),
            ("gmail", "gmaxil"),
            ("gmail", "gmaiql"),
            ("verizon", "vexizon"),
            ("", "a"),
            ("a", ""),
            ("ab", "ba"),
        ];
        for (a, b) in pairs {
            assert_eq!(fat_finger(a, b), fat_finger_legacy(a, b), "{a} vs {b}");
        }
    }

    #[test]
    fn visual_lookalikes_are_cheap() {
        assert!(visual("outlook", "outlo0k") < 0.2);
        assert!(visual("paypal", "paypa1") < 0.2);
    }

    #[test]
    fn visual_orders_paper_examples() {
        // §4.4.2: for a target, low-visual-distance FF-1 typos win.
        assert!(visual("outlook", "outlo0k") < visual("outlook", "outmook"));
        assert!(visual("verizon", "evrizon") < visual("verizon", "vebizon") + 0.5);
        assert!(visual("gmail", "gmial") < visual("gmail", "qmail"));
    }

    #[test]
    fn visual_zero_iff_equal() {
        assert_eq!(visual("gmail", "gmail"), 0.0);
        assert!(visual("gmail", "gmial") > 0.0);
    }

    #[test]
    fn visual_deletion_weights_glyph() {
        // Deleting thin 'i' is less visible than deleting wide 'm'.
        assert!(visual("gmail", "gmal") < visual("gmail", "gail"));
    }

    #[test]
    fn visual_fast_matches_legacy_bitwise() {
        let pairs = [
            ("outlook", "outlo0k"),
            ("outlook", "outmook"),
            ("gmail", "gmial"),
            ("gmail", ""),
            ("", "gmail"),
            ("paypal", "paypa1"),
            ("verizon", "evrizon"),
        ];
        for (a, b) in pairs {
            assert_eq!(
                visual(a, b).to_bits(),
                visual_legacy(a, b).to_bits(),
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn min_indel_is_the_thinnest_glyph() {
        let min = GLYPH.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(min.to_bits(), MIN_INDEL.to_bits());
    }

    /// The DL-1 scorer evaluates only the columns after each candidate's
    /// edit and only the band its edit cost allows: at most
    /// `(2k + 3)·(m − position + 1)` cells with `k = ⌊U/0.35⌋ + 1`, and
    /// under half the `n·m` cells of the full matrix over the default
    /// world's target list. Its scores, taken in reverse, are those the
    /// table's own scorer gives in order, bit for bit.
    #[test]
    fn dl1_scoring_work_is_banded() {
        use crate::typogen::{edit_cost, TypoTable};
        let (mut cells, mut full) = (0usize, 0usize);
        for entry in crate::alexa::synthetic_top(1000).iter() {
            let table = TypoTable::generate(&entry.domain);
            let s = entry.domain.sld().as_bytes();
            let n = s.len();
            let mut scorer = Dl1Visual::new(s);
            let expect: Vec<f64> = table.iter().map(|c| c.visual).collect();
            take_visual_cells();
            // In reverse: the scratch then holds the columns of other
            // kinds' variants, which no candidate may depend on.
            for c in (0..table.len()).rev() {
                let t = table.sld(c).as_bytes();
                let (m, position) = (t.len(), table.position(c));
                let u = edit_cost(s, t, table.kind(c), position);
                let v = scorer.score(t, position, u);
                let evaluated = take_visual_cells();
                assert_eq!(v.to_bits(), expect[c].to_bits());
                let k = (u / 0.35).floor() as usize + 1;
                assert!(
                    evaluated <= (2 * k + 3) * (m - position + 1),
                    "{} -> {}: {evaluated} cells, k = {k}",
                    entry.domain,
                    table.sld(c)
                );
                cells += evaluated;
                full += n * m;
            }
        }
        assert!(2 * cells <= full, "{cells} cells of {full}");
    }

    #[test]
    fn confusability_table_matches_scan() {
        for a in 0u8..128 {
            for b in 0u8..128 {
                assert_eq!(
                    CONFUSABILITY[a as usize][b as usize].to_bits(),
                    char_confusability_legacy(a as char, b as char).to_bits(),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn confusability_symmetric() {
        for a in crate::keyboard::alphabet() {
            for b in crate::keyboard::alphabet() {
                assert_eq!(
                    char_confusability(a, b),
                    char_confusability(b, a),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn confusability_bounds() {
        for a in crate::keyboard::alphabet() {
            for b in crate::keyboard::alphabet() {
                let v = char_confusability(a, b);
                assert!((0.0..=1.0).contains(&v));
                if a == b {
                    assert_eq!(v, 0.0);
                } else {
                    assert!(v > 0.0);
                }
            }
        }
    }
}
