//! Bit-manipulation primitives behind k-qubit gate indexing.
//!
//! Applying a k-qubit gate walks the state vector in 2^{n−k} blocks: the
//! indices of the 2^k amplitudes touched per block are bit-strings of the
//! form `c_{n−k−1} x_{i_{k−1}} … c_j … x_{i_1} … c_0` (paper §3.2) — the
//! gate-qubit bits `x` interleaved with the block counter bits `c`. The
//! functions here expand a block counter into a base index
//! ([`IndexExpander`]), gather/scatter the gate-qubit bits, and apply
//! arbitrary bit-position permutations (used for the local qubit swaps that
//! bracket the multi-node all-to-all, §3.4).

/// Insert a zero bit at position `pos`, shifting higher bits left.
///
/// `insert_zero_bit(0b1011, 2) == 0b10011`.
#[inline(always)]
pub fn insert_zero_bit(idx: usize, pos: u32) -> usize {
    let low_mask = (1usize << pos) - 1;
    ((idx & !low_mask) << 1) | (idx & low_mask)
}

/// Extract the bit at `pos` (0 or 1).
#[inline(always)]
pub fn get_bit(idx: usize, pos: u32) -> usize {
    (idx >> pos) & 1
}

/// `log2` of a power of two; panics otherwise. Used to recover qubit counts
/// from vector lengths.
#[inline]
pub fn log2_exact(v: usize) -> u32 {
    assert!(v.is_power_of_two(), "{v} is not a power of two");
    v.trailing_zeros()
}

/// Gather the bits of `idx` at `positions` (ascending) into a compact
/// little-endian value: bit `j` of the result is `idx[positions[j]]`.
#[inline]
pub fn gather_bits(idx: usize, positions: &[u32]) -> usize {
    let mut out = 0usize;
    for (j, &p) in positions.iter().enumerate() {
        out |= get_bit(idx, p) << j;
    }
    out
}

/// Pre-computed expansion of a block counter `c ∈ [0, 2^{n−k})` into a base
/// state-vector index with zeros at the k gate-qubit positions.
///
/// The expansion is a cascade of shift-and-mask steps, one per gate qubit in
/// ascending position order — O(k) per block with no data-dependent
/// branches, which keeps the surrounding kernel loop tight.
#[derive(Clone, Debug)]
pub struct IndexExpander {
    /// `(low_mask, position)` per gate qubit, ascending.
    steps: Vec<(usize, u32)>,
    /// Bit set at each gate-qubit position, in the order given at
    /// construction (i.e. matching the gate's qubit operand order).
    strides: Vec<usize>,
}

impl IndexExpander {
    /// Build an expander for gate qubits at `positions` (any order,
    /// duplicates forbidden). `strides()` preserves the given order while
    /// the expansion cascade internally sorts.
    pub fn new(positions: &[u32]) -> Self {
        let mut sorted: Vec<u32> = positions.to_vec();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert_ne!(w[0], w[1], "duplicate qubit position {}", w[0]);
        }
        let steps = sorted.iter().map(|&p| (((1usize << p) - 1), p)).collect();
        let strides = positions.iter().map(|&p| 1usize << p).collect();
        Self { steps, strides }
    }

    /// Number of gate qubits k.
    #[inline(always)]
    pub fn k(&self) -> usize {
        self.steps.len()
    }

    /// Expand block counter `c` into the base index (all gate-qubit bits 0).
    #[inline(always)]
    pub fn expand(&self, c: usize) -> usize {
        let mut idx = c;
        for &(low_mask, _) in &self.steps {
            idx = ((idx & !low_mask) << 1) | (idx & low_mask);
        }
        idx
    }

    /// Stride (2^position) per gate qubit, in construction order.
    #[inline(always)]
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Offset of local gate index `x ∈ [0, 2^k)` from the base index, where
    /// bit j of `x` selects the j-th qubit of the construction order.
    #[inline(always)]
    pub fn offset(&self, x: usize) -> usize {
        let mut off = 0usize;
        for (j, &s) in self.strides.iter().enumerate() {
            if (x >> j) & 1 == 1 {
                off += s;
            }
        }
        off
    }
}

/// A permutation of the n bit positions of a state-vector index.
///
/// `map[i] = j` means: the bit at position `i` of the old index moves to
/// position `j` of the new index. Used to reorder local qubits before and
/// after global-to-local swaps, and by the qubit-mapping heuristic (§3.6.2).
///
/// Construction also builds one 256-entry lookup table per byte of the
/// index: a bit permutation moves disjoint bits independently, so the
/// image of an index is the OR of the images of its bytes, and
/// [`apply`](Self::apply) is ⌈n/8⌉ table loads instead of a loop over all
/// n positions. The tables are a function of `map`, which alone defines
/// equality.
#[derive(Clone)]
pub struct BitPermutation {
    map: Vec<u32>,
    /// `tables[k][v]` is the image of byte value `v` at byte `k` of the
    /// index; bits at or above n map to nothing.
    tables: Vec<[usize; 256]>,
}

impl PartialEq for BitPermutation {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl Eq for BitPermutation {}

impl std::fmt::Debug for BitPermutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitPermutation")
            .field("map", &self.map)
            .finish()
    }
}

impl BitPermutation {
    /// Wrap a map already known to be a permutation, building its tables.
    fn from_map(map: Vec<u32>) -> Self {
        let tables = map
            .chunks(8)
            .map(|byte| {
                let mut t = [0usize; 256];
                for v in 1..256usize {
                    // Extend the entry without v's lowest set bit by that
                    // bit's image (zero for positions past the last chunk).
                    let b = v.trailing_zeros() as usize;
                    let bit = byte.get(b).map_or(0, |&j| 1usize << j);
                    t[v] = t[v & (v - 1)] | bit;
                }
                t
            })
            .collect();
        Self { map, tables }
    }

    /// Identity permutation on `n` bits.
    pub fn identity(n: usize) -> Self {
        Self::from_map((0..n as u32).collect())
    }

    /// Build from an explicit map; must be a permutation of `0..n`.
    pub fn new(map: Vec<u32>) -> Self {
        let n = map.len();
        let mut seen = vec![false; n];
        for &j in &map {
            assert!((j as usize) < n, "target {j} out of range for {n} bits");
            assert!(!seen[j as usize], "duplicate target {j}");
            seen[j as usize] = true;
        }
        Self::from_map(map)
    }

    /// Transposition of bit positions `a` and `b` on `n` bits.
    pub fn transposition(n: usize, a: u32, b: u32) -> Self {
        let mut map: Vec<u32> = (0..n as u32).collect();
        map.swap(a as usize, b as usize);
        Self::new(map) // re-validate range
    }

    #[inline(always)]
    pub fn n_bits(&self) -> usize {
        self.map.len()
    }

    /// Where does old position `i` go?
    #[inline(always)]
    pub fn target(&self, i: u32) -> u32 {
        self.map[i as usize]
    }

    /// True if this is the identity.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &j)| i as u32 == j)
    }

    /// Apply to an index: bit `i` of `idx` becomes bit `map[i]` of the
    /// result. Bits at or above n are dropped.
    #[inline]
    pub fn apply(&self, idx: usize) -> usize {
        let mut out = 0usize;
        for (k, t) in self.tables.iter().enumerate() {
            out |= t[(idx >> (8 * k)) & 0xff];
        }
        out
    }

    /// The images of the 256 values of the index's low byte: for an index
    /// `i` with a zero low byte and `j < 256`, `apply(i + j)` is
    /// `apply(i) | table[j]`. Block copies read it once per 256 indices.
    #[inline]
    pub fn low_byte_table(&self) -> &[usize; 256] {
        // n = 0 has no byte, and every index maps to 0.
        self.tables.first().unwrap_or(&[0; 256])
    }

    /// Inverse permutation.
    pub fn inverse(&self) -> Self {
        let mut inv = vec![0u32; self.map.len()];
        for (i, &j) in self.map.iter().enumerate() {
            inv[j as usize] = i as u32;
        }
        Self::from_map(inv)
    }

    /// Composition: apply `self` first, then `after`.
    pub fn then(&self, after: &Self) -> Self {
        assert_eq!(self.n_bits(), after.n_bits());
        Self::from_map(self.map.iter().map(|&j| after.map[j as usize]).collect())
    }

    /// Permute a full vector of 2^n elements out-of-place:
    /// `dst[apply(i)] = src[i]`.
    ///
    /// This is the data movement for a local qubit reorder; the distributed
    /// simulator calls it on each rank's slice around an all-to-all.
    pub fn permute_slice<T: Copy>(&self, src: &[T], dst: &mut [T]) {
        let n = self.n_bits();
        assert_eq!(src.len(), 1usize << n);
        assert_eq!(dst.len(), src.len());
        if self.is_identity() {
            dst.copy_from_slice(src);
            return;
        }
        for (i, &v) in src.iter().enumerate() {
            dst[self.apply(i)] = v;
        }
    }

    /// Decompose into a minimal set of transpositions `(a, b)` with `a < b`
    /// whose left-to-right application equals this permutation. Local qubit
    /// swaps are executed as a sequence of in-place pairwise swaps by the
    /// kernels; this provides that sequence.
    pub fn transpositions(&self) -> Vec<(u32, u32)> {
        let mut cur: Vec<u32> = self.map.clone();
        let mut out = Vec::new();
        // Selection-style: put the correct source into each target slot.
        for target in 0..cur.len() as u32 {
            // Find which position currently maps to `target`.
            let src = cur.iter().position(|&j| j == target).unwrap() as u32;
            if src != target {
                // Swap positions src and target.
                cur.swap(src as usize, target as usize);
                out.push((target.min(src), target.max(src)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_zero_bit_basic() {
        assert_eq!(insert_zero_bit(0b1011, 2), 0b10011);
        assert_eq!(insert_zero_bit(0b1011, 0), 0b10110);
        assert_eq!(insert_zero_bit(0, 5), 0);
        assert_eq!(insert_zero_bit(0b1, 1), 0b1);
        assert_eq!(insert_zero_bit(0b1, 0), 0b10);
    }

    #[test]
    fn gather_bits_compacts_the_named_positions() {
        let positions = [1u32, 4, 6];
        assert_eq!(gather_bits(0b100_0010, &positions), 0b101);
        assert_eq!(gather_bits(0b010_1101, &positions), 0);
        assert_eq!(gather_bits(usize::MAX, &positions), 0b111);
    }

    #[test]
    fn expander_enumerates_disjoint_blocks() {
        // 5-bit index space, gate on qubits {1, 3}: the 8 block bases plus
        // 4 offsets each must cover 0..32 exactly once.
        let e = IndexExpander::new(&[3, 1]);
        assert_eq!(e.k(), 2);
        let mut seen = [false; 32];
        for c in 0..8 {
            let base = e.expand(c);
            // Base has zeros at gate positions.
            assert_eq!(base & 0b01010, 0);
            for x in 0..4 {
                let idx = base + e.offset(x);
                assert!(!seen[idx], "index {idx} visited twice");
                seen[idx] = true;
                // Offset bit j targets construction-order qubit j: x bit 0
                // -> qubit 3, x bit 1 -> qubit 1.
                assert_eq!(get_bit(idx, 3), x & 1);
                assert_eq!(get_bit(idx, 1), (x >> 1) & 1);
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn expander_strides_follow_operand_order() {
        let e = IndexExpander::new(&[4, 0, 2]);
        assert_eq!(e.strides(), &[16, 1, 4]);
        assert_eq!(e.offset(0b001), 16);
        assert_eq!(e.offset(0b110), 5);
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn expander_rejects_duplicates() {
        let _ = IndexExpander::new(&[2, 2]);
    }

    #[test]
    fn permutation_apply_and_inverse() {
        // 3 bits: 0->2, 1->0, 2->1.
        let p = BitPermutation::new(vec![2, 0, 1]);
        assert_eq!(p.apply(0b001), 0b100);
        assert_eq!(p.apply(0b010), 0b001);
        assert_eq!(p.apply(0b100), 0b010);
        let inv = p.inverse();
        for i in 0..8 {
            assert_eq!(inv.apply(p.apply(i)), i);
        }
        assert!(p.then(&inv).is_identity());
    }

    #[test]
    fn permutation_permute_slice() {
        let p = BitPermutation::transposition(2, 0, 1);
        let src = [10, 20, 30, 40]; // index bits: 00 01 10 11
        let mut dst = [0; 4];
        p.permute_slice(&src, &mut dst);
        // 01 -> 10, 10 -> 01.
        assert_eq!(dst, [10, 30, 20, 40]);
    }

    #[test]
    fn transposition_decomposition_reconstructs() {
        let p = BitPermutation::new(vec![3, 1, 0, 2]);
        // Applying the transpositions left to right to the identity must
        // reproduce p's action on every index.
        let n = p.n_bits();
        let mut q = BitPermutation::identity(n);
        for (a, b) in p.transpositions() {
            q = q.then(&BitPermutation::transposition(n, a, b));
        }
        for i in 0..(1 << n) {
            assert_eq!(q.apply(i), p.apply(i));
        }
    }

    #[test]
    fn identity_decomposes_to_nothing() {
        assert!(BitPermutation::identity(6).transpositions().is_empty());
    }

    #[test]
    fn log2_exact_works() {
        assert_eq!(log2_exact(1), 0);
        assert_eq!(log2_exact(1 << 20), 20);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn log2_exact_rejects_non_powers() {
        let _ = log2_exact(12);
    }
}
