//! CRC-32 (ISO-HDLC, the zlib polynomial) for log integrity checking.
//!
//! The codec appends a CRC32 to every record and [`crate::EncodedEpoch`]
//! carries one over its whole byte frame, and on the durable path an
//! epoch's payload is checksummed at several hops (frame encode and
//! decode, receiver admission, record decode), so the checksum is the
//! densest loop in the system. [`crc32_update`] therefore picks the
//! fastest kernel the CPU runs:
//!
//! - on x86_64 with PCLMULQDQ and SSE4.1, inputs of at least 64 bytes are
//!   folded with carry-less multiplies: four 128-bit lanes advance 512
//!   bits per step, collapse into one, which a Barrett step reduces to 32
//!   bits (the reflected-polynomial method of zlib's `crc32_simd.c` and
//!   Linux's `crc32-pclmul`, with their constants). The last `len % 16`
//!   bytes go to slice-by-8;
//! - everywhere else, slice-by-8 ([`crc32_slice8`]): eight interleaved
//!   256-entry tables let one iteration fold eight message bytes, turning
//!   the byte-at-a-time loop's serial 8-bit dependency chain into eight
//!   independent table loads per step.
//!
//! Both return the same value on every input; the classic one-table loop
//! survives as [`crc32_scalar`], the differential-test oracle.

/// Reflected polynomial of CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// `TABLES[k][b]` advances a CRC whose low byte is `b` past `k` further
/// zero bytes: `TABLES[0]` is the classic table, and each higher slice is
/// the previous one pushed through one more byte of zeros. Folding eight
/// bytes then sums one lookup from each slice.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = build_table();
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC32 of `data` (init `!0`, final xor `!0` — matches zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Extends `crc`, the CRC32 of some bytes, to those bytes followed by
/// `data` (zlib's `crc32(crc, data)`): a buffer in pieces is checksummed
/// piece by piece.
///
/// Folds with carry-less multiplies where the CPU has them and `data` is
/// at least 64 bytes, else runs slice-by-8 (module doc). Identical output
/// to [`crc32_scalar`] on every input (property tests check it).
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::available() {
        let (blocks, tail) = data.as_chunks::<16>();
        // SAFETY: `fold` is a safe function compiled for `pclmulqdq` and
        // `sse4.1`; calling it is sound exactly when the running CPU has
        // both, which `available()` has just checked.
        let state = unsafe { clmul::fold(!crc, blocks) };
        return !slice8(state, tail);
    }
    !slice8(!crc, data)
}

/// CRC32 of `data` by slice-by-8 alone, on any CPU: the portable path
/// [`crc32_update`] takes for short inputs and on other targets, exposed
/// so tests and benches reach it on hosts where the folding kernel runs.
pub fn crc32_slice8(data: &[u8]) -> u32 {
    !slice8(!0, data)
}

/// Slice-by-8 over the raw (inverted) CRC register: the main loop folds 8
/// bytes per iteration — the running CRC is xored into the first 4 and
/// all 8 are looked up in parallel tables — then a byte-at-a-time tail
/// handles the remainder.
fn slice8(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        // One 8-byte load per block; the xor folds the running CRC into
        // the low word before the eight independent table lookups.
        let v = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)")) ^ crc as u64;
        crc = TABLES[7][(v & 0xFF) as usize]
            ^ TABLES[6][((v >> 8) & 0xFF) as usize]
            ^ TABLES[5][((v >> 16) & 0xFF) as usize]
            ^ TABLES[4][((v >> 24) & 0xFF) as usize]
            ^ TABLES[3][((v >> 32) & 0xFF) as usize]
            ^ TABLES[2][((v >> 40) & 0xFF) as usize]
            ^ TABLES[1][((v >> 48) & 0xFF) as usize]
            ^ TABLES[0][(v >> 56) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The carry-less-multiply folding kernel (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009), in
/// its bit-reflected form.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input [`fold`] takes: its four lanes start full.
    pub(super) const MIN_LEN: usize = 64;

    // Reflected CRC-32/ISO-HDLC constants, as zlib and Linux lay them
    // out: k1, k2 fold a lane 4·128 bits ahead (x^(512±32) mod P), k3, k4
    // one lane 128 bits ahead (x^(128±32) mod P), k5 folds 64 bits into
    // 32 (x^64 mod P); μ = floor(x^64 / P) and P itself (33 bits) drive
    // the closing Barrett reduction.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Whether the running CPU can execute [`fold`].
    pub(super) fn available() -> bool {
        std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1")
    }

    /// One block as a 128-bit lane, byte 0 lowest (a little-endian load).
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as u64 as i64, v as u64 as i64)
    }

    /// `lane` carried `k`'s distance ahead, xored into `next`: the low
    /// half times `k`'s low constant plus the high half times its high one.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(lane: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(lane, k, 0x00);
        let hi = _mm_clmulepi64_si128(lane, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the raw (inverted) CRC register `crc` over `blocks`, of
    /// which there are at least four (`MIN_LEN` bytes).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, blocks: &[[u8; 16]]) -> u32 {
        let (first, rest) = blocks.split_first_chunk::<4>().expect("at least MIN_LEN bytes");
        let mut lanes = [load(&first[0]), load(&first[1]), load(&first[2]), load(&first[3])];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        // Four independent lanes, each carried 512 bits per step.
        let (quads, singles) = rest.as_chunks::<4>();
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold_into(*lane, k1k2, load(block));
            }
        }
        // Collapse into one lane, then fold in the remaining blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold_into(lanes[0], k3k4, lanes[1]);
        acc = fold_into(acc, k3k4, lanes[2]);
        acc = fold_into(acc, k3k4, lanes[3]);
        for block in singles {
            acc = fold_into(acc, k3k4, load(block));
        }
        // 128 → 64 bits (which appends the 32 zero bits the CRC implies),
        // then 64 → 32.
        let low32 = _mm_set_epi64x(0, 0xFFFF_FFFF);
        acc = _mm_xor_si128(_mm_srli_si128(acc, 8), _mm_clmulepi64_si128(acc, k3k4, 0x10));
        let k5 = _mm_set_epi64x(0, K5);
        acc = _mm_xor_si128(
            _mm_srli_si128(acc, 4),
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00),
        );
        // Barrett: q = low32(acc)·μ, then acc ⊕ low32(q)·P leaves the
        // remainder in bits 32..64.
        let p_mu = _mm_set_epi64x(MU, P);
        let q = _mm_and_si128(_mm_clmulepi64_si128(_mm_and_si128(acc, low32), p_mu, 0x10), low32);
        acc = _mm_xor_si128(acc, _mm_clmulepi64_si128(q, p_mu, 0x00));
        _mm_extract_epi32(acc, 1) as u32
    }
}

/// CRC32 of `a` followed by `b`, from `crc32(a)`, `crc32(b)` and `b`'s
/// length alone (zlib's `crc32_combine`): adjacent pieces of one buffer
/// are checksummed apart, by different threads, and folded in order.
/// Appending zeros to `a` is linear over GF(2); the 32×32 bit matrix for
/// one zero byte is squared through the bits of `len_b`, so the cost is
/// `O(log len_b)` matrix products, not `O(len_b)`.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // `mat · vec` over GF(2): column `i` of `mat` is `mat[i]`.
    let times = |mat: &[u32; 32], vec: u32| {
        (0..32).filter(|i| vec >> i & 1 != 0).fold(0, |sum, i| sum ^ mat[i])
    };
    let square = |mat: &[u32; 32]| std::array::from_fn(|i| times(mat, mat[i]));
    // One zero bit shifts right, folding in the polynomial when the bit
    // shifted out was set; three squarings make it one zero byte.
    let mut op: [u32; 32] = std::array::from_fn(|i| if i == 0 { POLY } else { 1 << (i - 1) });
    for _ in 0..3 {
        op = square(&op);
    }
    let (mut crc, mut len) = (crc_a, len_b);
    while len != 0 {
        if len & 1 != 0 {
            crc = times(&op, crc);
        }
        len >>= 1;
        op = square(&op);
    }
    crc ^ crc_b
}

/// The byte-at-a-time reference loop. Kept as the oracle for the
/// differential tests below and in `tests/`; not used on the hot path.
pub fn crc32_scalar(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::rng::check;

    #[test]
    fn matches_reference_vectors() {
        // The CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_scalar(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_scalar(b""), 0);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the replicated value log".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn sliced_matches_scalar_on_every_length_through_two_blocks() {
        // Exhaustive over the lengths where stride handling can go wrong:
        // empty, sub-stride, every slice-by-8 tail, the folding kernel's
        // 64-byte threshold, one to four 512-bit steps, every count of
        // trailing 16-byte blocks and every sub-block tail — each at all
        // sixteen offsets a 16-byte load can start from.
        let data: Vec<u8> = (0..336u32).map(|i| (i.wrapping_mul(37) ^ 0x5A) as u8).collect();
        for start in 0..16 {
            for len in 0..=320 {
                let view = &data[start..start + len];
                let want = crc32_scalar(view);
                assert_eq!(crc32(view), want, "dispatched, offset {start} len {len}");
                assert_eq!(crc32_slice8(view), want, "slice-by-8, offset {start} len {len}");
            }
        }
    }

    /// Differential: both kernels are byte-for-byte equivalent to the
    /// scalar loop on arbitrary inputs up to 64 KiB, including lengths
    /// not divisible by 8 or 16 and arbitrary (unaligned) slice starts.
    #[test]
    fn sliced_equals_scalar() {
        check("sliced_equals_scalar", 64, |rng| {
            let len = rng.below(64 * 1024 + 1);
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let skew = rng.below(16) as usize;
            let view = &data[skew.min(data.len())..];
            let want = crc32_scalar(view);
            assert_eq!(crc32(view), want, "dispatched, len {}", view.len());
            assert_eq!(crc32_slice8(view), want, "slice-by-8, len {}", view.len());
        });
    }

    /// A buffer cut into pieces checksums the same streamed through
    /// `crc32_update` and folded from its pieces' own CRCs with
    /// `crc32_combine`: empty and odd-length pieces included, most of
    /// them either side of the folding kernel's 64-byte threshold, so the
    /// kernel starts from a running CRC as often as from a fresh one.
    #[test]
    fn streamed_and_combined_equal_scalar() {
        check("streamed_and_combined_equal_scalar", 64, |rng| {
            let lens: Vec<usize> = (0..rng.below(8))
                .map(|_| match rng.below(4) {
                    0 => rng.below(2048) as usize,
                    _ => rng.below(160) as usize,
                })
                .collect();
            let data: Vec<u8> =
                (0..lens.iter().sum::<usize>()).map(|_| rng.next_u64() as u8).collect();
            let (mut streamed, mut combined, mut at) = (0, 0, 0);
            for &len in &lens {
                let piece = &data[at..at + len];
                at += len;
                streamed = crc32_update(streamed, piece);
                combined = crc32_combine(combined, crc32_scalar(piece), piece.len() as u64);
            }
            let want = crc32_scalar(&data);
            assert_eq!(streamed, want, "streamed over piece lengths {lens:?}");
            assert_eq!(combined, want, "combined over piece lengths {lens:?}");
        });
    }
}
