//! CRC-32 (ISO-HDLC, the zlib polynomial) for log integrity checking.
//!
//! The codec appends a CRC32 to every record and [`crate::EncodedEpoch`]
//! carries one over its whole byte frame — so on the ingest hot path the
//! checksum runs over every byte *twice* (once at encode, once at
//! verify). [`crc32`] is therefore the slice-by-8 variant: eight
//! interleaved 256-entry tables let one iteration fold eight message
//! bytes, turning the byte-at-a-time loop's serial 8-bit dependency chain
//! into eight independent table loads per step. The classic one-table
//! loop survives as [`crc32_scalar`], the differential-test oracle.

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
/// Slice-by-8: the main loop folds 8 bytes per iteration — the running
/// CRC is xored into the first 4 and all 8 are looked up in parallel
/// tables — then a byte-at-a-time tail handles the remainder. Identical
/// output to [`crc32_scalar`] on every input (a property test checks it).
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
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
    !crc
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
        // empty, sub-stride, exactly one/two strides, and every tail size.
        let data: Vec<u8> = (0..17u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), crc32_scalar(&data[..len]), "len {len}");
        }
    }

    /// Differential: the slice-by-8 kernel is byte-for-byte equivalent
    /// to the scalar loop on arbitrary inputs, including lengths not
    /// divisible by 8 and arbitrary (unaligned) slice starts.
    #[test]
    fn sliced_equals_scalar() {
        check("sliced_equals_scalar", 64, |rng| {
            let data: Vec<u8> = (0..rng.below(4096)).map(|_| rng.next_u64() as u8).collect();
            let skew = rng.below(8) as usize;
            let view = &data[skew.min(data.len())..];
            assert_eq!(crc32(view), crc32_scalar(view));
        });
    }

    /// A buffer cut at random points checksums the same streamed through
    /// `crc32_update` and folded from its pieces' own CRCs with
    /// `crc32_combine`: empty and odd-length pieces included.
    #[test]
    fn streamed_and_combined_equal_scalar() {
        check("streamed_and_combined_equal_scalar", 64, |rng| {
            let data: Vec<u8> = (0..rng.below(2048)).map(|_| rng.next_u64() as u8).collect();
            let mut cuts: Vec<usize> =
                (0..rng.below(6)).map(|_| rng.below(data.len() as u64 + 1) as usize).collect();
            cuts.sort_unstable();
            let bounds: Vec<usize> =
                std::iter::once(0).chain(cuts).chain(std::iter::once(data.len())).collect();
            let (mut streamed, mut combined) = (0, 0);
            for w in bounds.windows(2) {
                let piece = &data[w[0]..w[1]];
                streamed = crc32_update(streamed, piece);
                combined = crc32_combine(combined, crc32_scalar(piece), piece.len() as u64);
            }
            let want = crc32_scalar(&data);
            assert_eq!(streamed, want, "streamed over {bounds:?}");
            assert_eq!(combined, want, "combined over {bounds:?}");
        });
    }
}
