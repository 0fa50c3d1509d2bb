//! A from-scratch DEFLATE (RFC 1951) codec.
//!
//! This crate is the offline substitute for zlib in the ZIP case study of
//! the paper (§3.4, §7): the IPG ZIP grammar hands each archive entry's
//! compressed bytes — confined by an interval — to a *blackbox parser*,
//! which here is [`fn@inflate`].
//!
//! Decoding supports all three DEFLATE block types (stored, fixed
//! Huffman, dynamic Huffman). The default path is table-driven
//! (libdeflate-style two-level Huffman tables over a 64-bit bit-buffer
//! refill); the original per-bit canonical decoder survives as
//! [`inflate_slow`] for validation and benchmarking. Encoding supports
//! stored blocks and fixed Huffman with a greedy hash-chain LZ77 matcher —
//! enough to produce realistic compressed archives for the synthetic
//! corpus.
//!
//! CRC-32 is provided in [`mod@crc32`] since both the corpus generator and
//! the `unzip` baselines need it for ZIP.

#![forbid(unsafe_code)]

pub mod bits;
pub mod crc32;
pub mod deflate;
pub mod huffman;
pub mod inflate;
mod seed;

#[doc(inline)]
pub use crc32::crc32;
pub use deflate::{compress, compress_stored};
pub use inflate::{
    inflate, inflate_slow, inflate_with_limit, inflate_with_limit_slow, InflateError,
};

#[cfg(test)]
mod roundtrip_tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let stored = compress_stored(data);
        assert_eq!(inflate(&stored).unwrap(), data, "stored roundtrip");
        let fixed = compress(data);
        assert_eq!(inflate(&fixed).unwrap(), data, "fixed-huffman roundtrip");
    }

    #[test]
    fn roundtrip_small_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"hello world");
        roundtrip(&[0u8; 1000]);
    }

    #[test]
    fn roundtrip_repetitive_data_compresses() {
        let data: Vec<u8> = b"abcabcabcabc".iter().cycle().take(10_000).copied().collect();
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 2, "LZ77 should bite: {}", packed.len());
        assert_eq!(inflate(&packed).unwrap(), data);
    }

    #[test]
    fn roundtrip_binaryish_data() {
        let data: Vec<u8> = (0..40_000u32).map(|i| (i.wrapping_mul(2_654_435_761)) as u8).collect();
        roundtrip(&data);
    }
}
