//! Seeded input generation. Every input is a pure function of
//! `(seed, index)`, so each rank fills its own block without sharing a
//! buffer, the sequential reference sees the same values, and the same
//! seed always gives the same inputs.

/// splitmix64 finalizer: a well-mixed 64-bit hash of `x`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash of a seed, a stream label and an index.
pub fn hash3(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(mix(seed) ^ stream) ^ index)
}

/// Uniform in `[-0.5, 0.5)`.
pub fn unit(seed: u64, stream: u64, index: u64) -> f64 {
    (hash3(seed, stream, index) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// FNV-1a over the bit patterns of `values`, continuing from `h`.
pub fn fnv_f64(mut h: u64, values: impl IntoIterator<Item = f64>) -> u64 {
    for v in values {
        h = fnv_u64(h, v.to_bits());
    }
    h
}

pub fn fnv_u64(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
