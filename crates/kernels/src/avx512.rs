//! AVX-512 detection: the runtime check behind the 512-bit form of the
//! block-lane kernel ([`crate::lane`]), the paper's KNL-class width (§3.2:
//! "a factor of 2x or even 4x when using AVX or AVX512").

/// Does this host support AVX-512F?
#[inline]
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
