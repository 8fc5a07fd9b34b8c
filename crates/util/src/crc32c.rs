//! CRC-32C (Castagnoli polynomial, reflected), dispatched at runtime to
//! the fastest kernel the host supports.
//!
//! * On x86_64 hosts with SSE4.2 (detected by
//!   `std::is_x86_feature_detected!`, whose answer std caches), the
//!   hardware `crc32` instruction consumes 8 bytes per step.
//! * Every other host runs [`extend_portable`], a slice-by-4 table loop.
//!
//! Both kernels compute the same function — same polynomial, same initial
//! and final xor — so the stored format does not depend on which one
//! wrote it. [`kernel`] reports the choice.
//!
//! Every persistent record in the engine — WAL fragments, table blocks,
//! manifest edits — carries a CRC-32C. We also apply LevelDB's *masking* to
//! checksums that are themselves stored inside checksummed payloads, so a
//! CRC of data containing an embedded CRC does not degenerate.

const POLY: u32 = 0x82f6_3b78; // reflected 0x1EDC6F41

/// 4 tables of 256 entries for slice-by-4 processing.
static TABLES: [[u32; 256]; 4] = build_tables();

const fn build_tables() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The CRC-32C implementation [`extend`] runs on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The SSE4.2 `crc32` instruction (x86_64 only).
    Sse42,
    /// The slice-by-4 table loop, [`extend_portable`].
    Portable,
}

/// Which kernel [`extend`] dispatches to on this host.
pub fn kernel() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sse4.2") {
        return Kernel::Sse42;
    }
    Kernel::Portable
}

/// Extend a running CRC with `data`. Start from `0` for a fresh checksum.
/// Runs on the kernel [`kernel`] names.
pub fn extend(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if kernel() == Kernel::Sse42 {
        #[allow(unsafe_code)]
        // SAFETY: `kernel()` returns `Sse42` only after
        // `is_x86_feature_detected!("sse4.2")` confirmed the CPU has the
        // instructions `extend_sse42` is compiled for.
        return unsafe { extend_sse42(crc, data) };
    }
    extend_portable(crc, data)
}

/// [`extend`] on the SSE4.2 `crc32` instruction: 8-byte words, then the
/// tail one byte at a time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn extend_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = u64::from(!crc);
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(w.try_into().unwrap()));
    }
    // The instruction leaves the 32-bit CRC in the low half.
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// [`extend`] as a slice-by-4 table loop: the fallback on hosts without a
/// hardware kernel, and the reference the hardware kernel is tested
/// against. Engine code calls [`extend`], never this directly.
pub fn extend_portable(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        let word = u32::from_le_bytes(c.try_into().unwrap()) ^ crc;
        crc = TABLES[3][(word & 0xff) as usize]
            ^ TABLES[2][((word >> 8) & 0xff) as usize]
            ^ TABLES[1][((word >> 16) & 0xff) as usize]
            ^ TABLES[0][(word >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// CRC-32C of `data`.
pub fn value(data: &[u8]) -> u32 {
    extend(0, data)
}

const MASK_DELTA: u32 = 0xa282_ead8;

/// Mask a CRC so it is safe to store inside data that is itself
/// CRC-protected (LevelDB's trick: rotate and add a constant).
pub fn mask(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(MASK_DELTA)
}

/// Invert [`mask`].
pub fn unmask(masked: u32) -> u32 {
    masked.wrapping_sub(MASK_DELTA).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 / LevelDB test vectors.
        assert_eq!(value(&[0u8; 32]), 0x8a91_36aa);
        assert_eq!(value(&[0xffu8; 32]), 0x62a8_ab43);
        let inc: Vec<u8> = (0u8..32).collect();
        assert_eq!(value(&inc), 0x46dd_794e);
        let dec: Vec<u8> = (0u8..32).rev().collect();
        assert_eq!(value(&dec), 0x113f_db5c);
    }

    #[test]
    fn crc_of_abc() {
        assert_eq!(value(b"123456789"), 0xe306_9283);
    }

    #[test]
    fn extend_matches_whole() {
        let data = b"hello world, this is scavenger";
        for split in 0..data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(extend(extend(0, a), b), value(data));
        }
    }

    #[test]
    fn values_differ_by_content() {
        assert_ne!(value(b"a"), value(b"foo"));
        assert_ne!(value(b"foo"), value(b"bar"));
    }

    #[test]
    fn mask_roundtrip_and_differs() {
        let crc = value(b"foo");
        assert_ne!(mask(crc), crc);
        assert_ne!(mask(mask(crc)), crc);
        assert_eq!(unmask(mask(crc)), crc);
        assert_eq!(unmask(unmask(mask(mask(crc)))), crc);
    }

    /// Every length through the word-plus-tail boundaries, at every
    /// alignment — the inputs a random length up to 4 KiB rarely draws.
    #[test]
    fn kernels_agree_on_short_inputs() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(extend(7, data), extend_portable(7, data), "{start}+{len}");
            }
        }
    }

    /// On a host that has SSE4.2 the dispatcher must pick it: a refactor
    /// that silently fell back to the table loop would fail here.
    #[test]
    fn dispatcher_picks_hardware_when_available() {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("sse4.2") {
            assert_eq!(kernel(), Kernel::Sse42);
            return;
        }
        assert_eq!(kernel(), Kernel::Portable);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dispatched kernel agrees with the portable one on random
        /// bytes of every length up to 4 KiB, starting at every alignment,
        /// and extending across a random split equals one whole pass.
        #[test]
        fn kernels_agree(
            buf in proptest::collection::vec(any::<u8>(), 4104..4105),
            start in 0usize..8,
            len in 0usize..=4096,
            split in 0usize..=4096,
            seed: u32,
        ) {
            let data = &buf[start..start + len];
            prop_assert_eq!(extend(seed, data), extend_portable(seed, data));
            prop_assert_eq!(value(data), extend_portable(0, data));
            let (a, b) = data.split_at(split.min(len));
            prop_assert_eq!(extend(extend(0, a), b), value(data));
        }
    }
}
