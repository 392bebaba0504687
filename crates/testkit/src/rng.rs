//! The testkit's deterministic random generator.
//!
//! A ChaCha20-keystream DRBG (the same construction as the monitor's
//! boot-time `erebor_core`-style `DetRng`), extended with the integer
//! and float range helpers that property generation and workload traces
//! need. Same seed → same stream, on every platform.

use erebor_crypto::chacha20;

/// Deterministic ChaCha20-based RNG.
#[derive(Clone)]
pub struct TestRng {
    key: [u8; 32],
    counter: u32,
    buf: [u8; 64],
    used: usize,
}

impl TestRng {
    /// Seed from 32 bytes of key material.
    #[must_use]
    pub fn from_seed(seed: [u8; 32]) -> TestRng {
        TestRng {
            key: seed,
            counter: 0,
            buf: [0; 64],
            used: 64,
        }
    }

    /// Seed from a `u64` (replicated into the 32-byte key with distinct
    /// lane tags so nearby seeds give unrelated streams).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> TestRng {
        let mut key = [0u8; 32];
        for (lane, chunk) in key.chunks_mut(8).enumerate() {
            let tagged = seed ^ (lane as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            chunk.copy_from_slice(&tagged.to_le_bytes());
        }
        TestRng::from_seed(key)
    }

    fn refill(&mut self) {
        let nonce = [0u8; 12];
        self.buf = chacha20::block(&self.key, &nonce, self.counter);
        self.counter = self.counter.wrapping_add(1);
        self.used = 0;
    }

    /// One pseudorandom byte.
    pub fn next_byte(&mut self) -> u8 {
        if self.used >= 64 {
            self.refill();
        }
        let b = self.buf[self.used];
        self.used += 1;
        b
    }

    /// Fill `out` with pseudorandom bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for b in out {
            *b = self.next_byte();
        }
    }

    /// A uniform `u32`.
    pub fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill(&mut b);
        u32::from_le_bytes(b)
    }

    /// A uniform `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill(&mut b);
        u64::from_le_bytes(b)
    }

    /// A uniform value in `[0, n)`. `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift reduction: unbiased enough for test generation
        // and monotone-ish in the raw draw, which helps shrinking.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniform value in `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.below(hi - lo)
    }

    /// A uniform value in `[lo, hi]`.
    pub fn range_u64_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(hi - lo + 1)
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit_f64() * (hi - lo)
    }
}

impl core::fmt::Debug for TestRng {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TestRng")
            .field("counter", &self.counter)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = TestRng::seed_from_u64(7);
        let mut b = TestRng::seed_from_u64(7);
        let mut c = TestRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_respected() {
        let mut r = TestRng::seed_from_u64(1);
        for _ in 0..2000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let f = r.range_f64(0.5, 1.5);
            assert!((0.5..1.5).contains(&f));
            let i = r.range_u64_inclusive(3, 3);
            assert_eq!(i, 3);
        }
    }

    #[test]
    fn full_u64_inclusive_range_does_not_overflow() {
        let mut r = TestRng::seed_from_u64(2);
        let _ = r.range_u64_inclusive(0, u64::MAX);
    }
}
