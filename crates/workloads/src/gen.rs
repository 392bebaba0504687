//! Deterministic workload-trace generators (the client side of §9's
//! experiments): request mixes, Zipfian query keys, and file-size
//! distributions for the Fig. 10 sweeps.

use erebor_testkit::rng::TestRng;

/// A seeded generator of client request traces.
#[derive(Debug)]
pub struct TraceGen {
    rng: TestRng,
}

impl TraceGen {
    /// Create from a seed (same seed → same trace).
    #[must_use]
    pub fn new(seed: u64) -> TraceGen {
        TraceGen {
            rng: TestRng::seed_from_u64(seed),
        }
    }

    /// A Zipf-like rank in `1..=n` with skew `s ≈ 1` (hot keys dominate,
    /// like real retrieval traffic). Uses inverse-CDF sampling over the
    /// harmonic weights.
    pub fn zipf(&mut self, n: u64, s: f64) -> u64 {
        debug_assert!(n >= 1);
        let h: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        let mut u = self.rng.range_f64(0.0, h);
        for k in 1..=n {
            let w = 1.0 / (k as f64).powf(s);
            if u < w {
                return k;
            }
            u -= w;
        }
        n
    }

    /// A batch of retrieval queries: `q=<count>;<seed>` with a fresh
    /// sub-seed so batches differ but reproducibly.
    pub fn retrieval_batch(&mut self, count: u64) -> Vec<u8> {
        let sub: u32 = self.rng.next_u32();
        format!("q={count};{sub}").into_bytes()
    }

    /// An LLM prompt of `words` pseudo-words plus a generation budget.
    pub fn llm_prompt(&mut self, words: usize, gen_tokens: u64) -> Vec<u8> {
        const LEXICON: [&str; 12] = [
            "report",
            "patient",
            "ledger",
            "invoice",
            "translate",
            "summarize",
            "network",
            "account",
            "confidential",
            "analysis",
            "record",
            "please",
        ];
        let mut out = format!("gen={gen_tokens};");
        for i in 0..words {
            if i > 0 {
                out.push(' ');
            }
            let idx = self.rng.below(LEXICON.len() as u64) as usize;
            out.push_str(LEXICON[idx]);
        }
        out.into_bytes()
    }

    /// A file size for the Fig. 10 sweep, drawn from a web-like heavy-tail
    /// mix between 1 KiB and `max`.
    pub fn file_size(&mut self, max: u64) -> u64 {
        let exp = self
            .rng
            .range_u64_inclusive(10, u64::from(max.ilog2())) as u32;
        let jitter = self.rng.range_f64(0.5, 1.5);
        (((1u64 << exp) as f64) * jitter) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace() {
        let mut a = TraceGen::new(7);
        let mut b = TraceGen::new(7);
        for _ in 0..16 {
            assert_eq!(a.zipf(100, 1.0), b.zipf(100, 1.0));
        }
        assert_eq!(a.llm_prompt(6, 8), b.llm_prompt(6, 8));
        assert_eq!(a.retrieval_batch(10), b.retrieval_batch(10));
    }

    #[test]
    fn zipf_is_head_heavy() {
        let mut g = TraceGen::new(1);
        let n = 1000u64;
        let samples: Vec<u64> = (0..4000).map(|_| g.zipf(n, 1.0)).collect();
        let head = samples.iter().filter(|&&k| k <= n / 10).count();
        assert!(
            head * 2 > samples.len(),
            "top decile should dominate, got {head}/{}",
            samples.len()
        );
        assert!(samples.iter().all(|&k| (1..=n).contains(&k)));
    }

    #[test]
    fn file_sizes_in_range() {
        let mut g = TraceGen::new(3);
        for _ in 0..100 {
            let s = g.file_size(16 << 20);
            assert!((512..=24 << 20).contains(&s), "{s}");
        }
    }

    #[test]
    fn prompts_are_wellformed() {
        let mut g = TraceGen::new(5);
        let p = String::from_utf8(g.llm_prompt(4, 12)).unwrap();
        assert!(p.starts_with("gen=12;"));
        assert_eq!(p.split(';').nth(1).unwrap().split(' ').count(), 4);
    }
}
