//! Deterministic property testing with greedy byte-stream shrinking.
//!
//! The model follows Hypothesis rather than classic QuickCheck: every
//! strategy draws from a recorded byte [`Source`]. A fresh case records
//! the bytes it consumed; shrinking then edits that byte buffer (deleting
//! blocks, zeroing and halving bytes) and replays the generator over the
//! shrunk buffer. Because all structure is derived from the bytes, the
//! same shrinker works through `prop_map`, `prop_oneof!`, tuples and
//! collections with no per-strategy shrink code.
//!
//! Reproducibility: each test derives a fixed base seed from its name, so
//! failures are deterministic run-to-run with no state files. Set
//! `EREBOR_PT_SEED=<u64>` to explore a different seed and
//! `EREBOR_PT_CASES=<n>` to override the case count.

use crate::rng::TestRng;
use std::collections::HashSet;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Mutex, OnceLock};
use std::thread::ThreadId;

// ====================================================================
// Byte source
// ====================================================================

/// The byte stream a test case draws from: RNG-backed while exploring,
/// buffer-backed (zeros past the end) while replaying a shrink candidate.
pub struct Source {
    data: Vec<u8>,
    pos: usize,
    rng: Option<TestRng>,
}

impl core::fmt::Debug for Source {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Source")
            .field("len", &self.data.len())
            .field("pos", &self.pos)
            .field("generative", &self.rng.is_some())
            .finish()
    }
}

impl Source {
    /// A generative source: fresh bytes from `rng`, recorded as consumed.
    #[must_use]
    pub fn fresh(rng: TestRng) -> Source {
        Source {
            data: Vec::new(),
            pos: 0,
            rng: Some(rng),
        }
    }

    /// A replay source over a fixed buffer; reads past the end yield 0,
    /// which drives every strategy toward its minimal value.
    #[must_use]
    pub fn replay(data: &[u8]) -> Source {
        Source {
            data: data.to_vec(),
            pos: 0,
            rng: None,
        }
    }

    /// The bytes consumed so far (the shrinkable record of this case).
    #[must_use]
    pub fn consumed(&self) -> &[u8] {
        &self.data[..self.pos.min(self.data.len())]
    }

    /// Draw one byte.
    pub fn next_byte(&mut self) -> u8 {
        if self.pos >= self.data.len() {
            match &mut self.rng {
                Some(rng) => {
                    let mut block = [0u8; 64];
                    rng.fill(&mut block);
                    self.data.extend_from_slice(&block);
                }
                None => {
                    self.pos += 1;
                    return 0;
                }
            }
        }
        let b = self.data[self.pos];
        self.pos += 1;
        b
    }

    /// Draw `N` bytes.
    pub fn bytes<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        for b in &mut out {
            *b = self.next_byte();
        }
        out
    }

    /// Draw a raw little-endian `u64`. All-zero bytes give 0, and zeroing
    /// any byte strictly reduces the value — the property the shrinker
    /// relies on.
    pub fn next_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.bytes::<8>())
    }

    /// A value in `[0, n)`, monotone in the raw draw.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A float in `[0, 1)`, monotone in the raw draw.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ====================================================================
// Strategies
// ====================================================================

/// A composable value generator.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Produce one value from the byte source.
    fn generate(&self, src: &mut Source) -> Self::Value;

    /// Map the generated value through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erase into a [`BoxedStrategy`] (needed by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(move |src| self.generate(src)))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut Source) -> T>);

impl<T> core::fmt::Debug for BoxedStrategy<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BoxedStrategy").finish_non_exhaustive()
    }
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, src: &mut Source) -> T {
        (self.0)(src)
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _src: &mut Source) -> T {
        self.0.clone()
    }
}

/// `prop_map` adapter.
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F> core::fmt::Debug for Map<S, F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Map").finish_non_exhaustive()
    }
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, src: &mut Source) -> U {
        (self.f)(self.inner.generate(src))
    }
}

/// Uniform choice between boxed alternatives (`prop_oneof!`).
pub struct OneOf<T> {
    /// The alternatives.
    pub options: Vec<BoxedStrategy<T>>,
}

impl<T> core::fmt::Debug for OneOf<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("OneOf")
            .field("options", &self.options.len())
            .finish()
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, src: &mut Source) -> T {
        debug_assert!(!self.options.is_empty());
        let idx = src.below(self.options.len() as u64) as usize;
        self.options[idx].generate(src)
    }
}

// --- integer / float ranges as strategies ---------------------------

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            #[allow(clippy::cast_possible_truncation, clippy::cast_lossless)]
            fn generate(&self, src: &mut Source) -> $t {
                debug_assert!(self.start < self.end);
                let span = (self.end as u64) - (self.start as u64);
                self.start + src.below(span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            #[allow(clippy::cast_possible_truncation, clippy::cast_lossless)]
            fn generate(&self, src: &mut Source) -> $t {
                let (lo, hi) = (*self.start() as u64, *self.end() as u64);
                debug_assert!(lo <= hi);
                if lo == 0 && hi == u64::MAX {
                    return src.next_u64() as $t;
                }
                (lo + src.below(hi - lo + 1)) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, src: &mut Source) -> f64 {
        self.start + src.unit_f64() * (self.end - self.start)
    }
}

// --- tuples ---------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, src: &mut Source) -> Self::Value {
                ($(self.$idx.generate(src),)+)
            }
        }
    };
}

impl_tuple_strategy!(A.0);
impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);

// --- any::<T>() -----------------------------------------------------

/// Types with a canonical full-range strategy.
pub trait Arbitrary {
    /// Draw an arbitrary value.
    fn arbitrary(src: &mut Source) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty : $n:expr),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(src: &mut Source) -> $t {
                <$t>::from_le_bytes(src.bytes::<$n>())
            }
        }
    )*};
}

impl_arbitrary_int!(u8:1, u16:2, u32:4, u64:8, i8:1, i16:2, i32:4, i64:8);

impl Arbitrary for usize {
    fn arbitrary(src: &mut Source) -> usize {
        src.next_u64() as usize
    }
}

impl Arbitrary for bool {
    fn arbitrary(src: &mut Source) -> bool {
        src.next_byte() & 1 == 1
    }
}

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(src: &mut Source) -> [u8; N] {
        src.bytes::<N>()
    }
}

/// Strategy for an [`Arbitrary`] type.
pub struct Any<T>(PhantomData<T>);

impl<T> core::fmt::Debug for Any<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Any").finish_non_exhaustive()
    }
}

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, src: &mut Source) -> T {
        T::arbitrary(src)
    }
}

/// The full-range strategy for `T` (proptest's `any::<T>()`).
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

// --- string patterns ------------------------------------------------

/// `&str` patterns act as string strategies. Supported forms: a charset
/// repetition `[<chars>]{m,n}` (with `a-z` style ranges inside the
/// brackets) or, failing to parse as that, the literal string itself.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, src: &mut Source) -> String {
        match parse_charset_pattern(self) {
            Some((chars, lo, hi)) => {
                let len = lo + src.below((hi - lo + 1) as u64) as usize;
                (0..len)
                    .map(|_| chars[src.below(chars.len() as u64) as usize])
                    .collect()
            }
            None => (*self).to_string(),
        }
    }
}

fn parse_charset_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let close = rest.find(']')?;
    let (set, rep) = rest.split_at(close);
    let rep = rep.strip_prefix(']')?.strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = match rep.split_once(',') {
        Some((a, b)) => (a.parse().ok()?, b.parse().ok()?),
        None => {
            let n = rep.parse().ok()?;
            (n, n)
        }
    };
    if lo > hi {
        return None;
    }
    let mut chars = Vec::new();
    let cs: Vec<char> = set.chars().collect();
    let mut i = 0;
    while i < cs.len() {
        if i + 2 < cs.len() && cs[i + 1] == '-' {
            for c in cs[i]..=cs[i + 2] {
                chars.push(c);
            }
            i += 3;
        } else {
            chars.push(cs[i]);
            i += 1;
        }
    }
    if chars.is_empty() {
        return None;
    }
    Some((chars, lo, hi))
}

// ====================================================================
// Collections
// ====================================================================

/// Collection strategies (`vec`, `btree_set`, `btree_map`).
pub mod collection {
    use super::{Source, Strategy};
    use std::collections::{BTreeMap, BTreeSet};
    use std::ops::{Range, RangeInclusive};

    /// A size range for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        /// Minimum length (inclusive).
        pub lo: usize,
        /// Maximum length (inclusive).
        pub hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl SizeRange {
        fn draw(self, src: &mut Source) -> usize {
            self.lo + src.below((self.hi - self.lo + 1) as u64) as usize
        }
    }

    /// `Vec` of values from `elem` with a length in `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S> core::fmt::Debug for VecStrategy<S> {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.debug_struct("VecStrategy").finish_non_exhaustive()
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, src: &mut Source) -> Vec<S::Value> {
            let len = self.size.draw(src);
            (0..len).map(|_| self.elem.generate(src)).collect()
        }
    }

    /// `BTreeSet` of values from `elem`; insertion collisions mean the
    /// result may be smaller than the drawn size (minimum best-effort,
    /// as in proptest).
    pub fn btree_set<S>(elem: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            elem,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S> core::fmt::Debug for BTreeSetStrategy<S> {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.debug_struct("BTreeSetStrategy").finish_non_exhaustive()
        }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, src: &mut Source) -> BTreeSet<S::Value> {
            let len = self.size.draw(src);
            let mut out = BTreeSet::new();
            let mut attempts = 0;
            while out.len() < len && attempts < len * 8 {
                out.insert(self.elem.generate(src));
                attempts += 1;
            }
            out
        }
    }

    /// `BTreeMap` with keys from `key` and values from `value`.
    pub fn btree_map<K, V>(
        key: K,
        value: V,
        size: impl Into<SizeRange>,
    ) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        BTreeMapStrategy {
            key,
            value,
            size: size.into(),
        }
    }

    /// See [`btree_map`].
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    impl<K, V> core::fmt::Debug for BTreeMapStrategy<K, V> {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.debug_struct("BTreeMapStrategy").finish_non_exhaustive()
        }
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, src: &mut Source) -> BTreeMap<K::Value, V::Value> {
            let len = self.size.draw(src);
            let mut out = BTreeMap::new();
            let mut attempts = 0;
            while out.len() < len && attempts < len * 8 {
                out.insert(self.key.generate(src), self.value.generate(src));
                attempts += 1;
            }
            out
        }
    }
}

pub use collection::SizeRange;

// ====================================================================
// Runner + shrinking
// ====================================================================

/// Per-suite configuration. Aliased as `ProptestConfig` so migrated
/// suites keep their `ProptestConfig::with_cases(n)` overrides.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of successful cases required.
    pub cases: u32,
}

/// proptest-compatible name for [`Config`].
pub type ProptestConfig = Config;

impl Config {
    /// A config running `cases` cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Config {
        Config { cases }
    }
}

impl Default for Config {
    fn default() -> Config {
        Config { cases: 64 }
    }
}

/// Why a single case did not pass.
#[derive(Debug)]
pub enum CaseError {
    /// The property failed (assertion or panic).
    Fail(String),
    /// The case was rejected by `prop_assume!` and should not count.
    Reject(String),
}

/// Outcome of running one case, used by the shrinker's predicate.
fn case_fails(result: &Result<(), CaseError>) -> bool {
    matches!(result, Err(CaseError::Fail(_)))
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse() {
        Ok(v) => Some(v),
        // A set-but-unparseable knob must not silently fall back to the
        // default seed — the user would believe they are replaying a
        // failure when they are not.
        Err(e) => panic!("[testkit] {name}={raw:?} is not a u64 ({e})"),
    }
}

/// FNV-1a of the test name: the per-test default seed, stable across
/// runs and processes, so failures reproduce with no state files.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

// --- panic-message silencing while exploring ------------------------
//
// Exploration and shrinking intentionally trigger panics (unwrap/expect
// inside property bodies). The default hook would spam stderr, so a
// forwarding hook suppresses output for threads currently inside the
// runner and leaves every other thread's panics untouched.

fn silenced_threads() -> &'static Mutex<HashSet<ThreadId>> {
    static SET: OnceLock<Mutex<HashSet<ThreadId>>> = OnceLock::new();
    SET.get_or_init(|| Mutex::new(HashSet::new()))
}

fn install_silencing_hook() {
    static INSTALL: OnceLock<()> = OnceLock::new();
    INSTALL.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let silenced = silenced_threads()
                .lock()
                .map(|s| s.contains(&std::thread::current().id()))
                .unwrap_or(false);
            if !silenced {
                prev(info);
            }
        }));
    });
}

struct SilenceGuard;

impl SilenceGuard {
    fn new() -> SilenceGuard {
        install_silencing_hook();
        if let Ok(mut s) = silenced_threads().lock() {
            s.insert(std::thread::current().id());
        }
        SilenceGuard
    }
}

impl Drop for SilenceGuard {
    fn drop(&mut self) {
        if let Ok(mut s) = silenced_threads().lock() {
            s.remove(&std::thread::current().id());
        }
    }
}

/// Run `case` under `catch_unwind`, turning panics into [`CaseError::Fail`].
pub fn run_case(
    case: &mut dyn FnMut(&mut Source) -> Result<(), CaseError>,
    src: &mut Source,
) -> Result<(), CaseError> {
    match panic::catch_unwind(AssertUnwindSafe(|| case(src))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("panic (non-string payload)");
            Err(CaseError::Fail(format!("panic: {msg}")))
        }
    }
}

/// Greedily shrink `bytes` while `fails` holds. Passes: delete blocks of
/// descending size, zero bytes, halve bytes. Repeats until a full sweep
/// makes no progress (a local minimum) or the attempt budget is spent.
pub fn shrink_bytes(bytes: &[u8], fails: &mut dyn FnMut(&[u8]) -> bool) -> Vec<u8> {
    let mut best = bytes.to_vec();
    let mut budget: u32 = 4000;
    loop {
        let mut improved = false;

        // Pass 1: delete contiguous blocks (shortens collections and
        // drops whole draws).
        for block in [64usize, 32, 16, 8, 4, 2, 1] {
            let mut i = 0;
            while i + block <= best.len() {
                if budget == 0 {
                    return best;
                }
                let mut cand = best.clone();
                cand.drain(i..i + block);
                budget -= 1;
                if fails(&cand) {
                    best = cand;
                    improved = true;
                    // Same index now holds the next block.
                } else {
                    i += 1;
                }
            }
        }

        // Pass 2: zero individual bytes (drives numeric draws to their
        // minimum and oneof choices to the first alternative).
        for i in 0..best.len() {
            if best[i] == 0 {
                continue;
            }
            if budget == 0 {
                return best;
            }
            let mut cand = best.clone();
            cand[i] = 0;
            budget -= 1;
            if fails(&cand) {
                best = cand;
                improved = true;
            }
        }

        // Pass 3: halve bytes toward zero (finer-grained minimization
        // when zeroing overshoots).
        for i in 0..best.len() {
            if best[i] == 0 {
                continue;
            }
            if budget == 0 {
                return best;
            }
            let mut cand = best.clone();
            cand[i] /= 2;
            budget -= 1;
            if fails(&cand) {
                best = cand;
                improved = true;
            }
        }

        if !improved {
            return best;
        }
    }
}

/// Drive one property: explore `cfg.cases` cases, shrink the first
/// failure, and panic with a reproducible report. Invoked by the
/// `proptest!` macro; not usually called directly.
///
/// # Panics
/// Panics (failing the enclosing `#[test]`) when the property fails.
pub fn run(
    cfg: &Config,
    name: &str,
    mut case: impl FnMut(&mut Source) -> Result<(), CaseError>,
    describe: impl Fn(&mut Source) -> String,
) {
    let seed = env_u64("EREBOR_PT_SEED").unwrap_or_else(|| name_seed(name));
    let cases = env_u64("EREBOR_PT_CASES").map_or(cfg.cases, |n| n as u32);
    let max_attempts = cases.saturating_mul(10).max(100);

    let mut passed = 0u32;
    let mut rejected = 0u32;
    let mut attempt = 0u32;
    let failure = loop {
        if passed >= cases {
            return;
        }
        if attempt >= max_attempts {
            assert!(
                passed > 0,
                "[testkit] property '{name}' rejected every case \
                 ({rejected} rejections); weaken prop_assume!"
            );
            return; // Too many rejections but some passes: accept.
        }
        let case_rng =
            TestRng::seed_from_u64(seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut src = Source::fresh(case_rng);
        let result = {
            let _quiet = SilenceGuard::new();
            run_case(&mut case, &mut src)
        };
        attempt += 1;
        match result {
            Ok(()) => passed += 1,
            Err(CaseError::Reject(_)) => rejected += 1,
            Err(CaseError::Fail(msg)) => break (src.consumed().to_vec(), msg, attempt - 1),
        }
    };

    let (consumed, first_msg, failing_attempt) = failure;
    let minimal = {
        let _quiet = SilenceGuard::new();
        shrink_bytes(&consumed, &mut |cand| {
            case_fails(&run_case(&mut case, &mut Source::replay(cand)))
        })
    };
    let final_msg = match run_case(&mut case, &mut Source::replay(&minimal)) {
        Err(CaseError::Fail(m)) => m,
        _ => first_msg, // Flaky under replay; report the original message.
    };
    let values = describe(&mut Source::replay(&minimal));
    panic!(
        "[testkit] property '{name}' failed (attempt {failing_attempt}, \
         {passed} cases passed)\n\
         [testkit] failure: {final_msg}\n\
         [testkit] minimal failing input:\n{values}\
         [testkit] reproduce with: EREBOR_PT_SEED={seed} \
         (deterministic default seed for this test)"
    );
}
