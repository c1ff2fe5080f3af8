//! Value-generation strategies.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use crate::test_runner::TestRng;

/// A way of generating values of one type. Object-safe: `prop_map` is gated
/// on `Sized` so `Box<dyn Strategy<Value = V>>` works (used by
/// `prop_oneof!`).
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Box the strategy (API parity; rarely needed in this shim).
    fn boxed(self) -> Box<dyn Strategy<Value = Self::Value>>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

impl<V> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// `strategy.prop_map(f)`.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produce a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "arbitrary" strategy.
pub trait Arbitrary: Sized {
    /// Generate an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// The canonical strategy for `T` (`any::<u64>()` etc.).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                // Bias towards structurally interesting values the way real
                // proptest does: extremes and small magnitudes show up often.
                match rng.below(8) {
                    0 => <$t>::MIN,
                    1 => <$t>::MAX,
                    2 => 0 as $t,
                    3 => (rng.next_u64() % 16) as $t,
                    _ => rng.next_u64() as $t,
                }
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        loop {
            let v = match rng.below(6) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                _ => f64::from_bits(rng.next_u64()),
            };
            // Exclude NaN: its ordering is unspecified across the codec and
            // `Ord` impls the tests compare against.
            if !v.is_nan() {
                return v;
            }
        }
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> char {
        // Printable ASCII keeps failures readable.
        (b' ' + rng.below(95) as u8) as char
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "empty range strategy");
                if s as i128 == <$t>::MIN as i128 && e as i128 == <$t>::MAX as i128 {
                    return rng.next_u64() as $t;
                }
                let span = (e as i128 - s as i128) as u64 + 1;
                (s as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!((A, B), (A, B, C), (A, B, C, D), (A, B, C, D, E));

/// String "regex" strategy: supports the `.{a,b}` patterns the tests use
/// (any printable string with a length in `[a, b]`); any other pattern
/// falls back to 0–16 printable characters.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (lo, hi) = parse_dot_repeat(self).unwrap_or((0, 16));
        let len = lo + rng.below((hi - lo + 1) as u64) as usize;
        (0..len).map(|_| char::arbitrary(rng)).collect()
    }
}

fn parse_dot_repeat(pat: &str) -> Option<(usize, usize)> {
    let body = pat.strip_prefix(".{")?.strip_suffix('}')?;
    let (a, b) = body.split_once(',')?;
    Some((a.trim().parse().ok()?, b.trim().parse().ok()?))
}

/// Collection-size specification for [`vec()`].
#[derive(Debug, Clone)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}
impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}
impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// `proptest::collection::vec(element, size)`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy produced by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.lo + rng.below((self.size.hi - self.size.lo + 1) as u64) as usize;
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Weighted union over boxed strategies (built by `prop_oneof!`).
pub struct Union<V> {
    options: Vec<(u32, Box<dyn Strategy<Value = V>>)>,
    total: u64,
}

impl<V> Union<V> {
    /// Build from `(weight, strategy)` pairs.
    pub fn new(options: Vec<(u32, Box<dyn Strategy<Value = V>>)>) -> Union<V> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        let total = options.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(total > 0, "prop_oneof! total weight must be positive");
        Union { options, total }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let mut pick = rng.below(self.total);
        for (w, s) in &self.options {
            if pick < u64::from(*w) {
                return s.generate(rng);
            }
            pick -= u64::from(*w);
        }
        unreachable!("weights sum covered above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TestRng {
        TestRng::deterministic("strategy-tests")
    }

    #[test]
    fn ranges_bounded() {
        let mut r = rng();
        for _ in 0..1000 {
            let v = (3i64..7).generate(&mut r);
            assert!((3..7).contains(&v));
            let u = (0u8..=255).generate(&mut r);
            let _ = u;
        }
    }

    #[test]
    fn vec_and_map_compose() {
        let mut r = rng();
        let s = vec((0i64..5, 1u64..3), 2..6).prop_map(|v| v.len());
        for _ in 0..100 {
            let n = s.generate(&mut r);
            assert!((2..6).contains(&n));
        }
    }

    #[test]
    fn string_pattern_lengths() {
        let mut r = rng();
        let s: &'static str = ".{0,24}";
        for _ in 0..200 {
            let v = s.generate(&mut r);
            assert!(v.chars().count() <= 24);
        }
    }

    #[test]
    fn union_respects_weights_loosely() {
        let mut r = rng();
        let u = crate::prop_oneof![9 => Just(1u8), 1 => Just(2u8)];
        let mut ones = 0;
        for _ in 0..1000 {
            if u.generate(&mut r) == 1u8 {
                ones += 1;
            }
        }
        assert!(ones > 700, "weighted pick should dominate: {ones}");
    }

    #[test]
    fn f64_never_nan() {
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(!f64::arbitrary(&mut r).is_nan());
        }
    }
}
