//! Exact rational arithmetic for the simplex core.
//!
//! Numerator/denominator over `i128` with eager gcd reduction. The CEM and
//! switch-model encodings only use small coefficients (±1, small
//! constants), so almost every value is an integer: `+ − × cmp` on two
//! integers (`den == 1`) skip the gcd and the cross-multiplication. Every
//! path, fractions included, panics with "Rat overflow" in every build
//! (`checked_*`). Nothing saturates or wraps — an overflow is a bug, not
//! an input condition.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// An exact rational number, always kept in lowest terms with a positive
/// denominator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128, // > 0
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (checked(a.checked_abs()), checked(b.checked_abs()));
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

impl Rat {
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        Rat {
            num: mul(sign, num / g),
            den: mul(sign, den / g),
        }
    }

    pub fn int(v: i64) -> Rat {
        Rat {
            num: v as i128,
            den: 1,
        }
    }

    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Largest integer ≤ self.
    pub fn floor(&self) -> i64 {
        let q = self.num.div_euclid(self.den);
        i64::try_from(q).expect("floor out of i64 range")
    }

    /// Smallest integer ≥ self.
    pub fn ceil(&self) -> i64 {
        let q = -(-self.num).div_euclid(self.den);
        i64::try_from(q).expect("ceil out of i64 range")
    }

    /// Exact integer value; panics if not an integer.
    pub fn to_int(&self) -> i64 {
        assert!(self.is_integer(), "{self} is not an integer");
        i64::try_from(self.num).expect("value out of i64 range")
    }

    pub fn recip(&self) -> Rat {
        assert!(self.num != 0, "reciprocal of zero");
        Rat::new(self.den, self.num)
    }
}

/// The value of a checked operation; `None`, an overflow, is a bug.
fn checked(v: Option<i128>) -> i128 {
    v.expect("Rat overflow")
}

/// `a · b`; two factors that fit in 64 bits cannot overflow 128.
fn mul(a: i128, b: i128) -> i128 {
    match (i64::try_from(a), i64::try_from(b)) {
        (Ok(_), Ok(_)) => a * b,
        _ => checked(a.checked_mul(b)),
    }
}

fn checked_int(v: Option<i128>) -> Rat {
    Rat {
        num: checked(v),
        den: 1,
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, o: Rat) -> Rat {
        if self.den == 1 && o.den == 1 {
            return checked_int(self.num.checked_add(o.num));
        }
        let num = checked(mul(self.num, o.den).checked_add(mul(o.num, self.den)));
        Rat::new(num, mul(self.den, o.den))
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, o: Rat) {
        *self = *self + o;
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, o: Rat) -> Rat {
        if self.den == 1 && o.den == 1 {
            return checked_int(self.num.checked_sub(o.num));
        }
        let num = checked(mul(self.num, o.den).checked_sub(mul(o.num, self.den)));
        Rat::new(num, mul(self.den, o.den))
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, o: Rat) -> Rat {
        if self.den == 1 && o.den == 1 {
            return checked_int(self.num.checked_mul(o.num));
        }
        Rat::new(mul(self.num, o.num), mul(self.den, o.den))
    }
}

impl Div for Rat {
    type Output = Rat;
    fn div(self, o: Rat) -> Rat {
        assert!(o.num != 0, "division by zero");
        Rat::new(mul(self.num, o.den), mul(self.den, o.num))
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: checked(self.num.checked_neg()),
            den: self.den,
        }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, o: &Rat) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

impl Ord for Rat {
    fn cmp(&self, o: &Rat) -> Ordering {
        if self.den == 1 && o.den == 1 {
            return self.num.cmp(&o.num);
        }
        mul(self.num, o.den).cmp(&mul(o.num, self.den))
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 5), Rat::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 3);
        let b = Rat::new(1, 6);
        assert_eq!(a + b, Rat::new(1, 2));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 18));
        assert_eq!(a / b, Rat::int(2));
        assert_eq!(-a, Rat::new(-1, 3));
    }

    #[test]
    fn floor_ceil_on_negatives() {
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::int(5).floor(), 5);
        assert_eq!(Rat::int(5).ceil(), 5);
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::int(2) > Rat::new(3, 2));
    }

    #[test]
    fn integrality() {
        assert!(Rat::new(4, 2).is_integer());
        assert_eq!(Rat::new(4, 2).to_int(), 2);
        assert!(!Rat::new(1, 2).is_integer());
    }

    #[test]
    #[should_panic(expected = "Rat overflow")]
    fn fraction_overflow_panics_in_every_build() {
        // 2¹²⁷ − 1 is prime, so neither fraction reduces before the
        // cross-multiplication overflows.
        let _ = Rat::new(i128::MAX, 2) + Rat::new(1, 3);
    }

    #[test]
    #[should_panic(expected = "Rat overflow")]
    fn negating_the_least_numerator_panics() {
        let least = -Rat::new(i128::MAX, 1) - Rat::ONE;
        let _ = -least;
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        Rat::new(1, 0);
    }
}
