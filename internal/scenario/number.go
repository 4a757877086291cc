package scenario

import (
	"math"
	"math/bits"
	"strconv"
)

// Exact fast paths for the two float conversions of the cell codec: the
// decimal tokens of a stored entry to float64, and a spec float to its
// shortest decimal. Each answers only where its result is provably the
// one strconv gives and declines everywhere else, so the bytes and bits
// of keys and entries are strconv's. Both are integer arithmetic plus at
// most one IEEE-754 division, so they give the same bits on every
// architecture.

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// pow5 holds 5^0 … 5^27, every power of five below 2^63.
var pow5 = func() (p [28]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = 5 * p[i-1]
	}
	return p
}()

// parseDecimal returns the float64 nearest the JSON number token tok, ties
// to even, as strconv.ParseFloat does, for a token without exponent whose
// non-zero mantissa has at most 19 significant digits and at most 27
// fraction digits; ok is false for any other token.
//
// A mantissa m below 2^53 with k ≤ 22 fraction digits takes Clinger's
// exact path: float64(m) and 1e{k} are both exact, so their IEEE quotient
// is m/10^k correctly rounded. Any other mantissa (below 10^19 < 2^64)
// goes through divPow10.
func parseDecimal(tok []byte) (v float64, ok bool) {
	i, neg := 0, len(tok) > 0 && tok[0] == '-'
	if neg {
		i = 1
	}
	var m uint64
	digits, frac, point := 0, 0, false
	for ; i < len(tok); i++ {
		c := tok[i]
		if c == '.' && !point {
			point = true
			continue
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		if point {
			frac++
		}
		if m == 0 && c == '0' {
			continue // a leading zero is no significant digit
		}
		if digits == 19 {
			return 0, false
		}
		m = 10*m + uint64(c-'0')
		digits++
	}
	if m == 0 || frac >= len(pow5) {
		return 0, false
	}
	if m < 1<<53 && frac < len(pow10) {
		v = float64(m) / pow10[frac]
	} else {
		v = divPow10(m, frac)
	}
	if neg {
		v = -v
	}
	return v, true
}

// divPow10 returns m/10^k correctly rounded, ties to even, for m ≥ 1 and
// k < len(pow5). With 10^k = 5^k·2^k it divides m·2^s by 5^k in 128 bits,
// s chosen so the quotient q has 63 or 64 bits. q's top 53 bits are the
// significand; the bits below them and the remainder decide the rounding
// exactly. Scaling by 2^-(s+k) is exact, since the result (at least
// 10^-27) is far from the subnormals.
func divPow10(m uint64, k int) float64 {
	d := pow5[k]
	s := 63 + bits.Len64(d) - bits.Len64(m)
	var hi, lo uint64
	if s >= 64 {
		hi = m << (s - 64)
	} else {
		hi, lo = m>>(64-s), m<<s
	}
	// m·2^s < 2^(63+len(d)), so hi < 2^(len(d)-1) ≤ d, as Div64 needs,
	// and q > 2^62.
	q, r := bits.Div64(hi, lo, d)
	drop := bits.Len64(q) - 53
	mant, rest, half := q>>drop, q&(1<<drop-1), uint64(1)<<(drop-1)
	if rest > half || rest == half && (r != 0 || mant&1 == 1) {
		mant++
	}
	return math.Ldexp(float64(mant), drop-s-k)
}

// appendShortDecimal appends v as strconv.AppendFloat(b, v, 'f', -1, 64)
// does, for a non-integer with 1e-6 ≤ |v| < 1e7 that is the double
// nearest m/1e8 for an integer m; ok is false for any other v. Such an m
// is below 10^15, so m/1e8 has at most 15 significant digits, and two
// decimals of at most 15 significant digits never name the same double:
// no shorter decimal rounds to v, and the shortest digits are m's with
// trailing zeros stripped. The check m/1e8 == |v| is Clinger's exact
// division, so a wrongly rounded m declines instead of answering.
func appendShortDecimal(b []byte, v float64) ([]byte, bool) {
	a := math.Abs(v)
	if !(a >= 1e-6 && a < 1e7) || a == math.Trunc(a) {
		return b, false
	}
	m := uint64(a*1e8 + 0.5)
	if float64(m)/1e8 != a {
		return b, false
	}
	if v < 0 {
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, m/1e8, 10)
	// The fraction is non-zero: were it zero, m/1e8 would be an integer.
	frac, n := m%1e8, 8
	for ; frac%10 == 0; frac /= 10 {
		n--
	}
	var digits [8]byte
	for i := n - 1; i >= 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	return append(append(b, '.'), digits[:n]...), true
}
