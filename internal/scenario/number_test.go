package scenario

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"abftckpt/internal/store"
)

// jsonNumber is the JSON number grammar, the oracle of entryReader.number.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// checkParseDecimal fails unless parseDecimal either declines tok or
// returns strconv.ParseFloat's bits for it; it reports whether it
// answered.
func checkParseDecimal(t *testing.T, tok string) bool {
	t.Helper()
	got, ok := parseDecimal([]byte(tok))
	if !ok {
		return false
	}
	want, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		t.Fatalf("parseDecimal(%q) = %v, but strconv rejects it: %v", tok, got, err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("parseDecimal(%q) = %v (%#x), strconv %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return true
}

// exactDecimal writes m·2^e exactly as a plain decimal.
func exactDecimal(m uint64, e int) string {
	n := new(big.Int).SetUint64(m)
	if e >= 0 {
		return n.Lsh(n, uint(e)).String()
	}
	// m·2^e = m·5^-e / 10^-e.
	n.Mul(n, new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(-e)), nil))
	s := n.String()
	if len(s) <= -e {
		s = strings.Repeat("0", -e-len(s)+1) + s
	}
	return s[:len(s)+e] + "." + s[len(s)+e:]
}

// TestParseDecimalMatchesStrconv probes the entry fast path with the
// tokens it must answer exactly (both of its paths, every halfway case
// the division path can meet, the forms the encoder writes for random
// bit patterns) and those it must decline.
func TestParseDecimalMatchesStrconv(t *testing.T) {
	for _, tok := range []string{
		"1", "-1", "0.1", "0.5", "1.5", "-2.25", "123.456", "0.30000000000000004",
		"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740995",
		"4503599627370496.5", "4503599627370497.5", "9999999999999999999", "1844674407370955161",
		"0.000001", "0.0000012345678901234567", "0.000000000000000000000000001", "0.1234567890123456789", "1234567890123456789",
	} {
		if !checkParseDecimal(t, tok) {
			t.Errorf("parseDecimal declined %q", tok)
		}
	}
	for _, tok := range []string{
		"0", "-0", "0.0", "-0.000", "1e5", "1E-5", "2.5e+3", "12345678901234567890",
		"0.1234567890123456789012345678", "1.0000000000000000000000000001", "0.0000000000000000000000000001",
		"", "-", ".", "1.2.3", "0x10", "1_0", "Inf", "NaN", "+1",
	} {
		if checkParseDecimal(t, tok) {
			t.Errorf("parseDecimal answered %q", tok)
		}
	}

	rng := rand.New(rand.NewSource(1))
	var clinger, division int
	probe := func(tok string) {
		if !checkParseDecimal(t, tok) {
			return
		}
		m, _ := strconv.ParseUint(strings.TrimLeft(strings.NewReplacer("-", "", ".", "").Replace(tok), "0"), 10, 64)
		frac := 0
		if i := strings.IndexByte(tok, '.'); i >= 0 {
			frac = len(tok) - i - 1
		}
		if m < 1<<53 && frac <= 22 {
			clinger++
		} else {
			division++
		}
	}
	for i := 0; i < 60_000; i++ {
		switch i % 5 {
		case 0: // halfway between two doubles: a 54-bit odd significand
			probe(exactDecimal(1<<53|rng.Uint64()>>11|1, rng.Intn(12)-2))
		case 1: // what the encoder writes for a random double in 'f' range
			v := math.Float64frombits(rng.Uint64())
			if a := math.Abs(v); a >= 1e-6 && a < 1e21 {
				probe(strconv.FormatFloat(v, 'f', -1, 64))
			}
		case 2: // a random 17-digit result float
			probe(strconv.FormatFloat(rng.Float64()*math.Pow(10, float64(rng.Intn(12)-4)), 'f', -1, 64))
		case 3: // up to 19 random digits, the point anywhere, leading zeros
			digits := strconv.FormatUint(rng.Uint64()%1e19, 10)
			at := rng.Intn(len(digits) + 1)
			tok := digits[:at] + "." + digits[at:]
			tok = strings.TrimLeft(tok, "0")
			if tok == "" || tok[0] == '.' {
				tok = "0" + tok
			}
			if tok[len(tok)-1] == '.' {
				tok = tok[:len(tok)-1]
			}
			probe("0.00000000" + digits) // k up to 27
			probe(tok)
		default: // one ulp either side of a random double, exactly
			v := math.Ldexp(1+rng.Float64(), rng.Intn(80)-20)
			bits := math.Float64bits(v)
			for _, b := range []uint64{bits - 1, bits, bits + 1} {
				probe(strconv.FormatFloat(math.Float64frombits(b), 'f', -1, 64))
			}
		}
	}
	if clinger < 5_000 || division < 5_000 {
		t.Errorf("probes hit Clinger's path %d times and the division path %d times, want both ≥ 5,000", clinger, division)
	}
}

// TestShortDecimalMatchesStrconv probes the spec-float fast path: it must
// answer the short decimals campaign axes are made of, in strconv's bytes,
// and decline or agree on everything else.
func TestShortDecimalMatchesStrconv(t *testing.T) {
	check := func(v float64) bool {
		t.Helper()
		got, ok := appendShortDecimal([]byte("x"), v)
		if !ok {
			if string(got) != "x" {
				t.Fatalf("appendShortDecimal(%v) declined but wrote %q", v, got)
			}
			return false
		}
		if want := strconv.AppendFloat([]byte("x"), v, 'f', -1, 64); !bytes.Equal(got, want) {
			t.Fatalf("appendShortDecimal(%v) = %q, strconv %q", v, got, want)
		}
		return true
	}
	// Sums taken at run time: constant arithmetic would be exact.
	tenth := 0.1
	for v, want := range map[float64]string{0.35: "0.35", -1.5: "-1.5", 1e-6: "0.000001", 9999999.99999999: "9999999.99999999", tenth + 0.7: ""} {
		got, ok := appendShortDecimal(nil, v)
		if string(got) != want || ok != (want != "") {
			t.Errorf("appendShortDecimal(%v) = %q, %v; want %q", v, got, ok, want)
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -7, 1e7, math.Nextafter(1e-6, 0), 1e-7, 1e21, tenth + 0.2, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		if check(v) {
			t.Errorf("appendShortDecimal answered %v", v)
		}
	}
	rng := rand.New(rand.NewSource(2))
	hits := 0
	for i := 0; i < 500_000; i++ {
		var v float64
		switch i % 3 {
		case 0:
			v = math.Float64frombits(rng.Uint64())
		case 1: // below 1e7, with up to 15 digits and 1 to 8 fraction digits
			k := 1 + rng.Intn(8)
			v = float64(rng.Int63n(int64(1e7*pow10[k]))) / pow10[k]
		default: // neighbours of a short decimal
			v = math.Nextafter(float64(rng.Int63n(1e9))/pow10[rng.Intn(9)], math.Inf(rng.Intn(2)*2-1))
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		if check(v) {
			hits++
		}
	}
	if hits < 50_000 {
		t.Errorf("%d of 500,000 probes took the fast path, want ≥ 50,000", hits)
	}
}

// recordingStore is a memory store that keeps every entry put into it.
type recordingStore struct {
	store.ResultStore
	mu      sync.Mutex
	entries [][]byte
}

func (s *recordingStore) PutBatch(items []store.Item) error {
	s.mu.Lock()
	for _, it := range items {
		s.entries = append(s.entries, append([]byte(nil), it.Value...))
	}
	s.mu.Unlock()
	return s.ResultStore.PutBatch(items)
}

// numberTokens returns the number tokens of a JSON document, skipping
// strings.
func numberTokens(data []byte) []string {
	var toks []string
	for i := 0; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
		case c == '-' || '0' <= c && c <= '9':
			j := i
			for j < len(data) && strings.IndexByte("-+.eE0123456789", data[j]) >= 0 {
				j++
			}
			toks = append(toks, string(data[i:j]))
			i = j - 1
		}
	}
	return toks
}

// TestPaperEntryNumbers parses every number token of the entries the
// paper campaign writes, specs and results, with the fast path and with
// strconv, and requires the same bits wherever the fast path answers. It
// also requires the fast path to answer most of them: a path that
// declines everything would pass the bit check and speed up nothing.
func TestPaperEntryNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole paper campaign")
	}
	c, err := LoadFile(exampleCampaign("paper.json"))
	if err != nil {
		t.Fatal(err)
	}
	rs := &recordingStore{ResultStore: store.NewMemory()}
	rep, err := (&Runner{Cache: NewCellCacheStore(rs, 0)}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.entries) != rep.Unique || rep.Unique != 2788 {
		t.Fatalf("%d entries for %d unique cells, want 2,788", len(rs.entries), rep.Unique)
	}
	tokens, fast := 0, 0
	for _, e := range rs.entries {
		for _, tok := range numberTokens(e) {
			if !jsonNumber.MatchString(tok) {
				t.Fatalf("token %q breaks the JSON number grammar", tok)
			}
			tokens++
			if checkParseDecimal(t, tok) {
				fast++
			}
		}
	}
	t.Logf("%d number tokens, %d on the fast path", tokens, fast)
	if fast < tokens*3/4 {
		t.Errorf("the fast path answered %d of %d tokens, want at least three quarters", fast, tokens)
	}
}

// FuzzEntryFloat: the entry reader accepts exactly the tokens of the JSON
// number grammar that strconv.ParseFloat parses, with strconv's bits, and
// on any grammatical token the fast path returns strconv's bits or
// declines.
func FuzzEntryFloat(f *testing.F) {
	for _, seed := range []string{
		"0", "-0", "1", "-1.5", "0.1", "0.30000000000000004", "9007199254740993", "4503599627370496.5",
		"9999999999999999999", "12345678901234567890", "0.000000000000000000000000001",
		"0.0000000000000000000000000001", "1e21", "1e-7", "1e400", "-2.5E-8", "01", "1.", ".5",
		"0x1p-2", "Inf", "1_0", "+1", "1.2.3", "--1", "",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, tok []byte) {
		want, err := strconv.ParseFloat(string(tok), 64)
		grammatical := jsonNumber.Match(tok)
		r := entryReader{data: tok}
		got := r.float64("")
		if accepted := !r.bad && r.i == len(tok); accepted != (grammatical && err == nil) {
			t.Fatalf("%q: reader accepts %v, grammar %v, strconv error %v", tok, accepted, grammatical, err)
		}
		if grammatical && err == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: reader %v, strconv %v", tok, got, want)
		}
		if grammatical {
			checkParseDecimal(t, string(tok))
		}
	})
}

// FuzzSpecFloat: for any float64 bit pattern, and any decimal m/10^k, the
// short-decimal path writes strconv's 'f' bytes whenever it answers.
func FuzzSpecFloat(f *testing.F) {
	for _, seed := range []struct {
		bits uint64
		m    int64
		k    uint8
	}{
		{math.Float64bits(0.35), 35, 2}, {math.Float64bits(1e-6), 1, 6}, {math.Float64bits(-7.5), -75, 1},
		{math.Float64bits(math.Pi), 314159265358979, 14}, {math.Float64bits(1e7 - 1e-8), 999999999999999, 8},
		{0, 0, 0}, {1 << 63, -1, 22}, {0x7ff0000000000000, math.MaxInt64, 9},
	} {
		f.Add(seed.bits, seed.m, seed.k)
	}
	f.Fuzz(func(t *testing.T, bits uint64, m int64, k uint8) {
		for _, v := range []float64{math.Float64frombits(bits), float64(m) / pow10[int(k)%len(pow10)]} {
			got, ok := appendShortDecimal(nil, v)
			if !ok {
				continue
			}
			if want := strconv.AppendFloat(nil, v, 'f', -1, 64); !bytes.Equal(got, want) {
				t.Fatalf("appendShortDecimal(%v) = %q, strconv %q", v, got, want)
			}
		}
	})
}
