package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// oracleUnmarshalJSONFloat is the JSONFloat decoder as it was before the
// direct parse: every value goes through encoding/json, as a number first
// and then as a string naming a special.
func oracleUnmarshalJSONFloat(b []byte) (float64, error) {
	var v float64
	if err := json.Unmarshal(b, &v); err == nil {
		return v, nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return 0, err
	}
	switch s {
	case "+inf":
		return math.Inf(1), nil
	case "-inf":
		return math.Inf(-1), nil
	case "nan":
		return math.NaN(), nil
	default:
		return 0, fmt.Errorf("scenario: invalid float %q", s)
	}
}

// FuzzJSONFloat: for any valid JSON value, the decoder agrees with the
// encoding/json oracle on the float's bits, on whether it errors and on
// the error text.
func FuzzJSONFloat(f *testing.F) {
	for _, seed := range []string{
		`0`, `-0`, `1`, `-1.5`, `0.1`, `1e21`, `1e+21`, `1e-7`, `-2.5E-8`, `5e-324`,
		`1.7976931348623157e+308`, `1e400`, `-1e400`, `1e-400`, `123456789012345680`,
		`"+inf"`, `"-inf"`, `"nan"`, `"nan"`, `"+inf"`, `"inf"`, `"NaN"`, `""`,
		`"1.5"`, `null`, `true`, `[]`, `{}`, ` 1`, `1 `, `[1]`, `{"a":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if !json.Valid(b) {
			t.Skip()
		}
		want, wantErr := oracleUnmarshalJSONFloat(b)
		var got JSONFloat
		gotErr := got.UnmarshalJSON(b)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: error %v, oracle error %v", b, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%q: error %q, oracle %q", b, gotErr, wantErr)
			}
			return
		}
		if math.Float64bits(float64(got)) != math.Float64bits(want) {
			t.Fatalf("%q: decoded %v (%#x), oracle %v (%#x)", b, float64(got),
				math.Float64bits(float64(got)), want, math.Float64bits(want))
		}
	})
}

// jsonFloatBits generates float64 bit patterns weighted toward the cases
// the encoder treats specially: subnormals, ±0, ±Inf, NaN and the
// neighbours of encoding/json's 1e-6 and 1e21 format cutoffs.
type jsonFloatBits uint64

func (jsonFloatBits) Generate(r *rand.Rand, _ int) reflect.Value {
	edges := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
		1e-9, 1e-10, 1e20,
	}
	var bits uint64
	switch r.Intn(4) {
	case 0:
		bits = math.Float64bits(edges[r.Intn(len(edges))])
	case 1:
		bits = r.Uint64() & (1<<52 - 1) // subnormal (or +0)
	default:
		bits = r.Uint64()
	}
	if r.Intn(2) == 0 {
		bits ^= 1 << 63
	}
	return reflect.ValueOf(jsonFloatBits(bits))
}

// TestJSONFloatMarshalMatchesEncodingJSON: for any bit pattern, a finite
// value encodes to exactly encoding/json's bytes, and every value decodes
// back bit-exactly (NaN to a NaN).
func TestJSONFloatMarshalMatchesEncodingJSON(t *testing.T) {
	prop := func(bits jsonFloatBits) bool {
		v := math.Float64frombits(uint64(bits))
		got, err := JSONFloat(v).MarshalJSON()
		if err != nil {
			t.Logf("%v: marshal: %v", v, err)
			return false
		}
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			want, err := json.Marshal(v)
			if err != nil || !bytes.Equal(got, want) {
				t.Logf("%#x: encoded %s, encoding/json %s (%v)", uint64(bits), got, want, err)
				return false
			}
		}
		var back JSONFloat
		if err := back.UnmarshalJSON(got); err != nil {
			t.Logf("%s: unmarshal: %v", got, err)
			return false
		}
		if math.IsNaN(v) {
			return math.IsNaN(float64(back))
		}
		if math.Float64bits(float64(back)) != uint64(bits) {
			t.Logf("%#x: round trip through %s gave %#x", uint64(bits), got, math.Float64bits(float64(back)))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}
