package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// cacheEntry is the stored record of one executed cell as encoding/json
// sees it: the oracle the hand-written entry codec is held to.
type cacheEntry struct {
	V         int             `json:"v"`
	Spec      json.RawMessage `json:"spec"`
	Result    CellResult      `json:"result"`
	ElapsedMS float64         `json:"elapsed_ms"`
}

// oracleCanonical is CellSpec.Canonical through encoding/json.
func oracleCanonical(c CellSpec) ([]byte, error) {
	c.V = cellVersion
	return json.Marshal(c)
}

// oracleEntry is encodeCellEntry through json.Encoder.
func oracleEntry(k cellKey, res CellResult, elapsedMS float64) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(cacheEntry{V: cellVersion, Spec: k.canonical, Result: res, ElapsedMS: elapsedMS})
	return buf.Bytes(), err
}

// oracleDecode is decodeCellEntry through encoding/json: any JSON form of
// an entry, checked by version and canonical spec.
func oracleDecode(data []byte, k cellKey) (CellResult, bool) {
	var entry cacheEntry
	if err := json.Unmarshal(data, &entry); err != nil {
		return CellResult{}, false
	}
	if entry.V != cellVersion || !bytes.Equal(entry.Spec, k.canonical) {
		return CellResult{}, false
	}
	return entry.Result, true
}

// handCanonical runs the hand-written encoder, turning its panic on a
// non-finite float into an error.
func handCanonical(c CellSpec) (b []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &json.UnsupportedValueError{Str: "panic"}
		}
	}()
	return c.Canonical(), nil
}

// fillDistinct sets every field reachable from v (through pointers,
// structs and slices) to a non-zero value distinct from all the others.
// Floats walk through plain, exponent-form and negative values; strings
// carry characters encoding/json escapes.
func fillDistinct(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(v.Index(i), n)
		}
	case reflect.Float64:
		scale := []float64{1, 1e-7, 1e22, -1}[*n%4]
		v.SetFloat(scale * (float64(*n) + 0.25))
	case reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n) << 40)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("s<&>\"\\\n\x01 é\xff" + string(rune('a'+*n%26)))
	default:
		panic("fillDistinct: unhandled kind " + v.Kind().String())
	}
}

// floatFields returns every float64 reachable from v, which fillDistinct
// has populated.
func floatFields(v reflect.Value) []reflect.Value {
	switch v.Kind() {
	case reflect.Pointer:
		return floatFields(v.Elem())
	case reflect.Struct:
		var out []reflect.Value
		for i := 0; i < v.NumField(); i++ {
			out = append(out, floatFields(v.Field(i))...)
		}
		return out
	case reflect.Float64:
		return []reflect.Value{v}
	}
	return nil
}

// TestCodecFieldDrift sets every field reachable from CellSpec and
// CellResult to a distinct non-zero value: the hand-written canonical and
// entry encoders must write encoding/json's bytes, and the decoder must
// read back every field. A field added to either type without a codec
// line fails here instead of silently sharing a cache key.
func TestCodecFieldDrift(t *testing.T) {
	n := 0
	var spec CellSpec
	fillDistinct(reflect.ValueOf(&spec).Elem(), &n)
	want, err := oracleCanonical(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Canonical(); !bytes.Equal(got, want) {
		t.Fatalf("canonical encoding\n got %s\nwant %s", got, want)
	}

	var res CellResult
	fillDistinct(reflect.ValueOf(&res).Elem(), &n)
	k := spec.key()
	want, err = oracleEntry(k, res, 12.5)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := encodeCellEntry(k, res, 12.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("entry encoding\n got %s\nwant %s", got, want)
	}
	putEntryBuf(buf)
	back, ok := decodeCellEntry(want, k)
	if !ok {
		t.Fatalf("filled entry does not decode:\n%s", want)
	}
	// Compared with the oracle's decode, not res: invalid UTF-8 in a
	// string comes back as U+FFFD either way.
	if oracle, _ := oracleDecode(want, k); !reflect.DeepEqual(back, oracle) {
		t.Fatalf("decoded %+v, want %+v", back, oracle)
	}
}

// TestCheckFiniteCoversEveryFloat sets each float reachable from CellSpec
// to +Inf and NaN in turn: validation must reject every one, so the
// canonical encoder never meets a value it cannot write.
func TestCheckFiniteCoversEveryFloat(t *testing.T) {
	n := 0
	var spec CellSpec
	fillDistinct(reflect.ValueOf(&spec).Elem(), &n)
	if err := spec.checkFinite(); err != nil {
		t.Fatalf("finite spec rejected: %v", err)
	}
	for i, f := range floatFields(reflect.ValueOf(&spec).Elem()) {
		old := f.Float()
		for _, bad := range []float64{math.Inf(1), math.NaN()} {
			f.SetFloat(bad)
			if spec.checkFinite() == nil {
				t.Errorf("float field %d set to %v passes checkFinite", i, bad)
			}
			if _, err := handCanonical(spec); err == nil {
				t.Errorf("float field %d set to %v encodes", i, bad)
			}
		}
		f.SetFloat(old)
	}
}

// pinnedEntryKeys are the keys of the committed testdata entries.
func pinnedEntryKeys(tb testing.TB) []cellKey {
	tb.Helper()
	var keys []cellKey
	for _, name := range []string{"model", "periods", "sim", "silent_model", "ml_model", "sim_adaptive"} {
		data, err := os.ReadFile(filepath.Join("testdata", "cache_entries", name+".json"))
		if err != nil {
			tb.Fatal(err)
		}
		var entry cacheEntry
		if err := json.Unmarshal(data, &entry); err != nil {
			tb.Fatal(err)
		}
		var spec CellSpec
		if err := json.Unmarshal(entry.Spec, &spec); err != nil {
			tb.Fatal(err)
		}
		keys = append(keys, spec.key())
	}
	return keys
}

// FuzzCellCanonical: for any spec encoding/json can decode (with a free
// string in protocol and a free float in nodes), the hand-written
// canonical encoding equals json.Marshal, and it fails exactly when
// json.Marshal does.
func FuzzCellCanonical(f *testing.F) {
	for _, c := range BenchCells() {
		f.Add(c.Canonical(), "", 0.0)
	}
	for _, k := range pinnedEntryKeys(f) {
		f.Add(k.canonical, "abft", 1e21)
	}
	f.Add([]byte(`{"op":"scaling","scaling":{"BaseNodes":1e4,"CkptScaling":"linear","GeneralScaling":"sqrt","LibraryScaling":"inverse"}}`), "<&>\u2028", 1e-7)
	f.Add([]byte(`{"op":"x","multilevel":{"K":3},"silent":{"recovery":"\u0001"},"precision":{"no_cv":true}}`), "\xff", math.Inf(1))
	for _, s := range []string{
		"a\"b\\c", "<script>&amp;</script>", "\b\f\n\r\t\x00\x1f\x7f", "\u2028\u2029",
		"é日本\U0001F600", "bad\xffutf8\xc3", "\xed\xa0\x80",
	} {
		f.Add([]byte(`{"op":"model"}`), s, 0.0)
	}
	f.Fuzz(func(t *testing.T, data []byte, protocol string, nodes float64) {
		var spec CellSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		if protocol != "" {
			spec.Protocol = protocol
		}
		spec.Nodes = nodes
		want, wantErr := oracleCanonical(spec)
		got, gotErr := handCanonical(spec)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("hand error %v, oracle error %v", gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("canonical encoding\n got %s\nwant %s", got, want)
		}
	})
}

// FuzzCellEntry holds the entry codec to the encoding/json oracle, over
// the keys of the pinned entries:
//   - an entry the codec accepts, the oracle decodes to the same result;
//   - any result the oracle reads from the input, re-encoded by the oracle,
//     the hand-written encoder writes byte for byte and the codec accepts.
func FuzzCellEntry(f *testing.F) {
	keys := pinnedEntryKeys(f)
	for _, name := range []string{"model", "periods", "sim", "silent_model", "ml_model", "sim_adaptive", "special"} {
		data, err := os.ReadFile(filepath.Join("testdata", "cache_entries", name+".json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The sim entry with one token swapped for a form strconv parses but
	// JSON does not allow, or one out of range: each must be rejected.
	sim, err := os.ReadFile(filepath.Join("testdata", "cache_entries", "sim.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, swap := range [][2]string{
		{`"runs":16`, `"runs":0x10`}, {`"runs":16`, `"runs":1_6`}, {`"runs":16`, `"runs":+16`},
		{`"runs":16`, `"runs":16.0`}, {`"runs":16`, `"runs":1e1`}, {`"runs":16`, `"runs":99999999999999999999`},
		{`"ckpt_mean":33480`, `"ckpt_mean":Inf`}, {`"ckpt_mean":33480`, `"ckpt_mean":0x1p-2`},
		{`"ckpt_mean":33480`, `"ckpt_mean":.5`}, {`"ckpt_mean":33480`, `"ckpt_mean":05`},
		{`"ckpt_mean":33480`, `"ckpt_mean":1e400`}, {`"ckpt_mean":33480`, `"ckpt_mean":"inf"`},
		{`"elapsed_ms":1.25`, `"elapsed_ms":1.`}, {`"elapsed_ms":1.25`, `"elapsed_ms":infinity`},
		{`"elapsed_ms":1.25`, `"elapsed_ms":"nan"`}, {"}\n", "}"}, {"}\n", "} \n"},
		{`"truncated":0`, `"truncated":0,"reps_cap":0`}, {`"truncated":0`, `"truncated":0,"replicas":[]`},
	} {
		f.Add(bytes.Replace(sim, []byte(swap[0]), []byte(swap[1]), 1))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range keys {
			got, ok := decodeCellEntry(data, k)
			if !ok {
				continue
			}
			want, wantOK := oracleDecode(data, k)
			if !wantOK {
				t.Fatalf("codec accepts an entry the oracle rejects:\n%s", data)
			}
			if mustCanonicalResult(t, got) != mustCanonicalResult(t, want) {
				t.Fatalf("codec and oracle disagree on\n%s", data)
			}
		}

		var entry cacheEntry
		if json.Unmarshal(data, &entry) != nil {
			return
		}
		for _, k := range keys {
			want, err := oracleEntry(k, entry.Result, entry.ElapsedMS)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := encodeCellEntry(k, entry.Result, entry.ElapsedMS)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("entry encoding\n got %s\nwant %s", buf.Bytes(), want)
			}
			putEntryBuf(buf)
			got, ok := decodeCellEntry(want, k)
			if !ok {
				t.Fatalf("codec rejects the oracle's entry\n%s", want)
			}
			if mustCanonicalResult(t, got) != mustCanonicalResult(t, entry.Result) {
				t.Fatalf("decoded result differs from the encoded one:\n%s", want)
			}
		}
	})
}
