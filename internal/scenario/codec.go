package scenario

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Hand-written JSON codecs for the two hot paths of the cell cache: the
// canonical encoding of a CellSpec, whose SHA-256 is the cache key, and
// the stored cache entry. Both write exactly the bytes encoding/json writes
// for the same values (field order, omitempty rules, float formatting,
// string escaping), so keys and stored entries predate them unchanged. The
// tests keep encoding/json as the oracle: a field added to CellSpec or
// CellResult without a line here fails them instead of silently sharing a
// key or dropping a value.
//
// Each append helper and each entryReader value reader takes the literal
// before the value, the member's key with its separator (`,"mu":`), so
// every field is one line, in struct order.

// appendKey appends an optional member's name and colon, preceded by a
// comma unless the member opens its object.
func appendKey(b []byte, name string) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, name...)
	return append(b, '"', ':')
}

// appendJSONString appends s quoted as encoding/json quotes it: control
// characters, '"', '\\', and the HTML-sensitive '<', '>' and '&' are
// escaped, so are U+2028 and U+2029, and invalid UTF-8 becomes U+FFFD.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONNumber appends a finite float64 exactly as encoding/json
// encodes it: shortest round-trip digits, in exponent form outside
// [1e-6, 1e21), with a one-digit negative exponent's leading zero removed.
func appendJSONNumber(b []byte, v float64) []byte {
	// Integers below 2^53 are exactly representable, so their shortest
	// round-trip digits are the integer's own: skip the float formatter
	// for the whole seconds and counts that fill most specs. -0 keeps its
	// sign through the formatter.
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 && !(v == 0 && math.Signbit(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendSpecFloat appends a cell-spec float member. Validation keeps spec
// floats finite (CellSpec.checkFinite); encoding/json has no form for
// ±Inf and NaN either, so one reaching the encoder is a programming error.
// Spec floats are mostly short decimals (0.35, 1.5), which
// appendShortDecimal writes without strconv's shortest-digit search;
// result floats, whose 17-digit values it would always decline, keep
// appendJSONNumber alone.
func appendSpecFloat(b []byte, key string, v float64) []byte {
	if !finite(v) {
		panic(fmt.Sprintf("scenario: marshal cell: unsupported value %v", v))
	}
	b = append(b, key...)
	if out, ok := appendShortDecimal(b, v); ok {
		return out
	}
	return appendJSONNumber(b, v)
}

// appendFloat appends a JSONFloat member, encoded as
// JSONFloat.MarshalJSON encodes it.
func appendFloat(b []byte, key string, f JSONFloat) []byte {
	b = append(b, key...)
	switch v := float64(f); {
	case math.IsInf(v, 1):
		return append(b, `"+inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-inf"`...)
	case math.IsNaN(v):
		return append(b, `"nan"`...)
	default:
		return appendJSONNumber(b, v)
	}
}

func appendInt(b []byte, key string, v int) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

func appendBool(b []byte, key string, v bool) []byte {
	return strconv.AppendBool(append(b, key...), v)
}

func appendString(b []byte, key, s string) []byte {
	return appendJSONString(append(b, key...), s)
}

// canonicalScratch sizes the stack buffer Canonical encodes into; the
// example campaigns' cells take 136–391 bytes.
const canonicalScratch = 512

// appendCanonical appends the canonical encoding of c: the fields of
// CellSpec and its blocks in declaration order, under their JSON names
// and omitempty rules.
func (c *CellSpec) appendCanonical(b []byte) []byte {
	b = appendInt(b, `{"v":`, c.V)
	b = appendString(b, `,"op":`, c.Op)
	if c.Protocol != "" {
		b = appendString(b, `,"protocol":`, c.Protocol)
	}
	if p := c.Params; p != nil {
		b = appendSpecFloat(b, `,"params":{"T0":`, p.T0)
		b = appendSpecFloat(b, `,"Alpha":`, p.Alpha)
		b = appendSpecFloat(b, `,"Mu":`, p.Mu)
		b = appendSpecFloat(b, `,"C":`, p.C)
		b = appendSpecFloat(b, `,"R":`, p.R)
		b = appendSpecFloat(b, `,"D":`, p.D)
		b = appendSpecFloat(b, `,"Rho":`, p.Rho)
		b = appendSpecFloat(b, `,"Phi":`, p.Phi)
		b = appendSpecFloat(b, `,"Recons":`, p.Recons)
		b = appendSpecFloat(b, `,"RLbar":`, p.RLbar)
		b = append(b, '}')
	}
	if w := c.Scaling; w != nil {
		// Scaling laws encode by name, as model.ScalingLaw.MarshalJSON does.
		b = appendSpecFloat(b, `,"scaling":{"BaseNodes":`, w.BaseNodes)
		b = appendSpecFloat(b, `,"EpochAtBase":`, w.EpochAtBase)
		b = appendSpecFloat(b, `,"AlphaAtBase":`, w.AlphaAtBase)
		b = appendSpecFloat(b, `,"MTBFAtBase":`, w.MTBFAtBase)
		b = appendSpecFloat(b, `,"CkptAtBase":`, w.CkptAtBase)
		b = appendString(b, `,"CkptScaling":`, w.CkptScaling.String())
		b = appendString(b, `,"GeneralScaling":`, w.GeneralScaling.String())
		b = appendString(b, `,"LibraryScaling":`, w.LibraryScaling.String())
		b = appendInt(b, `,"Epochs":`, w.Epochs)
		b = appendSpecFloat(b, `,"Downtime":`, w.Downtime)
		b = appendSpecFloat(b, `,"Rho":`, w.Rho)
		b = appendSpecFloat(b, `,"Phi":`, w.Phi)
		b = appendSpecFloat(b, `,"Recons":`, w.Recons)
		b = appendBool(b, `,"AggregateEpochs":`, w.AggregateEpochs)
		b = append(b, '}')
	}
	if c.Nodes != 0 {
		b = appendSpecFloat(b, `,"nodes":`, c.Nodes)
	}
	b = appendBool(b, `,"options":{"Safeguard":`, c.Options.Safeguard)
	b = appendSpecFloat(b, `,"FixedPeriodG":`, c.Options.FixedPeriodG)
	b = appendSpecFloat(b, `,"FixedPeriodL":`, c.Options.FixedPeriodL)
	b = append(b, '}')
	if c.Epochs != 0 {
		b = appendInt(b, `,"epochs":`, c.Epochs)
	}
	if c.Reps != 0 {
		b = appendInt(b, `,"reps":`, c.Reps)
	}
	b = strconv.AppendUint(append(b, `,"seed":`...), c.Seed, 10)
	if d := c.Dist; d != nil {
		b = appendString(b, `,"dist":{"name":`, d.Name)
		if d.Shape != 0 {
			b = appendSpecFloat(b, `,"shape":`, d.Shape)
		}
		b = append(b, '}')
	}
	if p := c.Precision; p != nil {
		b = append(b, `,"precision":{`...)
		if p.RelCI != 0 {
			b = appendSpecFloat(appendKey(b, "rel_ci"), "", p.RelCI)
		}
		if p.AbsCI != 0 {
			b = appendSpecFloat(appendKey(b, "abs_ci"), "", p.AbsCI)
		}
		if p.Batch != 0 {
			b = appendInt(appendKey(b, "batch"), "", p.Batch)
		}
		if p.NoControlVariate {
			b = appendBool(appendKey(b, "no_cv"), "", true)
		}
		if p.KeepReplicas {
			b = appendBool(appendKey(b, "keep_replicas"), "", true)
		}
		b = append(b, '}')
	}
	if p := c.Probe; p != nil {
		b = appendSpecFloat(b, `,"probe":{"c":`, p.C)
		b = appendSpecFloat(b, `,"mu":`, p.Mu)
		b = appendSpecFloat(b, `,"d":`, p.D)
		b = appendSpecFloat(b, `,"r":`, p.R)
		b = append(b, '}')
	}
	if s := c.Silent; s != nil {
		b = appendSpecFloat(b, `,"silent":{"params":{"W":`, s.Params.W)
		b = appendSpecFloat(b, `,"MuSilent":`, s.Params.MuSilent)
		b = appendSpecFloat(b, `,"V":`, s.Params.V)
		b = appendSpecFloat(b, `,"C":`, s.Params.C)
		b = appendSpecFloat(b, `,"R":`, s.Params.R)
		b = appendSpecFloat(b, `,"F":`, s.Params.F)
		b = appendSpecFloat(b, `,"Detect":`, s.Params.Detect)
		b = appendSpecFloat(b, `,"Period":`, s.Params.Period)
		b = appendString(b, `},"recovery":`, s.Recovery)
		b = append(b, '}')
	}
	if m := c.MultiLevel; m != nil {
		b = appendSpecFloat(b, `,"multilevel":{"W":`, m.W)
		b = appendSpecFloat(b, `,"Mu":`, m.Mu)
		b = appendSpecFloat(b, `,"D":`, m.D)
		b = appendSpecFloat(b, `,"C1":`, m.C1)
		b = appendSpecFloat(b, `,"R1":`, m.R1)
		b = appendSpecFloat(b, `,"C2":`, m.C2)
		b = appendSpecFloat(b, `,"R2":`, m.R2)
		b = appendSpecFloat(b, `,"Coverage":`, m.Coverage)
		b = appendSpecFloat(b, `,"Period":`, m.Period)
		b = appendInt(b, `,"K":`, m.K)
		b = append(b, '}')
	}
	return append(b, '}')
}

// entryPrefix opens every stored cell entry; the canonical spec follows.
var entryPrefix = `{"v":` + strconv.Itoa(cellVersion) + `,"spec":`

// appendCellEntry appends the stored form of an executed cell:
//
//	{"v":1,"spec":<canonical>,"result":{…},"elapsed_ms":<n>}\n
func appendCellEntry(b []byte, k cellKey, res *CellResult, elapsedMS float64) ([]byte, error) {
	if !finite(elapsedMS) {
		return b, fmt.Errorf("unsupported elapsed_ms %v", elapsedMS)
	}
	b = append(b, entryPrefix...)
	b = append(b, k.canonical...)
	b = append(b, `,"result":{`...)
	if m := res.Model; m != nil {
		b = appendBool(appendKey(b, "model"), `{"feasible":`, m.Feasible)
		b = appendFloat(b, `,"tfinal":`, m.TFinal)
		b = appendFloat(b, `,"waste":`, m.Waste)
		b = appendFloat(b, `,"fault_free":`, m.FaultFree)
		b = appendFloat(b, `,"tfinal_g":`, m.TFinalG)
		b = appendFloat(b, `,"tfinal_l":`, m.TFinalL)
		b = appendFloat(b, `,"period_g":`, m.PeriodG)
		b = appendFloat(b, `,"period_l":`, m.PeriodL)
		b = appendFloat(b, `,"expected_faults":`, m.ExpectedFaults)
		b = appendBool(b, `,"abft_active":`, m.ABFTActive)
		b = append(b, '}')
	}
	if s := res.Sim; s != nil {
		b = appendFloat(appendKey(b, "sim"), `{"waste_mean":`, s.WasteMean)
		b = appendFloat(b, `,"waste_stddev":`, s.WasteStdDev)
		b = appendFloat(b, `,"waste_ci95":`, s.WasteCI95)
		b = appendFloat(b, `,"faults_mean":`, s.FaultsMean)
		b = appendFloat(b, `,"tfinal_mean":`, s.TFinalMean)
		b = appendFloat(b, `,"work_mean":`, s.WorkMean)
		b = appendFloat(b, `,"ckpt_mean":`, s.CkptMean)
		b = appendFloat(b, `,"lost_mean":`, s.LostMean)
		b = appendFloat(b, `,"recovery_mean":`, s.RecoveryMean)
		b = appendInt(b, `,"runs":`, s.Runs)
		b = appendInt(b, `,"truncated":`, s.Truncated)
		if s.RepsCap != 0 {
			b = appendInt(b, `,"reps_cap":`, s.RepsCap)
		}
		if s.Stopped {
			b = appendBool(b, `,"stopped":`, true)
		}
		if s.Looks != 0 {
			b = appendInt(b, `,"looks":`, s.Looks)
		}
		if s.CVActive {
			b = appendBool(b, `,"cv_active":`, true)
		}
		if s.CVVarianceRatio != 0 {
			b = appendFloat(b, `,"cv_variance_ratio":`, s.CVVarianceRatio)
		}
		if len(s.Replicas) > 0 {
			sep := `,"replicas":[`
			for _, w := range s.Replicas {
				b = appendFloat(b, sep, w)
				sep = ","
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	if p := res.Periods; p != nil {
		b = appendFloat(appendKey(b, "periods"), `{"eq11":`, p.Eq11)
		b = appendBool(b, `,"eq11_feasible":`, p.Eq11Feasible)
		b = appendFloat(b, `,"young":`, p.Young)
		b = appendFloat(b, `,"daly":`, p.Daly)
		b = appendFloat(b, `,"waste_eq11":`, p.WasteEq11)
		b = appendFloat(b, `,"waste_young":`, p.WasteYoung)
		b = appendFloat(b, `,"waste_daly":`, p.WasteDaly)
		b = append(b, '}')
	}
	if s := res.SilentModel; s != nil {
		b = appendString(appendKey(b, "silent_model"), `{"recovery":`, s.Recovery)
		b = appendFloat(b, `,"period":`, s.Period)
		b = appendInt(b, `,"patterns":`, s.Patterns)
		b = appendFloat(b, `,"tfinal":`, s.TFinal)
		b = appendFloat(b, `,"waste":`, s.Waste)
		b = appendFloat(b, `,"expected_detections":`, s.ExpectedDetections)
		b = append(b, '}')
	}
	if m := res.MLModel; m != nil {
		b = appendBool(appendKey(b, "ml_model"), `{"feasible":`, m.Feasible)
		b = appendFloat(b, `,"period":`, m.Period)
		b = appendInt(b, `,"k":`, m.K)
		b = appendFloat(b, `,"tfinal":`, m.TFinal)
		b = appendFloat(b, `,"waste":`, m.Waste)
		b = appendFloat(b, `,"expected_faults":`, m.ExpectedFaults)
		b = append(b, '}')
	}
	b = appendJSONNumber(append(b, `},"elapsed_ms":`...), elapsedMS)
	return append(b, "}\n"...), nil
}

// decodeCellEntry decodes one stored entry and verifies it really belongs
// to the cell keyed k. The entry must open with the current version and
// k's canonical spec byte for byte, then hold exactly the form
// appendCellEntry writes. Anything else is rejected: no writer emits
// another form, so a rejected entry is stale, foreign or damaged.
func decodeCellEntry(data []byte, k cellKey) (CellResult, bool) {
	n := len(entryPrefix) + len(k.canonical)
	if len(data) < n || string(data[:len(entryPrefix)]) != entryPrefix ||
		!bytes.Equal(data[len(entryPrefix):n], k.canonical) {
		return CellResult{}, false
	}
	r := entryReader{data: data, i: n}
	r.lit(`,"result":{`)
	var res CellResult
	if r.key("model") {
		m := new(ModelCellResult)
		m.Feasible = r.bool(`{"feasible":`)
		m.TFinal = r.float(`,"tfinal":`)
		m.Waste = r.float(`,"waste":`)
		m.FaultFree = r.float(`,"fault_free":`)
		m.TFinalG = r.float(`,"tfinal_g":`)
		m.TFinalL = r.float(`,"tfinal_l":`)
		m.PeriodG = r.float(`,"period_g":`)
		m.PeriodL = r.float(`,"period_l":`)
		m.ExpectedFaults = r.float(`,"expected_faults":`)
		m.ABFTActive = r.bool(`,"abft_active":`)
		r.lit(`}`)
		res.Model = m
	}
	if r.key("sim") {
		s := new(SimCellResult)
		s.WasteMean = r.float(`{"waste_mean":`)
		s.WasteStdDev = r.float(`,"waste_stddev":`)
		s.WasteCI95 = r.float(`,"waste_ci95":`)
		s.FaultsMean = r.float(`,"faults_mean":`)
		s.TFinalMean = r.float(`,"tfinal_mean":`)
		s.WorkMean = r.float(`,"work_mean":`)
		s.CkptMean = r.float(`,"ckpt_mean":`)
		s.LostMean = r.float(`,"lost_mean":`)
		s.RecoveryMean = r.float(`,"recovery_mean":`)
		s.Runs = r.int(`,"runs":`)
		s.Truncated = r.int(`,"truncated":`)
		if r.key("reps_cap") {
			s.RepsCap = r.int("")
		}
		if r.key("stopped") {
			s.Stopped = r.bool("")
		}
		if r.key("looks") {
			s.Looks = r.int("")
		}
		if r.key("cv_active") {
			s.CVActive = r.bool("")
		}
		if r.key("cv_variance_ratio") {
			s.CVVarianceRatio = r.float("")
		}
		if r.key("replicas") {
			s.Replicas = r.floats()
		}
		r.lit(`}`)
		res.Sim = s
	}
	if r.key("periods") {
		p := new(PeriodsCellResult)
		p.Eq11 = r.float(`{"eq11":`)
		p.Eq11Feasible = r.bool(`,"eq11_feasible":`)
		p.Young = r.float(`,"young":`)
		p.Daly = r.float(`,"daly":`)
		p.WasteEq11 = r.float(`,"waste_eq11":`)
		p.WasteYoung = r.float(`,"waste_young":`)
		p.WasteDaly = r.float(`,"waste_daly":`)
		r.lit(`}`)
		res.Periods = p
	}
	if r.key("silent_model") {
		s := new(SilentModelCellResult)
		s.Recovery = r.str(`{"recovery":`)
		s.Period = r.float(`,"period":`)
		s.Patterns = r.int(`,"patterns":`)
		s.TFinal = r.float(`,"tfinal":`)
		s.Waste = r.float(`,"waste":`)
		s.ExpectedDetections = r.float(`,"expected_detections":`)
		r.lit(`}`)
		res.SilentModel = s
	}
	if r.key("ml_model") {
		m := new(MLModelCellResult)
		m.Feasible = r.bool(`{"feasible":`)
		m.Period = r.float(`,"period":`)
		m.K = r.int(`,"k":`)
		m.TFinal = r.float(`,"tfinal":`)
		m.Waste = r.float(`,"waste":`)
		m.ExpectedFaults = r.float(`,"expected_faults":`)
		r.lit(`}`)
		res.MLModel = m
	}
	r.float64(`},"elapsed_ms":`)
	r.lit("}\n")
	if r.bad || r.i != len(data) {
		return CellResult{}, false
	}
	return res, true
}

// entryReader parses the fixed form of a stored entry. Each value reader
// first consumes the literal before the value. The first mismatch sets
// bad; every later call is then a no-op returning zero, so a parse reads
// straight through and checks bad once.
type entryReader struct {
	data []byte
	i    int
	bad  bool
}

func (r *entryReader) fail() {
	r.bad = true
	r.i = len(r.data)
}

// lit consumes the literal s.
func (r *entryReader) lit(s string) {
	if len(r.data)-r.i < len(s) || string(r.data[r.i:r.i+len(s)]) != s {
		r.fail()
		return
	}
	r.i += len(s)
}

// key consumes the name of an optional member, with its separator (see
// appendKey), and reports whether it was there.
func (r *entryReader) key(name string) bool {
	if r.bad {
		return false
	}
	i := r.i
	if r.data[i-1] != '{' {
		if i == len(r.data) || r.data[i] != ',' {
			return false
		}
		i++
	}
	end := i + len(name) + 3
	if end > len(r.data) || r.data[i] != '"' || string(r.data[i+1:end-2]) != name ||
		r.data[end-2] != '"' || r.data[end-1] != ':' {
		return false
	}
	r.i = end
	return true
}

// number consumes a token of the JSON number grammar. strconv accepts
// more (hex floats, "Inf", underscores), so tokens are checked here first.
func (r *entryReader) number(key string) []byte {
	r.lit(key)
	d, i := r.data, r.i
	digits := func() bool {
		j := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	ok := i < len(d) && d[i] == '0'
	if ok {
		i++
	} else {
		ok = digits()
	}
	if ok && i < len(d) && d[i] == '.' {
		i++
		ok = digits()
	}
	if ok && i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		ok = digits()
	}
	if !ok {
		r.fail()
		return nil
	}
	tok := d[r.i:i]
	r.i = i
	return tok
}

// float64 consumes a number that fits a float64, as encoding/json decodes
// one. Most tokens take parseDecimal's exact path; the rest (exponent
// form, more than 19 significant digits, zero) go to strconv.
func (r *entryReader) float64(key string) float64 {
	tok := r.number(key)
	if r.bad {
		return 0
	}
	if v, ok := parseDecimal(tok); ok {
		return v
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		r.fail()
	}
	return v
}

// float consumes a JSONFloat: a number or one of the quoted specials.
func (r *entryReader) float(key string) JSONFloat {
	r.lit(key)
	if r.i == len(r.data) || r.data[r.i] != '"' {
		return JSONFloat(r.float64(""))
	}
	for _, s := range [...]string{`"+inf"`, `"-inf"`, `"nan"`} {
		if len(r.data)-r.i >= len(s) && string(r.data[r.i:r.i+len(s)]) == s {
			r.i += len(s)
			v, _ := jsonFloatSpecial(s[1 : len(s)-1])
			return JSONFloat(v)
		}
	}
	r.fail()
	return 0
}

// floats consumes a non-empty array of JSONFloats.
func (r *entryReader) floats() []JSONFloat {
	r.lit(`[`)
	n := bytes.IndexByte(r.data[r.i:], ']')
	if n < 0 {
		r.fail()
		return nil
	}
	out := make([]JSONFloat, 0, bytes.Count(r.data[r.i:r.i+n], []byte{','})+1)
	for sep := ""; !r.bad; sep = "," {
		out = append(out, r.float(sep))
		if r.i < len(r.data) && r.data[r.i] == ']' {
			break
		}
	}
	r.lit(`]`)
	return out
}

// int consumes an integer that fits an int, as encoding/json decodes one.
func (r *entryReader) int(key string) int {
	tok := r.number(key)
	if r.bad {
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, 0)
	if err != nil {
		r.fail()
	}
	return int(v)
}

func (r *entryReader) bool(key string) bool {
	r.lit(key)
	rest := r.data[r.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		r.i += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		r.i += 5
	default:
		r.fail()
	}
	return false
}

// str consumes a JSON string. It accepts the escapes appendJSONString
// writes and any valid UTF-8; surrogate escapes and invalid UTF-8, which
// no writer emits, are rejected.
func (r *entryReader) str(key string) string {
	r.lit(key)
	r.lit(`"`)
	d := r.data
	var out []byte
	for i := r.i; i < len(d); {
		c := d[i]
		switch {
		case c == '"':
			r.i = i + 1
			return string(out)
		case c < 0x20:
			r.fail()
			return ""
		case c >= utf8.RuneSelf:
			ch, size := utf8.DecodeRune(d[i:])
			if ch == utf8.RuneError && size == 1 {
				r.fail()
				return ""
			}
			out = append(out, d[i:i+size]...)
			i += size
			continue
		case c != '\\':
			out = append(out, c)
			i++
			continue
		}
		if i+1 == len(d) {
			break
		}
		switch e := d[i+1]; e {
		case '"', '\\', '/':
			out = append(out, e)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			if i+6 > len(d) {
				r.fail()
				return ""
			}
			ch, err := strconv.ParseUint(string(d[i+2:i+6]), 16, 16)
			if err != nil || utf8.RuneLen(rune(ch)) < 0 {
				r.fail()
				return ""
			}
			out = utf8.AppendRune(out, rune(ch))
			i += 4
		default:
			r.fail()
			return ""
		}
		i += 2
	}
	r.fail()
	return ""
}
