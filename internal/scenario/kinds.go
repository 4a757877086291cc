package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
)

// kinds is the kind registry, in documentation order. Dispatch, the
// misplaced-field check and the kind list of error messages all derive
// from it, so a new kind is one entry here plus its params struct, its
// expand function and its docs/SCENARIOS.md section.
var kinds = []*kindDef{
	newKind(KindHeatmap, true, expandHeatmap),
	newKind(KindScaling, false, expandScaling),
	newKind(KindPoints, false, expandPoints),
	newKind(KindPeriods, false, expandPeriods),
	newKind(KindAblation, false, expandAblation),
	newKind(KindSensitivity, true, expandSensitivity),
	newKind(KindSilentHeatmap, true, expandSilentHeatmap),
	newKind(KindMultiLevelScaling, true, expandMultiLevelScaling),
}

// kindDef is one registry entry.
type kindDef struct {
	name string
	// simulates reports whether the kind can run simulation cells; only
	// those accept the common seed and reps fields.
	simulates bool
	// params is the kind's params struct type and fields its JSON names, in
	// declaration order.
	params reflect.Type
	fields []string
	// allowed is the field list the misplaced-field error prints.
	allowed string
	// expand resolves a spec of this kind, whose Params it type-checks.
	expand func(s *Spec, c *Campaign) (*expansion, error)
}

// newKind builds the registry entry of a kind whose params struct is P.
func newKind[P any](name string, simulates bool, expand func(*Spec, *P, *Campaign) (*expansion, error)) *kindDef {
	k := &kindDef{
		name:      name,
		simulates: simulates,
		params:    reflect.TypeFor[P](),
	}
	k.fields = jsonNames(k.params)
	allowed := k.fields
	if simulates {
		allowed = append(slices.Clip(allowed), "seed", "reps")
	}
	k.allowed = strings.Join(allowed, ", ")
	k.expand = func(s *Spec, c *Campaign) (*expansion, error) {
		// seed and reps only drive simulation cells; an analytic kind would
		// silently ignore them.
		if !k.simulates && s.Seed != nil {
			return nil, k.misplaced("seed")
		}
		if !k.simulates && s.Reps != 0 {
			return nil, k.misplaced("reps")
		}
		p, ok := s.Params.(*P)
		if s.Params != nil && !ok {
			return nil, fmt.Errorf("params %T do not match kind %q (want *%s)", s.Params, name, k.params.Name())
		}
		if p == nil {
			p = new(P)
		}
		return expand(s, p, c)
	}
	return k
}

// lookupKind returns the registry entry of a kind name.
func lookupKind(name string) (*kindDef, error) {
	var names []string
	for _, k := range kinds {
		if k.name == name {
			return k, nil
		}
		names = append(names, k.name)
	}
	if name == "" {
		return nil, fmt.Errorf("kind is required (one of %s)", strings.Join(names, ", "))
	}
	return nil, fmt.Errorf("unknown kind %q (one of %s)", name, strings.Join(names, ", "))
}

// misplaced is the error for a field that exists in the schema but does not
// apply to the kind: it fails loudly instead of silently running the kind's
// default.
func (k *kindDef) misplaced(field string) error {
	return fmt.Errorf("field %q does not apply to kind %q (allowed: %s)", field, k.name, k.allowed)
}

// jsonNames lists the JSON names of a struct's fields, skipping "-".
func jsonNames(t reflect.Type) []string {
	var out []string
	for _, f := range reflect.VisibleFields(t) {
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name != "-" {
			out = append(out, name)
		}
	}
	return out
}

// commonFields are the JSON names of the fields every kind accepts.
var commonFields = jsonNames(reflect.TypeFor[Spec]())

// hasField reports whether key names one of fields, matching
// case-insensitively as encoding/json does.
func hasField(fields []string, key string) bool {
	return slices.ContainsFunc(fields, func(f string) bool { return strings.EqualFold(f, key) })
}

// specFields is Spec without its JSON methods.
type specFields Spec

// UnmarshalJSON decodes the common fields, looks the kind up in the
// registry, and decodes the remaining keys into the kind's params. A key
// that is neither common nor a field of the kind's params is misplaced.
// Both halves decode strictly, so unknown nested fields fail as they do
// everywhere else in a campaign file. A missing or unknown kind is left
// for expansion to report.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var own map[string]json.RawMessage
	if err := json.Unmarshal(data, &own); err != nil {
		return err
	}
	common := map[string]json.RawMessage{}
	for key, v := range own {
		if hasField(commonFields, key) {
			common[key] = v
			delete(own, key)
		}
	}
	if err := decodeStrict(common, (*specFields)(s)); err != nil {
		return err
	}
	k, err := lookupKind(s.Kind)
	if err != nil {
		return nil
	}
	for _, key := range slices.Sorted(maps.Keys(own)) {
		if !hasField(k.fields, key) {
			return fmt.Errorf("scenario %q: %w", s.Name, k.misplaced(key))
		}
	}
	p := reflect.New(k.params).Interface()
	if err := decodeStrict(own, p); err != nil {
		return err
	}
	s.Params = p
	return nil
}

// decodeStrict decodes an object's fields into v, rejecting unknown ones.
func decodeStrict(fields map[string]json.RawMessage, v any) error {
	data, err := json.Marshal(fields)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// MarshalJSON writes the common fields, then the params fields, as one
// object: the key order campaign files have always had.
func (s Spec) MarshalJSON() ([]byte, error) {
	common, err := json.Marshal(specFields(s))
	if err != nil || s.Params == nil {
		return common, err
	}
	own, err := json.Marshal(s.Params)
	if err != nil {
		return nil, err
	}
	if string(own) == "null" || string(own) == "{}" {
		return common, nil
	}
	// Params that do not encode as an object splice into invalid JSON,
	// which encoding/json rejects.
	return append(append(common[:len(common)-1], ','), own[1:]...), nil
}
