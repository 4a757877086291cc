package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadCampaign feeds arbitrary bytes to the campaign loader, seeded
// from the committed example campaigns. Validation must never panic, and
// any accepted campaign must re-marshal and re-load to an equivalent
// campaign (same canonical JSON, same cell plan).
func FuzzLoadCampaign(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "campaigns", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example campaigns found: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","scenarios":[{"name":"p","kind":"periods"}]}`))
	f.Add([]byte(`{"name":"x","scenarios":[{"name":"h","kind":"heatmap","protocol":"abft",
		"mtbf_minutes":{"from":60,"to":120,"count":3},"alphas":{"values":[0,0.5]}}]}`))
	f.Add([]byte(`{"name":"x","scenarios":[{"name":"s","kind":"scaling",
		"nodes":{"preset":"paper-nodes"},"series":[{"platform":"paper-fig10","protocol":"pure"}]}]}`))
	f.Add([]byte(overflowCampaign))
	f.Add([]byte(`{"scenarios":[]}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs only need to not panic
		}
		// Accepted: every scenario expands within the cell bound...
		p, err := PlanCampaign(c)
		if err != nil {
			t.Fatalf("accepted campaign does not plan: %v", err)
		}
		for _, s := range p.Scenarios {
			if s.Cells > maxScenarioCells {
				t.Fatalf("scenario %q expands into %d cells, past the %d-cell limit", s.Name, s.Cells, maxScenarioCells)
			}
		}
		// ...and the campaign survives a marshal/re-load cycle.
		enc1, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("accepted campaign does not marshal: %v", err)
		}
		c2, err := Load(bytes.NewReader(enc1))
		if err != nil {
			t.Fatalf("re-load of accepted campaign failed: %v\n%s", err, enc1)
		}
		enc2, err := json.Marshal(c2)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("marshal not stable:\n%s\n%s", enc1, enc2)
		}
		// Equivalent campaigns expand to identical cell plans.
		p1, err1 := PlanCampaign(c)
		p2, err2 := PlanCampaign(c2)
		if err1 != nil || err2 != nil {
			t.Fatalf("accepted campaign does not plan: %v / %v", err1, err2)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("cell plans differ after re-load:\n%+v\n%+v", p1, p2)
		}
	})
}
