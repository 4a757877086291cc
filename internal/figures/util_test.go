package figures

import (
	"fmt"
	"testing"

	"abftckpt/internal/scenario"
)

// sscan parses a float cell produced by the table builders.
func sscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f", v)
}

// runSpec executes a one-spec campaign through the engine and returns its
// artifacts in order.
func runSpec(t testing.TB, spec *scenario.Spec) []scenario.Artifact {
	t.Helper()
	rep, err := (&scenario.Runner{}).Run(&scenario.Campaign{Name: "inline", Scenarios: []*scenario.Spec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Artifacts
}
