package steadystate_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	steadystate "repro"
)

// FuzzUnmarshalScenario hardens the Scenario decoder — the parse path
// every sweep job goes through — against hostile input: whatever the
// bytes, Unmarshal must either produce a scenario or return an error,
// never panic. Accepted scenarios must survive a marshal/unmarshal round
// trip bit-identically, so a sweep can re-serialize what it loaded.
func FuzzUnmarshalScenario(f *testing.F) {
	// Real fixtures seed the corpus with structurally valid scenarios.
	for _, name := range []string{
		"sweep/fig6-reduce.json", "sweep/fig9-reduce.json",
		"sweep/tiers42-scatter.json", "sweep/bad-truncated.json",
	} {
		if data, err := os.ReadFile(filepath.Join("testdata", name)); err == nil {
			f.Add(data)
		}
	}
	for _, seed := range []string{
		`{}`,
		`null`,
		`{"platform": null}`,
		`{"platform": {}}`,
		`{"platform": {"nodes": [{"name": "a"}, {"name": "a"}]}}`,
		`{"platform": {"nodes": [{"name": "a", "speed": "1/0"}]}}`,
		`{"platform": {"nodes": [{"name":"a"},{"name":"b"}], "edges": [{"from":"a","to":"b","cost":"-1"}]}}`,
		`{"platform": {"nodes": [{"name":"a"}]}, "spec": {"kind": "scatter", "source": 99}}`,
		`{"platform": {"nodes": [{"name":"a"}]}, "spec": {"kind": "composite", "members": [], "weights": ["1/0"]}}`,
		`{"platform": {"nodes": [{"name":"a"}]}, "spec": {"kind": "nope"}}`,
		// One spec per remaining kind, each with a field its kind ignores,
		// so the fixed point covers every kind's serialization.
		`{"platform": {"nodes": [{"name":"a"},{"name":"b"}]}, "spec": {"kind": "broadcast", "source": 0, "targets": [1], "order": [0, 1]}}`,
		`{"platform": {"nodes": [{"name":"a"},{"name":"b"}]}, "spec": {"kind": "gossip", "sources": [0], "targets": [1], "target": 1}}`,
		`{"platform": {"nodes": [{"name":"a"},{"name":"b"}]}, "spec": {"kind": "gather", "order": [0, 1], "target": 0, "source": 1}}`,
		`{"platform": {"nodes": [{"name":"a"},{"name":"b"}]}, "spec": {"kind": "prefix", "order": [0, 1], "targets": [1]}}`,
		`{"platform": {"nodes": [{"name":"a"},{"name":"b"}]}, "spec": {"kind": "reducescatter", "order": [1, 0], "target": 1}}`,
		`{"platform": {"nodes": [{"name":"a"},{"name":"b"}]}, "spec": {"kind": "allreduce", "order": [0, 1], "sources": [0]}}`,
		`{"platform": {"nodes": [{"name":"a"},{"name":"b"}]}, "spec": {"kind": "composite", "order": [0], ` +
			`"members": [{"kind": "scatter", "source": 0, "targets": [1]}, {"kind": "reduce", "order": [0, 1], "target": 1}], "weights": ["1", "2/3"]}}`,
		`{"platform": {"nodes": [{"name":"a"}]}, "spec": 7}`,
		`{"spec": {"kind": "scatter"}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc steadystate.Scenario
		if err := json.Unmarshal(data, &sc); err != nil {
			return
		}
		if sc.Platform == nil {
			t.Fatalf("accepted scenario has nil platform: %q", data)
		}
		// Round trip: what the decoder accepts, the encoder must
		// reproduce exactly (compact form — writers own indentation).
		out, err := json.Marshal(&sc)
		if err != nil {
			// Unknown spec kinds decode structurally but refuse to
			// re-marshal; that is a documented, non-panicking outcome.
			return
		}
		var sc2 steadystate.Scenario
		if err := json.Unmarshal(out, &sc2); err != nil {
			t.Fatalf("re-marshaled scenario does not re-parse: %v\n%s", err, out)
		}
		out2, err := json.Marshal(&sc2)
		if err != nil {
			t.Fatalf("second marshal failed: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("marshal is not a fixed point:\n%s\nvs\n%s", out, out2)
		}
	})
}
