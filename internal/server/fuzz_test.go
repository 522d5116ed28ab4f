package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/heatstroke-sim/heatstroke/pkg/api"
)

// FuzzJobRequest decodes arbitrary bytes as a job request body, as
// handleSubmit does, and resolves it against the default base config.
// Nothing may panic; an accepted request gets a 64-hex content
// address; and resolving the resolved request again yields the same
// address and an equal request. The fleet leans on that last property:
// the coordinator shards by the resolved request's address and
// forwards the resolved request, which the worker resolves again.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"experiment":"fig3","seed":0}`,
		`{"experiment":"neighbor-heat","cores":4,"solver":"grid","quantum":300000,"warmup":50000,"scale":64}`,
		`{"experiment":"policies","benchmarks":["crafty"," mcf"],"seed":7}`,
		`{"experiment":" dtm-scope ","cores":1}`,
		`{"experiment":"fig3","cores":2,"solver":"lumped"}`,
		`{"experiment":"table1","benchmarks":[]}`,
		`{"experiment":"fig3","quantum":-1}`,
		`{"experiment":42}`,
		`{"experiment":"fig3","seed":1.5}`,
		`{"experiment":`,
		`[]`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req api.JobRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		resolved, id, err := Resolve("fuzz", nil, req)
		if err != nil {
			return
		}
		if len(id) != 64 {
			t.Fatalf("id %q is not 64 hex digits", id)
		}
		if _, err := hex.DecodeString(id); err != nil {
			t.Fatalf("id %q is not hex: %v", id, err)
		}
		again, id2, err := Resolve("fuzz", nil, resolved)
		if err != nil {
			t.Fatalf("resolved request %+v rejected: %v", resolved, err)
		}
		if id2 != id {
			t.Errorf("re-resolving %+v moved the address %s -> %s", resolved, id, id2)
		}
		if !reflect.DeepEqual(again, resolved) {
			t.Errorf("re-resolving changed the request:\n got %+v\nwant %+v", again, resolved)
		}
	})
}
