package service

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSpecKeyGolden pins the content address of one structured spec. The
// key names the job's spilled result on disk, so a change that moves it turns
// every spill entry written before into a miss: move it only together with a
// key-version bump, when the report for the same inputs really changes.
func TestSpecKeyGolden(t *testing.T) {
	const body = `{"case":"ba","n":3,"engine":{"workers":2,"node_budget":1048576},` +
		`"cost":{"default":2,"actions":{"copy":5},"minimize":true}}`
	const want = "e906bf3b4b882e3e1c189a874fedd7dca016f076debb5108f0645295901e9d34"

	var sp Spec
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		t.Fatal(err)
	}
	_, _, key, err := sp.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if key != want {
		t.Fatalf("content key of %s\n = %s\nwant %s", body, key, want)
	}
}
