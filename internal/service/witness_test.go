package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestSpecWitnessValidationAndKey: out-of-range witness requests are
// rejected, and the witness count is part of the content address — a report
// with embedded demonstrations must never be served to a client that asked
// for none (and vice versa).
func TestSpecWitnessValidationAndKey(t *testing.T) {
	for _, bad := range []int{-1, MaxWitnesses + 1} {
		sp := Spec{Case: "ba", N: 3, Witnesses: bad}
		if _, _, _, err := sp.resolve(); err == nil {
			t.Errorf("witnesses=%d resolved without error", bad)
		}
	}
	key := func(w int) string {
		sp := Spec{Case: "ba", N: 3, Witnesses: w}
		_, _, k, err := sp.resolve()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if key(0) == key(2) || key(2) == key(3) {
		t.Fatal("witness count not folded into the content address")
	}
	if key(2) != key(2) {
		t.Fatal("content address not deterministic")
	}
}

// TestJobEmbedsCertifiedWitnesses submits a job asking for demonstrations
// and checks the finished report carries them, with the per-phase witness
// timing recorded and surfaced through the metrics counters.
func TestJobEmbedsCertifiedWitnesses(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	v, err := s.Submit(Spec{Case: "sc", N: 4, Witnesses: 3})
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("job did not finish: state=%s err=%q", final.State, final.Error)
	}
	if len(final.Result.Witnesses) == 0 {
		t.Fatal("report embeds no recovery demonstrations")
	}
	if len(final.Result.Witnesses) > 3 {
		t.Fatalf("report embeds %d demonstrations, asked for 3", len(final.Result.Witnesses))
	}
	for i, tr := range final.Result.Witnesses {
		if len(tr.Steps) == 0 || tr.Faults() == 0 {
			t.Errorf("demonstration %d is degenerate: %+v", i, tr)
		}
	}
	if final.Result.WitnessNS <= 0 {
		t.Fatal("witness extraction time not recorded")
	}
	if m := s.Metrics(); m.WitnessNS <= 0 {
		t.Fatalf("witness time missing from metrics: %+v", m)
	}

	// A job that asks for no witnesses must not be served the cached
	// witness-bearing report.
	v2, err := s.Submit(Spec{Case: "sc", N: 4})
	if err != nil {
		t.Fatal(err)
	}
	final2, err := s.Wait(context.Background(), v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final2.Result == nil || len(final2.Result.Witnesses) != 0 {
		t.Fatalf("witness-free job served a witness-bearing report")
	}
}

// TestMetricsJSONEndpoint checks /metrics.json serves the structured
// snapshot alongside the Prometheus text exposition at /metrics, and that
// neither carries solver counters: BDDs are the only verifier.
func TestMetricsJSONEndpoint(t *testing.T) {
	base, s, shutdown := bootDaemon(t, Config{Workers: 1, QueueDepth: 4})
	defer shutdown()

	v, err := s.Submit(Spec{Case: "ba", N: 2, Witnesses: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), v.ID); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics.json = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for name := range fields {
		if strings.HasPrefix(name, "sat_") {
			t.Errorf("/metrics.json carries solver counter %q", name)
		}
	}
	if snap.Submitted < 1 || snap.Completed < 1 || snap.Workers != 1 {
		t.Fatalf("snapshot inconsistent: %+v", snap)
	}
	if snap.WitnessNS <= 0 {
		t.Fatalf("witness phase time missing from snapshot: %+v", snap)
	}

	// The text exposition must carry the same witness counter.
	resp2, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	text, _ := io.ReadAll(resp2.Body)
	if !containsLine(string(text), "ftrepaird_phase_witness_ns_total") {
		t.Fatalf("Prometheus exposition misses witness counter:\n%s", text)
	}
	for _, line := range splitLines(string(text)) {
		if strings.HasPrefix(line, "ftrepaird_sat_") {
			t.Errorf("Prometheus exposition carries solver series %q", line)
		}
	}
}

func containsLine(body, name string) bool {
	for _, line := range splitLines(body) {
		if len(line) >= len(name) && line[:len(name)] == name {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
