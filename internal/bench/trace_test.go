package bench

import (
	"bytes"
	"testing"
	"time"

	"sesemi/internal/gateway"
	"sesemi/internal/obs"
)

// A fully-sampled world must stitch every hop's spans into one trace per
// request whose top-level stages tile the end-to-end latency within 5%.
func TestStitchedTraceCoverage(t *testing.T) {
	w, err := NewLiveWorld(LiveWorldConfig{
		TraceSample: 1,
		Gateway: gateway.Config{
			MaxBatch:     4,
			MaxWait:      2 * time.Millisecond,
			MaxQueue:     1024,
			MaxInFlight:  8,
			PrewarmDepth: 32,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const clients, perClient = 4, 8
	res := ClosedLoop("trace", clients, perClient, w.DoGateway)
	if res.Errors != 0 {
		t.Fatalf("errors %d", res.Errors)
	}
	tr := w.Tracer
	if tr == nil {
		t.Fatal("TraceSample=1 did not arm the world's tracer")
	}
	st := tr.Stats()
	if want := uint64(clients * perClient); st.Started != want || st.Kept != want {
		t.Fatalf("stats %+v, want %d started and kept at sample 1", st, want)
	}
	if cov := tr.Coverage(); cov < 0.95 || cov > 1.05 {
		t.Fatalf("top-level coverage %.3f, want within 5%% of e2e", cov)
	}
	seen := map[string]bool{}
	for _, row := range tr.Decomposition() {
		seen[row.Stage] = true
	}
	for _, want := range []string{"admit", "queue", "dispatch", "fanout"} {
		if !seen[want] {
			t.Errorf("decomposition missing top-level stage %q (have %v)", want, seen)
		}
	}

	// The world's registry carries the trace series and the exposition parses.
	var buf bytes.Buffer
	w.Registry.WritePrometheus(&buf)
	if err := obs.CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("sesemi_trace_started_total")) {
		t.Error("exposition missing sesemi_trace_started_total")
	}
}

// The historical zero-overhead configuration: TraceSample 0 leaves the
// tracer off while the registry keeps serving the metric plane.
func TestTraceOffByDefault(t *testing.T) {
	w, err := NewLiveWorld(LiveWorldConfig{
		Gateway: gateway.Config{
			MaxBatch:     2,
			MaxWait:      2 * time.Millisecond,
			MaxQueue:     256,
			MaxInFlight:  4,
			PrewarmDepth: 8,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Tracer != nil {
		t.Fatal("tracer armed without TraceSample")
	}
	res := ClosedLoop("off", 2, 4, w.DoGateway)
	if res.Errors != 0 {
		t.Fatalf("errors %d", res.Errors)
	}
	var buf bytes.Buffer
	w.Registry.WritePrometheus(&buf)
	if err := obs.CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition: %v", err)
	}
}
