package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sesemi/internal/keyservice"
	"sesemi/internal/semirt"
	"sesemi/internal/serverless"
	"sesemi/internal/storage"
)

// The traced round records spans only from the benchmark's own files, at the
// four seams the benchmark hands to the program: the gateway.Invoker given to
// frontier.New, the serverless.Instance returned by Action.New, and the
// storage.Store and keyservice.Dialer in semirt.Deps. Two trees result:
//
//	request ⊃ frontier.submit
//	cluster.invoke ⊃ semirt.invoke ⊃ storage.get, keyservice.handshake, keyservice.roundtrip
//
// A request is not linked to the activation that carried it (that needs spans
// inside the gateway, a later issue); the two trees meet only in aggregate,
// through the member count of each activation.

const (
	spanRequest     = "request"
	spanSubmit      = "frontier.submit"
	spanCluster     = "cluster.invoke"
	spanSemirt      = "semirt.invoke"
	spanStorageGet  = "storage.get"
	spanKSHandshake = "keyservice.handshake"
	spanKSRoundTrip = "keyservice.roundtrip"
)

// span is one timed interval. Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the span list, -1 for a root
	Req    int32  `json:"req"`    // request id, -1 for a span that serves a batch
	// Members is the number of requests a cluster.invoke activation carried,
	// counted on every memberSampleEvery-th activation and 0 on the others.
	Members int32 `json:"members,omitempty"`
}

// memberSampleEvery is the stride at which activations have their members
// counted.
const memberSampleEvery = 8

type tracer struct {
	epoch time.Time
	// on gates recording, so warm-up traffic leaves no spans.
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	// byPayload links semirt.invoke to its cluster.invoke: the cluster hands
	// the instance the very slice the gateway gave it, so the address of its
	// first byte identifies the activation while it is in flight.
	byPayload map[*byte]int32

	activations  atomic.Uint64
	storageGets  atomic.Uint64
	storageBytes atomic.Uint64
	ksConns      atomic.Uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byPayload: map[*byte]int32{}}
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// open starts a span and returns its index, or -1 while recording is off. A
// nil tracer records nothing, so untraced rounds run the same driver code.
func (t *tracer) open(name string, start time.Time, parent, req int32) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: t.ns(start), Parent: parent, Req: req})
	t.mu.Unlock()
	return id
}

func (t *tracer) close(id int32, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = t.ns(end)
	t.mu.Unlock()
}

// tracedCluster wraps the gateway.Invoker handed to frontier.New. Embedding
// forwards the Router, SessionOpener and Prewarmer surfaces untouched.
type tracedCluster struct {
	*serverless.Cluster
	tr *tracer
}

func (c tracedCluster) Invoke(ctx context.Context, action string, payload []byte) ([]byte, error) {
	out, _, err := c.InvokeOn(ctx, action, "", payload)
	return out, err
}

func (c tracedCluster) InvokeOn(ctx context.Context, action, node string, payload []byte) ([]byte, string, error) {
	id := c.tr.open(spanCluster, time.Now(), -1, -1)
	if id < 0 || len(payload) == 0 {
		return c.Cluster.InvokeOn(ctx, action, node, payload)
	}
	key := &payload[0]
	c.tr.mu.Lock()
	c.tr.byPayload[key] = id
	c.tr.mu.Unlock()
	out, servedOn, err := c.Cluster.InvokeOn(ctx, action, node, payload)
	end := time.Now()
	// Counting members decodes the envelope a second time (2-3 us per
	// request on hot_small, a tenth of its whole cost), so only every
	// memberSampleEvery-th activation is counted; it runs after the span
	// closes so the span itself stays clean.
	members := int32(0)
	if c.tr.activations.Add(1)%memberSampleEvery == 1 {
		members = 1
		if _, batch, derr := semirt.DecodeEnvelope(payload); derr == nil && len(batch) > 0 {
			members = int32(len(batch))
		}
	}
	c.tr.mu.Lock()
	delete(c.tr.byPayload, key)
	c.tr.spans[id].End = c.tr.ns(end)
	c.tr.spans[id].Members = members
	c.tr.mu.Unlock()
	return out, servedOn, err
}

// tracedInstance wraps the serverless.Instance returned by Action.New. Its
// identity is what links storage and KeyService spans to an activation: each
// instance gets its own Store and Dialer wrappers, and their spans attach to
// the instance's most recently started open semirt.invoke span.
type tracedInstance struct {
	inner serverless.Instance
	tr    *tracer

	mu     sync.Mutex
	active []int32
}

func (ti *tracedInstance) Invoke(payload []byte) ([]byte, error) {
	parent := int32(-1)
	if len(payload) > 0 {
		ti.tr.mu.Lock()
		if id, ok := ti.tr.byPayload[&payload[0]]; ok {
			parent = id
		}
		ti.tr.mu.Unlock()
	}
	id := ti.tr.open(spanSemirt, time.Now(), parent, -1)
	ti.mu.Lock()
	ti.active = append(ti.active, id)
	ti.mu.Unlock()
	out, err := ti.inner.Invoke(payload)
	end := time.Now()
	ti.mu.Lock()
	for i, a := range ti.active {
		if a == id {
			ti.active = append(ti.active[:i], ti.active[i+1:]...)
			break
		}
	}
	ti.mu.Unlock()
	ti.tr.close(id, end)
	return out, err
}

func (ti *tracedInstance) Stop() { ti.inner.Stop() }

func (ti *tracedInstance) current() int32 {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	if len(ti.active) == 0 {
		return -1
	}
	return ti.active[len(ti.active)-1]
}

type tracedStore struct {
	storage.Store
	ti *tracedInstance
}

func (s tracedStore) Get(name string) ([]byte, error) {
	tr := s.ti.tr
	id := tr.open(spanStorageGet, time.Now(), s.ti.current(), -1)
	data, err := s.Store.Get(name)
	tr.close(id, time.Now())
	if id >= 0 {
		tr.storageGets.Add(1)
		tr.storageBytes.Add(uint64(len(data)))
	}
	return data, err
}

func tracedDialer(dial keyservice.Dialer, ti *tracedInstance) keyservice.Dialer {
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		if ti.tr.on.Load() {
			ti.tr.ksConns.Add(1)
		}
		return &tracedConn{Conn: conn, ti: ti, trip: -1}, nil
	}
}

// tracedConn times write→read round trips on a KeyService connection: a span
// opens at the first Write after a Read and is extended by every Read until
// the next Write. The first round trip on a connection is the RA-TLS hello
// exchange; the rest are provisioning calls.
type tracedConn struct {
	net.Conn
	ti *tracedInstance

	mu    sync.Mutex
	trip  int32
	read  bool
	trips int
}

func (c *tracedConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.trip < 0 || c.read {
		name := spanKSRoundTrip
		if c.trips == 0 {
			name = spanKSHandshake
		}
		c.trip = c.ti.tr.open(name, time.Now(), c.ti.current(), -1)
		c.read = false
		c.trips++
	}
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.mu.Lock()
		c.read = true
		c.ti.tr.close(c.trip, time.Now())
		c.mu.Unlock()
	}
	return n, err
}

// phaseWindow bounds one measured phase on the tracer's clock.
type phaseWindow struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// phaseTrace is what one phase's spans aggregate to.
type phaseTrace struct {
	window      phaseWindow
	requests    int
	latencyNs   int64 // Σ request spans
	submitNs    int64 // Σ frontier.submit spans
	activations int
	sampled     int   // activations whose members were counted
	members     int   // Σ members over the sampled activations
	clusterNs   int64 // Σ cluster.invoke spans
	// sampledMemNs is Σ span × members over the sampled activations.
	sampledMemNs int64
	semirtNs     int64 // Σ semirt.invoke spans
	provisions   int
	provisionNs  int64 // Σ keyservice.roundtrip spans
	// selfNs is Σ self time × weight per span name, where self time is a
	// span's duration minus the part its children cover, and the weight is 1
	// for the request tree and the activation's member count for the
	// activation tree — so selfNs ÷ requests is time per request. An
	// activation whose members were not counted weighs the phase's mean.
	selfNs map[string]float64
}

// batchMean is the mean member count of the phase's sampled activations.
func (pt *phaseTrace) batchMean() float64 { return ratio(float64(pt.members), float64(pt.sampled)) }

// memberNs estimates Σ cluster.invoke span × members over every activation
// from the sampled ones.
func (pt *phaseTrace) memberNs() float64 {
	return float64(pt.sampledMemNs) * ratio(float64(pt.activations), float64(pt.sampled))
}

// analyze aggregates the spans whose tree root started inside the window.
func (t *tracer) analyze(w phaseWindow) phaseTrace {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make([][]int32, len(spans))
	var roots []int32
	pt := phaseTrace{window: w, selfNs: map[string]float64{}}
	for i, s := range spans {
		switch {
		case s.Parent >= 0:
			children[s.Parent] = append(children[s.Parent], int32(i))
		case s.Start >= w.Start && s.Start < w.End && s.End >= s.Start:
			roots = append(roots, int32(i))
			if s.Name == spanCluster && s.Members > 0 {
				pt.sampled++
				pt.members += int(s.Members)
				pt.sampledMemNs += (s.End - s.Start) * int64(s.Members)
			}
		}
	}
	mean := pt.batchMean()
	var walk func(i int32, weight float64)
	walk = func(i int32, weight float64) {
		s := spans[i]
		if s.End < s.Start {
			return // never closed: the run ended mid-span
		}
		dur := s.End - s.Start
		switch s.Name {
		case spanRequest:
			pt.requests++
			pt.latencyNs += dur
		case spanSubmit:
			pt.submitNs += dur
		case spanCluster:
			pt.activations++
			pt.clusterNs += dur
		case spanSemirt:
			pt.semirtNs += dur
		case spanKSRoundTrip:
			pt.provisions++
			pt.provisionNs += dur
		}
		pt.selfNs[s.Name] += float64(dur-covered(spans, children[i], s.Start, s.End)) * weight
		for _, c := range children[i] {
			walk(c, weight)
		}
	}
	for _, i := range roots {
		weight := 1.0
		if s := spans[i]; s.Name == spanCluster {
			weight = mean
			if s.Members > 0 {
				weight = float64(s.Members)
			}
		}
		walk(i, weight)
	}
	return pt
}

// selfUsPerReq is the phase's self-time table in microseconds per request.
// The request span's own self time (latency minus the Submit call) still
// contains the activation that carried the request; taking the activation
// tree out of it leaves gatewayWait: queueing, batch formation and fan-out,
// the part no seam of the benchmark can see into.
func (pt *phaseTrace) selfUsPerReq() map[string]float64 {
	per := map[string]float64{}
	var activation float64
	for name, ns := range pt.selfNs {
		per[name] = ratio(ns/1e3, float64(pt.requests))
		if name != spanRequest && name != spanSubmit {
			activation += per[name]
		}
	}
	per[gatewayWait] = per[spanRequest] - activation
	delete(per, spanRequest)
	return per
}

const gatewayWait = "gateway.wait"

// covered is the length of [start, end] that the given child spans cover,
// counting overlaps once.
func covered(spans []span, kids []int32, start, end int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, hi int64
	hi = start
	for _, v := range ivs {
		if v.a > hi {
			hi = v.a
		}
		if v.b > hi {
			total += v.b - hi
			hi = v.b
		}
	}
	return total
}

// maxSpansWritten caps the span list in a trace file (a hot_small round
// records over 200k spans, 20 MB of JSON); the aggregates cover all of them.
const maxSpansWritten = 50000

// traceFile is the on-disk form of a traced round.
type traceFile struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Phases   []phaseWindow `json:"phases"`
	// LatencyUsMean is the mean request latency by phase; SelfUsPerReq is
	// self time per request by phase and span name, which sums to it.
	LatencyUsMean map[string]float64            `json:"latency_us_mean"`
	SelfUsPerReq  map[string]map[string]float64 `json:"self_us_per_req"`
	SpansTotal    int                           `json:"spans_total"`
	Spans         []span                        `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64, phases ...phaseTrace) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed,
		LatencyUsMean: map[string]float64{}, SelfUsPerReq: map[string]map[string]float64{}}
	for _, pt := range phases {
		tf.Phases = append(tf.Phases, pt.window)
		tf.LatencyUsMean[pt.window.Name] = ratio(float64(pt.latencyNs)/1e3, float64(pt.requests))
		tf.SelfUsPerReq[pt.window.Name] = pt.selfUsPerReq()
	}
	t.mu.Lock()
	tf.SpansTotal = len(t.spans)
	tf.Spans = t.spans[:min(len(t.spans), maxSpansWritten)]
	data, err := json.Marshal(tf)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
