package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"sesemi/internal/attest"
	"sesemi/internal/costmodel"
	"sesemi/internal/enclave"
	"sesemi/internal/frontier"
	"sesemi/internal/gateway"
	"sesemi/internal/keyservice"
	"sesemi/internal/semirt"
	"sesemi/internal/serverless"
	"sesemi/internal/storage"
	"sesemi/internal/vclock"
)

const (
	actionMemory      = 256 << 20
	actionConcurrency = 4
	frontierShards    = 2
)

// platClock mutes every modeled TEE latency: the benchmark measures this
// repo's code, not calibrated sleeps (modeled_sleep_share = 0).
var platClock = vclock.Real{Scale: 0}

// world is one in-process deployment: generator → frontier → gateway →
// serverless.Cluster → semirt.Instance → enclave → KeyService over loopback
// RA-TLS. Layer configs are zero values or DefaultConfig() except the three
// modeled sleeps (all zero) and frontier.Config.Shards, so a later PR that
// changes a default is measured instead of breaking this build.
type world struct {
	in      *inputs
	ca      *attest.CA
	ksEnc   *enclave.Enclave
	ksAddr  string
	plat    *enclave.Platform
	store   storage.Store
	cluster *serverless.Cluster
	front   *frontier.Frontier

	mu       sync.Mutex
	runtimes []*semirt.Runtime

	// sent counts requests ever submitted to this world (generator side
	// only); cold_start uses it to keep alternating across phase boundaries.
	sent int

	closers []func()
}

func (w *world) close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
	w.closers = nil
}

// buildWorld deploys the workload's principals, models and actions. A non-nil
// tracer wraps the four seams the benchmark supplies (see trace.go); nil
// leaves the program untouched, which is how end-to-end metrics are measured.
func buildWorld(in *inputs, tr *tracer) (w *world, err error) {
	sp := in.sp
	w = &world{in: in}
	defer func() {
		if err != nil {
			w.close()
			w = nil
		}
	}()

	if w.ca, err = attest.NewCA(); err != nil {
		return
	}
	ksKey, err := w.ca.Provision("ks")
	if err != nil {
		return
	}
	svc := keyservice.NewService()
	w.ksEnc, err = enclave.NewPlatform(costmodel.SGX2, platClock, ksKey).Launch(keyservice.ManifestFor(0), svc)
	if err != nil {
		return
	}
	w.closers = append(w.closers, w.ksEnc.Destroy)
	srv, err := keyservice.NewServer(svc, w.ca.PublicKey())
	if err != nil {
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns once Close shuts the listener
	}()
	w.closers = append(w.closers, func() {
		_ = srv.Close()
		<-served
	})
	w.ksAddr = ln.Addr().String()

	if err = w.registerPrincipals(); err != nil {
		return
	}

	w.store = storage.NewMemory(platClock, nil)
	for _, bm := range in.models {
		var ct []byte
		if ct, err = semirt.EncryptModel(bm.km, bm.id, bm.plain); err != nil {
			return
		}
		if err = w.store.Put(semirt.ModelBlobName(bm.id), ct); err != nil {
			return
		}
	}

	nodeKey, err := w.ca.Provision("node-0")
	if err != nil {
		return
	}
	w.plat = enclave.NewPlatform(costmodel.SGX2, platClock, nodeKey)
	ccfg := serverless.DefaultConfig()
	ccfg.SandboxStart = 0
	ccfg.InvokeOverhead = 0
	w.cluster = serverless.NewCluster(ccfg, &serverless.Node{Name: "node-0", MemoryBytes: sp.nodeMem, Extra: w.plat})
	w.closers = append(w.closers, w.cluster.Close)
	for _, name := range sp.actions {
		err = w.cluster.Deploy(&serverless.Action{
			Name:         name,
			MemoryBudget: actionMemory,
			Concurrency:  actionConcurrency,
			New:          func(n *serverless.Node) (serverless.Instance, error) { return w.newInstance(n, tr) },
		})
		if err != nil {
			return
		}
	}

	var inv gateway.Invoker = w.cluster
	if tr != nil {
		inv = tracedCluster{Cluster: w.cluster, tr: tr}
	}
	w.front = frontier.New(frontier.Config{Shards: frontierShards}, inv)
	w.closers = append(w.closers, w.front.Close)
	return w, nil
}

// registerPrincipals deposits every key and grant at the KeyService. Each
// client is closed as soon as its principal is set up: a KeyService
// connection pins one of the enclave's TCSs until it closes.
func (w *world) registerPrincipals() error {
	in := w.in
	dial := keyservice.TCPDialer(w.ksAddr)
	owner := keyservice.NewClient(dial, w.ca.PublicKey(), w.ksEnc.Measurement(), in.ownerKey)
	defer owner.Close()
	if err := owner.Register(); err != nil {
		return err
	}
	for _, bm := range in.models {
		if err := owner.AddModelKey(bm.id, bm.km); err != nil {
			return err
		}
	}
	for u := range in.userKeys {
		if err := w.registerUser(dial, owner, u); err != nil {
			return err
		}
	}
	return nil
}

func (w *world) registerUser(dial keyservice.Dialer, owner *keyservice.Client, u int) error {
	in := w.in
	uc := keyservice.NewClient(dial, w.ca.PublicKey(), w.ksEnc.Measurement(), in.userKeys[u])
	defer uc.Close()
	if err := uc.Register(); err != nil {
		return err
	}
	for mi, bm := range in.models {
		if err := owner.GrantAccess(bm.id, in.es, uc.ID()); err != nil {
			return err
		}
		if err := uc.AddReqKey(bm.id, in.es, in.reqKeys[u][mi]); err != nil {
			return err
		}
	}
	return nil
}

func (w *world) newInstance(n *serverless.Node, tr *tracer) (serverless.Instance, error) {
	deps := w.deps(n.Extra.(*enclave.Platform))
	var ti *tracedInstance
	if tr != nil {
		ti = &tracedInstance{tr: tr}
		deps.Store = tracedStore{Store: deps.Store, ti: ti}
		deps.KSDialer = tracedDialer(deps.KSDialer, ti)
	}
	rt, err := semirt.New(w.in.scfg, deps)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.runtimes = append(w.runtimes, rt)
	w.mu.Unlock()
	if ti != nil {
		ti.inner = semirt.Instance{RT: rt}
		return ti, nil
	}
	return semirt.Instance{RT: rt}, nil
}

// deps are a SeMIRT instance's untrusted-world dependencies in this world.
func (w *world) deps(plat *enclave.Platform) semirt.Deps {
	return semirt.Deps{
		Platform:    plat,
		Store:       w.store,
		KSDialer:    keyservice.TCPDialer(w.ksAddr),
		CAPublicKey: w.ca.PublicKey(),
		ExpectEK:    w.ksEnc.Measurement(),
	}
}

// counters is a snapshot of every layer's Stats() at once.
type counters struct {
	front   frontier.Stats
	cluster serverless.Stats
	semirt  semirt.Stats
}

func (w *world) counters() counters {
	c := counters{front: w.front.Stats(), cluster: w.cluster.Stats()}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, rt := range w.runtimes {
		st := rt.Stats()
		c.semirt.Cold += st.Cold
		c.semirt.Warm += st.Warm
		c.semirt.Hot += st.Hot
		c.semirt.KeyFetches += st.KeyFetches
	}
	return c
}

// pick returns the i-th request of a schedule, cycling. With several actions
// (cold_start) the position follows the world's own submission count, so a,
// b, a, b continues across set-up, warm-up and phase boundaries and every op
// finds the other action's sandbox in the way.
func (w *world) pick(s schedule, i int) *pooled {
	if w.in.sp.coldPath() {
		i = w.sent
	}
	w.sent++
	return &w.in.pool[s.idx[i%len(s.idx)]]
}

// do sends one pooled request through the frontier and checks the answer.
func (w *world) do(ctx context.Context, p *pooled) (semirt.Response, error) {
	tk, err := w.front.Submit(ctx, p.req)
	if err != nil {
		return semirt.Response{}, err
	}
	resp, err := tk.Wait(ctx)
	if err != nil {
		return semirt.Response{}, err
	}
	return resp, verify(p, resp)
}

// verify decrypts a response and compares it with the reference output the
// same model produced on the same plaintext outside any enclave.
func verify(p *pooled, resp semirt.Response) error {
	got, err := semirt.DecryptResponse(p.kr, p.req.Body.ModelID, resp.Payload)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, p.want) {
		return errors.New("output differs from the reference")
	}
	return nil
}

// firstAnswer drives the fresh world to its first verified answer on the
// path the workload measures: hot for the serving workloads, the very first
// (cold) one for cold_start. Set-up time ends here.
func (w *world) firstAnswer(ctx context.Context) error {
	first := schedule{idx: []int32{0}}
	wantHot := !w.in.sp.coldPath()
	for try := 0; try < 8; try++ {
		resp, err := w.do(ctx, w.pick(first, 0))
		if err != nil {
			return fmt.Errorf("first answer: %w", err)
		}
		if !wantHot || resp.Kind == semirt.Hot {
			return nil
		}
	}
	return errors.New("first answer: no hot invocation in 8 tries")
}

// setUp builds a world and times it up to the first verified answer.
func setUp(ctx context.Context, in *inputs, tr *tracer) (*world, time.Duration, error) {
	t0 := time.Now()
	w, err := buildWorld(in, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := w.firstAnswer(ctx); err != nil {
		w.close()
		return nil, 0, err
	}
	return w, time.Since(t0), nil
}
