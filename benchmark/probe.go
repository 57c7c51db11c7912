package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"sesemi/internal/attest"
	"sesemi/internal/frontier"
	"sesemi/internal/inference"
	"sesemi/internal/model"
	"sesemi/internal/ratls"
	"sesemi/internal/secure"
	"sesemi/internal/semirt"
	"sesemi/internal/serverless"
	"sesemi/internal/tensor"
)

// A probe is a single-goroutine loop over one layer's public functions on the
// workload's own inputs. It runs at least probeMinIters times and until the
// probe budget has passed, and reports the mean per call — so a 6 us call and
// a 20 ms call both get a stable sample without a table of iteration counts.
const probeMinIters = 20

// prober runs the probes of one workload against a freshly built world.
type prober struct {
	w   *world
	sz  sizing
	out map[string]float64
}

// probeStat is a probe loop's outcome per call.
type probeStat struct {
	dur    time.Duration
	allocs float64 // mallocs per call
	bytes  float64 // bytes allocated per call
}

func (pr *prober) loop(fn func() error) (probeStat, error) {
	if err := fn(); err != nil { // warm caches and lazy set-up
		return probeStat{}, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	mallocs0, bytes0 := mem.Mallocs, mem.TotalAlloc
	start := time.Now()
	n := 0
	for n < probeMinIters || time.Since(start) < pr.sz.probeBudget {
		if err := fn(); err != nil {
			return probeStat{}, err
		}
		n++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&mem)
	return probeStat{
		dur:    elapsed / time.Duration(n),
		allocs: float64(mem.Mallocs-mallocs0) / float64(n),
		bytes:  float64(mem.TotalAlloc-bytes0) / float64(n),
	}, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runProbes measures every probe-backed per-layer metric for one workload.
func runProbes(ctx context.Context, in *inputs, sz sizing) (map[string]float64, error) {
	w, err := buildWorld(in, nil)
	if err != nil {
		return nil, err
	}
	defer w.close()
	pr := &prober{w: w, sz: sz, out: map[string]float64{}}
	for _, p := range []func(context.Context) error{
		pr.gatewayEcho, pr.clusterEcho, pr.wire, pr.handleHot, pr.ratls,
		pr.enclave, pr.secure, pr.model, pr.inference, pr.conv,
	} {
		if err := p(ctx); err != nil {
			return nil, err
		}
	}
	return pr.out, nil
}

// echoInvoker answers every activation with a canned batch response of the
// right size, so a frontier over it measures frontier + gateway alone.
type echoInvoker struct{ canned [][]byte }

func newEchoInvoker(p *pooled, maxBatch int) (echoInvoker, error) {
	sealed, err := secure.Seal(p.kr, secure.PurposeResponse, p.req.Body.ModelID, p.want)
	if err != nil {
		return echoInvoker{}, err
	}
	e := echoInvoker{canned: make([][]byte, maxBatch+1)}
	for n := 1; n <= maxBatch; n++ {
		results := make([]semirt.BatchResult, n)
		for i := range results {
			results[i].Response = semirt.Response{Payload: sealed, Kind: semirt.Hot}
		}
		if e.canned[n], err = semirt.EncodeBatchResults(results); err != nil {
			return echoInvoker{}, err
		}
	}
	return e, nil
}

func (e echoInvoker) Invoke(_ context.Context, _ string, payload []byte) ([]byte, error) {
	_, batch, err := semirt.DecodeEnvelope(payload)
	if err != nil {
		return nil, err
	}
	n := len(batch)
	if n == 0 {
		n = 1
	}
	if n >= len(e.canned) {
		return nil, fmt.Errorf("echo: batch of %d exceeds the canned sizes", n)
	}
	return e.canned[n], nil
}

func (pr *prober) gatewayEcho(ctx context.Context) error {
	w, out := pr.w, pr.out
	p := &w.in.pool[0]
	echo, err := newEchoInvoker(p, 64)
	if err != nil {
		return err
	}
	front := frontier.New(frontier.Config{Shards: frontierShards}, echo)
	defer front.Close()
	ew := &world{in: w.in, front: front}
	res := runPhase(ctx, ew, nil, phase{name: "echo", sched: schedule{idx: make([]int32, pr.sz.echoRequests)}, window: satWindow})
	if res.err != nil {
		return fmt.Errorf("gateway echo: %w", res.err)
	}
	out["gateway.echo_rps"] = ratio(float64(res.ops), res.wall.Seconds())
	out["gateway.echo_allocs_per_req"] = ratio(float64(res.mallocs), float64(res.ops))
	return nil
}

type echoInstance struct{ reply []byte }

func (e echoInstance) Invoke([]byte) ([]byte, error) { return e.reply, nil }
func (e echoInstance) Stop()                         {}

func (pr *prober) clusterEcho(ctx context.Context) error {
	w, out := pr.w, pr.out
	ccfg := serverless.DefaultConfig()
	ccfg.SandboxStart = 0
	c := serverless.NewCluster(ccfg, &serverless.Node{Name: "echo-node", MemoryBytes: w.in.sp.nodeMem})
	defer c.Close()
	err := c.Deploy(&serverless.Action{
		Name: "echo", MemoryBudget: actionMemory, Concurrency: actionConcurrency,
		New: func(*serverless.Node) (serverless.Instance, error) { return echoInstance{reply: []byte("{}")}, nil },
	})
	if err != nil {
		return err
	}
	payload := []byte("{}")
	st, err := pr.loop(func() error {
		_, err := c.Invoke(ctx, "echo", payload)
		return err
	})
	out["serverless.echo_invoke_us"] = us(st.dur)
	return err
}

// wire round-trips a batch of 8 of the workload's requests through the
// activation wire: EncodeBatch → DecodeEnvelope → EncodeBatchResults →
// DecodeBatchResponse.
func (pr *prober) wire(_ context.Context) error {
	w, out := pr.w, pr.out
	const members = 8
	sat := w.in.closed("sat")
	reqs := make([]semirt.Request, members)
	results := make([]semirt.BatchResult, members)
	payloadBytes := 0
	for i := range reqs {
		p := &w.in.pool[sat.idx[i]]
		reqs[i] = p.req.Body
		sealed, err := secure.Seal(p.kr, secure.PurposeResponse, p.req.Body.ModelID, p.want)
		if err != nil {
			return err
		}
		results[i].Response = semirt.Response{Payload: sealed, Kind: semirt.Hot}
		payloadBytes += len(p.req.Body.Payload) + len(sealed)
	}
	wireBytes := 0
	st, err := pr.loop(func() error {
		raw, err := semirt.EncodeBatch(reqs)
		if err != nil {
			return err
		}
		if _, batch, err := semirt.DecodeEnvelope(raw); err != nil || len(batch) != members {
			return fmt.Errorf("wire: decoded %d members: %v", len(batch), err)
		}
		rawResp, err := semirt.EncodeBatchResults(results)
		if err != nil {
			return err
		}
		if _, err := semirt.DecodeBatchResponse(rawResp, members); err != nil {
			return err
		}
		wireBytes = len(raw) + len(rawResp)
		return nil
	})
	out["semirt.wire_us_per_req"] = us(st.dur) / members
	out["semirt.wire_bytes_ratio"] = ratio(float64(wireBytes), float64(payloadBytes))
	return err
}

func (pr *prober) handleHot(_ context.Context) error {
	w, out := pr.w, pr.out
	rt, err := semirt.New(w.in.scfg, w.deps(w.plat))
	if err != nil {
		return err
	}
	defer rt.Stop()
	p := &w.in.pool[0]
	st, err := pr.loop(func() error {
		resp, err := rt.Handle(p.req.Body)
		if err != nil {
			return err
		}
		return verify(p, resp)
	})
	if err == nil && rt.Stats().Hot == 0 {
		err = errors.New("handle probe: no hot invocation")
	}
	out["semirt.handle_hot_us"] = us(st.dur)
	out["semirt.handle_hot_allocs"] = st.allocs
	return err
}

// ratls times the mutually attested handshake SeMIRT makes to the
// KeyService (both sides, over an in-memory pipe), a 256-byte record round
// trip on the live channel, and the verification of one quote.
func (pr *prober) ratls(_ context.Context) error {
	w, out := pr.w, pr.out
	enc, err := w.plat.Launch(w.in.scfg.Manifest(), nil)
	if err != nil {
		return err
	}
	defer enc.Destroy()
	clientCfg := ratls.Config{Quoter: enc, PeerPolicy: &attest.Policy{
		CAPublicKey: w.ca.PublicKey(), Allowed: []attest.Measurement{w.ksEnc.Measurement()}}}
	serverCfg := ratls.Config{Quoter: w.ksEnc, PeerPolicy: &attest.Policy{CAPublicKey: w.ca.PublicKey()}}

	handshake := func() (client, server *ratls.Conn, closeBoth func(), err error) {
		c1, c2 := net.Pipe()
		closeBoth = func() { c1.Close(); c2.Close() }
		serr := make(chan error, 1)
		go func() {
			var err error
			server, err = ratls.Server(c2, serverCfg)
			serr <- err
		}()
		client, err = ratls.Client(c1, clientCfg)
		if err != nil {
			c1.Close() // unblocks the server side
		}
		if e := <-serr; err == nil {
			err = e
		}
		return client, server, closeBoth, err
	}
	st, err := pr.loop(func() error {
		_, _, closeBoth, err := handshake()
		closeBoth()
		return err
	})
	if err != nil {
		return fmt.Errorf("ratls handshake: %w", err)
	}
	out["ratls.handshake_us"] = us(st.dur)
	out["ratls.handshake_allocs"] = st.allocs

	client, server, closeBoth, err := handshake()
	if err != nil {
		return err
	}
	echoed := make(chan error, 1)
	go func() {
		for {
			msg, err := server.Recv()
			if err == nil {
				err = server.Send(msg)
			}
			if err != nil {
				echoed <- err
				return
			}
		}
	}()
	record := make([]byte, 256)
	st, err = pr.loop(func() error {
		if err := client.Send(record); err != nil {
			return err
		}
		_, err := client.Recv()
		return err
	})
	closeBoth()
	<-echoed // the echo side ends once its pipe is closed
	if err != nil {
		return fmt.Errorf("ratls record: %w", err)
	}
	out["ratls.record_us"] = us(st.dur)

	binding := sha256.Sum256([]byte("benchmark quote binding"))
	quote, err := enc.Quote(binding[:])
	if err != nil {
		return err
	}
	st, err = pr.loop(func() error { return serverCfg.PeerPolicy.Check(quote, binding[:]) })
	out["attest.quote_verify_us"] = us(st.dur)
	return err
}

func (pr *prober) enclave(_ context.Context) error {
	w, out := pr.w, pr.out
	manifest := w.in.scfg.Manifest()
	st, err := pr.loop(func() error {
		enc, err := w.plat.Launch(manifest, nil)
		if err != nil {
			return err
		}
		enc.Destroy()
		return nil
	})
	if err != nil {
		return err
	}
	out["enclave.launch_us"] = us(st.dur)
	enc, err := w.plat.Launch(manifest, nil)
	if err != nil {
		return err
	}
	defer enc.Destroy()
	st, err = pr.loop(func() error { return enc.ECall(func() error { return nil }) })
	out["enclave.ecall_ns"] = float64(st.dur)
	return err
}

// secure seals and opens a payload of the workload's request size, and
// opens the workload's first model blob as the enclave does on a model load.
func (pr *prober) secure(_ context.Context) error {
	w, out := pr.w, pr.out
	p := &w.in.pool[0]
	bm := w.in.models[p.mdl]
	plain := make([]byte, len(p.req.Body.Payload)-secure.Overhead())
	st, err := pr.loop(func() error {
		sealed, err := secure.Seal(p.kr, secure.PurposeRequest, bm.id, plain)
		if err != nil {
			return err
		}
		_, err = secure.Open(p.kr, secure.PurposeRequest, bm.id, sealed)
		return err
	})
	if err != nil {
		return err
	}
	out["secure.seal_open_req_us"] = us(st.dur)
	blob, err := w.store.Get(semirt.ModelBlobName(bm.id))
	if err != nil {
		return err
	}
	st, err = pr.loop(func() error {
		_, err := secure.Open(bm.km, secure.PurposeModel, bm.id, blob)
		return err
	})
	out["secure.open_model_ms"] = ms(st.dur)
	out["secure.open_model_alloc_ratio"] = st.bytes / float64(len(blob))
	return err
}

func (pr *prober) model(_ context.Context) error {
	w, out := pr.w, pr.out
	plain := w.in.models[0].plain
	st, err := pr.loop(func() error {
		_, err := model.Unmarshal(plain)
		return err
	})
	out["model.unmarshal_ms"] = ms(st.dur)
	return err
}

func (pr *prober) inference(_ context.Context) error {
	w, out := pr.w, pr.out
	fw, err := inference.Lookup(w.in.scfg.Framework)
	if err != nil {
		return err
	}
	loaded, err := fw.ModelLoad(w.in.models[0].plain)
	if err != nil {
		return err
	}
	st, err := pr.loop(func() error {
		_, err := fw.RuntimeInit(loaded)
		return err
	})
	if err != nil {
		return err
	}
	out["inference.runtime_init_us"] = us(st.dur)
	rt, err := fw.RuntimeInit(loaded)
	if err != nil {
		return err
	}
	p := &w.in.pool[0]
	plain, err := secure.Open(p.kr, secure.PurposeRequest, p.req.Body.ModelID, p.req.Body.Payload)
	if err != nil {
		return err
	}
	st, err = pr.loop(func() error {
		if err := inference.ModelExec(rt, plain); err != nil {
			return err
		}
		_, err := inference.PrepareOutput(rt)
		return err
	})
	out["inference.exec_us"] = us(st.dur)
	return err
}

// conv times tensor.Conv2D at functional rsnet's largest 3x3
// convolution (most multiply-accumulates), whatever the workload's model: it
// is the kernel rung a tensor optimisation moves.
func (pr *prober) conv(_ context.Context) error {
	out := pr.out
	m, err := model.NewFunctional("rsnet")
	if err != nil {
		return err
	}
	shapes, err := m.InferShapes()
	if err != nil {
		return err
	}
	var layer *model.Layer
	var inShape, outShape []int
	best := 0
	for i := range m.Layers {
		l := &m.Layers[i]
		if l.Op != model.OpConv2D || l.Kernel != 3 {
			continue
		}
		o := shapes[l.Name]
		macs := o[1] * o[2] * o[3] * 9 * l.Weights[model.WeightMain].Dim(2)
		if macs > best {
			best, layer, inShape, outShape = macs, l, shapes[l.Inputs[0]], o
		}
	}
	if layer == nil {
		return errors.New("conv probe: rsnet has no 3x3 convolution")
	}
	in, dst := tensor.New(inShape...), tensor.New(outShape...)
	for i := range in.Data() {
		in.Data()[i] = float32(i%13) * 0.06
	}
	st, err := pr.loop(func() error {
		return tensor.Conv2D(dst, in, layer.Weights[model.WeightMain], layer.Weights[model.WeightBias], layer.Stride, layer.Pad)
	})
	out["tensor.conv3x3_ms"] = ms(st.dur)
	return err
}
