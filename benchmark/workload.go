package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"sesemi/internal/attest"
	"sesemi/internal/gateway"
	"sesemi/internal/inference"
	_ "sesemi/internal/inference/tinytvm" // registers the "tvm" framework
	"sesemi/internal/model"
	"sesemi/internal/secure"
	"sesemi/internal/semirt"
	"sesemi/internal/tensor"
)

// spec is the fixed shape of one workload. Names are permanent: every later
// performance or simplicity PR is judged by them.
type spec struct {
	name string
	why  string
	// openRate is the open phase's fixed arrival rate in requests per second.
	// Zero means the phase is the one-client closed loop (cold_start).
	openRate float64
	// window is the number of requests the sat phase holds outstanding.
	window  int
	nodeMem int64
	// actions are the deployed endpoints. With more than one, action i serves
	// model i only (cold_start); with one, it serves every model.
	actions []string
	models  []modelDef
	users   int
	tenants int
	// zipfS skews the user choice (0 = uniform); runMean is the mean length
	// of same-model runs in the arrival sequence. Run lengths are drawn
	// uniformly within an eighth of the mean, so that every seed gives nearly
	// the same number of model flips: the driver compares runs with different
	// seeds, and geometric run lengths made flips per phase — and with them
	// alloc_kb_per_req — differ by 13 % from seed to seed.
	zipfS   float64
	runMean int
	// perKey is the number of distinct inputs per (user, model) pair.
	perKey int
}

type modelDef struct {
	id    string
	build func() (*model.Model, error)
	// pad, when positive, is the serialized model size in bytes.
	pad int
}

func functional(id string) func() (*model.Model, error) {
	return func() (*model.Model, error) { return model.NewFunctional(id) }
}

func tinyMobileNet() (*model.Model, error) {
	return model.Build("mobilenet", "tiny", model.Config{InputSize: 8, InputChannels: 3, NumClasses: 10, Width: 1, Blocks: 1})
}

// satWindow is the sat phase's pipelined closed-loop depth.
const satWindow = 64

// specs lists the workloads in the order interleaved rounds visit them.
var specs = []*spec{
	{
		name:     "hot_small",
		why:      "hot path, ~6us model: frontier, gateway, cluster claim, batch wire, ECall and small seal/open do the work",
		openRate: 4000, window: satWindow, nodeMem: 512 << 20,
		actions: []string{"fn"},
		models:  []modelDef{{id: "mbnet", build: tinyMobileNet}},
		users:   1, tenants: 1, perKey: 64,
	},
	{
		name:     "hot_compute",
		why:      "hot path, ~6ms functional rsnet: tensor and inference do >80% of the work, the serving stack is noise",
		openRate: 120, window: satWindow, nodeMem: 512 << 20,
		actions: []string{"fn"},
		models:  []modelDef{{id: "rsnet", build: functional("rsnet")}},
		users:   1, tenants: 1, perKey: 16,
	},
	{
		name:     "warm_churn",
		why:      "live enclave without the keys or model: 192 key tags over a 64-entry cache, 1 MiB model swaps, 8 DRR tenants",
		openRate: warmChurnOpenRate, window: satWindow, nodeMem: 512 << 20,
		actions: []string{"fn"},
		models: []modelDef{
			{id: "mbnet", build: functional("mbnet"), pad: warmChurnModelBytes},
			{id: "mbnet@b", build: functional("mbnet"), pad: warmChurnModelBytes},
		},
		users: 96, tenants: 8, zipfS: 1.1, runMean: 200, perKey: 2,
	},
	{
		name:    "cold_start",
		why:     "the paper's cold path: every op evicts the other sandbox and pays launch, attestation, keys and a 16 MiB model",
		window:  1,
		nodeMem: 256 << 20,
		actions: []string{"fn-a", "fn-b"},
		models: []modelDef{
			{id: "mbnet@a", build: functional("mbnet"), pad: 16 << 20},
			{id: "mbnet@b", build: functional("mbnet"), pad: 16 << 20},
		},
		users: 1, tenants: 1, perKey: 4,
	},
}

// warm_churn's churn is sized down until its metrics repeat. With 4 MiB
// models, sat throughput swung 2300-3300 req/s and alloc_kb_per_req 630-880
// KiB between rounds of identical code: at a model flip the two queues' batches
// interleave in the enclaves and the number of reloads (about 13 per flip) is
// decided by scheduling. At 1 MiB the same reloads weigh a quarter as much and
// rounds agree to a few percent. The open rate is a third of the baseline sat
// throughput (~5.8k req/s); at half of it the generator's lateness p99 sat at
// 1.5-2 ms, on its limit.
const (
	warmChurnModelBytes = 1 << 20
	warmChurnOpenRate   = 2000
)

// coldPath reports the cold_start shape: several actions, one model each,
// visited in turn.
func (sp *spec) coldPath() bool { return len(sp.actions) > 1 }

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// pooled is one pre-encrypted request with everything the collector needs to
// check its answer.
type pooled struct {
	req  gateway.Request
	kr   secure.Key
	want []byte // reference output, computed outside any enclave
	user int
	mdl  int
}

type builtModel struct {
	id    string
	plain []byte // model.Marshal output
	km    secure.Key
	shape []int
}

// inputs is everything a workload derives from the seed, built once per
// process and shared by every round: principals and keys, models, the pool of
// pre-encrypted requests with their reference outputs, and the schedules.
// The program under test sees only the requests.
type inputs struct {
	sp   *spec
	seed int64
	scfg semirt.Config
	es   attest.Measurement

	ownerKey secure.Key
	userKeys []secure.Key
	userIDs  []secure.ID
	reqKeys  [][]secure.Key // [user][model]
	models   []builtModel
	pool     []pooled

	schedules map[string]schedule // by phase; every round replays the same arrivals
}

// schedule is a seeded arrival sequence: pool indices and, for open phases,
// due times relative to the phase start.
type schedule struct {
	idx []int32
	due []time.Duration
}

func newInputs(sp *spec, seed int64) (*inputs, error) {
	scfg, err := semirt.DefaultConfig("tvm", "mbnet", actionConcurrency)
	if err != nil {
		return nil, err
	}
	in := &inputs{sp: sp, seed: seed, scfg: scfg, es: scfg.Manifest().Measure(), schedules: map[string]schedule{}}
	in.ownerKey = in.key("owner")
	for u := 0; u < sp.users; u++ {
		k := in.key(fmt.Sprintf("user-%d", u))
		in.userKeys = append(in.userKeys, k)
		in.userIDs = append(in.userIDs, secure.IdentityOf(k))
	}
	fw, err := inference.Lookup(scfg.Framework)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(in.subSeed("inputs")))
	var refs []inference.Runtime
	for _, md := range sp.models {
		m, err := md.build()
		if err != nil {
			return nil, err
		}
		if md.pad > 0 {
			if err := model.PadToSize(m, md.pad); err != nil {
				return nil, err
			}
		}
		plain, err := model.Marshal(m)
		if err != nil {
			return nil, err
		}
		loaded, err := fw.ModelLoad(plain)
		if err != nil {
			return nil, err
		}
		rt, err := fw.RuntimeInit(loaded)
		if err != nil {
			return nil, err
		}
		refs = append(refs, rt)
		in.models = append(in.models, builtModel{id: md.id, plain: plain, km: in.key("km-" + md.id), shape: m.InputShape})
	}
	in.reqKeys = make([][]secure.Key, sp.users)
	for u := range in.reqKeys {
		for _, bm := range in.models {
			in.reqKeys[u] = append(in.reqKeys[u], in.key(fmt.Sprintf("kr-%d-%s", u, bm.id)))
		}
	}
	for u := 0; u < sp.users; u++ {
		for mi, bm := range in.models {
			for k := 0; k < sp.perKey; k++ {
				t := tensor.New(bm.shape...)
				for i := range t.Data() {
					t.Data()[i] = rng.Float32()
				}
				plain := inference.EncodeTensor(t)
				if err := inference.ModelExec(refs[mi], plain); err != nil {
					return nil, err
				}
				want, err := inference.PrepareOutput(refs[mi])
				if err != nil {
					return nil, err
				}
				kr := in.reqKeys[u][mi]
				sealed, err := semirt.EncryptRequest(kr, bm.id, plain)
				if err != nil {
					return nil, err
				}
				action := sp.actions[0]
				if sp.coldPath() {
					action = sp.actions[mi]
				}
				in.pool = append(in.pool, pooled{
					req: gateway.Request{
						Action: action,
						Tenant: fmt.Sprintf("t%d", u%sp.tenants),
						Hints:  gateway.Hints{User: string(in.userIDs[u])},
						Body:   semirt.Request{UserID: in.userIDs[u], ModelID: bm.id, Payload: sealed},
					},
					kr: kr, want: want, user: u, mdl: mi,
				})
			}
		}
	}
	return in, nil
}

func (in *inputs) key(label string) secure.Key {
	return secure.KeyFromSeed(fmt.Sprintf("benchmark/%s/%d/%s", in.sp.name, in.seed, label))
}

// subSeed derives an independent stream seed per purpose, so the open, sat
// and warm-up sequences differ but each is a pure function of -seed.
func (in *inputs) subSeed(label string) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s/%d/%s", in.sp.name, in.seed, label)))
	return int64(binary.LittleEndian.Uint64(h[:8]) >> 1)
}

func (in *inputs) poolIndex(user, mdl, k int) int32 {
	return int32((user*len(in.models)+mdl)*in.sp.perKey + k)
}

// schedule draws n arrivals for the named phase, once per process. rate > 0
// spaces them evenly (a fixed arrival rate, so batch composition in open
// phases does not depend on service speed); rate 0 leaves due nil for closed
// loops.
func (in *inputs) schedule(phase string, n int, rate float64) schedule {
	if s, ok := in.schedules[phase]; ok && len(s.idx) == n {
		return s
	}
	s := in.draw(phase, n, rate)
	in.schedules[phase] = s
	return s
}

// closedArrivals is how many arrivals a closed loop cycles through.
const closedArrivals = 1 << 17

// closed returns the named closed-loop phase's schedule.
func (in *inputs) closed(phase string) schedule { return in.schedule(phase, closedArrivals, 0) }

func (in *inputs) draw(phase string, n int, rate float64) schedule {
	sp := in.sp
	rng := rand.New(rand.NewSource(in.subSeed(phase)))
	var zipf *rand.Zipf
	if sp.zipfS > 1 && sp.users > 1 {
		zipf = rand.NewZipf(rng, sp.zipfS, 1, uint64(sp.users-1))
	}
	s := schedule{idx: make([]int32, n)}
	if rate > 0 {
		s.due = make([]time.Duration, n)
	}
	mdl, left := 0, 0
	for i := 0; i < n; i++ {
		switch {
		case sp.coldPath():
			mdl = i % len(in.models) // alternate a, b: every op evicts the other sandbox
		case len(in.models) > 1 && left == 0:
			mdl = (mdl + 1) % len(in.models)
			left = sp.runMean*7/8 + rng.Intn(sp.runMean/4+1)
		}
		left--
		user := 0
		switch {
		case zipf != nil:
			user = int(zipf.Uint64())
		case sp.users > 1:
			user = rng.Intn(sp.users)
		}
		s.idx[i] = in.poolIndex(user, mdl, rng.Intn(sp.perKey))
		if rate > 0 {
			s.due[i] = time.Duration(float64(i) / rate * float64(time.Second))
		}
	}
	return s
}

// fingerprint hashes the (user, model, input, due time) sequence of a
// schedule; the smoke test uses it to check that a seed fixes the arrivals.
func (in *inputs) fingerprint(s schedule) [32]byte {
	h := sha256.New()
	var buf [32]byte
	for i, ix := range s.idx {
		p := &in.pool[ix]
		binary.LittleEndian.PutUint64(buf[0:], uint64(p.user))
		binary.LittleEndian.PutUint64(buf[8:], uint64(p.mdl))
		binary.LittleEndian.PutUint64(buf[24:], uint64(ix))
		var due time.Duration
		if s.due != nil {
			due = s.due[i]
		}
		binary.LittleEndian.PutUint64(buf[16:], uint64(due))
		h.Write(buf[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
