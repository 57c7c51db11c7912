// Package costmodel centralizes the latency and memory constants that drive
// SeSeMI's performance experiments.
//
// Every constant is calibrated to a measurement published in the paper:
//
//   - Per-stage execution times inside SGX2 come from Figure 17 and outside
//     SGX from Figure 18.
//   - Enclave-creation and remote-attestation scaling under concurrency come
//     from Appendix C (Figures 15 and 16).
//   - Warm key refetch is fitted from Table II (strong-isolation overhead).
//   - Cloud-storage download times come from §VI-A (Azure Blob same-region:
//     180 ms / 360 ms / 2100 ms for MBNET / DSNET / RSNET).
//   - Enclave memory configurations come from Appendix D.
//
// The live stack injects these costs through vclock sleeps; the
// discrete-event harness schedules them as event durations. Either way the
// numbers — and therefore the reproduced figures — are identical.
package costmodel

import (
	"fmt"
	"time"

	"sesemi/internal/model"
)

// HW selects the hardware generation of a node.
type HW int

const (
	// SGX2 is the paper's main testbed: Xeon Gold 5317, 12 physical cores,
	// EPC configured to 64 GiB, DCAP/ECDSA attestation.
	SGX2 HW = iota
	// SGX1 is the constrained testbed: Xeon W-1290P, EPC 128 MiB,
	// EPID attestation via the Intel Attestation Service.
	SGX1
	// Native disables the TEE entirely (Figure 18 baseline).
	Native
)

func (h HW) String() string {
	switch h {
	case SGX2:
		return "sgx2"
	case SGX1:
		return "sgx1"
	default:
		return "native"
	}
}

// EPCBytes returns the enclave page cache capacity of the hardware.
func (h HW) EPCBytes() int64 {
	switch h {
	case SGX2:
		return 64 << 30
	case SGX1:
		return 128 << 20
	default:
		return 1 << 62 // no TEE, no EPC limit
	}
}

// Cores is the physical core count of the paper's SGX2 nodes.
const Cores = 12

// ms is a readability helper.
func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// StageCosts holds the modeled duration of every serving stage of Figure 4
// for one (hardware, framework, model) combination.
type StageCosts struct {
	// EnclaveInit is the cost of creating the enclave at its configured size
	// (zero for Native).
	EnclaveInit time.Duration
	// KeyFetchCold is the first key retrieval: mutual remote attestation
	// with KeyService plus the key provisioning round trip.
	KeyFetchCold time.Duration
	// KeyFetchWarm is a key retrieval over the established RA-TLS session
	// (cached attestation, new user or model keys).
	KeyFetchWarm time.Duration
	// ModelLoad is reading the (encrypted) model from cluster storage into
	// the enclave and decrypting it.
	ModelLoad time.Duration
	// RuntimeInit is the inference-framework runtime initialization.
	RuntimeInit time.Duration
	// ModelExec is one model execution.
	ModelExec time.Duration
	// RequestCrypto is request decryption plus result encryption.
	RequestCrypto time.Duration
}

// ColdPath returns the total modeled latency of a cold invocation
// (excluding sandbox/container start, which is model-independent).
func (s StageCosts) ColdPath() time.Duration {
	return s.EnclaveInit + s.KeyFetchCold + s.WarmPath()
}

// WarmPath returns the latency of a warm invocation: enclave exists, but the
// model and runtime must be prepared.
func (s StageCosts) WarmPath() time.Duration {
	return s.ModelLoad + s.RuntimeInit + s.HotPath()
}

// HotPath returns the latency of a hot invocation: only execution and
// request cryptography.
func (s StageCosts) HotPath() time.Duration {
	return s.ModelExec + s.RequestCrypto
}

// IsolatedHotPath returns the hot-path latency under the strong-isolation
// configuration of Table II: the key cache and runtime cache are disabled,
// so every request refetches keys over the existing session and rebuilds the
// runtime.
func (s StageCosts) IsolatedHotPath() time.Duration {
	return s.KeyFetchWarm + s.RuntimeInit + s.HotPath()
}

// sgx2Stages: Figure 17, seconds. Order: enclave init, key fetch, model
// load, runtime init, model execution.
var sgx2Stages = map[string]StageCosts{
	"tflm/mbnet": {EnclaveInit: ms(154), KeyFetchCold: ms(1040), ModelLoad: ms(9.44), RuntimeInit: ms(13.2), ModelExec: ms(747)},
	"tvm/mbnet":  {EnclaveInit: ms(192), KeyFetchCold: ms(1180), ModelLoad: ms(11.6), RuntimeInit: ms(25.1), ModelExec: ms(63.5)},
	"tflm/rsnet": {EnclaveInit: ms(874), KeyFetchCold: ms(957), ModelLoad: ms(76.6), RuntimeInit: ms(104), ModelExec: ms(14300)},
	"tvm/rsnet":  {EnclaveInit: ms(1300), KeyFetchCold: ms(888), ModelLoad: ms(69.6), RuntimeInit: ms(200), ModelExec: ms(938)},
	"tflm/dsnet": {EnclaveInit: ms(270), KeyFetchCold: ms(1170), ModelLoad: ms(26.7), RuntimeInit: ms(31.9), ModelExec: ms(3350)},
	"tvm/dsnet":  {EnclaveInit: ms(356), KeyFetchCold: ms(1220), ModelLoad: ms(20.4), RuntimeInit: ms(51), ModelExec: ms(339)},
}

// nativeStages: Figure 18, seconds. Order: model load, runtime init, model
// execution. Enclave and attestation stages do not exist.
var nativeStages = map[string]StageCosts{
	"tflm/mbnet": {ModelLoad: ms(22.9), RuntimeInit: ms(0.01), ModelExec: ms(567)},
	"tvm/mbnet":  {ModelLoad: ms(13.6), RuntimeInit: ms(38.1), ModelExec: ms(70)},
	"tflm/rsnet": {ModelLoad: ms(161), RuntimeInit: ms(0.01), ModelExec: ms(13600)},
	"tvm/rsnet":  {ModelLoad: ms(83.4), RuntimeInit: ms(216), ModelExec: ms(945)},
	"tflm/dsnet": {ModelLoad: ms(47.9), RuntimeInit: ms(0.02), ModelExec: ms(3210)},
	"tvm/dsnet":  {ModelLoad: ms(21.8), RuntimeInit: ms(67.7), ModelExec: ms(392)},
}

// keyFetchWarmDefault is the session-reuse key retrieval fitted from
// Table II: isolated hot = warm key refetch + runtime init + exec.
const keyFetchWarmDefault = 170 * time.Millisecond

// requestCryptoDefault approximates AES-GCM decrypt+encrypt of request and
// result; small compared to every other stage (Figure 9 hot ≈ exec).
const requestCryptoDefault = 5 * time.Millisecond

// sgx1Penalty scales execution stages on SGX1 hardware (slower cores on the
// W-1290P are roughly offset by its higher clock; the dominant SGX1 effects
// are modeled separately through EPC paging and EPID attestation).
const sgx1Penalty = 1.0

// Stages returns the per-stage cost model for a combination. Versioned
// model ids ("mbnet@v2") resolve to their base model's costs: a revision is
// the same architecture re-trained, so it shares the stage calibration.
func Stages(hw HW, framework, modelID string) (StageCosts, error) {
	key := framework + "/" + model.BaseID(modelID)
	var s StageCosts
	var ok bool
	switch hw {
	case Native:
		s, ok = nativeStages[key]
	default:
		s, ok = sgx2Stages[key]
	}
	if !ok {
		return StageCosts{}, fmt.Errorf("costmodel: unknown combination %q", key)
	}
	if hw != Native {
		s.KeyFetchWarm = keyFetchWarmDefault
		s.RequestCrypto = requestCryptoDefault
		if hw == SGX1 {
			s.EnclaveInit = time.Duration(float64(s.EnclaveInit) * 2.2)
			s.KeyFetchCold = EPIDAttestation(1) + s.KeyFetchCold/4
			s.ModelExec = time.Duration(float64(s.ModelExec) * sgx1Penalty)
		}
	}
	return s, nil
}

// Combos returns every framework/model combination in the paper's
// presentation order (Figures 8, 9, 17, 18).
func Combos() []struct{ Framework, Model string } {
	out := []struct{ Framework, Model string }{}
	for _, m := range model.ZooIDs() {
		for _, f := range []string{"tflm", "tvm"} {
			out = append(out, struct{ Framework, Model string }{f, m})
		}
	}
	return out
}

// EnclaveInit models Figure 15: enclave creation latency as a function of
// hardware, configured enclave size, and the number of enclaves being
// launched concurrently on the same machine.
//
// Calibration points: SGX2 256 MiB ×16 concurrent = 4.06 s average (§C);
// SGX2 single launches from Figure 17 scale roughly linearly in size; SGX1
// adds EPC-add paging for all reserved pages (≈2× at small sizes, worse when
// oversubscribed).
func EnclaveInit(hw HW, enclaveBytes int64, concurrent int) time.Duration {
	if hw == Native {
		return 0
	}
	if concurrent < 1 {
		concurrent = 1
	}
	gib := float64(enclaveBytes) / float64(1<<30)
	// Single-launch latency ≈ 80 ms fixed + ~1.5 s/GiB of reserved memory.
	single := 80*time.Millisecond + time.Duration(gib*1.5*float64(time.Second))
	if hw == SGX1 {
		single = time.Duration(float64(single) * 2.2)
	}
	// Concurrent launches serialize page additions: the paper measures
	// 16×256 MiB at 4.06 s vs ≈0.45 s alone — roughly linear contention.
	factor := 1 + 0.55*float64(concurrent-1)
	if hw == SGX1 {
		factor = 1 + 0.75*float64(concurrent-1)
	}
	return time.Duration(float64(single) * factor)
}

// ECDSAAttestation models Figure 16a: DCAP quote generation/verification
// latency on SGX2 with n enclaves concurrently generating quotes
// (<0.1 s alone, ≈1 s at 16).
func ECDSAAttestation(concurrent int) time.Duration {
	if concurrent < 1 {
		concurrent = 1
	}
	return 60*time.Millisecond + time.Duration(float64(concurrent-1)*62)*time.Millisecond
}

// EPIDAttestation models Figure 16b: EPID attestation on SGX1 requires a
// round trip to the Intel Attestation Service (≈0.5 s alone, ≈4 s at 16).
func EPIDAttestation(concurrent int) time.Duration {
	if concurrent < 1 {
		concurrent = 1
	}
	return 500*time.Millisecond + time.Duration(float64(concurrent-1)*233)*time.Millisecond
}

// Attestation dispatches on hardware generation.
func Attestation(hw HW, concurrent int) time.Duration {
	switch hw {
	case SGX1:
		return EPIDAttestation(concurrent)
	case SGX2:
		return ECDSAAttestation(concurrent)
	default:
		return 0
	}
}

// BatchFormationDelay estimates the mean queueing delay a batching
// front-end (internal/gateway) adds to one request: with Poisson arrivals at
// rate rps on one (action, model) queue, a batch flushes after maxBatch
// requests have gathered or after maxWait, whichever is first.
//
// The batch gathers over a window T = min(maxWait, (maxBatch-1)/rate): its
// first member waits all of T, each later (uniformly arriving) member
// progressively less, so the mean over the expected 1+rate*T members
// interpolates continuously between maxWait (idle queue, T = maxWait) and
// ~T/2 (busy queue) with no jump at the fill/deadline boundary. A
// first-order estimate that lets the discrete-event harness and the live
// gateway report comparable E2E latencies.
func BatchFormationDelay(rate float64, maxBatch int, maxWait time.Duration) time.Duration {
	if maxBatch <= 1 || maxWait <= 0 {
		return 0
	}
	if rate <= 0 {
		return maxWait
	}
	window := maxWait.Seconds()
	if fill := float64(maxBatch-1) / rate; fill < window {
		window = fill
	}
	n := 1 + rate*window // expected members per flush
	mean := window - (rate*window*window/2)/n
	return time.Duration(mean * float64(time.Second))
}

// CloudDownload returns the same-region Azure Blob download time quoted in
// §VI-A for each model. Cluster (NFS) storage instead uses the ModelLoad
// stage costs.
func CloudDownload(modelID string) (time.Duration, error) {
	switch model.BaseID(modelID) {
	case "mbnet":
		return 180 * time.Millisecond, nil
	case "dsnet":
		return 360 * time.Millisecond, nil
	case "rsnet":
		return 2100 * time.Millisecond, nil
	}
	return 0, fmt.Errorf("costmodel: unknown model %q", modelID)
}

// EnclaveConfigBytes returns the configured enclave memory size from
// Appendix D for concurrency 1 (the values 0x3000000 … 0x23000000), scaled
// for higher concurrency by adding per-thread runtime buffers.
func EnclaveConfigBytes(framework, modelID string, concurrency int) (int64, error) {
	base := map[string]int64{
		"tflm/mbnet": 0x3000000,
		"tflm/rsnet": 0x16000000,
		"tflm/dsnet": 0x6000000,
		"tvm/mbnet":  0x4000000,
		"tvm/rsnet":  0x23000000,
		"tvm/dsnet":  0x8000000,
	}
	b, ok := base[framework+"/"+model.BaseID(modelID)]
	if !ok {
		return 0, fmt.Errorf("costmodel: unknown combination %s/%s", framework, modelID)
	}
	if concurrency < 1 {
		concurrency = 1
	}
	spec, ok := model.Zoo[model.BaseID(modelID)]
	if !ok {
		return 0, fmt.Errorf("costmodel: unknown model %q", modelID)
	}
	return b + int64(concurrency-1)*int64(spec.BufferBytes(framework)), nil
}

// EnclaveMemoryBytes models the peak enclave memory required to serve n
// concurrent requests in one enclave (Figure 10): the encrypted copy, the
// decrypted model, n runtime buffers, and a fixed overhead for code and TCS
// stacks.
func EnclaveMemoryBytes(framework, modelID string, concurrency int) (int64, error) {
	spec, ok := model.Zoo[model.BaseID(modelID)]
	if !ok {
		return 0, fmt.Errorf("costmodel: unknown model %q", modelID)
	}
	if concurrency < 1 {
		concurrency = 1
	}
	const fixed = 8 << 20             // enclave code, TCS stacks, heap metadata
	encCopy := int64(spec.ModelBytes) // ciphertext staged for decryption
	return encCopy + int64(spec.ModelBytes) + int64(concurrency)*int64(spec.BufferBytes(framework)) + fixed, nil
}

// MemorySavingRatio returns Figure 10's saving ratio: one enclave serving n
// concurrent requests versus n single-request enclaves.
func MemorySavingRatio(framework, modelID string, concurrency int) (float64, error) {
	one, err := EnclaveMemoryBytes(framework, modelID, 1)
	if err != nil {
		return 0, err
	}
	n, err := EnclaveMemoryBytes(framework, modelID, concurrency)
	if err != nil {
		return 0, err
	}
	return 1 - float64(n)/(float64(concurrency)*float64(one)), nil
}

// ContainerMemoryBudget rounds a requirement up to the provider's 128 MiB
// provisioning granularity (Appendix F).
func ContainerMemoryBudget(required int64) int64 {
	const gran = 128 << 20
	if required <= 0 {
		return gran
	}
	return (required + gran - 1) / gran * gran
}

// ExecUnderLoad models Figure 11a: execution latency when n requests run
// concurrently on a node with the given core count — mild cache/memory
// contention below the core count, processor sharing beyond it (the knee at
// 12 cores). EPC paging is modeled separately by PagingDelay.
func ExecUnderLoad(base time.Duration, n, cores int) time.Duration {
	if n < 1 {
		n = 1
	}
	contention := 1 + 0.06*float64(min(n, cores)-1)
	lat := float64(base) * contention
	if n > cores {
		lat *= float64(n) / float64(cores)
	}
	return time.Duration(lat)
}

// PreemptionOverhead is the cost of preempt/resume cycles in a continuous
// batching session: each preemption evicts a member at a step boundary,
// re-queues it at the gateway, and re-admits it into a later session's
// frame, so each cycle costs one re-entry plus re-established execution
// state:
//
//	O_preempt = preemptions × perPreemption
//
// The "preemption overhead" component of the latency decomposition — the
// long request's side of the fairness trade. Non-positive inputs return 0.
func PreemptionOverhead(preemptions int, perPreemption time.Duration) time.Duration {
	if preemptions <= 0 || perPreemption <= 0 {
		return 0
	}
	return time.Duration(preemptions) * perPreemption
}

// ShardImbalance is the hot-shard load factor of a sharded gateway tier: the
// busiest shard's load divided by the mean shard load,
//
//	I = max(load_s) / mean(load_s)
//
// 1.0 is a perfectly balanced ring; the frontier's throughput ceiling scales
// like N/I shards-worth of single-shard capacity, because the hottest shard
// saturates first while the rest idle — which is exactly the gap the spill
// and work-stealing paths close (they shave I back toward 1 by moving the
// hot shard's overflow to its ring successors). Consistent hashing with V
// virtual nodes per shard lands at I ≈ 1 + O(√(ln N / V)) for uniform keys,
// so raising VirtualNodes tightens the ring before stealing has to act.
// Empty, all-zero, or negative-only input returns 0 (no load, no imbalance).
func ShardImbalance(perShard []float64) float64 {
	var sum, max float64
	n := 0
	for _, v := range perShard {
		if v < 0 {
			v = 0
		}
		sum += v
		if v > max {
			max = v
		}
		n++
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return max / (sum / float64(n))
}

// ExecWorkingSet returns the enclave bytes a request touches during model
// execution. The distinction drives Figure 11b: TVM threads execute out of
// their private runtime buffers (the packed weight copies), so the model
// buffer is not touched and the working set does not shrink with
// threads-per-enclave; TFLM threads read the shared model weights plus a
// small private arena, so co-located threads share the model pages
// (§VI-B's explanation of TFLM-4 vs TFLM-1).
func ExecWorkingSet(framework, modelID string, threadsPerEnclave int) (int64, error) {
	spec, ok := model.Zoo[model.BaseID(modelID)]
	if !ok {
		return 0, fmt.Errorf("costmodel: unknown model %q", modelID)
	}
	if threadsPerEnclave < 1 {
		threadsPerEnclave = 1
	}
	switch framework {
	case "tvm":
		return int64(spec.TVMBufferBytes), nil
	case "tflm":
		return int64(spec.TFLMBufferBytes) + int64(spec.ModelBytes)/int64(threadsPerEnclave), nil
	}
	return 0, fmt.Errorf("costmodel: unknown framework %q", framework)
}

// PagingBandwidth is the effective EPC swap throughput (EWB/ELD) of an SGX1
// machine whose resident enclaves exceed the EPC: evicted pages must be
// reloaded on each request.
const PagingBandwidth = 1.2e9 // bytes/second

// PagingDelay models Figure 11b's knee: when the enclaves resident on an
// SGX1 node oversubscribe the EPC, each execution re-pages its working set
// through the swap path, which is shared by all concurrently paging
// requests.
func PagingDelay(workingSet int64, concurrentPagers int, residentEPC, epc int64) time.Duration {
	if residentEPC <= epc || epc <= 0 || workingSet <= 0 {
		return 0
	}
	if concurrentPagers < 1 {
		concurrentPagers = 1
	}
	sec := float64(workingSet) * float64(concurrentPagers) / PagingBandwidth
	return time.Duration(sec * float64(time.Second))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
