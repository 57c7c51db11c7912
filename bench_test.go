// Package main_test exposes every experiment of the paper's evaluation as a
// Go benchmark. Each benchmark executes
// the corresponding harness in internal/bench; run a single artifact with
// e.g.
//
//	go test -bench=Figure9 -benchtime=1x .
//
// The harnesses print the paper-style rows when run via cmd/sesemi-bench;
// here they are executed for timing and as a regression gate.
package main_test

import (
	"io"
	"testing"

	"sesemi/internal/bench"
)

func runExp(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1ModelSizes regenerates Table I (model & buffer sizes).
func BenchmarkTable1ModelSizes(b *testing.B) { runExp(b, "table1") }

// BenchmarkFigure8StageRatio regenerates Figure 8 (cold-path stage shares).
func BenchmarkFigure8StageRatio(b *testing.B) { runExp(b, "fig8") }

// BenchmarkFigure9InvocationPaths regenerates Figure 9 (hot/warm/cold/
// untrusted execution times).
func BenchmarkFigure9InvocationPaths(b *testing.B) { runExp(b, "fig9") }

// BenchmarkFigure10MemorySaving regenerates Figure 10 (enclave memory
// saving under concurrent execution).
func BenchmarkFigure10MemorySaving(b *testing.B) { runExp(b, "fig10") }

// BenchmarkFigure11Concurrency regenerates Figure 11 (latency vs concurrent
// requests on SGX2 and SGX1).
func BenchmarkFigure11Concurrency(b *testing.B) { runExp(b, "fig11") }

// BenchmarkFigure12Throughput regenerates Figure 12 (p95 latency vs request
// rate for SeSeMI / Iso-reuse / Native).
func BenchmarkFigure12Throughput(b *testing.B) { runExp(b, "fig12") }

// BenchmarkTable2Isolation regenerates Table II (strong-isolation overhead).
func BenchmarkTable2Isolation(b *testing.B) { runExp(b, "table2") }

// BenchmarkFigure13MMPP regenerates Figure 13 (8-node MMPP latency).
func BenchmarkFigure13MMPP(b *testing.B) { runExp(b, "fig13") }

// BenchmarkFigure14MemoryCost regenerates Figure 14 (sandbox memory and
// GB-second cost).
func BenchmarkFigure14MemoryCost(b *testing.B) { runExp(b, "fig14") }

// BenchmarkTable3FnPackerPoisson regenerates Table III (Poisson traffic
// under the three deployment strategies).
func BenchmarkTable3FnPackerPoisson(b *testing.B) { runExp(b, "table3") }

// BenchmarkTable4Interactive regenerates Table IV (interactive session
// latencies).
func BenchmarkTable4Interactive(b *testing.B) { runExp(b, "table4") }

// BenchmarkFigure15EnclaveInit regenerates Figure 15 (enclave creation
// overhead vs concurrency).
func BenchmarkFigure15EnclaveInit(b *testing.B) { runExp(b, "fig15") }

// BenchmarkFigure16Attestation regenerates Figure 16 (remote attestation
// overhead, ECDSA vs EPID).
func BenchmarkFigure16Attestation(b *testing.B) { runExp(b, "fig16") }

// BenchmarkFigure17BreakdownSGX regenerates Figure 17 (SGX2 stage
// breakdown).
func BenchmarkFigure17BreakdownSGX(b *testing.B) { runExp(b, "fig17") }

// BenchmarkFigure18BreakdownNative regenerates Figure 18 (no-TEE stage
// breakdown).
func BenchmarkFigure18BreakdownNative(b *testing.B) { runExp(b, "fig18") }

// BenchmarkAblationKeyCache measures the key-cache design choice.
func BenchmarkAblationKeyCache(b *testing.B) { runExp(b, "ablation-keycache") }

// BenchmarkAblationExclusiveInterval sweeps FnPacker's exclusivity interval.
func BenchmarkAblationExclusiveInterval(b *testing.B) { runExp(b, "ablation-interval") }
