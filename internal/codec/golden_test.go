package codec

// Golden wire digests: the SHA-256 of the canonical encoding of fixed
// values — the 26 workload programs, two option sets, the synthetic result
// and a checkpoint around the synthetic snapshot — pinned in
// testdata/golden_digests.json. The round-trip and cross-process tests
// compare encodings of one build with themselves; these pin the bytes
// across commits, so fleet cache keys, journaled checkpoints and served
// result bytes cannot move silently. A digest that moves is a wire-format
// change: bump Version with it, then regenerate with
//
//	go test ./internal/codec -run TestGoldenDigests -update-golden

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"jrpm/internal/analyzer"
	"jrpm/internal/core"
	"jrpm/internal/faultinject"
	"jrpm/internal/mem"
	"jrpm/internal/tls"
	"jrpm/internal/tracer"
	"jrpm/internal/vm"
	"jrpm/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.json from the current encoders")

// literalOptions spells every carried options field out, so its digest
// depends on the wire format alone, not on any package's defaults or the
// environment (core.DefaultOptions reads JRPM_TIER).
func literalOptions() core.Options {
	h := tls.HandlerCosts{Startup: 31, Shutdown: 17, EOI: 5, Restart: 9}
	return core.Options{
		NCPU:              4,
		Handlers:          h,
		VM:                vm.Config{ParallelAlloc: true, ElideLocks: true, HeapWords: 1 << 16, ChunkWords: 256},
		MaxCycles:         1 << 40,
		AdaptiveReprofile: true,
		StormLimit:        -3,
		Diagnose:          true,
		Analyzer: &analyzer.Config{
			NCPU: 4, Handlers: h,
			MinItersPerEntry: 1.5, MaxOverflowFreq: 0.25, MinSpeedup: 1.125,
			SyncDepFreq: 0.75, SyncMaxSpanFrac: 0.5, MultilevelRatio: 2,
			ParallelAlloc: true, HoistMaxIters: 8, HoistMinEntries: 3,
			NoResetable: true, NoMultilevel: true,
			ExcludeLoops: map[int64]bool{-2: true, 5: false, 40: true, 7: true},
		},
		TLS:    &tls.Config{NCPU: 4, StoreBufferLines: 64, LoadBufferLines: 128, Handlers: h, ChaosNoWordValid: true},
		Cache:  &mem.CacheConfig{NCPU: 4, L1Lines: 512, L1Assoc: 4, L2Lines: 8192, L2Assoc: 8, LatL1: 1, LatL2: 5, LatMem: 50, LatInter: 3},
		Tracer: &tracer.Config{NumBanks: 8, StoreBufferLines: 64, LoadBufferLines: 128, StartRing: 16, MemWords: 1 << 20},
		Faults: &faultinject.Plan{Seed: -9, RAW: 0.01, Overflow: 0.005, Bus: 0.5, BusDelay: 12, Heap: 0.001, JIT: 1},
		Guard:  &tls.GuardConfig{Window: 64, BadViolationRatio: 0.5, BadOverflowRatio: 0.25, Decertify: 3, Backoff: 128, MaxBackoff: 4096},
	}
}

// goldenEncodings is every pinned encoding, by name.
func goldenEncodings() map[string][]byte {
	out := map[string][]byte{
		"options/full":         EncodeOptions(fullOptions()),
		"options/literal":      EncodeOptions(literalOptions()),
		"result/synthetic":     EncodeResult(syntheticResult()),
		"checkpoint/synthetic": EncodeCheckpoint(syntheticCheckpoint()),
	}
	for _, w := range workloads.All() {
		out["program/"+w.Name] = EncodeProgram(w.Build())
	}
	return out
}

// syntheticCheckpoint wraps syntheticSnapshot with the VM registry and a
// stage and label.
func syntheticCheckpoint() *core.Checkpoint {
	return &core.Checkpoint{
		Name: "synthetic", Stage: core.StageTLS, Label: "rung",
		Machine: syntheticSnapshot(), VM: &vmStateForTest,
	}
}

func goldenDigestsPath() string { return filepath.Join("testdata", "golden_digests.json") }

func TestGoldenDigests(t *testing.T) {
	got := map[string]string{}
	for name, wire := range goldenEncodings() {
		sum := sha256.Sum256(wire)
		got[name] = hex.EncodeToString(sum[:])
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigestsPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), goldenDigestsPath())
		return
	}
	data, err := os.ReadFile(goldenDigestsPath())
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: wire digest %s, golden %s (a wire-format change must bump Version)", name, got[name], want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("golden file has %d digests, encoders produced %d", len(want), len(got))
	}
}

// BenchmarkCodec times the fleet's four codec entry points on one Table 3
// result (FourierTest, default options), with allocations.
func BenchmarkCodec(b *testing.B) {
	w := workloads.ByName("FourierTest")
	bp := w.Build()
	opts := core.DefaultOptions()
	if w.HeapWords > 0 {
		opts.VM.HeapWords = w.HeapWords
	}
	res, err := core.Run(bp, opts)
	if err != nil {
		b.Fatal(err)
	}
	wire := EncodeResult(res)
	b.Run("EncodeResult", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EncodeResult(res)
		}
	})
	b.Run("DecodeResult", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeResult(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EncodeProgram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EncodeProgram(bp)
		}
	})
	b.Run("EncodeOptions", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EncodeOptions(opts)
		}
	})
}
