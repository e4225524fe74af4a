package codec

import (
	"bytes"
	"testing"

	"jrpm/internal/core"
	"jrpm/internal/progen"
)

// FuzzCodec drives the two properties the wire format promises:
//
//  1. Round-trip: for progen-derived programs (and the options/results the
//     seed selects), decode(encode(x)) re-encodes byte-identically, and a
//     version-skewed copy is rejected with ErrCodecVersion.
//  2. Robustness: arbitrary bytes fed to every decoder either fail with a
//     typed sentinel (never a panic) or decode to a value whose canonical
//     re-encoding is the input itself — the codec accepts nothing it would
//     not have produced.
func FuzzCodec(f *testing.F) {
	junk := [][]byte{
		nil,
		[]byte("JRPC"),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		append([]byte("JRPC\x01\x01"), 0x80), // dangling varint
	}
	for _, j := range junk {
		f.Add(int64(1), j)
	}
	f.Add(int64(2), EncodeOptions(fullOptions()))
	f.Add(int64(3), EncodeResult(syntheticResult()))
	f.Add(int64(4), EncodeSnapshot(syntheticSnapshot()))
	f.Add(int64(5), EncodeCheckpoint(&core.Checkpoint{
		Name: "fuzz", Stage: core.StageSeq, Machine: syntheticSnapshot(), VM: &vmStateForTest,
	}))
	for seed := int64(1); seed <= 4; seed++ {
		_, bp, err := progen.Lower(progen.Generate(seed, progen.QuickConfig()))
		if err == nil {
			f.Add(seed, EncodeProgram(bp))
		}
	}
	for _, in := range outOfRangeWires(f) {
		f.Add(int64(6), in.wire)
	}

	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		// Property 1: seed-derived round-trips.
		if _, bp, err := progen.Lower(progen.Generate(seed, progen.QuickConfig())); err == nil {
			wire := EncodeProgram(bp)
			got, derr := DecodeProgram(wire)
			if derr != nil {
				t.Fatalf("seed %d: decode of fresh encoding failed: %v", seed, derr)
			}
			if !bytes.Equal(wire, EncodeProgram(got)) {
				t.Fatalf("seed %d: program decode∘encode is not the identity", seed)
			}
			skew := append([]byte(nil), wire...)
			skew[4] ^= 0x7f
			if _, serr := DecodeProgram(skew); !typedCodecError(serr) {
				t.Fatalf("seed %d: version skew: got %v", seed, serr)
			}
		}
		opts := optionsFromSeed(seed)
		owire := EncodeOptions(opts)
		if got, derr := DecodeOptions(owire); derr != nil {
			t.Fatalf("seed %d: options decode failed: %v", seed, derr)
		} else if !bytes.Equal(owire, EncodeOptions(got)) {
			t.Fatalf("seed %d: options decode∘encode is not the identity", seed)
		}

		// Property 2: arbitrary bytes never panic, and anything accepted is
		// canonical.
		if got, err := DecodeProgram(data); err == nil {
			if !bytes.Equal(EncodeProgram(got), data) {
				t.Fatalf("program decoder accepted a non-canonical encoding")
			}
		} else if !typedCodecError(err) {
			t.Fatalf("program decoder returned untyped error %v", err)
		}
		if got, err := DecodeOptions(data); err == nil {
			if !bytes.Equal(EncodeOptions(got), data) {
				t.Fatalf("options decoder accepted a non-canonical encoding")
			}
		} else if !typedCodecError(err) {
			t.Fatalf("options decoder returned untyped error %v", err)
		}
		if got, err := DecodeResult(data); err == nil {
			if !bytes.Equal(EncodeResult(got), data) {
				t.Fatalf("result decoder accepted a non-canonical encoding")
			}
		} else if !typedCodecError(err) {
			t.Fatalf("result decoder returned untyped error %v", err)
		}
		if got, err := DecodeSnapshot(data); err == nil {
			if !bytes.Equal(EncodeSnapshot(got), data) {
				t.Fatalf("snapshot decoder accepted a non-canonical encoding")
			}
		} else if !typedCodecError(err) {
			t.Fatalf("snapshot decoder returned untyped error %v", err)
		}
		if got, err := DecodeCheckpoint(data); err == nil {
			if !bytes.Equal(EncodeCheckpoint(got), data) {
				t.Fatalf("checkpoint decoder accepted a non-canonical encoding")
			}
		} else if !typedCodecError(err) {
			t.Fatalf("checkpoint decoder returned untyped error %v", err)
		}
	})
}

// optionsFromSeed varies the optional sub-configurations with the seed bits
// so the fuzzer walks the presence-flag lattice.
func optionsFromSeed(seed int64) core.Options {
	o := fullOptions()
	if seed&1 == 0 {
		o.Analyzer = nil
	}
	if seed&2 == 0 {
		o.TLS = nil
	}
	if seed&4 == 0 {
		o.Cache = nil
	}
	if seed&8 == 0 {
		o.Tracer = nil
	}
	if seed&16 == 0 {
		o.Faults = nil
	}
	if seed&32 == 0 {
		o.Guard = nil
	}
	o.MaxCycles = seed
	return o
}
