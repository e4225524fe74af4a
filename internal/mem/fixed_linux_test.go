package mem

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

const bigWords = 1 << 22 // hydra's simulated memory: 32 MiB

// TestLargeMemoryOutsideGoHeap pins why a large memory is Fixed RAM: it
// adds its headers to the Go heap, not its words, so the collector's goal
// does not grow with every machine's hardware.
func TestLargeMemoryOutsideGoHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMemory(bigWords)
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Fatalf("a %d-word memory grew the Go heap by %d bytes", bigWords, grew)
	}
	m.Write(bigWords-1, 7)
	m.Write(3, -1)
	if m.Read(bigWords-1) != 7 || m.Read(3) != -1 || m.Read(bigWords/2) != 0 {
		t.Fatal("read/write mismatch")
	}
	m.Reset()
	if m.Read(bigWords-1) != 0 || m.Read(3) != 0 {
		t.Fatal("reset left written words behind")
	}
}

// TestFixedUnmappedWhenUnreachable checks that a dropped memory's mapping
// is returned to the OS once the collector finds its owner unreachable.
func TestFixedUnmappedWhenUnreachable(t *testing.T) {
	const n = 8
	base := vmSize(t)
	ms := make([]*Memory, n)
	for i := range ms {
		ms[i] = NewMemory(bigWords)
		ms[i].Write(Addr(i), 1)
	}
	if grew := vmSize(t) - base; grew < n*bigWords*WordBytes {
		t.Fatalf("address space grew by %d bytes for %d memories of %d words", grew, n, bigWords)
	}
	ms = nil
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		left := vmSize(t) - base
		if left < 2*bigWords*WordBytes {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes of address space still mapped after dropping %d memories", left, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// vmSize returns the process's virtual memory size in bytes.
func vmSize(t *testing.T) int64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmSize:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				t.Fatalf("VmSize %q: %v", v, err)
			}
			return kb << 10
		}
	}
	t.Skip("no VmSize in /proc/self/status")
	return 0
}
