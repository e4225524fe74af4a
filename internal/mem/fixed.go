package mem

import (
	"runtime"
	"unsafe"
)

// Fixed RAM outside the Go heap.
//
// The simulated memory and TEST's timestamp slabs are tens of megabytes of
// fixed RAM of which one run touches a few pages. Allocated in the Go heap,
// every table would count in full toward the collector's goal, so the
// garbage a process may pile up between collections, and with it the
// resident set, would grow by a table's size whenever one more machine's
// hardware existed; how many exist depends on how many machines happened
// to run at once. Large tables are therefore mapped from the OS directly
// where the platform allows: the Go heap holds only their headers, and an
// untouched page costs nothing.

// fixedMinBytes is the smallest table mapped outside the heap.
const fixedMinBytes = 1 << 20

// Fixed returns n zeroed elements that live as long as owner. A table of
// at least 1 MiB is mapped outside the Go heap where the platform allows
// and unmapped once owner is unreachable, so owner must hold the slice and
// every access must go through owner and keep it alive (runtime.KeepAlive)
// until the access is done.
func Fixed[E ~int64 | ~uint64, O any](owner *O, n int) []E {
	var e E
	if size := n * int(unsafe.Sizeof(e)); size >= fixedMinBytes {
		if b, err := mapFixed(size); err == nil {
			runtime.AddCleanup(owner, unmapFixed, b)
			return unsafe.Slice((*E)(unsafe.Pointer(unsafe.SliceData(b))), n)
		}
	}
	return make([]E, n)
}
