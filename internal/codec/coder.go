package codec

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// coder walks one wire format in either direction. Each walk names every
// field once, in wire order, by pointer: encoding appends the field's value
// to b, decoding reads the value at b[off:] back into the field. The
// primitives and generic helpers below tell the two directions apart, so
// each canonical-form rule is written once; besides them only two walks
// do, each for a rule of its own (ledger, analyzerConfig).
//
// Encoding only reads the walked value and cannot fail. Decoding walks into
// a zero value and is strict: the first error sticks, and every primitive
// after it is a no-op, so a walk reads linearly and the caller checks the
// error once at the end.
type coder struct {
	b   []byte // encoding: the output so far; decoding: the input, bounded to the open section's end
	off int    // decoding: the read position in b
	dec bool
	err error
}

func (c *coder) fail(err error, format string, a ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s (at offset %d)", err, fmt.Sprintf(format, a...), c.off)
	}
}

// uvarint reads a minimal-length uvarint. A non-minimal encoding (e.g.
// 0x80 0x00 for zero) ends in a zero byte; it is rejected so that every
// accepted input re-encodes to itself.
func (c *coder) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		if n == 0 {
			c.fail(ErrTruncated, "uvarint")
		} else {
			c.fail(ErrCorrupt, "uvarint overflow")
		}
		return 0
	}
	if n > 1 && c.b[c.off+n-1] == 0 {
		c.fail(ErrCorrupt, "non-minimal uvarint")
		return 0
	}
	c.off += n
	return v
}

// put appends a uvarint. Appending to c.b in place, rather than assigning
// binary.AppendUvarint's result, stores c.b's pointer (and pays a GC write
// barrier) only when the buffer grows.
func (c *coder) put(v uint64) {
	for v >= 0x80 {
		c.b = append(c.b, byte(v)|0x80)
		v >>= 7
	}
	c.b = append(c.b, byte(v))
}

// zigzag maps a signed value to the uvarint binary.AppendVarint writes;
// unzigzag undoes it.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func (c *coder) u64(v *uint64) {
	if c.dec {
		*v = c.uvarint()
		return
	}
	c.put(*v)
}

func (c *coder) i64(v *int64) {
	if c.dec {
		*v = unzigzag(c.uvarint())
		return
	}
	c.put(zigzag(*v))
}

func (c *coder) int(v *int) {
	if c.dec {
		*v = int(unzigzag(c.uvarint()))
		return
	}
	c.put(zigzag(int64(*v)))
}

func (c *coder) f64(v *float64) {
	if !c.dec {
		c.b = append(c.b, 0, 0, 0, 0, 0, 0, 0, 0)
		binary.LittleEndian.PutUint64(c.b[len(c.b)-8:], math.Float64bits(*v))
		return
	}
	if c.err != nil {
		return
	}
	if len(c.b)-c.off < 8 {
		c.fail(ErrTruncated, "float64")
		return
	}
	*v = math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
}

func (c *coder) byte(v *byte) {
	if !c.dec {
		c.b = append(c.b, *v)
		return
	}
	if c.err != nil {
		return
	}
	if c.off >= len(c.b) {
		c.fail(ErrTruncated, "byte")
		return
	}
	*v = c.b[c.off]
	c.off++
}

// bool is one byte, 0 or 1.
func (c *coder) bool(v *bool) {
	b := byte(0)
	if *v {
		b = 1
	}
	c.byte(&b)
	if b > 1 {
		c.fail(ErrCorrupt, "bool byte %d", b)
	}
	if c.dec {
		*v = b == 1
	}
}

// blob is a length-prefixed byte string. Decoding aliases the input.
func (c *coder) blob(v *[]byte) {
	if !c.dec {
		c.put(uint64(len(*v)))
		c.b = append(c.b, *v...)
		return
	}
	n := c.uvarint()
	if c.err != nil {
		return
	}
	if n > uint64(len(c.b)-c.off) {
		c.fail(ErrTruncated, "blob of %d bytes", n)
		return
	}
	*v = c.b[c.off : c.off+int(n)]
	c.off += int(n)
}

func (c *coder) str(v *string) {
	if !c.dec {
		c.put(uint64(len(*v)))
		c.b = append(c.b, *v...)
		return
	}
	var b []byte
	c.blob(&b)
	*v = string(b)
}

// count walks a collection length. Decoding bounds it by the bytes left
// (every element costs at least minBytes on the wire), so a corrupt count
// can never drive a huge allocation.
func (c *coder) count(n *int, minBytes int) {
	if !c.dec {
		c.put(uint64(*n))
		return
	}
	v := c.uvarint()
	if v > uint64((len(c.b)-c.off)/minBytes) {
		c.fail(ErrCorrupt, "count %d exceeds remaining input", v)
		v = 0
	}
	*n = int(v)
}

// i32 walks an int32 as a signed varint; decoding rejects values past the
// int32 range instead of truncating them.
func (c *coder) i32(v *int32) {
	x := int64(*v)
	c.i64(&x)
	if x < math.MinInt32 || x > math.MaxInt32 {
		c.fail(ErrCorrupt, "varint %d exceeds int32", x)
	} else if c.dec {
		*v = int32(x)
	}
}

// u32 walks a uint32 or mem.Addr as a uvarint; decoding rejects values past
// the uint32 range instead of truncating them.
func u32[T ~uint32](c *coder, v *T) {
	x := uint64(*v)
	c.u64(&x)
	if x > math.MaxUint32 {
		c.fail(ErrCorrupt, "uvarint %d exceeds uint32", x)
	} else if c.dec {
		*v = T(x)
	}
}

func (c *coder) i64s(v *[]int64) { list(c, v, 1, (*coder).i64) }

// list walks a counted slice, one walk per element. Decoding allocates it,
// and leaves it nil when empty.
func list[T any](c *coder, s *[]T, minBytes int, walk func(*coder, *T)) {
	n := len(*s)
	c.count(&n, minBytes)
	if c.dec && n > 0 {
		*s = make([]T, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		walk(c, &(*s)[i])
	}
}

// ptr returns the value p points at, allocating it first when decoding.
func ptr[T any](c *coder, p **T) *T {
	if c.dec {
		*p = new(T)
	}
	return *p
}

// optional walks a pointer behind a presence flag.
func optional[T any](c *coder, p **T, walk func(*coder, *T)) {
	present := *p != nil
	c.bool(&present)
	if present {
		walk(c, ptr(c, p))
	}
}

// sortedMap walks a map as a count and its entries in ascending key order;
// decoding requires strictly ascending keys, so a map has one encoding.
// keep, when set, drops entries from the encoding (maps of pointers skip
// nil values). Decoding leaves an empty map nil.
func sortedMap[K cmp.Ordered, V any](c *coder, m *map[K]V, minBytes int, keep func(V) bool, key func(*coder, *K), val func(*coder, *V)) {
	if !c.dec {
		es := make([]mapEntry[K, V], 0, len(*m))
		for k, v := range *m {
			if keep == nil || keep(v) {
				es = append(es, mapEntry[K, V]{k, v})
			}
		}
		slices.SortFunc(es, func(a, b mapEntry[K, V]) int { return cmp.Compare(a.k, b.k) })
		n := len(es)
		c.count(&n, minBytes)
		for i := range es {
			key(c, &es[i].k)
			val(c, &es[i].v)
		}
		return
	}
	var n int
	c.count(&n, minBytes)
	if n == 0 {
		return
	}
	*m = make(map[K]V, n)
	var e mapEntry[K, V] // walked in place: one allocation per map
	var prev K
	for i := 0; i < n && c.err == nil; i++ {
		e = mapEntry[K, V]{}
		key(c, &e.k)
		if i > 0 && e.k <= prev {
			c.fail(ErrCorrupt, "map keys not strictly ascending")
			return
		}
		val(c, &e.v)
		(*m)[e.k] = e.v
		prev = e.k
	}
}

// mapEntry is one map entry as sortedMap walks it.
type mapEntry[K, V any] struct {
	k K
	v V
}

// nonNil is sortedMap's keep filter for maps of pointers.
func nonNil[T any](p *T) bool { return p != nil }

// open starts a length-prefixed section and close ends it. Encoding walks
// the section straight into b, then slides it up past its length prefix.
// Decoding bounds b to the section's end, and close requires the section
// consumed exactly before restoring b. The mark open returns is the
// section's start (encoding) or b's length outside it (decoding).
func (c *coder) open() int {
	if !c.dec {
		return len(c.b)
	}
	outer := len(c.b)
	n := c.uvarint()
	if n > uint64(outer-c.off) {
		c.fail(ErrTruncated, "section of %d bytes", n)
	} else if c.err == nil {
		c.b = c.b[:c.off+int(n)]
	}
	return outer
}

func (c *coder) close(mark int, what string) {
	if !c.dec {
		n := len(c.b) - mark
		k := uvarintLen(uint64(n))
		c.b = append(c.b, make([]byte, k)...)
		copy(c.b[mark+k:], c.b[mark:mark+n])
		binary.PutUvarint(c.b[mark:], uint64(n))
		return
	}
	c.finish(what)
	c.b = c.b[:mark]
}

// finish rejects trailing garbage: a canonical value consumes its input
// exactly.
func (c *coder) finish(what string) error {
	if c.err == nil && c.off != len(c.b) {
		c.fail(ErrCorrupt, "%d trailing bytes after %s", len(c.b)-c.off, what)
	}
	return c.err
}

// uvarintLen is the minimal encoded length of v.
func uvarintLen(v uint64) int {
	if v == 0 {
		return 1
	}
	return (bits.Len64(v) + 6) / 7
}
