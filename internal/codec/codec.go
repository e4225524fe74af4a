// Package codec is the fleet layer's versioned, deterministic binary wire
// format for the three values that cross process boundaries: programs
// (bytecode.Program), run configurations (core.Options) and run outcomes
// (core.Result with its metrics payload).
//
// Every Jrpm simulation is deterministic and bit-identical, which makes
// (program, options) a perfect memoization key — but only if the encoding
// itself is canonical. The format therefore guarantees that the same value
// always encodes to the same bytes:
//
//   - integers are minimal-length varints (non-minimal encodings are
//     rejected on decode, so decode∘encode is the identity on accepted
//     inputs);
//   - floats are fixed 8-byte little-endian IEEE-754 bit patterns;
//   - maps are emitted in ascending key order;
//   - nil and empty slices/maps encode identically (count 0);
//   - the payload is a sequence of length-prefixed sections behind a
//     4-byte magic, an explicit version byte and a kind byte.
//
// Decoding never panics: corrupted, truncated or oversized inputs return
// errors wrapping the typed sentinels below (ErrCodecVersion for version
// skew, ErrTruncated for short input, ErrCorrupt for everything else).
//
// The content-addressed ProgramHash (SHA-256 over the canonical program
// encoding) and the options digest combine into the fleet cache key; see
// CacheKey.
package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Version is the current wire-format version. Bump it on any change to the
// encoded shape of programs, options or results; decoders reject every
// other version with ErrCodecVersion.
const Version = 3

// magic brands every codec envelope.
var magic = [4]byte{'J', 'R', 'P', 'C'}

// Kind tags the envelope payload type.
type Kind byte

// Envelope kinds.
const (
	KindProgram Kind = 1
	KindOptions Kind = 2
	KindResult  Kind = 3
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindProgram:
		return "program"
	case KindOptions:
		return "options"
	case KindResult:
		return "result"
	case KindSnapshot:
		return "snapshot"
	case KindCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// Typed decode errors. Every decoder failure wraps exactly one of these,
// so callers classify with errors.Is.
var (
	// ErrCodecVersion rejects an envelope whose version byte is not
	// Version — the peer speaks a different wire format.
	ErrCodecVersion = errors.New("codec: unsupported wire version")
	// ErrTruncated reports input that ends before the value does.
	ErrTruncated = errors.New("codec: truncated input")
	// ErrCorrupt reports structurally invalid input: bad magic, wrong
	// kind, non-minimal varints, impossible counts, trailing bytes.
	ErrCorrupt = errors.New("codec: corrupt input")
)

// enc is the canonical encoder: an append-only byte builder.
type enc struct {
	b []byte
}

func (e *enc) u64(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i64(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) int(v int)     { e.i64(int64(v)) }
func (e *enc) byte(v byte)   { e.b = append(e.b, v) }
func (e *enc) raw(p []byte)  { e.b = append(e.b, p...) }
func (e *enc) f64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }

func (e *enc) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) i64s(vs []int64) {
	e.u64(uint64(len(vs)))
	for _, v := range vs {
		e.i64(v)
	}
}

// section appends a length-prefixed sub-payload.
func (e *enc) section(payload []byte) {
	e.u64(uint64(len(payload)))
	e.raw(payload)
}

// envelope wraps a payload-building function in magic/version/kind.
func envelope(kind Kind, build func(*enc)) []byte {
	e := &enc{b: make([]byte, 0, 256)}
	e.raw(magic[:])
	e.byte(Version)
	e.byte(byte(kind))
	build(e)
	return e.b
}

// dec is the strict canonical decoder. The first error sticks; every
// accessor after a failure returns the zero value, so decode functions can
// read linearly and check err once per structural boundary.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(err error, format string, a ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s (at offset %d)", err, fmt.Sprintf(format, a...), d.off)
	}
}

func (d *dec) remaining() int { return len(d.b) - d.off }

// u64 reads a minimal-length uvarint. Non-minimal encodings (e.g. 0x80 0x00
// for zero) are rejected so that every accepted input re-encodes to itself.
func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrTruncated, "uvarint")
		} else {
			d.fail(ErrCorrupt, "uvarint overflow")
		}
		return 0
	}
	if n != uvarintLen(v) {
		d.fail(ErrCorrupt, "non-minimal uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) i64() int64 {
	u := d.u64()
	return int64(u>>1) ^ -int64(u&1) // zigzag, matching binary.AppendVarint
}

func (d *dec) int() int { return int(d.i64()) }

func (d *dec) byteVal() byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail(ErrTruncated, "byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) bool() bool {
	v := d.byteVal()
	if v > 1 {
		d.fail(ErrCorrupt, "bool byte %d", v)
		return false
	}
	return v == 1
}

func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail(ErrTruncated, "float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

func (d *dec) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.remaining()) {
		d.fail(ErrTruncated, "string of %d bytes", n)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// count reads a collection length and bounds it by the bytes remaining
// (every element costs at least minBytes on the wire), so corrupted counts
// can never drive huge allocations.
func (d *dec) count(minBytes int) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(d.remaining()/minBytes) {
		d.fail(ErrCorrupt, "count %d exceeds remaining input", n)
		return 0
	}
	return int(n)
}

func (d *dec) i64s() []int64 {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = d.i64()
	}
	return vs
}

// section reads a length-prefixed sub-payload and returns a decoder over
// it; the parent decoder skips past it.
func (d *dec) section() *dec {
	n := d.u64()
	if d.err != nil {
		return &dec{err: d.err}
	}
	if n > uint64(d.remaining()) {
		d.fail(ErrTruncated, "section of %d bytes", n)
		return &dec{err: d.err}
	}
	s := &dec{b: d.b[d.off : d.off+int(n)]}
	d.off += int(n)
	return s
}

// finish rejects trailing garbage: a canonical value consumes its input
// exactly.
func (d *dec) finish(what string) error {
	if d.err != nil {
		return d.err
	}
	if d.remaining() != 0 {
		d.fail(ErrCorrupt, "%d trailing bytes after %s", d.remaining(), what)
	}
	return d.err
}

// openEnvelope validates magic, version and kind, returning a decoder
// positioned at the payload.
func openEnvelope(b []byte, want Kind) (*dec, error) {
	if len(b) < len(magic)+2 {
		return nil, fmt.Errorf("%w: envelope header", ErrTruncated)
	}
	if [4]byte(b[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:4])
	}
	if b[4] != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrCodecVersion, b[4], Version)
	}
	if Kind(b[5]) != want {
		return nil, fmt.Errorf("%w: kind %s, want %s", ErrCorrupt, Kind(b[5]), want)
	}
	return &dec{b: b, off: len(magic) + 2}, nil
}

// uvarintLen is the minimal encoded length of v.
func uvarintLen(v uint64) int {
	if v == 0 {
		return 1
	}
	return (bits.Len64(v) + 6) / 7
}

// Hash is a content address: SHA-256 over a canonical encoding.
type Hash [sha256.Size]byte

// String renders the hash as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Short renders the leading 12 hex digits — enough to be unique in any
// realistic fleet, short enough for logs and metrics labels.
func (h Hash) Short() string { return hex.EncodeToString(h[:6]) }

// CacheKey combines a program hash with the canonical options encoding into
// the fleet cache/coalescing key. Two submissions collide exactly when the
// simulation they request is bit-identical.
func CacheKey(program Hash, optionsWire []byte) string {
	o := sha256.Sum256(optionsWire)
	return program.String() + ":" + hex.EncodeToString(o[:])
}
