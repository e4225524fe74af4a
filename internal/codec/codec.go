// Package codec is the fleet layer's versioned, deterministic binary wire
// format for the values that cross process boundaries: programs
// (bytecode.Program), run configurations (core.Options), run outcomes
// (core.Result with its metrics payload), machine snapshots and pipeline
// checkpoints.
//
// Every Jrpm simulation is deterministic and bit-identical, which makes
// (program, options) a perfect memoization key — but only if the encoding
// itself is canonical. The format therefore guarantees that the same value
// always encodes to the same bytes:
//
//   - integers are minimal-length varints (non-minimal encodings are
//     rejected on decode, so decode∘encode is the identity on accepted
//     inputs);
//   - fields narrower than 64 bits (int32, uint32, mem.Addr) travel as
//     varints and decode only inside their type's range;
//   - floats are fixed 8-byte little-endian IEEE-754 bit patterns;
//   - maps are emitted in ascending key order, and decoding requires
//     strictly ascending keys;
//   - nil and empty slices/maps encode identically (count 0);
//   - the payload is a sequence of length-prefixed sections behind a
//     4-byte magic, an explicit version byte and a kind byte.
//
// Each wire type is described once, by one walk over a two-way coder
// (coder.go): encoding appends each field in the walk's order, decoding
// reads each field back into the same place, so the two directions cannot
// drift apart. Only the coder's primitives and helpers tell the directions
// apart, plus the two walks with a rule of their own: the ledger's JSON
// blob and the analyzer's exclude-loop set.
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
	"encoding/hex"
	"errors"
	"fmt"
)

// Version is the current wire-format version. Bump it on any change to the
// encoded shape of programs, options or results; decoders reject every
// other version with ErrCodecVersion.
const Version = 3

// magic brands every codec envelope.
var magic = [4]byte{'J', 'R', 'P', 'C'}

// envelopeHeaderSize is magic + version + kind.
const envelopeHeaderSize = 6

// Kind tags the envelope payload type.
type Kind byte

// Envelope kinds.
const (
	KindProgram    Kind = 1
	KindOptions    Kind = 2
	KindResult     Kind = 3
	KindSnapshot   Kind = 4
	KindCheckpoint Kind = 5
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
	// kind, non-minimal varints, out-of-range narrowed fields, impossible
	// counts, trailing bytes.
	ErrCorrupt = errors.New("codec: corrupt input")
)

// encode walks v into a fresh envelope of the given kind.
func encode[T any](kind Kind, v *T, walk func(*coder, *T)) []byte {
	c := &coder{b: make([]byte, 0, 256)}
	c.b = append(c.b, magic[:]...)
	c.b = append(c.b, Version, byte(kind))
	walk(c, v)
	return c.b
}

// decode checks b's envelope header, walks its payload into v and requires
// the walk to consume it exactly.
func decode[T any](b []byte, kind Kind, v *T, walk func(*coder, *T)) error {
	if len(b) < envelopeHeaderSize {
		return fmt.Errorf("%w: envelope header", ErrTruncated)
	}
	if [4]byte(b[:4]) != magic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:4])
	}
	if b[4] != Version {
		return fmt.Errorf("%w: got %d, want %d", ErrCodecVersion, b[4], Version)
	}
	if Kind(b[5]) != kind {
		return fmt.Errorf("%w: kind %s, want %s", ErrCorrupt, Kind(b[5]), kind)
	}
	c := &coder{b: b, off: envelopeHeaderSize, dec: true}
	walk(c, v)
	return c.finish(kind.String())
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
