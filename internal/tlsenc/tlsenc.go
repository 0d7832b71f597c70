// Package tlsenc implements the small subset of the TLS presentation
// language (RFC 5246, Section 4) needed by Certificate Transparency
// structures (RFC 6962): fixed-width big-endian integers, including the
// 24-bit uint24 used for Merkle tree leaf payloads, and opaque vectors
// with 8-, 16-, and 24-bit length prefixes.
//
// The encoder is an append-style builder; the decoder is a cursor over a
// byte slice. Both are allocation-conscious so they can be used on the
// hot path of log entry serialization.
package tlsenc

import (
	"errors"
	"fmt"
)

// Encoding errors returned by Reader methods.
var (
	// ErrShortBuffer is returned when fewer bytes remain than a read requires.
	ErrShortBuffer = errors.New("tlsenc: short buffer")
	// ErrOversizedVector is returned when a vector's contents exceed the
	// maximum encodable length for its length prefix.
	ErrOversizedVector = errors.New("tlsenc: vector exceeds maximum length")
	// ErrTrailingBytes is returned by ExpectEmpty when unread bytes remain.
	ErrTrailingBytes = errors.New("tlsenc: trailing bytes after structure")
)

// Builder accumulates a TLS-encoded structure. The zero value is ready to
// use. Builder methods never fail; length overflows surface from Bytes.
type Builder struct {
	buf []byte
	err error
}

// NewBuilder returns a Builder with capacity preallocated to n bytes.
func NewBuilder(n int) *Builder {
	return &Builder{buf: make([]byte, 0, n)}
}

// Bytes returns the encoded structure, or an error if any vector written
// along the way exceeded its length prefix.
func (b *Builder) Bytes() ([]byte, error) {
	if b.err != nil {
		return nil, b.err
	}
	return b.buf, nil
}

// MustBytes returns the encoded structure and panics on error. It is
// intended for structures whose sizes are statically known to fit.
func (b *Builder) MustBytes() []byte {
	out, err := b.Bytes()
	if err != nil {
		panic(err)
	}
	return out
}

// AddUint8 appends a single byte.
func (b *Builder) AddUint8(v uint8) { b.buf = append(b.buf, v) }

// AddUint16 appends a big-endian 16-bit integer.
func (b *Builder) AddUint16(v uint16) {
	b.buf = append(b.buf, byte(v>>8), byte(v))
}

// AddUint24 appends a big-endian 24-bit integer. Values above 2^24-1
// poison the builder.
func (b *Builder) AddUint24(v uint32) {
	if v >= 1<<24 {
		b.setErr(fmt.Errorf("%w: uint24 value %d", ErrOversizedVector, v))
		return
	}
	b.buf = append(b.buf, byte(v>>16), byte(v>>8), byte(v))
}

// AddUint64 appends a big-endian 64-bit integer.
func (b *Builder) AddUint64(v uint64) {
	b.buf = append(b.buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AddBytes appends raw bytes with no length prefix.
func (b *Builder) AddBytes(p []byte) { b.buf = append(b.buf, p...) }

// AddUint16Vector appends an opaque<0..2^16-1> vector.
func (b *Builder) AddUint16Vector(p []byte) {
	if len(p) > 0xffff {
		b.setErr(fmt.Errorf("%w: %d bytes in uint16 vector", ErrOversizedVector, len(p)))
		return
	}
	b.AddUint16(uint16(len(p)))
	b.AddBytes(p)
}

// AddUint24Vector appends an opaque<0..2^24-1> vector.
func (b *Builder) AddUint24Vector(p []byte) {
	if len(p) > 0xffffff {
		b.setErr(fmt.Errorf("%w: %d bytes in uint24 vector", ErrOversizedVector, len(p)))
		return
	}
	b.AddUint24(uint32(len(p)))
	b.AddBytes(p)
}

func (b *Builder) setErr(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Reader is a cursor over a TLS-encoded byte slice. Methods read from the
// front and advance; the first error sticks and all subsequent reads fail
// with it, so callers may check the error once at the end of a structure.
type Reader struct {
	rest []byte
	err  error
}

// NewReader returns a Reader over p. The Reader does not copy p.
func NewReader(p []byte) *Reader { return &Reader{rest: p} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.rest) }

// ExpectEmpty returns an error unless the reader has consumed every byte
// and encountered no prior error.
func (r *Reader) ExpectEmpty() error {
	if r.err != nil {
		return r.err
	}
	if len(r.rest) != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailingBytes, len(r.rest))
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.rest) < n {
		r.err = fmt.Errorf("%w: need %d bytes, have %d", ErrShortBuffer, n, len(r.rest))
		return nil
	}
	out := r.rest[:n:n]
	r.rest = r.rest[n:]
	return out
}

// Uint8 reads one byte.
func (r *Reader) Uint8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Uint16 reads a big-endian 16-bit integer.
func (r *Reader) Uint16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return uint16(p[0])<<8 | uint16(p[1])
}

// Uint24 reads a big-endian 24-bit integer into a uint32.
func (r *Reader) Uint24() uint32 {
	p := r.take(3)
	if p == nil {
		return 0
	}
	return uint32(p[0])<<16 | uint32(p[1])<<8 | uint32(p[2])
}

// Uint64 reads a big-endian 64-bit integer.
func (r *Reader) Uint64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return uint64(p[0])<<56 | uint64(p[1])<<48 | uint64(p[2])<<40 | uint64(p[3])<<32 |
		uint64(p[4])<<24 | uint64(p[5])<<16 | uint64(p[6])<<8 | uint64(p[7])
}

// Bytes reads n raw bytes.
func (r *Reader) Bytes(n int) []byte { return r.take(n) }

// Uint16Vector reads an opaque<0..2^16-1> vector.
func (r *Reader) Uint16Vector() []byte { return r.take(int(r.Uint16())) }

// Uint24Vector reads an opaque<0..2^24-1> vector.
func (r *Reader) Uint24Vector() []byte { return r.take(int(r.Uint24())) }
