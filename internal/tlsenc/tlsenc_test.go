package tlsenc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderFixedWidths(t *testing.T) {
	b := NewBuilder(32)
	b.AddUint8(0xab)
	b.AddUint16(0x0102)
	b.AddUint24(0x030405)
	b.AddUint64(0x0a0b0c0d0e0f1011)
	got, err := b.Bytes()
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	want := []byte{
		0xab,
		0x01, 0x02,
		0x03, 0x04, 0x05,
		0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x10, 0x11,
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded = %x, want %x", got, want)
	}
}

func TestReaderFixedWidths(t *testing.T) {
	in := []byte{
		0xab,
		0x01, 0x02,
		0x03, 0x04, 0x05,
		0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x10, 0x11,
	}
	r := NewReader(in)
	if v := r.Uint8(); v != 0xab {
		t.Errorf("Uint8 = %#x", v)
	}
	if v := r.Uint16(); v != 0x0102 {
		t.Errorf("Uint16 = %#x", v)
	}
	if v := r.Uint24(); v != 0x030405 {
		t.Errorf("Uint24 = %#x", v)
	}
	if v := r.Uint64(); v != 0x0a0b0c0d0e0f1011 {
		t.Errorf("Uint64 = %#x", v)
	}
	if err := r.ExpectEmpty(); err != nil {
		t.Errorf("ExpectEmpty: %v", err)
	}
}

func TestVectorRoundTrip(t *testing.T) {
	payload := []byte("certificate transparency")
	b := NewBuilder(0)
	b.AddUint16Vector(payload)
	b.AddUint24Vector(payload)
	enc := b.MustBytes()

	r := NewReader(enc)
	for i, got := range [][]byte{r.Uint16Vector(), r.Uint24Vector()} {
		if !bytes.Equal(got, payload) {
			t.Errorf("vector %d = %q, want %q", i, got, payload)
		}
	}
	if err := r.ExpectEmpty(); err != nil {
		t.Errorf("ExpectEmpty: %v", err)
	}
}

func TestEmptyVectors(t *testing.T) {
	b := NewBuilder(0)
	b.AddUint16Vector(nil)
	b.AddUint24Vector(nil)
	enc := b.MustBytes()
	if want := []byte{0, 0, 0, 0, 0}; !bytes.Equal(enc, want) {
		t.Fatalf("encoded = %x, want %x", enc, want)
	}
	r := NewReader(enc)
	if v := r.Uint16Vector(); len(v) != 0 {
		t.Errorf("Uint16Vector = %x", v)
	}
	if v := r.Uint24Vector(); len(v) != 0 {
		t.Errorf("Uint24Vector = %x", v)
	}
	if err := r.ExpectEmpty(); err != nil {
		t.Errorf("ExpectEmpty: %v", err)
	}
}

func TestOversizedUint16Vector(t *testing.T) {
	b := NewBuilder(0)
	b.AddUint16Vector(make([]byte, 1<<16))
	if _, err := b.Bytes(); !errors.Is(err, ErrOversizedVector) {
		t.Fatalf("err = %v, want ErrOversizedVector", err)
	}
}

func TestOversizedUint24(t *testing.T) {
	b := NewBuilder(0)
	b.AddUint24(1 << 24)
	if _, err := b.Bytes(); !errors.Is(err, ErrOversizedVector) {
		t.Fatalf("err = %v, want ErrOversizedVector", err)
	}
}

func TestBuilderErrorSticks(t *testing.T) {
	b := NewBuilder(0)
	b.AddUint16Vector(make([]byte, 1<<16))
	b.AddUint8(1) // after the error; must not clear it
	if _, err := b.Bytes(); err == nil {
		t.Fatal("expected sticky error")
	}
}

func TestReaderShortBuffer(t *testing.T) {
	r := NewReader([]byte{0x01})
	if v := r.Uint24(); v != 0 {
		t.Errorf("Uint24 on short buffer = %d, want 0", v)
	}
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("Err = %v, want ErrShortBuffer", r.Err())
	}
}

func TestReaderErrorSticks(t *testing.T) {
	r := NewReader([]byte{0x00, 0x05, 0x01}) // uint16 vector claims 5 bytes, 1 present
	if v := r.Uint16Vector(); v != nil {
		t.Errorf("Uint16Vector = %x, want nil", v)
	}
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	// Subsequent reads keep failing without panicking.
	_ = r.Uint64()
	if r.Err() == nil {
		t.Fatal("error should stick")
	}
}

func TestTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Uint8()
	if err := r.ExpectEmpty(); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("ExpectEmpty = %v, want ErrTrailingBytes", err)
	}
}

func TestMustBytesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBytes should panic on builder error")
		}
	}()
	b := NewBuilder(0)
	b.AddUint24(1 << 25)
	b.MustBytes()
}

// Property: any sequence of vectors round-trips.
func TestVectorRoundTripProperty(t *testing.T) {
	f := func(b, c []byte) bool {
		bld := NewBuilder(0)
		bld.AddUint16Vector(b)
		bld.AddUint24Vector(c)
		enc, err := bld.Bytes()
		if err != nil {
			return false
		}
		r := NewReader(enc)
		rb, rc := r.Uint16Vector(), r.Uint24Vector()
		return r.ExpectEmpty() == nil && bytes.Equal(rb, b) && bytes.Equal(rc, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: fixed-width integers round-trip.
func TestIntegerRoundTripProperty(t *testing.T) {
	f := func(v8 uint8, v16 uint16, v24 uint32, v64 uint64) bool {
		v24 &= 0xffffff
		b := NewBuilder(0)
		b.AddUint8(v8)
		b.AddUint16(v16)
		b.AddUint24(v24)
		b.AddUint64(v64)
		r := NewReader(b.MustBytes())
		return r.Uint8() == v8 && r.Uint16() == v16 && r.Uint24() == v24 &&
			r.Uint64() == v64 && r.ExpectEmpty() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Reader never reads past the end of arbitrary input.
func TestReaderNeverOverreads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		r := NewReader(buf)
		for r.Err() == nil && r.Remaining() > 0 {
			switch rng.Intn(4) {
			case 0:
				r.Uint8()
			case 1:
				r.Uint16Vector()
			case 2:
				r.Uint24Vector()
			case 3:
				r.Uint24()
			}
		}
	}
}

func TestBytesAfterError(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.Uint64() // fails
	if got := r.Bytes(1); got != nil {
		t.Fatalf("Bytes after error = %x, want nil", got)
	}
}
