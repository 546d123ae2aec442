package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.U8(7)
	w.U16(513)
	w.U32(70000)
	w.U64(1 << 40)
	w.I64(-12345)
	w.Bool(true)
	w.Bool(false)
	w.Bytes([]byte{1, 2, 3})
	w.String("héron")
	w.U8(9)
	w.U8(9)

	r := NewReader(w.Finish())
	if v := r.U8(); v != 7 {
		t.Fatalf("u8 = %d", v)
	}
	if v := r.U16(); v != 513 {
		t.Fatalf("u16 = %d", v)
	}
	if v := r.U32(); v != 70000 {
		t.Fatalf("u32 = %d", v)
	}
	if v := r.U64(); v != 1<<40 {
		t.Fatalf("u64 = %d", v)
	}
	if v := r.I64(); v != -12345 {
		t.Fatalf("i64 = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools wrong")
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", v)
	}
	if v := r.String(); v != "héron" {
		t.Fatalf("string = %q", v)
	}
	if r.Remaining() != 2 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestTruncation(t *testing.T) {
	w := NewWriter(8)
	w.U32(5)
	r := NewReader(w.Finish())
	_ = r.U64()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v", r.Err())
	}
	// Sticky: later reads keep failing and return zeros.
	if v := r.U8(); v != 0 {
		t.Fatalf("after error, u8 = %d", v)
	}
}

func TestBytesCopyIsolation(t *testing.T) {
	w := NewWriter(16)
	w.Bytes([]byte{1, 2, 3})
	buf := w.Finish()
	r := NewReader(buf)
	got := r.Bytes()
	buf[4] = 99 // mutate underlying storage
	if got[0] != 1 {
		t.Fatal("Bytes result aliases the input buffer")
	}
}

// TestBytesViewAliases: BytesView and Raw hand back the reader's own
// bytes, capped so an append cannot run into what follows, and nil on a
// truncated input.
func TestBytesViewAliases(t *testing.T) {
	w := NewWriter(16)
	w.Bytes([]byte{1, 2, 3})
	w.U8(7)
	w.U8(8)
	buf := w.Finish()
	r := NewReader(buf)
	view, raw := r.BytesView(), r.Raw(2)
	if r.Err() != nil || !bytes.Equal(view, []byte{1, 2, 3}) || !bytes.Equal(raw, []byte{7, 8}) {
		t.Fatalf("view %v raw %v err %v", view, raw, r.Err())
	}
	buf[4], buf[7] = 99, 98
	if view[0] != 99 || raw[0] != 98 {
		t.Fatal("views do not alias the input buffer")
	}
	if cap(view) != 3 || cap(raw) != 2 {
		t.Fatalf("caps %d, %d: a view must end where its bytes do", cap(view), cap(raw))
	}
	if v := NewReader([]byte{9, 0, 0, 0}).BytesView(); v != nil {
		t.Fatalf("truncated view %v, want nil", v)
	}
}

func TestBytesTruncatedLength(t *testing.T) {
	w := NewWriter(8)
	w.U32(1000) // claims 1000 bytes, provides none
	r := NewReader(w.Finish())
	if r.Bytes() != nil {
		t.Fatal("want nil on truncated bytes")
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v", r.Err())
	}
}

// TestPropertyRandomSequences encodes random typed sequences and decodes
// them back, verifying exact round-tripping.
func TestPropertyRandomSequences(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30)
		kinds := make([]int, n)
		u64s := make([]uint64, n)
		blobs := make([][]byte, n)
		w := NewWriter(64)
		for i := 0; i < n; i++ {
			kinds[i] = rng.Intn(3)
			switch kinds[i] {
			case 0:
				u64s[i] = rng.Uint64()
				w.U64(u64s[i])
			case 1:
				blobs[i] = make([]byte, rng.Intn(50))
				rng.Read(blobs[i])
				w.Bytes(blobs[i])
			case 2:
				u64s[i] = uint64(uint32(rng.Uint64()))
				w.U32(uint32(u64s[i]))
			}
		}
		r := NewReader(w.Finish())
		for i := 0; i < n; i++ {
			switch kinds[i] {
			case 0:
				if r.U64() != u64s[i] {
					return false
				}
			case 1:
				if !bytes.Equal(r.Bytes(), blobs[i]) {
					return false
				}
			case 2:
				if uint64(r.U32()) != u64s[i] {
					return false
				}
			}
		}
		return r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
