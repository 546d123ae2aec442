// Package wire provides small append-style binary encoding helpers used by
// the multicast protocol, Heron's coordination messages, and the TPCC row
// codecs. Encoding is little-endian with length-prefixed byte strings; the
// Reader carries a sticky error so call sites can decode a full message
// and check once.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated indicates the buffer ended before the value was complete.
var ErrTruncated = errors.New("wire: truncated buffer")

// Writer builds a binary message by appending.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with capacity hint n.
func NewWriter(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// AppendTo returns a writer, by value, that appends to b; Finish returns b
// with the message appended. A reused buffer with room to spare (a send
// arena) then takes a message without allocating. Escape analysis moves
// b to the heap — the methods store through the Writer's pointer — so a
// stack array gains nothing here.
func AppendTo(b []byte) Writer { return Writer{buf: b} }

// Finish returns the encoded bytes.
func (w *Writer) Finish() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes appends a u32 length prefix followed by b.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a u32 length prefix followed by the string bytes.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader decodes a binary message sequentially. The first decoding error
// sticks; subsequent reads return zero values.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the sticky decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// fail records the sticky error.
func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w reading %s at offset %d", ErrTruncated, what, r.off)
	}
}

func (r *Reader) take(n int, what string) []byte {
	if r.err != nil || r.off+n > len(r.buf) {
		r.fail(what)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2, "u16")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bool reads a one-byte boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Bytes reads a u32 length-prefixed byte string. The result is a copy.
func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	b := r.take(n, "bytes")
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// BytesView reads a u32 length-prefixed byte string without copying: the
// result aliases the reader's buffer and is valid only as long as it is.
func (r *Reader) BytesView() []byte {
	n := int(r.U32())
	b := r.take(n, "bytes")
	return b[:len(b):len(b)]
}

// Raw reads n bytes without copying; the result aliases the reader's
// buffer, like BytesView's.
func (r *Reader) Raw(n int) []byte {
	b := r.take(n, "raw")
	return b[:len(b):len(b)]
}

// String reads a u32 length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U32())
	b := r.take(n, "string")
	return string(b)
}
