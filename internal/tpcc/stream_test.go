package tpcc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestWorkloadStreamPinned: the first 10 000 transactions of seeded
// workloads — their encodings and their Partitions() — hash to the values
// the generator has always produced, so a change to how transactions are
// built (not what they contain) cannot move a single rng draw.
func TestWorkloadStreamPinned(t *testing.T) {
	tiny := SmallScale()
	tiny.Items = 16 // every New-Order redraws duplicate items
	cases := []struct {
		name string
		w    *Workload
		want string
	}{
		{"standard-4wh", NewWorkload(7, 4, SmallScale()), "90de48e99a864403aa84cb6242ec35336f3dfb0dcf2fe05807e17ac773196b08"},
		{"tiny-items-4wh", NewWorkload(11, 4, tiny), "87afaffae6f86a13d70c636e33c8277f48cec3b2370b5968fd0fb8e17721cb36"},
		{"fixed-3-of-4wh", func() *Workload { w := NewWorkload(13, 4, tiny); w.FixedPartitions = 3; return w }(), "e57ae73dd01331489edf1a587c33db791923407035777e01bb3099ce2219d680"},
	}
	for _, c := range cases {
		h := sha256.New()
		var n [4]byte
		for i := 0; i < 10_000; i++ {
			txn := c.w.Next()
			b := txn.Encode()
			binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
			h.Write(n[:])
			h.Write(b)
			parts := txn.Partitions()
			h.Write([]byte{byte(len(parts))})
			for _, p := range parts {
				h.Write([]byte{byte(p)})
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: stream hash %s, want %s", c.name, got, c.want)
		}
	}
}

// TestRequestStreamPinned: the request streams the benchmark's TPCC
// closed loops draw — the standard mix and every New-Order spanning all
// four warehouses, each at two seeds — hash to fixed values over their
// first 2 000 encoded transactions. The initial dataset draws from streams
// of its own, so a change to it cannot move these.
func TestRequestStreamPinned(t *testing.T) {
	cases := []struct {
		seed  int64
		fixed int
		want  string
	}{
		{1, 0, "7199c3013187dba9240cea1737e5fca1a03c4e1e8e6ed2ea92a2149393547c33"},
		{2, 0, "b54d0f454ffa6821fb794ac01b9f884e7d3dc155f5c08a68cd4e8ca373fee353"},
		{1, 4, "219c5d34149e4508d88e876fe0070bc82a23e881622511e13200affb6298af40"},
		{2, 4, "7017f11bfb7ff646b7833fbec1fb51243d1b15d8b39e9505f70bd8cc7cecdc31"},
	}
	for _, c := range cases {
		w := NewWorkload(c.seed, 4, SmallScale())
		w.FixedPartitions = c.fixed
		h := sha256.New()
		for i := 0; i < 2_000; i++ {
			h.Write(w.Next().Encode())
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("seed %d, FixedPartitions %d: stream hash %s, want %s", c.seed, c.fixed, got, c.want)
		}
	}
}
