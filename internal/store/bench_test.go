package store

import (
	"testing"

	"heron/internal/rdma"
	"heron/internal/sim"
)

func benchStore(b *testing.B) *Store {
	b.Helper()
	s := sim.NewScheduler()
	f := rdma.NewFabric(s, rdma.DefaultConfig())
	st := New(f.AddNode(1), 1<<20)
	if err := st.Register(1, 256); err != nil {
		b.Fatal(err)
	}
	if err := st.Init(1, make([]byte, 200)); err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkStoreSet measures dual-version writes.
func BenchmarkStoreSet(b *testing.B) {
	st := benchStore(b)
	val := make([]byte, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Set(1, val, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGetAt measures versioned reads.
func BenchmarkStoreGetAt(b *testing.B) {
	st := benchStore(b)
	_ = st.Set(1, make([]byte, 200), 5)
	_ = st.Set(1, make([]byte, 200), 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := st.GetAt(1, 7); !ok {
			b.Fatal("missing version")
		}
	}
}
