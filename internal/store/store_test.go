package store

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"heron/internal/rdma"
	"heron/internal/sim"
)

func newTestStore(t *testing.T, capacity int) (*Store, *rdma.Fabric, *sim.Scheduler) {
	t.Helper()
	s := sim.NewScheduler()
	f := rdma.NewFabric(s, rdma.DefaultConfig())
	n := f.AddNode(1)
	return New(n, capacity), f, s
}

func TestRegisterInitGet(t *testing.T) {
	st, _, _ := newTestStore(t, 4096)
	if err := st.Register(7, 32); err != nil {
		t.Fatal(err)
	}
	if err := st.Init(7, []byte("initial")); err != nil {
		t.Fatal(err)
	}
	val, tmp, ok := st.Get(7)
	if !ok || tmp != 0 || string(val) != "initial" {
		t.Fatalf("Get = %q, %d, %v", val, tmp, ok)
	}
}

func TestDualVersioning(t *testing.T) {
	st, _, _ := newTestStore(t, 4096)
	if err := st.Register(1, 16); err != nil {
		t.Fatal(err)
	}
	if err := st.Init(1, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := st.Set(1, []byte("v5"), 5); err != nil {
		t.Fatal(err)
	}
	if err := st.Set(1, []byte("v9"), 9); err != nil {
		t.Fatal(err)
	}

	// Newest wins for in-order local reads.
	val, tmp, _ := st.Get(1)
	if string(val) != "v9" || tmp != 9 {
		t.Fatalf("Get = %q@%d", val, tmp)
	}
	// A request between the two versions sees the older one.
	val, tmp, ok := st.GetAt(1, 7)
	if !ok || string(val) != "v5" || tmp != 5 {
		t.Fatalf("GetAt(7) = %q@%d ok=%v", val, tmp, ok)
	}
	// A request newer than both sees the newest.
	val, _, _ = st.GetAt(1, 100)
	if string(val) != "v9" {
		t.Fatalf("GetAt(100) = %q", val)
	}
	// A request older than both versions has no readable value: lagger.
	// v0 was overwritten by v9 (two slots: after writes at 5 and 9 the
	// remaining versions are 5 and 9).
	if _, _, ok := st.GetAt(1, 3); ok {
		t.Fatal("GetAt(3) should fail: both versions are newer")
	}
}

func TestSetOverwritesOlderVersion(t *testing.T) {
	st, _, _ := newTestStore(t, 4096)
	if err := st.Register(1, 16); err != nil {
		t.Fatal(err)
	}
	if err := st.Init(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		if err := st.Set(1, []byte{byte('a' + i)}, i*10); err != nil {
			t.Fatal(err)
		}
		// Exactly the last two versions must be present.
		if _, _, ok := st.GetAt(1, i*10+1); !ok {
			t.Fatalf("newest version missing after set %d", i)
		}
		if i >= 2 {
			val, tmp, ok := st.GetAt(1, i*10)
			if !ok || tmp != (i-1)*10 {
				t.Fatalf("previous version wrong after set %d: %q@%d ok=%v", i, val, tmp, ok)
			}
		}
	}
}

// A request that writes one object twice replaces its own version: the
// version older readers select survives, and the newest is the last write.
func TestSetTwiceBySameRequestKeepsOlderVersion(t *testing.T) {
	st, _, _ := newTestStore(t, 4096)
	if err := st.Register(1, 16); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		val string
		tmp uint64
	}{{"v5", 5}, {"v10", 10}, {"v10b", 10}} {
		if err := st.Set(1, []byte(w.val), w.tmp); err != nil {
			t.Fatal(err)
		}
	}
	if val, tmp, ok := st.GetAt(1, 10); !ok || string(val) != "v5" || tmp != 5 {
		t.Fatalf("GetAt(10) = %q@%d ok=%v, want the ts-5 version", val, tmp, ok)
	}
	if val, tmp, _ := st.Get(1); string(val) != "v10b" || tmp != 10 {
		t.Fatalf("Get = %q@%d, want the second write of request 10", val, tmp)
	}
}

func TestErrors(t *testing.T) {
	st, _, _ := newTestStore(t, SlotSize(16)+8)
	if err := st.Register(1, 16); err != nil {
		t.Fatal(err)
	}
	if err := st.Register(1, 16); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup register err = %v", err)
	}
	if err := st.Register(2, 16); !errors.Is(err, ErrCapacity) {
		t.Fatalf("capacity err = %v", err)
	}
	if err := st.Init(99, nil); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown init err = %v", err)
	}
	if err := st.Set(1, make([]byte, 17), 1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("too large err = %v", err)
	}
	if _, _, ok := st.Get(99); ok {
		t.Fatal("Get of unknown object succeeded")
	}
}

func TestRemoteReadOfSlot(t *testing.T) {
	// End to end: a remote node reads the slot over the fabric and
	// decodes both versions.
	s := sim.NewScheduler()
	f := rdma.NewFabric(s, rdma.DefaultConfig())
	host := f.AddNode(1)
	f.AddNode(2)
	st := New(host, 4096)
	if err := st.Register(42, 24); err != nil {
		t.Fatal(err)
	}
	if err := st.Init(42, []byte("zero")); err != nil {
		t.Fatal(err)
	}
	if err := st.Set(42, []byte("five"), 5); err != nil {
		t.Fatal(err)
	}

	addr, slotLen, ok := st.Addr(42)
	if !ok {
		t.Fatal("Addr failed")
	}
	qp := f.Connect(2, 1)
	s.Spawn("reader", func(p *sim.Proc) {
		raw, err := qp.Read(p, addr, slotLen)
		if err != nil {
			t.Error(err)
			return
		}
		a, b, err := DecodeSlot(raw, 24)
		if err != nil {
			t.Error(err)
			return
		}
		v, chosen := ChooseVersion(a, b, 10)
		if !chosen || string(v.Val) != "five" {
			t.Errorf("ChooseVersion(10) = %q, %v", v.Val, chosen)
		}
		v, chosen = ChooseVersion(a, b, 3)
		if !chosen || string(v.Val) != "zero" {
			t.Errorf("ChooseVersion(3) = %q, %v", v.Val, chosen)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChooseVersionLaggerDetection(t *testing.T) {
	a := Versioned{Val: []byte("x"), Tmp: 50}
	b := Versioned{Val: []byte("y"), Tmp: 60}
	if _, ok := ChooseVersion(a, b, 40); ok {
		t.Fatal("reader at 40 should detect lag (both versions newer)")
	}
	v, ok := ChooseVersion(a, b, 55)
	if !ok || v.Tmp != 50 {
		t.Fatalf("reader at 55 = %+v, %v", v, ok)
	}
	v, ok = ChooseVersion(a, b, 100)
	if !ok || v.Tmp != 60 {
		t.Fatalf("reader at 100 = %+v, %v", v, ok)
	}
}

func TestDecodeSlotBadLength(t *testing.T) {
	if _, _, err := DecodeSlot(make([]byte, 10), 16); err == nil {
		t.Fatal("want error for wrong slot length")
	}
}

// TestReadAllocs: a local read copies the one version it returns, and
// ViewAt and DecodeSlot copy nothing.
func TestReadAllocs(t *testing.T) {
	st, _, _ := newTestStore(t, 4096)
	if err := st.Register(1, 256); err != nil {
		t.Fatal(err)
	}
	if err := st.Set(1, make([]byte, 200), 5); err != nil {
		t.Fatal(err)
	}
	if err := st.Set(1, make([]byte, 100), 9); err != nil {
		t.Fatal(err)
	}
	raw, _ := st.CopySlot(1)
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"GetAt", 1, func() { st.GetAt(1, 7) }},
		{"ViewAt", 0, func() { st.ViewAt(1, 7) }},
		{"Get", 1, func() { st.Get(1) }},
		{"DecodeSlot", 0, func() { DecodeSlot(raw, 256) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got != c.want {
			t.Errorf("%s allocates %v times, want %v", c.name, got, c.want)
		}
	}
}

// TestViewAtAliasesChosenVersion: ViewAt selects the version GetAt copies,
// aliases the region, and caps the view so an append cannot spill into the
// slot's other version.
func TestViewAtAliasesChosenVersion(t *testing.T) {
	st, _, _ := newTestStore(t, 4096)
	if err := st.Register(1, 64); err != nil {
		t.Fatal(err)
	}
	if err := st.Init(1, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := st.Set(1, []byte("v5"), 5); err != nil {
		t.Fatal(err)
	}
	for _, at := range []uint64{1, 5, 6, 100} {
		view, vtmp, vok := st.ViewAt(1, at)
		val, tmp, ok := st.GetAt(1, at)
		if vok != ok || vtmp != tmp || !bytes.Equal(view, val) {
			t.Fatalf("ViewAt(%d) = %q@%d %v, GetAt = %q@%d %v", at, view, vtmp, vok, val, tmp, ok)
		}
		if cap(view) != len(view) {
			t.Fatalf("ViewAt(%d): cap %d > len %d", at, cap(view), len(view))
		}
	}
	// A reader at 5 sees v0; the next Set overwrites that older version,
	// and the view shows it: the view aliases the region.
	view, _, _ := st.ViewAt(1, 5)
	if err := st.Set(1, []byte("v9"), 9); err != nil {
		t.Fatal(err)
	}
	if string(view) != "v9" {
		t.Fatalf("view after Set = %q, want v9: the view does not alias the region", view)
	}
	if _, _, ok := st.ViewAt(2, 100); ok {
		t.Fatal("ViewAt of an unregistered object succeeded")
	}
}

func TestSymmetricLayout(t *testing.T) {
	// Two stores registering the same objects in the same order must
	// produce identical offsets — the property state transfer relies on.
	st1, _, _ := newTestStore(t, 1<<16)
	s2 := sim.NewScheduler()
	f2 := rdma.NewFabric(s2, rdma.DefaultConfig())
	st2 := New(f2.AddNode(9), 1<<16)
	for i := OID(1); i <= 50; i++ {
		size := 8 + int(i%5)*16
		if err := st1.Register(i, size); err != nil {
			t.Fatal(err)
		}
		if err := st2.Register(i, size); err != nil {
			t.Fatal(err)
		}
	}
	for i := OID(1); i <= 50; i++ {
		a1, l1, _ := st1.Addr(i)
		a2, l2, _ := st2.Addr(i)
		if a1.Off != a2.Off || l1 != l2 {
			t.Fatalf("layout diverges at oid %d: %v/%d vs %v/%d", i, a1, l1, a2, l2)
		}
	}
}

func TestCopySlotRoundTrip(t *testing.T) {
	st, _, _ := newTestStore(t, 4096)
	if err := st.Register(5, 16); err != nil {
		t.Fatal(err)
	}
	if err := st.Init(5, []byte("aa")); err != nil {
		t.Fatal(err)
	}
	if err := st.Set(5, []byte("bb"), 3); err != nil {
		t.Fatal(err)
	}
	raw, ok := st.CopySlot(5)
	if !ok {
		t.Fatal("CopySlot failed")
	}
	a, b, err := DecodeSlot(raw, 16)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[uint64]string{a.Tmp: string(a.Val), b.Tmp: string(b.Val)}
	if vals[0] != "aa" || vals[3] != "bb" {
		t.Fatalf("slot contents %v", vals)
	}
}

// TestPropertyDualVersionInvariant: for any monotone write sequence, a
// reader at any timestamp T sees the latest value written before T,
// provided the writer is at most one version ahead of T.
func TestPropertyDualVersionInvariant(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st, _, _ := newTestStore(t, 1<<16)
		if err := st.Register(1, 8); err != nil {
			return false
		}
		if err := st.Init(1, []byte{0}); err != nil {
			return false
		}
		type write struct {
			tmp uint64
			val byte
		}
		writes := []write{{0, 0}}
		tmp := uint64(0)
		for i := 0; i < 30; i++ {
			tmp += 1 + uint64(rng.Intn(10))
			v := byte(rng.Intn(256))
			if err := st.Set(1, []byte{v}, tmp); err != nil {
				return false
			}
			writes = append(writes, write{tmp, v})

			// Any reader at T > second-newest write's tmp must see the
			// correct pre-T value.
			for trial := 0; trial < 5; trial++ {
				readT := writes[len(writes)-1].tmp + 1 - uint64(rng.Intn(3))
				var want *write
				for j := range writes {
					if writes[j].tmp < readT {
						want = &writes[j]
					}
				}
				secondNewest := writes[max(0, len(writes)-2)].tmp
				if want == nil || want.tmp < secondNewest {
					continue // reader too old for dual versioning; skip
				}
				val, gtmp, ok := st.GetAt(1, readT)
				if !ok || gtmp != want.tmp || val[0] != want.val {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateLog(t *testing.T) {
	l := NewUpdateLog()
	l.Append(10, 1)
	l.Append(10, 2)
	l.Append(20, 1)
	l.Append(30, 3)
	l.Append(40, 4)

	got := l.ObjectsBetween(10, 30)
	want := []OID{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ObjectsBetween = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ObjectsBetween = %v, want %v", got, want)
		}
	}
	if got := l.ObjectsBetween(35, 100); len(got) != 1 || got[0] != 4 {
		t.Fatalf("ObjectsBetween(35,100) = %v", got)
	}
	if got := l.ObjectsBetween(50, 60); len(got) != 0 {
		t.Fatalf("empty range = %v", got)
	}

	l.Truncate(20)
	if l.OldestTmp() != 20 {
		t.Fatalf("OldestTmp = %d after truncate", l.OldestTmp())
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d after truncate", l.Len())
	}
}

func TestUpdateLogDedup(t *testing.T) {
	l := NewUpdateLog()
	for i := 0; i < 10; i++ {
		l.Append(uint64(i+1), 7)
	}
	if got := l.ObjectsBetween(1, 10); len(got) != 1 {
		t.Fatalf("dedup failed: %v", got)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
