package hashidx

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	m := New[int]()
	if _, ok := m.Get(1); ok {
		t.Fatal("empty map found a key")
	}
	m.Store(1, 10)
	m.Store(2, 20)
	if v, ok := m.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = %d, %v", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d", m.Len())
	}
	m.Delete(1)
	if _, ok := m.Get(1); ok {
		t.Fatal("deleted key still present")
	}
}

func TestLoadOrStoreSingleConstruction(t *testing.T) {
	m := New[*int]()
	calls := 0
	mk := func() *int { calls++; v := 7; return &v }
	v1, loaded1 := m.LoadOrStoreWith(5, mk, nil)
	v2, loaded2 := m.LoadOrStoreWith(5, mk, nil)
	if loaded1 || !loaded2 {
		t.Fatalf("loaded flags = %v, %v", loaded1, loaded2)
	}
	if v1 != v2 || calls != 1 {
		t.Fatalf("constructor ran %d times", calls)
	}
}

func TestLoadOrStoreWithCallbackUnderLock(t *testing.T) {
	m := New[*int]()
	pins := 0
	mk := func() *int { v := 1; return &v }
	pin := func(*int) { pins++ }
	m.LoadOrStoreWith(9, mk, pin)
	m.LoadOrStoreWith(9, mk, pin)
	m.GetWith(9, pin)
	if pins != 3 {
		t.Fatalf("pins = %d, want 3", pins)
	}
}

func TestDeleteIf(t *testing.T) {
	m := New[int]()
	m.Store(1, 10)
	if m.DeleteIf(1, func(v int) bool { return v == 99 }) {
		t.Fatal("removed despite failing predicate")
	}
	if m.DeleteIf(2, func(int) bool { return true }) {
		t.Fatal("removed absent key")
	}
	if !m.DeleteIf(1, func(v int) bool { return v == 10 }) {
		t.Fatal("refused matching predicate")
	}
	if m.Len() != 0 {
		t.Fatal("key survived")
	}
}

func TestRange(t *testing.T) {
	m := New[int]()
	for i := 0; i < 100; i++ {
		m.Store(uint64(i), i)
	}
	sum := 0
	m.Range(func(_ uint64, v int) bool {
		sum += v
		return true
	})
	if sum != 4950 {
		t.Fatalf("sum = %d", sum)
	}
	n := 0
	m.Range(func(uint64, int) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestQuickAgainstMap(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint16
		Val  int
	}
	check := func(ops []op) bool {
		m := New[int]()
		ref := map[uint64]int{}
		for _, o := range ops {
			k := uint64(o.Key)
			switch o.Kind % 3 {
			case 0:
				m.Store(k, o.Val)
				ref[k] = o.Val
			case 1:
				m.Delete(k)
				delete(ref, k)
			case 2:
				v, ok := m.Get(k)
				rv, rok := ref[k]
				if ok != rok || (ok && v != rv) {
					return false
				}
			}
		}
		return m.Len() == len(ref)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixed(t *testing.T) {
	m := New[int]()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) << 32
			for i := uint64(0); i < 2000; i++ {
				m.Store(base|i, int(i))
				if v, ok := m.Get(base | i); !ok || v != int(i) {
					t.Errorf("goroutine %d lost its own write", g)
					return
				}
				if i%2 == 0 {
					m.Delete(base | i)
				}
			}
		}(g)
	}
	wg.Wait()
	if m.Len() != 8*1000 {
		t.Fatalf("len = %d, want %d", m.Len(), 8*1000)
	}
}
