package frontcache

import "testing"

// blob is a test value of a given estimated size.
type blob int64

func (b blob) Bytes() int64 { return int64(b) }

func TestByteBoundEvictsLeastRecentlyUsed(t *testing.T) {
	c := New(100, 3*(entryOverhead+1000))
	s := c.Scope("")
	k := func(i int) Key { return s.Key([]byte{byte(i)}) }
	for i := 0; i < 3; i++ {
		s.Put(k(i), blob(1000))
	}
	if st := c.Stats(); st.Entries != 3 || st.Bytes != 3*(entryOverhead+1000) {
		t.Fatalf("after three puts: %+v", st)
	}
	s.Get(KindAbsint, k(0)) // k(1) is now the least recently used
	s.Put(k(3), blob(1500))
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 2*entryOverhead+1000+1500 {
		t.Fatalf("after a large put: %+v, want k(0) and k(3) resident", st)
	}
	for i, want := range []bool{true, false, false, true} {
		if _, ok := s.Get(KindAbsint, k(i)); ok != want {
			t.Errorf("entry %d resident = %v, want %v", i, ok, want)
		}
	}
}

func TestOversizedValueIsNotStored(t *testing.T) {
	c := New(100, 4096)
	s := c.Scope("")
	s.Put(s.Key([]byte("small")), blob(100))
	s.Put(s.Key([]byte("huge")), blob(1<<20))
	if st := c.Stats(); st.Entries != 1 || st.Bytes != entryOverhead+100 {
		t.Fatalf("stats %+v, want only the small entry", st)
	}
}

func TestReplaceKeepsByteCount(t *testing.T) {
	c := New(100, 1<<20)
	s := c.Scope("")
	key := s.Key([]byte("k"))
	s.Put(key, blob(10))
	s.Put(key, blob(30))
	if st := c.Stats(); st.Entries != 1 || st.Bytes != entryOverhead+30 {
		t.Fatalf("stats %+v after replacing an entry", st)
	}
}

func TestEntryBound(t *testing.T) {
	c := New(2, 1<<20)
	s := c.Scope("")
	for i := 0; i < 5; i++ {
		s.Put(s.Key([]byte{byte(i)}), blob(1))
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("stats %+v, want 2 entries", st)
	}
}

func TestScopesDoNotShareKeys(t *testing.T) {
	c := New(100, 1<<20)
	a, b := c.Scope("a"), c.Scope("b")
	a.Put(a.Key([]byte("x")), blob(1))
	if _, ok := b.Get(KindAbsint, b.Key([]byte("x"))); ok {
		t.Fatal("scope b saw scope a's entry")
	}
	if _, ok := a.Get(KindAbsint, a.Key([]byte("x"))); !ok {
		t.Fatal("scope a lost its entry")
	}
}
