package store

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

func line(s string) []byte { return []byte(s + "\n") }

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory(0, nil)
	if _, ok := m.Get("a"); ok {
		t.Fatal("empty store reported a hit")
	}
	m.Put("a", line(`{"k":"a"}`))
	got, ok := m.Get("a")
	if !ok || !bytes.Equal(got, line(`{"k":"a"}`)) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if st := m.Stats(); st.MemEntries != 1 || st.MemBytes != int64(len(line(`{"k":"a"}`))) {
		t.Fatalf("MemEntries=%d MemBytes=%d after one put", st.MemEntries, st.MemBytes)
	}
}

func TestMemoryEvictsLeastRecentlyUsed(t *testing.T) {
	rec := obs.New(nil)
	m := NewMemory(2, rec)
	m.Put("a", line("a"))
	m.Put("b", line("b"))
	if _, ok := m.Get("a"); !ok { // refresh a: b is now the eviction victim
		t.Fatal("a missing before eviction")
	}
	m.Put("c", line("c"))
	if _, ok := m.Get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	if _, ok := m.Get("a"); !ok {
		t.Fatal("recently used a was evicted")
	}
	st := m.Stats()
	if st.Evictions != 1 || st.MemEntries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
	if rec.Counter("cache_evictions") != 1 {
		t.Fatalf("cache_evictions counter = %d, want 1", rec.Counter("cache_evictions"))
	}
}

func TestMemoryRePutKeepsOneCopy(t *testing.T) {
	m := NewMemory(0, nil)
	l := line("same")
	m.Put("k", l)
	m.Put("k", l)
	if st := m.Stats(); st.MemEntries != 1 || st.MemBytes != int64(len(l)) {
		t.Fatalf("re-put double-counted: MemEntries=%d MemBytes=%d", st.MemEntries, st.MemBytes)
	}
}
