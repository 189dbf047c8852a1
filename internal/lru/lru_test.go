package lru

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestLRUEvictionDeterminism(t *testing.T) {
	// Eviction order is a pure function of the Get/Put sequence.
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3) // evicts a (least recently used)
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived eviction")
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatalf("b: got %v, %v", v, ok)
	}
	if got, want := c.Keys(), []string{"b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("keys after eviction: got %v want %v", got, want)
	}

	// A Get refreshes recency: now c is the eviction victim.
	c.Get("b")
	c.Put("d", 4)
	if _, ok := c.Get("c"); ok {
		t.Fatal("c survived eviction despite b's refresh")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b evicted despite refresh")
	}

	// Replaying the same sequence lands in the same state.
	replay := func() []string {
		r := New[int](2)
		r.Put("a", 1)
		r.Put("b", 2)
		r.Put("c", 3)
		r.Get("b")
		r.Put("d", 4)
		r.Get("c")
		r.Get("b")
		return r.Keys()
	}
	first := replay()
	for i := 0; i < 5; i++ {
		if got := replay(); !reflect.DeepEqual(got, first) {
			t.Fatalf("replay %d diverged: got %v want %v", i, got, first)
		}
	}
}

func TestLRUPutRefreshesExisting(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh, not insert: b stays
	c.Put("c", 3)  // evicts b
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("a: got %v, %v; want 10, true", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if c.Len() != 2 {
		t.Fatalf("len: got %d want 2", c.Len())
	}
}

func TestLRUDisabled(t *testing.T) {
	c := New[int](0)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("zero-capacity cache stored a value")
	}
	if c.Len() != 0 {
		t.Fatalf("len: got %d want 0", c.Len())
	}
}

func TestLRUNilInert(t *testing.T) {
	var c *Cache[int]
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache returned a value")
	}
	if c.Len() != 0 || c.Keys() != nil {
		t.Fatalf("nil cache: len %d, keys %v", c.Len(), c.Keys())
	}
}

func TestLRUConcurrent(t *testing.T) {
	// Smoke for the race detector: concurrent readers and writers.
	c := New[int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%24)
				c.Put(key, i)
				c.Get(key)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("cache over capacity: %d", c.Len())
	}
}
