// Package lru is the fixed-capacity least-recently-used cache behind the
// serving layer's report cache and the warm-start basis cache.
// Eviction is deterministic: the eviction order is a pure function of the
// Get/Put sequence, never of timing, so caches built on it are testable.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps string keys to values of type V, holding at most its
// capacity. Get marks recency; Put inserts or refreshes and evicts the
// least recently used entry once the capacity is exceeded. A capacity
// ≤ 0 stores nothing (every Get misses). All methods are safe for
// concurrent use, and methods on a nil *Cache do nothing.
type Cache[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

// entry is one cached key/value pair.
type entry[V any] struct {
	key string
	val V
}

// New returns an empty cache holding at most capacity entries.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the cached value and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put inserts the value (or refreshes an existing key), evicting the
// least recently used entry when the cache is over capacity.
func (c *Cache[V]) Put(key string, val V) {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
	}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Keys returns the cached keys from most to least recently used — the
// eviction order reversed. Test and introspection helper.
func (c *Cache[V]) Keys() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[V]).key)
	}
	return keys
}
