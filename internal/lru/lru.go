// Package lru is a fixed-capacity, mutex-guarded least-recently-used
// map. It backs the compile caches of the service and the fleet:
// compilations are deterministic, so entries never expire — only
// capacity evicts, oldest-touched first.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps keys to values, holding at most its capacity. It is safe
// for concurrent use.
type Cache[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *item[K, V]
	m   map[K]*list.Element
}

type item[K comparable, V any] struct {
	key K
	val V
}

// New builds a cache holding at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, ll: list.New(), m: map[K]*list.Element{}}
}

// Get returns the value for key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*item[K, V]).val, true
}

// Put stores val under key as the most recently used entry, evicting
// the least recently used one when the cache is full.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*item[K, V]).val = val
		return
	}
	c.m[key] = c.ll.PushFront(&item[K, V]{key: key, val: val})
	if c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*item[K, V]).key)
	}
}

// Len reports the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
