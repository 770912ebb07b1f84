package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheEviction(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.Put("c", 3) // evicts b (a was just touched)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a = %d, %t after eviction, want 1, true", v, ok)
	}
	c.Put("a", 4) // an update replaces the value without growing the cache
	if v, _ := c.Get("a"); v != 4 {
		t.Errorf("a = %d after update, want 4", v)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

// TestCacheConcurrentHammer runs gets and puts over overlapping keys
// from many goroutines: under -race it checks the locking, and the
// capacity must hold throughout.
func TestCacheConcurrentHammer(t *testing.T) {
	const capacity, goroutines, ops = 8, 8, 2000
	c := New[string, int](capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%(3*capacity))
				if v, ok := c.Get(key); ok && v < 0 {
					t.Errorf("%s holds %d, want a stored value", key, v)
				}
				c.Put(key, i)
				if n := c.Len(); n > capacity {
					t.Errorf("len %d exceeds capacity %d", n, capacity)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n != capacity {
		t.Errorf("len = %d after the hammer, want %d", n, capacity)
	}
}
