package solvecache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheBasic(t *testing.T) {
	c := New[int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a value")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCachePeekCountsNothing(t *testing.T) {
	c := New[int](2)
	if _, ok := c.Peek("a"); ok {
		t.Fatal("empty cache peeked a value")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %v, %v", v, ok)
	}
	c.Put("c", 3) // Peek left a least recent: it is evicted, not b
	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek refreshed a's recency")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want no hits or misses from Peek", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")    // a is now most recent
	c.Put("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheOverwrite(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("a", 9)
	if v, _ := c.Get("a"); v != 9 {
		t.Fatalf("overwrite lost: %d", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestCacheDefaultCapacity(t *testing.T) {
	c := New[int](0)
	if st := c.Stats(); st.Capacity != DefaultCapacity {
		t.Fatalf("capacity = %d", st.Capacity)
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	var g Group[int]
	var calls atomic.Int32
	release := make(chan struct{})
	const n = 16

	var wg sync.WaitGroup
	results := make([]int, n)
	sharedCount := atomic.Int32{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, shared := g.Do("key", func() (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = v
		}(i)
	}
	// Release the leader only once every other caller has joined its flight:
	// a caller that has not reached Do yet when fn returns legitimately
	// starts a flight of its own.
	for g.Joined("key") != n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != n-1 {
		t.Fatalf("shared = %d, want %d", got, n-1)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("results[%d] = %d", i, v)
		}
	}
}

func TestSingleflightDistinctKeys(t *testing.T) {
	var g Group[string]
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			v, err, _ := g.Do(key, func() (string, error) { return key, nil })
			if err != nil || v != key {
				t.Errorf("Do(%s) = %q, %v", key, v, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestSingleflightError(t *testing.T) {
	var g Group[int]
	wantErr := errors.New("boom")
	_, err, _ := g.Do("k", func() (int, error) { return 0, wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	// A later call with the same key runs fresh.
	v, err, _ := g.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %d, %v", v, err)
	}
}
