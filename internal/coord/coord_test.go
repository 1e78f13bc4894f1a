package coord

import (
	"sync"
	"testing"
)

func TestGetIncrement(t *testing.T) {
	c := New()
	if c.Get("gen") != 0 {
		t.Fatal("fresh counter not zero")
	}
	if v := c.Increment("gen"); v != 1 {
		t.Fatalf("Increment = %d", v)
	}
	if v := c.Increment("gen"); v != 2 {
		t.Fatalf("Increment = %d", v)
	}
	if c.Get("gen") != 2 {
		t.Fatalf("Get = %d", c.Get("gen"))
	}
	if c.Get("other") != 0 {
		t.Fatal("counters not independent")
	}
}

func TestConcurrentIncrements(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Increment("gen")
			}
		}()
	}
	wg.Wait()
	if c.Get("gen") != 1600 {
		t.Fatalf("Get = %d, want 1600", c.Get("gen"))
	}
}
