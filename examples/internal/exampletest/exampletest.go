// Package exampletest runs an example program's run on fresh state and
// checks what it printed.
package exampletest

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// Run calls run and fails t if run returns an error or has not returned
// within a minute, or if some line of want is not a whole line of run's
// output.
func Run(t *testing.T, run func(w io.Writer) error, want ...string) {
	t.Helper()
	out := new(syncBuffer)
	done := make(chan error, 1)
	go func() { done <- run(out) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out)
		}
	case <-time.After(time.Minute):
		t.Fatalf("run has not returned within a minute\noutput:\n%s", out)
	}
	lines := strings.Split(out.String(), "\n")
	for _, line := range want {
		if !slices.Contains(lines, line) {
			t.Errorf("no line %q in the output:\n%s", line, out)
		}
	}
}

// syncBuffer is the output run and its apps' callbacks write at once.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
