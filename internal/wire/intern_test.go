package wire

import (
	"encoding/json"
	"runtime/debug"
	"testing"
)

func TestInternString(t *testing.T) {
	// Canonical copy, detached from the input buffer.
	buf := []byte("object/u1")
	s1 := internString(buf)
	buf[0] = 'X'
	if s1 != "object/u1" {
		t.Fatalf("interned string mutated with its source buffer: %q", s1)
	}
	// A second lookup returns the cached copy without allocating.
	if n := testing.AllocsPerRun(100, func() {
		if internString([]byte("object/u1")) != "object/u1" {
			t.Fatal("intern mismatch")
		}
	}); n != 0 {
		t.Errorf("interned hit allocates %v times, want 0", n)
	}
	// Oversized tokens bypass the table but still round-trip.
	big := make([]byte, internMaxLen+1)
	for i := range big {
		big[i] = 'a'
	}
	if got := internString(big); got != string(big) {
		t.Errorf("oversized intern = %q", got)
	}
}

func TestInternBoxesSkipAllocation(t *testing.T) {
	internStringAny([]byte("status-ok")) // warm
	if n := testing.AllocsPerRun(100, func() {
		v := internStringAny([]byte("status-ok"))
		if v.(string) != "status-ok" {
			t.Fatal("boxed intern mismatch")
		}
	}); n != 0 {
		t.Errorf("boxed string hit allocates %v times, want 0", n)
	}
	if _, err := internNumberAny([]byte("42.5")); err != nil { // warm
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		v, err := internNumberAny([]byte("42.5"))
		if err != nil || v.(float64) != 42.5 {
			t.Fatal("boxed number mismatch")
		}
	}); n != 0 {
		t.Errorf("boxed number hit allocates %v times, want 0", n)
	}
	// Collision overwrite: a different token landing in the same slot
	// still decodes correctly (it just evicts).
	if _, err := internNumberAny([]byte("bogus")); err == nil {
		t.Error("invalid number interned without error")
	}
}

// capturedCommentCreate is one Comment create exactly as the
// social_causal benchmark workload put it on the bus (captured from the
// traced run's bus proxy): four attributes and the message's own
// dependency set — the comment's object key, its post's read
// dependency, and the session user.
const capturedCommentCreate = `{"app":"pub","operations":[{"operation":"create","types":["Comment"],"id":"c0006283","attributes":{"body":"store journal commit post comment column session session journal user graph commit causal","post_id":"p1882","post_rev":0,"t":443393333},"object_dep":"3306448446464227100"}],"dependencies":{"16544170160379219688":1,"3306448446464227100":0,"6995100279860788969":32},"published_at":"2026-09-28T14:08:46.281352574Z","generation":0,"seq":9002}`

// TestUnmarshalPooledAllocBudget is the decode alloc regression gate:
// at steady state (warm pool, warm intern tables) decoding a message
// must stay within a small fixed allocation budget — the remaining
// allocations are the per-message `[]any` array backings and their
// interface headers, not per-token string copies. It runs on the
// codec tests' representative message and on the message the benchmark
// actually carries.
func TestUnmarshalPooledAllocBudget(t *testing.T) {
	sample, err := json.Marshal(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"sample":         sample,
		"comment-create": []byte(capturedCommentCreate),
	} {
		// Warm the decode pool and intern tables.
		for i := 0; i < 4; i++ {
			m, err := UnmarshalPooled(payload)
			if err != nil {
				t.Fatal(err)
			}
			ReleaseMessage(m)
		}
		n := testing.AllocsPerRun(50, func() {
			m, err := UnmarshalPooled(payload)
			if err != nil {
				t.Fatal(err)
			}
			ReleaseMessage(m)
		})
		const budget = 12
		if n > budget {
			t.Errorf("%s: UnmarshalPooled = %v allocs/op at steady state, want <= %d", name, n, budget)
		}
	}
}

// TestMarshalAllocBudget pins the encoder at one allocation per message
// (the returned payload) on the benchmark-shaped message. The race
// detector makes sync.Pool drop a share of its items on purpose, so the
// steady state is only observable without it.
func TestMarshalAllocBudget(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool is lossy under the race detector")
			}
		}
	}
	m, err := Unmarshal([]byte(capturedCommentCreate))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Marshal(m); err != nil { // warm the encoder pool
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		if _, err := Marshal(m); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Errorf("Marshal = %v allocs/op, want <= 1", n)
	}
}
