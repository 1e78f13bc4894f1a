package wire

import (
	"encoding/json"
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
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

// capturedCommentCreate is one Comment create exactly as the
// social_causal benchmark workload put it on the bus (captured from the
// traced run's bus proxy): four attributes and the message's own
// dependency set — the comment's object key, its post's read
// dependency, and the session user.
const capturedCommentCreate = `{"app":"pub","operations":[{"operation":"create","types":["Comment"],"id":"c0006283","attributes":{"body":"store journal commit post comment column session session journal user graph commit causal","post_id":"p1882","post_rev":0,"t":443393333},"object_dep":"3306448446464227100"}],"dependencies":{"16544170160379219688":1,"3306448446464227100":0,"6995100279860788969":32},"published_at":"2026-09-28T14:08:46.281352574Z","generation":0,"seq":9002}`

// The other two shapes the benchmark's stream carries (40 % Post updates,
// 30 % Comment creates, 30 % Comment destroys with the object's last
// attributes riding along for DB-less observers), in the captured one's
// format.
const (
	capturedPostUpdate     = `{"app":"pub","operations":[{"operation":"update","types":["Post"],"id":"p1882","attributes":{"body":"causal graph user post commit journal store session column comment","rev":33,"t":443393400},"object_dep":"6995100279860788969"}],"dependencies":{"16544170160379219688":2,"6995100279860788969":32},"published_at":"2026-09-28T14:08:46.281352574Z","generation":0,"seq":9003}`
	capturedCommentDestroy = `{"app":"pub","operations":[{"operation":"destroy","types":["Comment"],"id":"c0006283","attributes":{"body":"store journal commit post comment column session session journal user graph commit causal","post_id":"p1882","post_rev":0,"t":443393333},"object_dep":"3306448446464227100"}],"dependencies":{"16544170160379219688":3,"3306448446464227100":1},"published_at":"2026-09-28T14:08:46.281352574Z","generation":0,"seq":9004}`
)

// liveStream rotates the three captured shapes into n payloads in which
// everything a live stream never repeats is distinct: ids, object and
// dependency keys, the t stamp, seq. A decode budget measured on one
// payload over and over only ever sees the case where every token was
// seen before. Each payload goes through encoding/json once more, which
// puts its new dependency keys back in the order the encoder writes.
func liveStream(n int) [][]byte {
	shapes := []string{capturedPostUpdate, capturedCommentCreate, capturedCommentDestroy}
	key := func(base uint64, i int) string { return strconv.FormatUint(base+uint64(i)*0x9E3779B97F4A7C15, 10) }
	out := make([][]byte, n)
	for i := range out {
		out[i] = canonical(strings.NewReplacer(
			"c0006283", fmt.Sprintf("c%07d", i),
			"p1882", fmt.Sprintf("p%04d", i),
			"3306448446464227100", key(3306448446464227100, i),
			"6995100279860788969", key(6995100279860788969, i),
			"16544170160379219688", key(16544170160379219688, i),
			"443393", fmt.Sprintf("5%05d", i),
			`"seq":900`, fmt.Sprintf(`"seq":%d`, 1000+i),
		).Replace(shapes[i%len(shapes)]))
	}
	return out
}

// canonical is the payload json.Marshal makes of what encoding/json reads
// in p.
func canonical(p string) []byte {
	mm, err := stdDecode([]byte(p))
	if err != nil {
		panic(err)
	}
	b, err := json.Marshal(mm)
	if err != nil {
		panic(err)
	}
	return b
}

// benchSinks is what a benchmark subscriber compiles: both models, every
// published attribute, persisted (a destroy needs no attributes).
func benchSinks() Resolver {
	return keyResolver(map[string]map[string]*keySink{"pub": {
		"Post":    newKeySink(false, "body", "rev", "t"),
		"Comment": newKeySink(false, "post_id", "body", "post_rev", "t"),
	}})
}

// TestUnmarshalPooledAllocBudget is the decode alloc regression gate, on
// the stream the benchmark carries (liveStream) rather than on one warm
// payload: what is left per message is the copy of each id, token and
// string value, made exactly once, and the box of each value but the
// small integers (9.00 and 4.00 while those had boxes of their own). The
// projected decode — what a subscriber's worker runs — parses the
// dependency tokens in place and skips a persisted model's destroy
// attributes; the full decode is the journal's and the tests'.
func TestUnmarshalPooledAllocBudget(t *testing.T) {
	skipUnderRace(t)
	stream := liveStream(768)
	for _, c := range []struct {
		name    string
		resolve Resolver
		budget  float64
	}{
		{"full", nil, 5.4},
		{"projected", benchSinks(), 3.7},
	} {
		decodeAll := func() {
			for _, payload := range stream {
				m, err := UnmarshalProjected(payload, c.resolve)
				if err != nil {
					t.Fatal(err)
				}
				ReleaseMessage(m)
			}
		}
		decodeAll() // warm the decode pool and the repeated tokens
		if n := testing.AllocsPerRun(3, decodeAll) / float64(len(stream)); n > c.budget {
			t.Errorf("%s decode of the live stream = %.2f allocs/message, want <= %v", c.name, n, c.budget)
		} else {
			t.Logf("%s decode of the live stream = %.2f allocs/message", c.name, n)
		}
	}
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool is lossy under the race detector")
			}
		}
	}
}

// TestMarshalAllocBudget pins the encoder at one allocation per message
// (the returned payload) on the benchmark-shaped message. The race
// detector makes sync.Pool drop a share of its items on purpose, so the
// steady state is only observable without it.
func TestMarshalAllocBudget(t *testing.T) {
	skipUnderRace(t)
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
