package workload

import (
	"sync"
	"testing"
	"time"
)

func drainAll(g *OpenLoopGen) []TimedOp {
	var out []TimedOp
	for {
		op, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, op)
	}
}

// TestOpenLoopDeterministic: same seed and config ⇒ identical op stream
// (fields, indices, send times) and identical fingerprint, drawn
// single-threaded vs from many workers.
func TestOpenLoopDeterministic(t *testing.T) {
	cfg := OpenLoopConfig{Seed: 11, Users: 64, Rate: 5000, Horizon: 2 * time.Second, Shape: ShapeBurst}
	a := drainAll(NewOpenLoopGen(cfg))
	b := drainAll(NewOpenLoopGen(cfg))
	if len(a) == 0 {
		t.Fatal("empty stream")
	}
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}

	// Concurrent draw: the union of ops drawn by 8 workers must be the
	// same stream (per-index identical), and the fingerprint equal.
	g1 := NewOpenLoopGen(cfg)
	seq := drainAll(g1)
	g2 := NewOpenLoopGen(cfg)
	var mu sync.Mutex
	byIndex := make(map[int]TimedOp)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				op, ok := g2.Next()
				if !ok {
					return
				}
				mu.Lock()
				byIndex[op.Index] = op
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(byIndex) != len(seq) {
		t.Fatalf("concurrent draw emitted %d ops, want %d", len(byIndex), len(seq))
	}
	for i, want := range seq {
		if got := byIndex[i]; got != want {
			t.Fatalf("concurrent op %d differs: %+v vs %+v", i, got, want)
		}
	}
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Fatalf("fingerprints differ: %x vs %x", g1.Fingerprint(), g2.Fingerprint())
	}
	if NewOpenLoopGen(OpenLoopConfig{Seed: 12, Users: 64, Rate: 5000, Horizon: 2 * time.Second, Shape: ShapeBurst}).Fingerprint() == g1.Fingerprint() {
		// A different seed with no draws has the empty fingerprint;
		// drain it first for a meaningful comparison.
		t.Log("note: comparing drained fingerprints below")
	}
	g3 := NewOpenLoopGen(OpenLoopConfig{Seed: 12, Users: 64, Rate: 5000, Horizon: 2 * time.Second, Shape: ShapeBurst})
	drainAll(g3)
	if g3.Fingerprint() == g1.Fingerprint() {
		t.Fatal("different seeds produced equal fingerprints")
	}
}

// TestOpenLoopMonotoneSendTimes: intended send times are strictly
// increasing under every shape, including through burst windows, and
// stay within the horizon.
func TestOpenLoopMonotoneSendTimes(t *testing.T) {
	for _, shape := range []RateShape{ShapeFixed, ShapeBurst, ShapeDiurnal} {
		g := NewOpenLoopGen(OpenLoopConfig{Seed: 3, Users: 32, Rate: 8000, Horizon: 3 * time.Second, Shape: shape})
		prev := time.Duration(-1)
		n := 0
		for {
			op, ok := g.Next()
			if !ok {
				break
			}
			if op.SendAt <= prev {
				t.Fatalf("%v: send time not strictly monotone at op %d: %v <= %v", shape, op.Index, op.SendAt, prev)
			}
			if op.SendAt > 3*time.Second {
				t.Fatalf("%v: send time %v beyond horizon", shape, op.SendAt)
			}
			prev = op.SendAt
			n++
		}
		if n < 1000 {
			t.Fatalf("%v: only %d ops generated", shape, n)
		}
	}
}

// TestOpenLoopRateShapes: the realized op count tracks the configured
// mean rate, bursts generate more ops inside burst windows than
// outside (per unit time), and the diurnal ramp modulates density.
func TestOpenLoopRateShapes(t *testing.T) {
	// Fixed: expect ~rate*horizon ops (Poisson; allow 10%).
	g := NewOpenLoopGen(OpenLoopConfig{Seed: 5, Users: 8, Rate: 4000, Horizon: 4 * time.Second, Shape: ShapeFixed})
	n := len(drainAll(g))
	if want := 16000.0; relDiff(float64(n), want) > 0.10 {
		t.Fatalf("fixed: %d ops, want ~%v", n, want)
	}

	// Burst: ops/sec inside burst windows must exceed outside by well
	// over the Poisson noise floor.
	cfg := OpenLoopConfig{Seed: 6, Users: 8, Rate: 2000, Horizon: 6 * time.Second, Shape: ShapeBurst,
		BurstEvery: time.Second, BurstLen: 200 * time.Millisecond, BurstFactor: 5}
	gb := NewOpenLoopGen(cfg)
	var inBurst, outBurst int
	for {
		op, ok := gb.Next()
		if !ok {
			break
		}
		if op.SendAt%cfg.BurstEvery < cfg.BurstLen {
			inBurst++
		} else {
			outBurst++
		}
	}
	// 20% of the time at 5x rate vs 80% at 1x: per-unit-time densities.
	inRate := float64(inBurst) / (0.2 * 6)
	outRate := float64(outBurst) / (0.8 * 6)
	if inRate < 3*outRate {
		t.Fatalf("burst density %.0f/s not >> base density %.0f/s", inRate, outRate)
	}
}

// TestOpenLoopZipfSkew: comment targets are zipf-skewed — the pinned
// hot head collectively dominates, the top post beats deep window
// ranks by a wide margin, and during bursts the hot share rises.
func TestOpenLoopZipfSkew(t *testing.T) {
	cfg := OpenLoopConfig{Seed: 7, Users: 64, Rate: 20000, Horizon: 3 * time.Second, Shape: ShapeBurst,
		HotPosts: 8, ZipfS: 1.2}
	g := NewOpenLoopGen(cfg)
	counts := make(map[string]int)
	var comments, hotHits, burstComments, burstHot int
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		if op.Kind != OpComment {
			continue
		}
		comments++
		counts[op.PostID]++
		hot := op.PostID[0] == 'p' && postNum(op.PostID) <= cfg.HotPosts
		if hot {
			hotHits++
		}
		if op.SendAt%g.cfg.BurstEvery < g.cfg.BurstLen {
			burstComments++
			if hot {
				burstHot++
			}
		}
	}
	if comments < 10000 {
		t.Fatalf("only %d comments", comments)
	}
	hotShare := float64(hotHits) / float64(comments)
	if hotShare < 0.5 {
		t.Fatalf("hot set share %.2f, want >= 0.5 under zipf", hotShare)
	}
	if counts["p1"] < 20*counts["p100"]+1 {
		t.Fatalf("rank-0 target p1 (%d) not dominating p100 (%d)", counts["p1"], counts["p100"])
	}
	burstShare := float64(burstHot) / float64(burstComments)
	if burstShare < hotShare {
		t.Fatalf("burst hot share %.2f not above overall %.2f", burstShare, hotShare)
	}
	// Population sanity: many distinct targets still get traffic.
	if len(counts) < 50 {
		t.Fatalf("only %d distinct targets", len(counts))
	}
}

func postNum(id string) int {
	n := 0
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

// TestOpenLoopSessionChurn: with ActiveSessions on, every op is issued
// by a currently-live session, the active set stays at the configured
// size, sessions expire and are replaced (churn reaches well past the
// initial cohort), and the whole thing — being part of the seeded
// stream — is deterministic.
func TestOpenLoopSessionChurn(t *testing.T) {
	cfg := OpenLoopConfig{
		Seed: 7, Users: 500, Rate: 2000, Horizon: 4 * time.Second,
		ActiveSessions: 16, SessionMean: 100 * time.Millisecond,
	}
	g := NewOpenLoopGen(cfg)
	ops := drainAll(g)
	if len(ops) == 0 {
		t.Fatal("empty stream")
	}

	users := make(map[string]struct{})
	for _, op := range ops {
		users[op.UserID] = struct{}{}
	}
	// ~40 lifetimes over the horizon x 16 slots: far more distinct users
	// than one session cohort could supply.
	if len(users) <= cfg.ActiveSessions {
		t.Fatalf("only %d distinct users issued ops; churn never replaced the initial %d sessions",
			len(users), cfg.ActiveSessions)
	}
	if g.sessionsEnded < 10*cfg.ActiveSessions {
		t.Errorf("%d sessions ended, want >= %d (mean lifetime is 1/40th of the horizon)",
			g.sessionsEnded, 10*cfg.ActiveSessions)
	}
	if got := activeUsers(g); got == 0 || got > cfg.ActiveSessions {
		t.Errorf("%d users with a live session at the end, want in (0, %d]", got, cfg.ActiveSessions)
	}

	// Sessions concentrate ops: with 16 of 500 users live at a time, the
	// busiest user must far exceed the uniform-draw expectation.
	counts := make(map[string]int)
	for _, op := range ops {
		counts[op.UserID]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	uniform := len(ops) / cfg.Users
	if max < 4*uniform {
		t.Errorf("busiest user issued %d ops; uniform expectation is ~%d — sessions are not clustering ops", max, uniform)
	}

	// Deterministic: identical config replays the identical stream.
	b := drainAll(NewOpenLoopGen(cfg))
	if len(b) != len(ops) {
		t.Fatalf("replay length %d != %d", len(b), len(ops))
	}
	for i := range ops {
		if ops[i] != b[i] {
			t.Fatalf("op %d differs on replay: %+v vs %+v", i, ops[i], b[i])
		}
	}
}

// TestOpenLoopSessionChurnDisabled: ActiveSessions=0 keeps the legacy
// uniform user draw — over a long stream essentially the whole
// population issues ops.
func TestOpenLoopSessionChurnDisabled(t *testing.T) {
	cfg := OpenLoopConfig{Seed: 3, Users: 50, Rate: 3000, Horizon: 2 * time.Second}
	g := NewOpenLoopGen(cfg)
	ops := drainAll(g)
	users := make(map[string]struct{})
	for _, op := range ops {
		users[op.UserID] = struct{}{}
	}
	if len(users) < cfg.Users*9/10 {
		t.Errorf("uniform draw covered %d/%d users", len(users), cfg.Users)
	}
	if g.sessionsEnded != 0 || len(g.sessions) != 0 {
		t.Errorf("churn state active while disabled: ended=%d active=%d", g.sessionsEnded, len(g.sessions))
	}
}

// activeUsers counts the distinct users with a live session as of g's
// last drawn op.
func activeUsers(g *OpenLoopGen) int {
	seen := make(map[string]bool)
	for _, s := range g.sessions {
		seen[s.user] = true
	}
	return len(seen)
}
