package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"time"
)

// RateShape selects how the open-loop arrival rate evolves over the
// run.
type RateShape int

// Arrival-rate shapes.
const (
	// ShapeFixed holds the base rate for the whole horizon.
	ShapeFixed RateShape = iota
	// ShapeBurst holds the base rate but multiplies it by BurstFactor
	// during periodic burst windows, during which comments are also
	// biased toward the hot post set (hot-key bursts).
	ShapeBurst
	// ShapeDiurnal modulates the rate sinusoidally around the base
	// (a compressed day/night ramp).
	ShapeDiurnal
)

// String names the shape for reports.
func (s RateShape) String() string {
	switch s {
	case ShapeFixed:
		return "fixed"
	case ShapeBurst:
		return "burst"
	case ShapeDiurnal:
		return "diurnal"
	}
	return fmt.Sprintf("shape(%d)", int(s))
}

// TimedOp is one open-loop operation: the social operation plus the
// intended send time, as an offset from the stream start. Publishers
// must sleep until SendAt before sending, and latency must be measured
// from SendAt — not from the moment the send actually happened — so
// queueing delay behind a saturated pipeline is charged to the
// operation (no coordinated omission).
type TimedOp struct {
	SocialOp
	// Index is the operation's position in the stream (0-based).
	Index int
	// SendAt is the intended send time, relative to stream start.
	SendAt time.Duration
}

// OpenLoopConfig parameterizes an open-loop social stream.
type OpenLoopConfig struct {
	// Seed drives every random choice; two generators with equal
	// configs produce identical op streams.
	Seed int64
	// Users is the user population.
	Users int
	// Rate is the base arrival rate in ops/sec (Poisson arrivals).
	Rate float64
	// Horizon bounds the stream: Next returns ok=false once the next
	// intended send time would pass it.
	Horizon time.Duration
	// Shape selects the rate profile (fixed / burst / diurnal).
	Shape RateShape

	// CommentRatio is the fraction of comment operations (default
	// 0.75, the paper's §6.3 mix).
	CommentRatio float64
	// ZipfS is the zipf skew exponent for comment-target popularity
	// (must be > 1; default 1.2). Rank 0 is the hottest post.
	ZipfS float64
	// HotPosts pins the first HotPosts post ids as the permanently
	// popular head of the zipf ranking (default 16), so the hot keys
	// are stable across the run instead of drifting with the sliding
	// window.
	HotPosts int

	// BurstEvery / BurstLen / BurstFactor shape ShapeBurst: every
	// BurstEvery, the arrival rate becomes Rate*BurstFactor for
	// BurstLen (defaults 2s / 250ms / 4).
	BurstEvery  time.Duration
	BurstLen    time.Duration
	BurstFactor float64
	// HotFraction is the probability, during a burst window, that a
	// comment targets the hot set directly (default 0.8).
	HotFraction float64

	// DiurnalPeriod / DiurnalAmp shape ShapeDiurnal: rate(t) =
	// Rate * (1 + DiurnalAmp * sin(2πt/DiurnalPeriod)) (defaults
	// 8s / 0.5).
	DiurnalPeriod time.Duration
	DiurnalAmp    float64

	// ActiveSessions enables session arrival/churn: instead of every op
	// drawing its user uniformly from the whole population, the
	// generator keeps ~ActiveSessions concurrent user sessions alive;
	// each op is issued by a uniformly chosen ACTIVE session, sessions
	// end after a seeded exponential lifetime, and a fresh arrival
	// (uniform over the Users population) replaces each departure. Ops
	// therefore cluster per user over a session's span and the issuing
	// set churns through the population — the §6.3 user-session shape —
	// while the stream stays fully deterministic per seed. 0 (the
	// default) disables churn: every op draws uniformly from Users.
	ActiveSessions int
	// SessionMean is the mean exponential session lifetime under
	// ActiveSessions (default 2s of stream time).
	SessionMean time.Duration
}

// withDefaults fills the zero fields.
func (c OpenLoopConfig) withDefaults() OpenLoopConfig {
	if c.Users < 1 {
		c.Users = 1
	}
	if c.CommentRatio == 0 {
		c.CommentRatio = 0.75
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.HotPosts <= 0 {
		c.HotPosts = 16
	}
	if c.BurstEvery <= 0 {
		c.BurstEvery = 2 * time.Second
	}
	if c.BurstLen <= 0 {
		c.BurstLen = 250 * time.Millisecond
	}
	if c.BurstFactor <= 0 {
		c.BurstFactor = 4
	}
	if c.HotFraction == 0 {
		c.HotFraction = 0.8
	}
	if c.DiurnalPeriod <= 0 {
		c.DiurnalPeriod = 8 * time.Second
	}
	if c.DiurnalAmp == 0 {
		c.DiurnalAmp = 0.5
	}
	if c.ActiveSessions < 0 {
		c.ActiveSessions = 0
	}
	if c.ActiveSessions > c.Users {
		c.ActiveSessions = c.Users
	}
	if c.SessionMean <= 0 {
		c.SessionMean = 2 * time.Second
	}
	return c
}

// OpenLoopGen generates a seeded open-loop social stream: Poisson
// arrivals whose instantaneous rate follows the configured shape, a
// post/comment mix, and zipf-skewed comment-target popularity with a
// stable hot set. Safe for concurrent draw: many publisher workers can
// call Next; the op sequence (ops, send times, indices) is a single
// deterministic stream independent of which worker draws which op.
//
// All tuning lives in OpenLoopConfig and is fixed at construction —
// there are deliberately no setters to guard.
type OpenLoopGen struct {
	mu  sync.Mutex
	cfg OpenLoopConfig
	rng *rand.Rand

	now      time.Duration // intended send time of the previous op
	index    int
	done     bool
	hot      []string // first HotPosts post ids, pinned popular
	window   []string // recent non-hot posts (sliding)
	nextPost int
	nextComm int
	zipf     *rand.Zipf // over hot ∪ window; rebuilt when sizes change
	zipfN    uint64
	zipfHot  *rand.Zipf // over hot only (burst bias)
	fp       uint64     // running FNV-1a over the emitted stream

	sessions      []session // active user sessions (churn mode)
	sessionsEnded int       // completed session lifetimes
}

// session is one live user session: who is browsing and when their
// seeded exponential lifetime runs out (in stream time).
type session struct {
	user string
	end  time.Duration
}

// NewOpenLoopGen builds the generator. The first operation is always a
// post (comments need a target).
func NewOpenLoopGen(cfg OpenLoopConfig) *OpenLoopGen {
	cfg = cfg.withDefaults()
	g := &OpenLoopGen{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		fp:  fnvOffset,
	}
	return g
}

// rateAt is the instantaneous arrival rate at offset t.
func (g *OpenLoopGen) rateAt(t time.Duration) float64 {
	c := g.cfg
	switch c.Shape {
	case ShapeBurst:
		if g.inBurst(t) {
			return c.Rate * c.BurstFactor
		}
		return c.Rate
	case ShapeDiurnal:
		phase := 2 * math.Pi * float64(t) / float64(c.DiurnalPeriod)
		r := c.Rate * (1 + c.DiurnalAmp*math.Sin(phase))
		if r < c.Rate/100 {
			r = c.Rate / 100
		}
		return r
	default:
		return c.Rate
	}
}

// inBurst reports whether offset t falls inside a burst window.
func (g *OpenLoopGen) inBurst(t time.Duration) bool {
	if g.cfg.Shape != ShapeBurst {
		return false
	}
	return t%g.cfg.BurstEvery < g.cfg.BurstLen
}

// Next draws the next operation. ok=false once the horizon is reached;
// after that the generator is exhausted. Safe for concurrent use.
func (g *OpenLoopGen) Next() (TimedOp, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.done {
		return TimedOp{}, false
	}
	// Exponential inter-arrival at the instantaneous rate (a
	// piecewise-inhomogeneous Poisson process; the rate is sampled at
	// the previous arrival, which is accurate for shapes that vary
	// slowly relative to 1/rate).
	dt := time.Duration(g.rng.ExpFloat64() / g.rateAt(g.now) * float64(time.Second))
	if dt <= 0 {
		dt = time.Nanosecond // keep SendAt strictly monotone
	}
	sendAt := g.now + dt
	if sendAt > g.cfg.Horizon {
		g.done = true
		return TimedOp{}, false
	}
	g.now = sendAt

	op := TimedOp{Index: g.index, SendAt: sendAt}
	g.index++
	op.SocialOp = g.drawSocial(sendAt)
	g.fold(op)
	return op, true
}

// issuingUser picks the user for the op at intended time t: a uniform
// draw over the whole population, or — with session churn on — over the
// currently active sessions. Caller holds g.mu.
func (g *OpenLoopGen) issuingUser(t time.Duration) string {
	if g.cfg.ActiveSessions == 0 {
		return fmt.Sprintf("u%d", g.rng.Intn(g.cfg.Users))
	}
	// Expire dead sessions, then admit arrivals back up to the target.
	// Both loops draw only from g.rng, so the session timeline — who is
	// active at every instant — is part of the deterministic stream.
	live := g.sessions[:0]
	for _, s := range g.sessions {
		if s.end > t {
			live = append(live, s)
		} else {
			g.sessionsEnded++
		}
	}
	g.sessions = live
	for len(g.sessions) < g.cfg.ActiveSessions {
		g.sessions = append(g.sessions, session{
			user: fmt.Sprintf("u%d", g.rng.Intn(g.cfg.Users)),
			end:  t + time.Duration(g.rng.ExpFloat64()*float64(g.cfg.SessionMean)),
		})
	}
	return g.sessions[g.rng.Intn(len(g.sessions))].user
}

// drawSocial picks the social op at intended time t. Caller holds g.mu.
func (g *OpenLoopGen) drawSocial(t time.Duration) SocialOp {
	user := g.issuingUser(t)
	total := len(g.hot) + len(g.window)
	if total == 0 || g.rng.Float64() >= g.cfg.CommentRatio {
		g.nextPost++
		id := fmt.Sprintf("p%d", g.nextPost)
		if len(g.hot) < g.cfg.HotPosts {
			g.hot = append(g.hot, id)
			g.zipfHot = nil // population changed
		} else {
			g.window = append(g.window, id)
			if len(g.window) > 4096 {
				g.window = g.window[len(g.window)-2048:]
			}
		}
		g.zipf = nil
		return SocialOp{Kind: OpPost, UserID: user, PostID: id, ID: id}
	}
	g.nextComm++
	target := g.pickTarget(t)
	return SocialOp{
		Kind:   OpComment,
		UserID: user,
		PostID: target,
		ID:     fmt.Sprintf("c%d", g.nextComm),
	}
}

// pickTarget chooses a comment target: zipf rank over the pinned hot
// set followed by the sliding window, with extra hot bias during burst
// windows. Caller holds g.mu.
func (g *OpenLoopGen) pickTarget(t time.Duration) string {
	if g.inBurst(t) && g.rng.Float64() < g.cfg.HotFraction {
		if g.zipfHot == nil {
			g.zipfHot = rand.NewZipf(g.rng, g.cfg.ZipfS, 1, uint64(len(g.hot)-1))
		}
		return g.hot[g.zipfHot.Uint64()]
	}
	n := uint64(len(g.hot) + len(g.window))
	if g.zipf == nil || g.zipfN != n {
		g.zipf = rand.NewZipf(g.rng, g.cfg.ZipfS, 1, n-1)
		g.zipfN = n
	}
	rank := int(g.zipf.Uint64())
	if rank < len(g.hot) {
		return g.hot[rank]
	}
	// Tail ranks map into the window newest-first, so recency and
	// popularity agree outside the pinned head.
	w := g.window[len(g.window)-1-(rank-len(g.hot))]
	return w
}

// fnv64 constants (FNV-1a).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fold mixes one emitted op into the running stream fingerprint.
func (g *OpenLoopGen) fold(op TimedOp) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s|%s|%s|%d", op.Index, op.Kind, op.UserID, op.PostID, op.ID, op.SendAt.Nanoseconds())
	g.fp ^= h.Sum64()
	g.fp *= fnvPrime
}

// Fingerprint returns a hash over every op emitted so far (fields and
// intended send times). Two same-seed, same-config runs produce equal
// fingerprints however many workers drew from the stream — the bench
// records it in BENCH_tail.json so workload determinism is checkable
// across runs.
func (g *OpenLoopGen) Fingerprint() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fp
}

// Emitted reports how many ops have been drawn so far.
func (g *OpenLoopGen) Emitted() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.index
}
