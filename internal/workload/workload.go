// Package workload provides the synthetic workload generators behind
// the paper's evaluation: the social-network stress microbenchmark of
// §6.3 (users continuously creating posts and comments, 25%/75%) and
// the Crowdtap production controller mix of Fig 12(a).
package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// SocialOpKind is a social microbenchmark operation.
type SocialOpKind int

// Operation kinds.
const (
	OpPost SocialOpKind = iota
	OpComment
)

// SocialOp is one generated operation: a user creates a post, or
// comments on an existing post (creating the cross-user dependencies the
// paper's microbenchmark stresses).
type SocialOp struct {
	Kind   SocialOpKind
	UserID string
	PostID string // target post for comments; new post id for posts
	ID     string // object id (post or comment id)
}

// SocialGen generates the §6.3 stress workload: a uniform mix of 25%
// posts and 75% comments over a population of users. Safe for
// concurrent use (each worker draws operations from the shared stream).
type SocialGen struct {
	mu       sync.Mutex
	rng      *rand.Rand
	users    int
	posts    []string
	nextPost int
	nextComm int
}

// commentRatio is the fraction of comment operations.
const commentRatio = 0.75

// NewSocialGen builds a generator over the given user population.
func NewSocialGen(seed int64, users int) *SocialGen {
	if users < 1 {
		users = 1
	}
	return &SocialGen{
		rng:   rand.New(rand.NewSource(seed)),
		users: users,
	}
}

// Next draws the next operation. The first operation is always a post
// (comments need a target).
func (g *SocialGen) Next() SocialOp {
	g.mu.Lock()
	defer g.mu.Unlock()
	user := fmt.Sprintf("u%d", g.rng.Intn(g.users))
	if len(g.posts) == 0 || g.rng.Float64() >= commentRatio {
		g.nextPost++
		id := fmt.Sprintf("p%d", g.nextPost)
		g.posts = append(g.posts, id)
		// Bound memory for long runs: keep a sliding window of recent
		// posts as comment targets.
		if len(g.posts) > 4096 {
			g.posts = g.posts[len(g.posts)-2048:]
		}
		return SocialOp{Kind: OpPost, UserID: user, PostID: id, ID: id}
	}
	g.nextComm++
	target := g.posts[g.rng.Intn(len(g.posts))]
	return SocialOp{
		Kind:   OpComment,
		UserID: user,
		PostID: target,
		ID:     fmt.Sprintf("c%d", g.nextComm),
	}
}

// ControllerProfile models one production controller for Fig 12(a):
// how often it is called, how many messages a call publishes on
// average, how many dependencies each message carries, and how long the
// application work (excluding Synapse) takes.
type ControllerProfile struct {
	Name string
	// CallPct is the share of total traffic (0..1).
	CallPct float64
	// MsgsPerCall is the mean number of published messages per call
	// (fractional; sampled per call).
	MsgsPerCall float64
	// DepsPerMsg is the mean number of read dependencies per message.
	DepsPerMsg float64
	// AppTime is the mean application-side controller time, excluding
	// Synapse (scaled down from the paper's production numbers by the
	// harness).
	AppTime time.Duration
}

// CrowdtapMix returns the five most frequent Crowdtap controllers of
// Fig 12(a) plus an aggregate tail standing in for the other 50
// controllers. Call percentages, message counts, and dependency counts
// come straight from the paper's table; application times are the
// paper's controller times minus the reported Synapse time.
func CrowdtapMix() []ControllerProfile {
	return []ControllerProfile{
		{Name: "awards/index", CallPct: 0.170, MsgsPerCall: 0.00, DepsPerMsg: 0.0, AppTime: 56500 * time.Microsecond},
		{Name: "brands/show", CallPct: 0.160, MsgsPerCall: 0.03, DepsPerMsg: 1.0, AppTime: 96800 * time.Microsecond},
		{Name: "actions/index", CallPct: 0.150, MsgsPerCall: 0.67, DepsPerMsg: 17.8, AppTime: 167000 * time.Microsecond},
		{Name: "me/show", CallPct: 0.120, MsgsPerCall: 0.00, DepsPerMsg: 0.0, AppTime: 14700 * time.Microsecond},
		{Name: "actions/update", CallPct: 0.115, MsgsPerCall: 3.46, DepsPerMsg: 1.8, AppTime: 221800 * time.Microsecond},
		{Name: "others (50 ctrls)", CallPct: 0.285, MsgsPerCall: 0.40, DepsPerMsg: 2.0, AppTime: 80000 * time.Microsecond},
	}
}

// OpenSourceMix returns the Fig 12(b) controllers: three controllers in
// each of Crowdtap, Diaspora, and Discourse, with the total controller
// times the figure labels.
func OpenSourceMix() map[string][]ControllerProfile {
	return map[string][]ControllerProfile{
		"crowdtap": {
			{Name: "awards/index", MsgsPerCall: 0.00, DepsPerMsg: 0, AppTime: 56500 * time.Microsecond},
			{Name: "brands/show", MsgsPerCall: 0.03, DepsPerMsg: 1, AppTime: 96800 * time.Microsecond},
			{Name: "actions/index", MsgsPerCall: 0.67, DepsPerMsg: 18, AppTime: 167000 * time.Microsecond},
		},
		"diaspora": {
			{Name: "stream/index", MsgsPerCall: 0.00, DepsPerMsg: 0, AppTime: 106100 * time.Microsecond},
			{Name: "friends/create", MsgsPerCall: 1.00, DepsPerMsg: 2, AppTime: 55000 * time.Microsecond},
			{Name: "posts/create", MsgsPerCall: 1.00, DepsPerMsg: 2, AppTime: 80000 * time.Microsecond},
		},
		"discourse": {
			{Name: "topics/index", MsgsPerCall: 0.00, DepsPerMsg: 0, AppTime: 47000 * time.Microsecond},
			{Name: "topics/create", MsgsPerCall: 1.00, DepsPerMsg: 3, AppTime: 105000 * time.Microsecond},
			{Name: "posts/create", MsgsPerCall: 1.00, DepsPerMsg: 3, AppTime: 90000 * time.Microsecond},
		},
	}
}

// Sampler draws controller invocations from a weighted mix.
type Sampler struct {
	mu   sync.Mutex
	rng  *rand.Rand
	mix  []ControllerProfile
	cumm []float64
}

// NewSampler builds a sampler over the mix (weights are normalized).
func NewSampler(seed int64, mix []ControllerProfile) *Sampler {
	total := 0.0
	for _, c := range mix {
		total += c.CallPct
	}
	s := &Sampler{rng: rand.New(rand.NewSource(seed)), mix: mix}
	acc := 0.0
	for _, c := range mix {
		acc += c.CallPct / total
		s.cumm = append(s.cumm, acc)
	}
	return s
}

// Next draws one controller invocation and the sampled number of
// messages it will publish (the fractional mean is realized as a
// Bernoulli/fixed split so the long-run average matches).
func (s *Sampler) Next() (ControllerProfile, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	x := s.rng.Float64()
	idx := len(s.mix) - 1
	for i, c := range s.cumm {
		if x < c {
			idx = i
			break
		}
	}
	c := s.mix[idx]
	whole := int(c.MsgsPerCall)
	frac := c.MsgsPerCall - float64(whole)
	msgs := whole
	if s.rng.Float64() < frac {
		msgs++
	}
	return c, msgs
}

// SampleDeps realizes a dependency count from the profile's mean: the
// integer part always, plus one with the fractional probability.
func (s *Sampler) SampleDeps(c ControllerProfile) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	whole := int(c.DepsPerMsg)
	frac := c.DepsPerMsg - float64(whole)
	deps := whole
	if s.rng.Float64() < frac {
		deps++
	}
	return deps
}
