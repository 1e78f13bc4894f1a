package main

import (
	"fmt"
	"math/rand"

	"synapse"
)

const (
	numUsers = 256
	// hotPosts is the zipf-skewed update target set of weak_hot.
	hotPosts = 64
)

// population is the size of the preload. The op mix keeps it stationary,
// so every in-memory engine stays the size it had after set-up and GC
// cost does not drift over a run (a create-only stream grows every
// engine). Runs use fullPopulation; tests shrink it to stay fast.
type population struct {
	posts, comments int
}

var fullPopulation = population{posts: 2048, comments: 6000}

// band is how far the live-comment count may wander from its preload
// size before the generator pulls it back: 1 % of the comments, under
// 1 % of the whole population.
func (p population) band() float64 { return max(float64(p.comments)/100, 4) }

type opKind uint8

const (
	opCreatePost opKind = iota
	opUpdatePost
	opCreateComment
	opDestroyComment
)

// op is one generated write. Everything the program sees of the
// workload is in these fields; post_rev and the send stamp are filled at
// dispatch time and are not part of the stream's identity.
type op struct {
	kind    opKind
	user    uint16 // session index
	body    uint16 // index into the generator's body table
	post    uint32 // post index (update target, or the comment's post)
	comment uint32 // comment sequence number (create / destroy)
	rev     uint32 // post revision carried by an update
	id      string // object id ("p0042", "c000123")
}

// model names the model the op writes.
func (o *op) model() string {
	if o.kind == opCreatePost || o.kind == opUpdatePost {
		return "Post"
	}
	return "Comment"
}

// generator draws the seeded op stream. The same seed gives the same
// stream (see fingerprint); it is not safe for concurrent use — streams
// are generated up front and dispatched from slices.
type generator struct {
	pop     population
	rng     *rand.Rand
	zipf    *rand.Zipf // non-nil: post updates hit a zipf-skewed hot set
	bodies  []string
	postIDs []string
	postRev []uint32
	oldest  uint32 // oldest live comment
	next    uint32 // next comment sequence number
	fp      uint64 // FNV-1a over every op emitted so far
}

func newGenerator(seed int64, zipfHot bool, pop population) *generator {
	g := &generator{
		pop:     pop,
		rng:     rand.New(rand.NewSource(seed)),
		postIDs: make([]string, pop.posts),
		postRev: make([]uint32, pop.posts),
		fp:      14695981039346656037,
	}
	if zipfHot {
		g.zipf = rand.NewZipf(g.rng, 1.2, 1, uint64(min(hotPosts, pop.posts)-1))
	}
	for i := range g.postIDs {
		g.postIDs[i] = fmt.Sprintf("p%04d", i)
	}
	// 256 bodies of 6–20 words: enough variety that the search engine's
	// analyzer and the codec's string paths see realistic text, cheap
	// enough that building an op costs the harness almost nothing.
	words := []string{"synapse", "replica", "causal", "vector", "publish", "subscribe", "broker",
		"queue", "version", "store", "mapper", "engine", "schema", "graph", "column", "search",
		"document", "journal", "commit", "session", "update", "comment", "post", "user"}
	g.bodies = make([]string, 256)
	for i := range g.bodies {
		n := 6 + g.rng.Intn(15)
		b := make([]byte, 0, n*8)
		for w := 0; w < n; w++ {
			if w > 0 {
				b = append(b, ' ')
			}
			b = append(b, words[g.rng.Intn(len(words))]...)
		}
		g.bodies[i] = string(b)
	}
	return g
}

// record builds the record a publish of o carries (nil for a destroy).
// stamp is the send time written to attribute t; postRev is the post
// revision a new comment was written after.
func (g *generator) record(o *op, stamp int64, postRev uint32) *synapse.Record {
	switch o.kind {
	case opCreatePost, opUpdatePost:
		rec := synapse.NewRecord("Post", o.id)
		rec.Set("body", g.bodies[o.body])
		rec.Set("rev", int64(o.rev))
		rec.Set("t", float64(stamp))
		return rec
	case opCreateComment:
		rec := synapse.NewRecord("Comment", o.id)
		rec.Set("post_id", g.postIDs[o.post])
		rec.Set("body", g.bodies[o.body])
		rec.Set("post_rev", int64(postRev))
		rec.Set("t", float64(stamp))
		return rec
	}
	return nil
}

func commentID(seq uint32) string { return fmt.Sprintf("c%07d", seq) }

func (g *generator) emit(o op) op {
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			g.fp ^= v & 0xff
			g.fp *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(o.kind)<<48 | uint64(o.user)<<32 | uint64(o.body)<<16)
	mix(uint64(o.post)<<32 | uint64(o.comment))
	mix(uint64(o.rev))
	return o
}

func (g *generator) newComment() op {
	seq := g.next
	g.next++
	return g.emit(op{
		kind:    opCreateComment,
		user:    uint16(g.rng.Intn(numUsers)),
		body:    uint16(g.rng.Intn(len(g.bodies))),
		post:    uint32(g.rng.Intn(g.pop.posts)),
		comment: seq,
		id:      commentID(seq),
	})
}

// preload returns the bounded population: every post, then the comments,
// each on a uniformly drawn post.
func (g *generator) preload() []op {
	out := make([]op, 0, g.pop.posts+g.pop.comments)
	for i := 0; i < g.pop.posts; i++ {
		out = append(out, g.emit(op{
			kind: opCreatePost,
			user: uint16(g.rng.Intn(numUsers)),
			body: uint16(g.rng.Intn(len(g.bodies))),
			post: uint32(i),
			id:   g.postIDs[i],
		}))
	}
	for i := 0; i < g.pop.comments; i++ {
		out = append(out, g.newComment())
	}
	return out
}

// stream returns the next n ops of the steady mix: 40 % update a post,
// 30 % create a comment, 30 % destroy the oldest live comment. The
// create/destroy split leans back toward the preload size whenever the
// live count drifts, so the population is stationary rather than a random
// walk.
func (g *generator) stream(n int) []op {
	out := make([]op, 0, n)
	for len(out) < n {
		if g.rng.Float64() < 0.4 {
			p := uint32(g.rng.Intn(g.pop.posts))
			if g.zipf != nil {
				p = uint32(g.zipf.Uint64())
			}
			g.postRev[p]++
			out = append(out, g.emit(op{
				kind: opUpdatePost,
				user: uint16(g.rng.Intn(numUsers)),
				body: uint16(g.rng.Intn(len(g.bodies))),
				post: p,
				rev:  g.postRev[p],
				id:   g.postIDs[p],
			}))
			continue
		}
		live := int(g.next - g.oldest)
		pCreate := 0.5 + float64(g.pop.comments-live)/(2*g.pop.band())
		if g.rng.Float64() < pCreate {
			out = append(out, g.newComment())
			continue
		}
		seq := g.oldest
		g.oldest++
		out = append(out, g.emit(op{
			kind:    opDestroyComment,
			user:    uint16(g.rng.Intn(numUsers)),
			comment: seq,
			id:      commentID(seq),
		}))
	}
	return out
}

// population reports the live object count (posts + live comments).
func (g *generator) population() int { return g.pop.posts + int(g.next-g.oldest) }

// fingerprint identifies every op emitted so far.
func (g *generator) fingerprint() string { return fmt.Sprintf("%016x", g.fp) }
