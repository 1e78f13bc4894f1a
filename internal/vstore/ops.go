package vstore

import (
	"cmp"
	"slices"
	"time"
)

// op is one key's share of a round-trip window: the key, the shard that
// owns it (resolved once per window), what the script is given for it
// and what the script found. Every batch call lays its keys out as ops
// — in a fixed array on its own stack for up to inlineOps of them — so a
// window builds no map and, in the common case, allocates nothing.
type op struct {
	key Key
	sh  *shard
	// arg is the script's input: the minimum a probe needs, the version
	// a claim carries, the amount a counter moves by — and, once a bump
	// ran, the version a write replaced.
	arg uint64
	// out is the script's result: the version to embed (bump), the
	// version found (claim), the counter after the move.
	out uint64
	// ok marks a write dependency going in and a claim that won coming
	// out.
	ok bool
}

// inlineOps is the fixed capacity the batch calls keep on the stack; a
// message with more keys than this spills to the heap.
const inlineOps = 8

// keyOps appends one op per key.
func keyOps(ops []op, keys []Key, arg uint64, write bool) []op {
	for _, k := range keys {
		ops = append(ops, op{key: k, arg: arg, ok: write})
	}
	return ops
}

// prepare puts ops into the canonical order — ascending key, the one
// deadlock-free lock order there is — merging duplicates in place (the
// first of equal keys stays, with the largest arg, and is a write if
// any was: callers list writes first), and resolves every shard.
func (s *Store) prepare(ops []op) []op {
	slices.SortStableFunc(ops, func(a, b op) int { return cmp.Compare(a.key, b.key) })
	out := ops[:0]
	for _, o := range ops {
		if n := len(out); n > 0 && out[n-1].key == o.key {
			out[n-1].arg = max(out[n-1].arg, o.arg)
			out[n-1].ok = out[n-1].ok || o.ok
			continue
		}
		out = append(out, o)
	}
	s.resolve(out)
	return out
}

func (s *Store) resolve(ops []op) {
	for i := range ops {
		ops[i].sh = s.shardFor(ops[i].key)
	}
}

// on counts the ops a shard owns.
func on(ops []op, sh *shard) int {
	n := 0
	for i := range ops {
		if ops[i].sh == sh {
			n++
		}
	}
	return n
}

// windowCost is the injected latency of one pipelined window over the
// two op lists together: the slowest shard script's cost, since shards
// execute their scripts concurrently in a real deployment.
func (s *Store) windowCost(a, b []op) time.Duration {
	most := len(a) + len(b)
	if s.cfg.PerKey > 0 && len(s.shards) > 1 {
		most = 0
		for _, sh := range s.shards {
			most = max(most, on(a, sh)+on(b, sh))
		}
	}
	return s.cfg.scriptCost(most)
}
