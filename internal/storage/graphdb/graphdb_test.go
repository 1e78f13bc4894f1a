package graphdb

import (
	"errors"
	"fmt"
	"testing"

	"synapse/internal/storage"
)

func TestMergeNodeAndProps(t *testing.T) {
	db := New()
	if err := db.MergeNode("User", "u1", map[string]any{"name": "alice"}); err != nil {
		t.Fatal(err)
	}
	// Merge updates properties without losing existing ones.
	if err := db.MergeNode("User", "u1", map[string]any{"likes": int64(3)}); err != nil {
		t.Fatal(err)
	}
	label, props, err := db.Node("u1")
	if err != nil || label != "User" {
		t.Fatalf("Node = %q, %v", label, err)
	}
	if props["name"] != "alice" || props["likes"] != int64(3) {
		t.Fatalf("props = %+v", props)
	}
	if _, _, err := db.Node("missing"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("Node(missing) = %v", err)
	}
}

func TestRelateAndNeighbors(t *testing.T) {
	db := New()
	for _, id := range []string{"a", "b", "c"} {
		_ = db.MergeNode("User", id, nil)
	}
	if err := db.Relate("a", "FRIEND", "b"); err != nil {
		t.Fatal(err)
	}
	if err := db.Relate("a", "FRIEND", "c"); err != nil {
		t.Fatal(err)
	}
	got := db.Neighbors("a", "FRIEND")
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("Neighbors = %v", got)
	}
	// Directed: b has no outgoing edge.
	if n := db.Neighbors("b", "FRIEND"); len(n) != 0 {
		t.Fatalf("directed edge leaked: %v", n)
	}
	if err := db.Relate("a", "FRIEND", "missing"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("Relate to missing node = %v", err)
	}
}

func TestRelateBoth(t *testing.T) {
	db := New()
	_ = db.MergeNode("User", "a", nil)
	_ = db.MergeNode("User", "b", nil)
	if err := db.RelateBoth("a", "FRIEND", "b"); err != nil {
		t.Fatal(err)
	}
	if n := db.Neighbors("b", "FRIEND"); len(n) != 1 || n[0] != "a" {
		t.Fatalf("mutual edge missing: %v", n)
	}
	if err := db.UnrelateBoth("a", "FRIEND", "b"); err != nil {
		t.Fatal(err)
	}
	if db.Degree("a", "FRIEND") != 0 || db.Degree("b", "FRIEND") != 0 {
		t.Fatal("UnrelateBoth left edges")
	}
}

func TestTraverseDepth(t *testing.T) {
	// Chain a -> b -> c -> d plus a shortcut a -> c.
	db := New()
	for _, id := range []string{"a", "b", "c", "d"} {
		_ = db.MergeNode("User", id, nil)
	}
	_ = db.Relate("a", "F", "b")
	_ = db.Relate("b", "F", "c")
	_ = db.Relate("c", "F", "d")
	_ = db.Relate("a", "F", "c")

	if got := db.Traverse("a", "F", 1); len(got) != 2 {
		t.Fatalf("depth 1 = %v", got)
	}
	got := db.Traverse("a", "F", 2)
	if len(got) != 3 { // b, c at depth 1; d at depth 2
		t.Fatalf("depth 2 = %v", got)
	}
	// Start node excluded even with cycles.
	_ = db.Relate("d", "F", "a")
	got = db.Traverse("a", "F", 10)
	if len(got) != 3 {
		t.Fatalf("cycle traverse = %v", got)
	}
}

func TestDeleteNodeDetaches(t *testing.T) {
	db := New()
	_ = db.MergeNode("User", "a", nil)
	_ = db.MergeNode("User", "b", map[string]any{"name": "bea"})
	_ = db.RelateBoth("a", "F", "b")
	if props, err := db.DeleteNode("b"); err != nil || props["name"] != "bea" {
		t.Fatalf("DeleteNode = %v, %v; want the removed node's properties", props, err)
	}
	if db.Degree("a", "F") != 0 {
		t.Fatal("dangling edge after DeleteNode")
	}
	if _, err := db.DeleteNode("b"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("double delete = %v", err)
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d", db.Len())
	}
}

func TestNodesByLabel(t *testing.T) {
	db := New()
	_ = db.MergeNode("User", "u1", nil)
	_ = db.MergeNode("User", "u2", nil)
	_ = db.MergeNode("Product", "p1", nil)
	users := db.NodesByLabel("User")
	if len(users) != 2 || users[0] != "u1" {
		t.Fatalf("NodesByLabel = %v", users)
	}
}

func TestUnrelateMissingIsNoop(t *testing.T) {
	db := New()
	_ = db.MergeNode("User", "a", nil)
	if err := db.Unrelate("a", "F", "ghost"); err != nil {
		t.Fatalf("Unrelate missing = %v", err)
	}
}

func TestScanFrom(t *testing.T) {
	db := New()
	for i := 0; i < 5; i++ {
		_ = db.MergeNode("User", fmt.Sprintf("n%d", i), map[string]any{"i": int64(i)})
	}
	var ids []string
	_ = db.ScanFrom("n2", func(r storage.Row) bool {
		ids = append(ids, r.ID)
		if r.Cols["_label"] != "User" {
			t.Errorf("label missing on %s", r.ID)
		}
		return true
	})
	if len(ids) != 3 || ids[0] != "n2" {
		t.Fatalf("ScanFrom = %v", ids)
	}
}

func TestFriendsOfFriendsRecommendation(t *testing.T) {
	// The Example 2 query shape: what do friends-of-friends like that I
	// don't already like?
	db := New()
	users := []string{"me", "f1", "f2", "fof"}
	for _, u := range users {
		_ = db.MergeNode("User", u, nil)
	}
	for _, p := range []string{"prodA", "prodB"} {
		_ = db.MergeNode("Product", p, nil)
	}
	_ = db.RelateBoth("me", "FRIEND", "f1")
	_ = db.RelateBoth("f1", "FRIEND", "fof")
	_ = db.RelateBoth("me", "FRIEND", "f2")
	_ = db.Relate("fof", "LIKES", "prodA")
	_ = db.Relate("me", "LIKES", "prodB")

	network := db.Traverse("me", "FRIEND", 2) // f1, f2, fof
	if len(network) != 3 {
		t.Fatalf("network = %v", network)
	}
	liked := make(map[string]bool)
	for _, u := range network {
		for _, p := range db.Neighbors(u, "LIKES") {
			liked[p] = true
		}
	}
	for _, p := range db.Neighbors("me", "LIKES") {
		delete(liked, p)
	}
	if len(liked) != 1 || !liked["prodA"] {
		t.Fatalf("recommendations = %v", liked)
	}
}

func TestClosedRejectsWrites(t *testing.T) {
	db := New()
	db.Close()
	if err := db.MergeNode("User", "u", nil); !errors.Is(err, storage.ErrClosed) {
		t.Errorf("merge after close = %v", err)
	}
}

func TestDeleteNodeRangeDetaches(t *testing.T) {
	db := New()
	for _, id := range []string{"User:a", "User:b", "User:c", "Zed:a"} {
		_ = db.MergeNode("User", id, nil)
	}
	_ = db.RelateBoth("User:a", "F", "User:b")
	_ = db.RelateBoth("User:b", "F", "User:c") // both ends in the range
	_ = db.RelateBoth("User:a", "F", "Zed:a")
	if n, err := db.DeleteNodeRange("User:b", "User:d"); n != 2 || err != nil {
		t.Fatalf("DeleteNodeRange = %d, %v; want 2, nil", n, err)
	}
	if got := db.Neighbors("User:a", "F"); len(got) != 1 || got[0] != "Zed:a" {
		t.Errorf("neighbours of a survivor = %v, want [Zed:a]", got)
	}
	if db.Len() != 2 {
		t.Errorf("Len = %d, want 2", db.Len())
	}
}
