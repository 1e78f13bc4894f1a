package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"synapse/internal/broker"
	"synapse/internal/coord"
	"synapse/internal/netsim"
)

// pickQueue finds a queue name that hashes onto the wanted shard.
func pickQueue(c *Cluster, shard int, prefix string) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		if c.ShardOf(name) == shard {
			return name
		}
	}
}

// waitFor polls cond up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRoutingFanoutAcrossShards(t *testing.T) {
	c := New(Config{Shards: 4, Coord: coord.New()})
	defer c.Close()
	// One queue per shard, all bound to one exchange: a publish must
	// reach every shard that holds a binding.
	names := make([]string, 4)
	for i := range names {
		names[i] = pickQueue(c, i, "q")
		if _, err := c.DeclareQueue(names[i], 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Bind(names[i], "ex"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Publish("ex", []byte("fanout")); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		q, ok := c.Queue(name)
		if !ok {
			t.Fatalf("queue %s lost", name)
		}
		d, err := q.Get()
		if err != nil || string(d.Payload) != "fanout" {
			t.Fatalf("shard %d delivery = %q/%v", i, d.Payload, err)
		}
		_ = q.Ack(d.Tag)
	}
	if c.Published() != 1 {
		t.Fatalf("Published = %d, want 1", c.Published())
	}
}

func TestCrashPromotesFollower(t *testing.T) {
	c := New(Config{Shards: 2, Coord: coord.New(), ShipInterval: time.Millisecond})
	defer c.Close()
	name := pickQueue(c, 0, "q")
	if _, err := c.DeclareQueue(name, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind(name, "ex"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Publish("ex", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	q, _ := c.Queue(name)
	if _, err := q.Get(); err != nil { // m0 in flight, ack lost with the crash
		t.Fatal(err)
	}
	// Let the follower catch up past the last publish.
	waitFor(t, "follower catch-up", func() bool { return c.CaughtUp(0) })

	// The failover window: from the crash to the first publish the
	// promoted follower accepts. Inside it a publish fails like a down
	// broker; the window is bounded by the lease, not by the caller.
	crashed := time.Now()
	c.CrashShard(0)
	for {
		err := c.Publish("ex", []byte("fresh"))
		if err == nil {
			break
		}
		if !errors.Is(err, broker.ErrBrokerDown) || time.Since(crashed) > 2*time.Second {
			t.Fatalf("publish %v after the crash: %v", time.Since(crashed), err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if window := time.Since(crashed); window <= 0 || window >= 500*time.Millisecond {
		t.Fatalf("failover window %v outside (0, 500ms)", window)
	}
	if c.Failovers() != 1 || c.ShardDown(0) {
		t.Fatalf("after the window: failovers=%d down=%v", c.Failovers(), c.ShardDown(0))
	}

	q2, ok := c.Queue(name)
	if !ok {
		t.Fatal("queue missing after promotion")
	}
	// m0's delivery died with the old primary: redelivered first, then
	// the rest in publish order, then the new primary's fresh traffic.
	d, err := q2.Get()
	if err != nil || string(d.Payload) != "m0" || !d.Redelivered {
		t.Fatalf("first post-failover delivery = %q (redelivered=%v, err=%v)", d.Payload, d.Redelivered, err)
	}
	_ = q2.Ack(d.Tag)
	for _, want := range []string{"m1", "m2", "m3", "m4", "fresh"} {
		d, err := q2.Get()
		if err != nil || string(d.Payload) != want {
			t.Fatalf("post-failover delivery = %q/%v, want %q", d.Payload, err, want)
		}
		_ = q2.Ack(d.Tag)
	}
	// The shard generation moved.
	if c.Generation(0) < 2 {
		t.Fatalf("generation = %d, want >= 2 after promotion", c.Generation(0))
	}
	// The other shard never noticed.
	if c.ShardDown(1) || c.Failovers() != 1 {
		t.Fatalf("shard 1 disturbed: down=%v failovers=%d", c.ShardDown(1), c.Failovers())
	}
}

func TestBounceWithinLeaseKeepsPrimary(t *testing.T) {
	// Generous TTL: the restart lands long before the lease lapses, so
	// the same instance recovers from its own log — no promotion.
	c := New(Config{Shards: 1, Coord: coord.New(), ShipInterval: time.Millisecond, LeaseTTL: 200 * time.Millisecond})
	defer c.Close()
	name := pickQueue(c, 0, "q")
	_, _ = c.DeclareQueue(name, 0)
	_ = c.Bind(name, "ex")
	_ = c.Publish("ex", []byte("survives"))

	c.CrashShard(0)
	c.RestartShard(0)
	time.Sleep(30 * time.Millisecond) // several ticks: no failover must fire
	if got := c.Failovers(); got != 0 {
		t.Fatalf("failovers = %d after in-lease bounce, want 0", got)
	}
	q, ok := c.Queue(name)
	if !ok {
		t.Fatal("queue lost across bounce")
	}
	if d, err := q.Get(); err != nil || string(d.Payload) != "survives" {
		t.Fatalf("post-bounce delivery = %q/%v", d.Payload, err)
	}
}

func TestCoordIsolationFencesLivePrimary(t *testing.T) {
	net := netsim.New(1)
	c := New(Config{Shards: 1, Coord: coord.New(), Net: net, ShipInterval: time.Millisecond})
	defer c.Close()
	name := pickQueue(c, 0, "q")
	_, _ = c.DeclareQueue(name, 0)
	_ = c.Bind(name, "ex")
	_ = c.Publish("ex", []byte("pre"))
	waitFor(t, "follower catch-up", func() bool { return c.CaughtUp(0) })
	// A starved agent can miss the 4 ms lease before this point; a
	// failover counted then promoted the primary captured here.
	old, before := c.shards[0].broker(), c.Failovers()

	// The primary loses sight of the coordinator while staying alive:
	// its lease lapses, the follower takes it, and the split brain is
	// resolved by fencing — the old primary must never serve again.
	net.Partition(EndpointShard(0), "coord")
	waitFor(t, "forced promotion", func() bool { return c.Failovers() > before })
	if !old.Fenced() {
		t.Fatal("superseded primary not fenced")
	}
	net.Heal(EndpointShard(0), "coord")

	// The healed partition cannot resurrect it.
	old.Restart()
	if !old.Down() {
		t.Fatal("fenced primary restarted after heal")
	}
	// The promoted primary carries the shipped state and serves.
	q, ok := c.Queue(name)
	if !ok {
		t.Fatal("queue lost in forced promotion")
	}
	if d, err := q.Get(); err != nil || string(d.Payload) != "pre" {
		t.Fatalf("post-promotion delivery = %q/%v", d.Payload, err)
	}
	if err := c.Publish("ex", []byte("post")); err != nil {
		t.Fatal(err)
	}
	if d, err := q.Get(); err != nil || string(d.Payload) != "post" {
		t.Fatalf("post-promotion publish = %q/%v", d.Payload, err)
	}
}

func TestMetadataReappliedDespiteShipLag(t *testing.T) {
	net := netsim.New(1)
	c := New(Config{Shards: 1, Coord: coord.New(), Net: net, ShipInterval: time.Millisecond})
	defer c.Close()

	// Cut replication, then declare and bind: the follower buffer never
	// sees either. The control plane must carry them through promotion.
	net.Partition(EndpointReplica(0), EndpointShard(0))
	name := pickQueue(c, 0, "late")
	if _, err := c.DeclareQueue(name, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind(name, "ex"); err != nil {
		t.Fatal(err)
	}
	c.CrashShard(0)
	waitFor(t, "failover", func() bool { return c.Failovers() == 1 })

	if _, ok := c.Queue(name); !ok {
		t.Fatal("control-plane queue lost in promotion (ship lag)")
	}
	if err := c.Publish("ex", []byte("works")); err != nil {
		t.Fatal(err)
	}
	q, _ := c.Queue(name)
	if d, err := q.Get(); err != nil || string(d.Payload) != "works" {
		t.Fatalf("binding lost in promotion: %q/%v", d.Payload, err)
	}
}

func TestPublishDuringFailoverFailsBrokerDown(t *testing.T) {
	c := New(Config{Shards: 2, Coord: coord.New(), ShipInterval: time.Millisecond, LeaseTTL: 100 * time.Millisecond})
	defer c.Close()
	name := pickQueue(c, 0, "q")
	_, _ = c.DeclareQueue(name, 0)
	_ = c.Bind(name, "ex")
	c.CrashShard(0)
	// Inside the failover window: publishes fail like a down broker, so
	// app publishers take the journal-and-defer path.
	if err := c.Publish("ex", []byte("x")); !errors.Is(err, broker.ErrBrokerDown) {
		t.Fatalf("publish during failover window: %v, want ErrBrokerDown", err)
	}
	if c.Down() {
		t.Fatal("one crashed shard reported whole-cluster down")
	}
}

// TestAckMultiSurvivesFailover proves the coalesced-ack path is as
// durable on a sharded cluster as single acks: the cursor state the
// batch settled ships to the follower, so a promoted follower does not
// redeliver the batch-acked messages.
func TestAckMultiSurvivesFailover(t *testing.T) {
	c := New(Config{Shards: 2, Coord: coord.New(), ShipInterval: time.Millisecond})
	defer c.Close()
	name := pickQueue(c, 0, "q")
	if _, err := c.DeclareQueue(name, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind(name, "ex"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := c.Publish("ex", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	q, _ := c.Queue(name)
	batch, err := q.GetBatch(4)
	if err != nil {
		t.Fatal(err)
	}
	tags := make([]uint64, 0, len(batch))
	for _, d := range batch {
		tags = append(tags, d.Tag)
	}
	if err := q.AckMulti(tags); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower catch-up", func() bool { return c.CaughtUp(0) })

	c.CrashShard(0)
	waitFor(t, "failover", func() bool { return c.Failovers() == 1 && !c.ShardDown(0) })

	q2, ok := c.Queue(name)
	if !ok {
		t.Fatal("queue missing after promotion")
	}
	// Only the two never-delivered messages remain; none of the four
	// batch-acked ones come back.
	for _, want := range []string{"m4", "m5"} {
		d, err := q2.Get()
		if err != nil || string(d.Payload) != want {
			t.Fatalf("post-failover delivery = %q/%v, want %q", d.Payload, err, want)
		}
		if err := q2.AckMulti([]uint64{d.Tag}); err != nil {
			t.Fatal(err)
		}
	}
	if q2.Len() != 0 || q2.Unacked() != 0 {
		t.Fatalf("Len=%d Unacked=%d after drain", q2.Len(), q2.Unacked())
	}
}

// TestRoutesFollowBindings: the exchange -> shards table a publish reads
// is rebuilt when a binding comes or goes, lists each shard once however
// many of its queues are bound, and costs a publish no allocation.
func TestRoutesFollowBindings(t *testing.T) {
	c := New(Config{Shards: 4, Coord: coord.New()})
	defer c.Close()
	shards := func() []int {
		var idx []int
		for _, s := range c.route("ex") {
			idx = append(idx, s.idx)
		}
		return idx
	}
	a, b, other := pickQueue(c, 2, "a"), pickQueue(c, 2, "b"), pickQueue(c, 0, "c")
	for _, name := range []string{a, b, other} {
		if _, err := c.DeclareQueue(name, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Bind(name, "ex"); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(shards()); got != "[0 2]" {
		t.Fatalf("route = %s, want [0 2]", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = c.route("ex") }); n != 0 {
		t.Fatalf("routing a publish allocates %.0f times", n)
	}
	c.DeleteQueue(a)
	if got := fmt.Sprint(shards()); got != "[0 2]" {
		t.Fatalf("route = %s after deleting one of shard 2's two queues, want [0 2]", got)
	}
	c.DeleteQueue(b)
	if got := fmt.Sprint(shards()); got != "[0]" {
		t.Fatalf("route = %s after deleting shard 2's last queue, want [0]", got)
	}
	if err := c.Publish("ex", []byte("m")); err != nil {
		t.Fatal(err)
	}
	q, _ := c.Queue(other)
	if d, err := q.Get(); err != nil || string(d.Payload) != "m" {
		t.Fatalf("delivery after reroute = %q/%v", d.Payload, err)
	}
}
