package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synapse/internal/faultinject"
	"synapse/internal/model"
	"synapse/internal/netsim"
	"synapse/internal/orm"
	"synapse/internal/wire"
)

// --- outbox ------------------------------------------------------------

func newTestOutbox() (*outbox, *atomic.Uint64) {
	seq := new(atomic.Uint64)
	return newOutbox(seq), seq
}

func TestOutboxOutOfOrderConfirms(t *testing.T) {
	o, _ := newTestOutbox()
	s1, s2, s3 := o.register(), o.register(), o.register()
	o.confirm(s3)
	o.confirm(s2)
	if _, to, ok := o.watermark(); !ok || to != s1 {
		t.Fatalf("watermark = %d, %v with %d unconfirmed; want %d", to, ok, s1, s1)
	}
	o.truncatedTo(s1, 0)
	// Nothing below s1 left: the next range is empty until s1 confirms.
	if _, _, ok := o.watermark(); ok {
		t.Fatal("watermark advanced past an unconfirmed entry")
	}
	o.confirm(s1)
	from, to, ok := o.watermark()
	if !ok || from != s1 || to != s3+1 {
		t.Fatalf("watermark = [%d, %d), %v; want [%d, %d)", from, to, ok, s1, s3+1)
	}
	if u, _, _ := o.counts(); u != 0 {
		t.Fatalf("%d entries still open", u)
	}
}

// The cut never passes the lowest unconfirmed seq, whatever order
// publishes register, confirm, defer and abort in.
func TestOutboxCutNeverPassesUnconfirmed(t *testing.T) {
	o, _ := newTestOutbox()
	var mu sync.Mutex
	unconfirmed := map[uint64]bool{}
	var publishers, cutter sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		publishers.Add(1)
		go func(w int) {
			defer publishers.Done()
			for i := 0; i < 2000; i++ {
				mu.Lock()
				seq := o.register()
				unconfirmed[seq] = true
				mu.Unlock()
				switch (i + w) % 7 {
				case 0: // aborted transaction
					mu.Lock()
					delete(unconfirmed, seq)
					mu.Unlock()
					o.abandon(seq, false)
				case 1: // deferred, confirmed by a later drain
					o.abandon(seq, true)
					mu.Lock()
					delete(unconfirmed, seq)
					mu.Unlock()
					o.confirm(seq)
				default:
					mu.Lock()
					delete(unconfirmed, seq)
					mu.Unlock()
					o.confirm(seq)
				}
			}
		}(w)
	}
	cutter.Add(1)
	go func() {
		defer cutter.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Taken under the test's lock so that "unconfirmed" is the
			// set the outbox saw.
			mu.Lock()
			_, to, ok := o.watermark()
			for seq := range unconfirmed {
				if ok && seq < to {
					t.Errorf("cut to %d passes unconfirmed entry %d", to, seq)
				}
			}
			mu.Unlock()
			if ok {
				o.truncatedTo(to, 0)
			}
		}
	}()
	publishers.Wait()
	close(stop)
	cutter.Wait()
}

func TestOutboxWithdrawOnAbort(t *testing.T) {
	o, _ := newTestOutbox()
	s1 := o.register()
	s2 := o.register()
	o.abandon(s1, false) // its transaction aborted: no row, nothing to wait for
	if u, _, _ := o.counts(); u != 1 {
		t.Fatalf("unconfirmed = %d after a withdraw, want 1", u)
	}
	if d := o.deferred(); len(d) != 0 {
		t.Fatalf("a withdrawn entry is deferred: %v", d)
	}
	o.confirm(s2)
	if _, to, ok := o.watermark(); !ok || to != s2+1 {
		t.Fatalf("watermark = %d, %v; a withdrawn entry must not hold the cut back", to, ok)
	}
}

func TestOutboxDeferredInSeqOrder(t *testing.T) {
	o, _ := newTestOutbox()
	var want []uint64
	for i := 0; i < 50; i++ {
		seq := o.register()
		if i%3 == 0 {
			o.abandon(seq, true)
			want = append(want, seq)
		} // the rest stay in flight: not the drain's
	}
	got := o.deferred()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("deferred = %v, want %v", got, want)
	}
}

// Ephemeral and journal-less publishes draw seqs from the same counter
// without registering: the gaps neither hold the cut back nor let it
// run ahead of a journaled entry.
func TestOutboxNonContiguousSeqs(t *testing.T) {
	o, seq := newTestOutbox()
	s1 := o.register()
	seq.Add(3) // three ephemeral publishes
	s2 := o.register()
	if s2 != s1+4 {
		t.Fatalf("seqs %d, %d: register does not draw from the shared counter", s1, s2)
	}
	seq.Add(2)
	o.confirm(s1)
	if _, to, _ := o.watermark(); to != s2 {
		t.Fatalf("watermark = %d, want the open entry %d", to, s2)
	}
	o.confirm(s2)
	if _, to, _ := o.watermark(); to != seq.Load()+1 {
		t.Fatalf("watermark = %d, want %d (past every drawn seq)", to, seq.Load()+1)
	}
	if s3 := o.register(); s3 < seq.Load() {
		t.Fatalf("an entry registered below the watermark: %d", s3)
	}
}

func TestOutboxCutDueEvery256(t *testing.T) {
	o, _ := newTestOutbox()
	for i := 1; i <= 2*outboxCutEvery; i++ {
		due := o.confirm(o.register())
		if want := i%outboxCutEvery == 0; due != want {
			t.Fatalf("confirmation %d: cut due = %v, want %v", i, due, want)
		}
		if due {
			o.watermark()
		}
	}
}

// journalID is the fixed-width form the old Sprintf produced: ids sort
// by (epoch, seq), and rows written before this change still sort with
// rows written after it.
func TestJournalIDFormat(t *testing.T) {
	for _, c := range []struct {
		epoch int64
		seq   uint64
	}{
		{0, 0}, {1, 1}, {1759300000123456789, 42}, {1<<63 - 1, 9999999999999999},
		{7, 10000000000000000}, // wider than the pad: still what Sprintf gives
	} {
		want := fmt.Sprintf("%020d-%016d", c.epoch, c.seq)
		if got := journalID(c.epoch, c.seq); got != want {
			t.Errorf("journalID(%d, %d) = %q, want %q", c.epoch, c.seq, got, want)
		}
	}
	if !(journalID(5, 9) < journalID(5, 10) && journalID(5, 1<<40) < journalID(6, 0)) {
		t.Error("journal ids do not sort by (epoch, seq)")
	}
}

// --- the journal through an app ------------------------------------------

// journalRows lists the ids of the journal rows in the app's engine.
func journalRows(t *testing.T, m orm.Mapper) []string {
	t.Helper()
	var ids []string
	if err := m.Each(journalModel, "", func(r *model.Record) bool {
		ids = append(ids, r.ID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// A healthy publisher keeps at most outboxCutEvery confirmed rows plus
// its in-flight ones, reports depth 0 throughout, and a graceful stop
// leaves none.
func TestJournalTruncatesEvery256(t *testing.T) {
	for _, engine := range []string{"doc", "sql"} {
		t.Run(engine, func(t *testing.T) {
			f := NewFabric()
			var pub *App
			if engine == "sql" {
				pub, _ = newSQLApp(t, f, "pub", Config{})
			} else {
				pub, _ = newDocApp(t, f, "pub", Config{})
			}
			mustPublish(t, pub, userDesc(), "likes")
			ctl := pub.NewController(nil)
			for i := 0; i < 3*outboxCutEvery+10; i++ {
				rec := model.NewRecord("User", fmt.Sprintf("u%04d", i))
				rec.Set("likes", i)
				if _, err := ctl.Create(rec); err != nil {
					t.Fatal(err)
				}
				if n := pub.Mapper().Len(journalModel); n > outboxCutEvery {
					t.Fatalf("after %d publishes the journal holds %d rows, want <= %d", i+1, n, outboxCutEvery)
				}
				if d := pub.JournalDepth(); d != 0 {
					t.Fatalf("JournalDepth = %d on a healthy fabric", d)
				}
			}
			if got := pub.Stats().JournalTruncated; got != 3*outboxCutEvery {
				t.Errorf("JournalTruncated = %d, want %d", got, 3*outboxCutEvery)
			}
			reads, writes, _ := pub.Mapper().Stats().Snapshot()
			if err := pub.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			// The cut is not a per-object query: the adapter's counters
			// depend on the messages alone, not on when cuts happened.
			if r, w, _ := pub.Mapper().Stats().Snapshot(); w != writes || r != reads {
				t.Errorf("the final cut moved the query counters: reads %d->%d, writes %d->%d", reads, r, writes, w)
			}
			if rows := journalRows(t, pub.Mapper()); len(rows) != 0 {
				t.Errorf("a graceful stop left %d journal rows", len(rows))
			}
		})
	}
}

// Every journal row owns its payload. A publication refills one pooled
// record for its entry, so the engine must copy it — the direct insert
// (MongoDB) and the row staged into the 2PC (PostgreSQL) alike. Entries
// deferred behind a partitioned broker link each decode to their own seq,
// and one drain sends them all.
func TestEntryRowsOwnTheirPayload(t *testing.T) {
	for _, engine := range []string{"mongodb", "postgresql"} {
		t.Run(engine, func(t *testing.T) {
			f := NewFabric()
			f.Net = netsim.New(1)
			var pub *App
			if engine == "postgresql" {
				pub, _ = newSQLApp(t, f, "pub", Config{})
			} else {
				pub, _ = newDocApp(t, f, "pub", Config{})
			}
			mustPublish(t, pub, userDesc(), "likes")
			sent := payloadTap(t, f, "pub")
			f.Net.Partition("pub", EndpointBroker)
			const n = 8
			ctl := pub.NewController(nil)
			for i := range n {
				rec := model.NewRecord("User", fmt.Sprintf("u%d", i))
				rec.Set("likes", i)
				if _, err := ctl.Create(rec); err != nil {
					t.Fatal(err)
				}
			}
			if d := pub.JournalDepth(); d != n {
				t.Fatalf("JournalDepth = %d behind a partitioned link, want %d deferred", d, n)
			}
			rows := 0
			if err := pub.Mapper().Each(journalModel, "", func(r *model.Record) bool {
				rows++
				msg, err := wire.Unmarshal([]byte(r.String("payload")))
				if err != nil {
					t.Fatalf("row %s: %v", r.ID, err)
				}
				if want := journalID(pub.journalEpoch, msg.Seq); r.ID != want {
					t.Errorf("row %s holds the payload of seq %d", r.ID, msg.Seq)
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if rows != n {
				t.Errorf("%d journal rows, want %d", rows, n)
			}
			f.Net.Heal("pub", EndpointBroker)
			drained := 0
			waitFor(t, 10*time.Second, func() bool { // until the breaker's cooldown lets a send through
				d, _ := pub.RecoverJournal()
				drained += d
				return pub.JournalDepth() == 0
			})
			if got := len(sent()); drained != n || got != n {
				t.Errorf("RecoverJournal drained %d entries and sent %d messages, want %d", drained, got, n)
			}
		})
	}
}

// The periodic drain must leave in-flight publishes alone: on a healthy
// fabric nothing is deferred, so nothing may be republished, however
// often the drain runs next to concurrent publishers. (The drain used to
// scan every row and re-sent entries between their commit and their
// ack: 88–102 duplicates per 80,000 publishes at 50 ms, ~1,000 at 1 ms.)
func TestLiveDrainSkipsInFlightPublishes(t *testing.T) {
	f := NewFabric()
	pub, _ := newSQLApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "likes")
	pub.StartWorkers(1)
	defer pub.StopWorkers()

	const publishers, each = 4, 3000
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ctl := pub.NewController(nil)
			for i := 0; i < each; i++ {
				rec := model.NewRecord("User", fmt.Sprintf("u%d-%d", p, i))
				rec.Set("likes", i)
				if _, err := ctl.Create(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	st := pub.Stats()
	if st.Republished != 0 || st.Deferred != 0 {
		t.Errorf("Republished = %d, Deferred = %d over %d publishes on a healthy fabric, want 0/0",
			st.Republished, st.Deferred, publishers*each)
	}
	if st.JournalDepth != 0 {
		t.Errorf("JournalDepth = %d after every publish returned", st.JournalDepth)
	}
}

// restartApp stands in for a process restart: the predecessor is
// dropped from the fabric without any graceful stop, and a new instance
// (new epoch, new in-memory state) comes up over the same database.
func restartApp(t *testing.T, f *Fabric, old *App) *App {
	t.Helper()
	f.mu.Lock()
	delete(f.apps, old.name)
	delete(f.published, old.name) // the successor declares its models again
	f.mu.Unlock()
	time.Sleep(time.Microsecond) // epochs are wall-clock nanoseconds
	a, err := NewApp(f, old.name, old.mapper, old.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// A successor inherits whatever rows its predecessors left — confirmed
// but not yet truncated, and unconfirmed — replays them all, once, in
// (epoch, seq) order, and ends with an empty journal; the subscriber
// converges and never regresses.
func TestRestartReplaysInheritedJournal(t *testing.T) {
	f := NewFabric()
	pub, pubMapper := newSQLApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "likes")
	sub, subMapper := newDocApp(t, f, "sub", Config{})
	mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"likes"}})
	msgs := tap(t, f, "pub")

	// The subscriber must never see an object go backwards.
	var mu sync.Mutex
	last := map[string]int64{}
	d, _ := sub.Descriptor("User")
	watch := func(ctx *model.CallbackCtx) error {
		mu.Lock()
		defer mu.Unlock()
		if v := ctx.Record.Int("likes"); v < last[ctx.Record.ID] {
			t.Errorf("%s regressed from %d to %d", ctx.Record.ID, last[ctx.Record.ID], v)
		} else {
			last[ctx.Record.ID] = v
		}
		return nil
	}
	d.Callbacks.On(model.AfterCreate, watch)
	d.Callbacks.On(model.AfterUpdate, watch)

	write := func(a *App, id string, likes int, create bool) {
		rec := model.NewRecord("User", id)
		rec.Set("likes", likes)
		ctl := a.NewController(nil)
		var err error
		if create {
			_, err = ctl.Create(rec)
		} else {
			_, err = ctl.Update(rec)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	// First instance: 300 sends (one cut at 256 leaves 44 confirmed
	// rows), then a crash in the commit-to-send window: one unconfirmed.
	const first = 300
	for i := 0; i < first; i++ {
		write(pub, fmt.Sprintf("u%03d", i%10), i, i < 10)
	}
	pub.Faults().Arm(FaultBeforePublish, faultinject.Crash())
	crashPublish(t, pub, "lost", "")
	left := journalRows(t, pubMapper)
	if want := first - outboxCutEvery + 1; len(left) != want {
		t.Fatalf("the first instance left %d rows, want %d", len(left), want)
	}
	drain(t, sub)
	msgs() // forget the live traffic

	// Second instance: inherits them, and dies the same way before it
	// ever drains — two predecessor epochs for the third to replay.
	pub2 := restartApp(t, f, pub)
	mustPublish(t, pub2, userDesc(), "likes")
	if d := pub2.JournalDepth(); d != len(left) {
		t.Fatalf("the successor's JournalDepth = %d, want the %d inherited rows", d, len(left))
	}
	pub2.Faults().Arm(FaultBeforePublish, faultinject.Crash())
	crashPublish(t, pub2, "lost2", "")
	left = journalRows(t, pubMapper)

	pub3 := restartApp(t, f, pub2)
	mustPublish(t, pub3, userDesc(), "likes")
	if len(left) > outboxCutEvery+2 {
		t.Fatalf("%d rows to replay, want at most %d confirmed + 2 unconfirmed", len(left), outboxCutEvery)
	}
	n, err := pub3.RecoverJournal()
	if err != nil || n != len(left) {
		t.Fatalf("RecoverJournal = %d, %v; want %d, nil", n, err, len(left))
	}
	if d := pub3.JournalDepth(); d != 0 {
		t.Errorf("JournalDepth = %d after the replay", d)
	}
	if rows := journalRows(t, pubMapper); len(rows) != 0 {
		t.Errorf("%d journal rows left after the replay: %v", len(rows), rows)
	}
	if n, err := pub3.RecoverJournal(); n != 0 || err != nil {
		t.Errorf("a second RecoverJournal = %d, %v; want 0, nil", n, err)
	}

	// Replayed in row order, which is (epoch, seq) order: seqs rise
	// within an epoch and restart where the second epoch begins.
	replayed := msgs()
	if len(replayed) != len(left) {
		t.Fatalf("%d messages replayed, want %d", len(replayed), len(left))
	}
	epochStarts := 0
	for i, m := range replayed {
		if !m.Recovered {
			t.Errorf("replayed message %d is not flagged Recovered", i)
		}
		if i > 0 && m.Seq <= replayed[i-1].Seq {
			epochStarts++
		}
	}
	if epochStarts != 1 {
		t.Errorf("seq order broke %d times across the replay, want once (the epoch boundary)", epochStarts)
	}

	drain(t, sub)
	for _, id := range []string{"lost", "lost2", "u000", "u009"} {
		want, err := pubMapper.Find("User", id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := subMapper.Find("User", id)
		if err != nil || got.Int("likes") != want.Int("likes") {
			t.Errorf("%s: subscriber has %v (%v), publisher %v", id, got, err, want.Attrs)
		}
	}
}

// A drain that stops part-way removes what it replayed and keeps the
// rest for the next one.
func TestInheritedReplayResumes(t *testing.T) {
	f := NewFabric()
	pub, pubMapper := newDocApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "likes")
	msgs := tap(t, f, "pub")
	for i := 0; i < 5; i++ {
		pub.Faults().Arm(FaultBeforePublish, faultinject.Crash())
		crashPublish(t, pub, fmt.Sprintf("u%d", i), "")
	}
	pub2 := restartApp(t, f, pub)
	mustPublish(t, pub2, userDesc(), "likes")

	admitted := 0
	n, err := pub2.recoverJournal(func() bool { admitted++; return admitted <= 2 })
	if n != 2 || err != nil {
		t.Fatalf("paced drain = %d, %v; want 2, nil", n, err)
	}
	if d, rows := pub2.JournalDepth(), journalRows(t, pubMapper); d != 3 || len(rows) != 3 {
		t.Fatalf("after a partial drain: depth %d, %d rows; want 3, 3", d, len(rows))
	}
	if n, err := pub2.RecoverJournal(); n != 3 || err != nil {
		t.Fatalf("second drain = %d, %v; want 3, nil", n, err)
	}
	var seqs []uint64
	for _, m := range msgs() {
		seqs = append(seqs, m.Seq)
	}
	if fmt.Sprint(seqs) != "[1 2 3 4 5]" {
		t.Errorf("replayed seqs %v, want each entry once, in order", seqs)
	}
	if d, rows := pub2.JournalDepth(), journalRows(t, pubMapper); d != 0 || len(rows) != 0 {
		t.Errorf("after the full drain: depth %d, %d rows", d, len(rows))
	}
}

// An aborted transaction withdraws its entry: nothing is left open to
// hold the cut back or to count as depth.
func TestAbortedPublishWithdrawsEntry(t *testing.T) {
	f := NewFabric()
	pub, pubMapper := newSQLApp(t, f, "pub", Config{})
	mustPublish(t, pub, userDesc(), "likes")
	ctl := pub.NewController(nil)
	rec := model.NewRecord("User", "u1")
	rec.Set("likes", 1)
	if _, err := ctl.Create(rec); err != nil {
		t.Fatal(err)
	}
	missing := model.NewRecord("User", "nope")
	missing.Set("likes", 1)
	if _, err := ctl.Update(missing); err == nil {
		t.Fatal("update of a missing row succeeded")
	}
	if d := pub.JournalDepth(); d != 0 {
		t.Fatalf("JournalDepth = %d after an aborted publish", d)
	}
	pub.cutJournal()
	if rows := journalRows(t, pubMapper); len(rows) != 0 {
		t.Errorf("rows left after the cut: %v", rows)
	}
}
