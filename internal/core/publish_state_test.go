package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"synapse/internal/faultinject"
	"synapse/internal/model"
	"synapse/internal/netsim"
	"synapse/internal/orm"
	"synapse/internal/orm/activerecord"
	"synapse/internal/orm/documentorm"
	"synapse/internal/storage/docdb"
	"synapse/internal/storage/reldb"
)

// failingJournal is a PostgreSQL mapper whose transactions refuse to stage
// the journal entry while fail is set.
type failingJournal struct {
	*activerecord.Mapper
	fail *bool
}

func (m failingJournal) Begin() orm.MapperTx {
	return failingJournalTx{m.Mapper.Begin().(*activerecord.Tx), m.fail}
}

type failingJournalTx struct {
	*activerecord.Tx
	fail *bool
}

func (tx failingJournalTx) StageJournal(rec *model.Record) error {
	if *tx.fail {
		return errors.New("injected journal failure")
	}
	return tx.Tx.StageJournal(rec)
}

// refusingJournal is a MongoDB mapper that refuses journal inserts while
// fail is set.
type refusingJournal struct {
	*documentorm.Mapper
	fail *bool
}

func (m refusingJournal) Create(rec *model.Record) (*model.Record, error) {
	if *m.fail && rec.Model == journalModel {
		return nil, errors.New("injected journal failure")
	}
	return m.Mapper.Create(rec)
}

// ephemeralApp is a DB-less publisher of one ephemeral model, Click.
func ephemeralApp(t *testing.T, f *Fabric, name string, cfg Config) *App {
	t.Helper()
	a, err := NewApp(f, name, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := model.NewDescriptor("Click", model.Field{Name: "target", Type: model.String})
	if err := a.Publish(d, PubSpec{Attrs: []string{"target"}, Ephemeral: true}); err != nil {
		t.Fatal(err)
	}
	return a
}

func click(a *App) error {
	rec := model.NewRecord("Click", "c1")
	rec.Set("target", "button")
	_, err := a.NewController(nil).Create(rec)
	return err
}

// TestPublicationStateTable holds DESIGN §2c's table to the code. Forcing
// a move pubEdges does not list panics. The scenarios below take every
// move it does list, as the transition hook sees them: live publishes
// through 2PC, one by one and ephemeral-only; every way a write is
// withdrawn; each rung of admission; failed sends; the crash fault sites;
// and RecoverJournal over deferred entries and a predecessor's rows.
func TestPublicationStateTable(t *testing.T) {
	for from := range numPubStates {
		for to := range numPubStates {
			if pubEdges[from]&(1<<to) != 0 {
				continue
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v -> %v is outside the table and did not panic", from, to)
					}
				}()
				(&App{}).advance(&publication{state: from}, to)
			}()
		}
	}

	var (
		mu       sync.Mutex
		scenario string
		taken    = map[string]map[string]bool{} // "committed->sent": scenarios
	)
	watch := func(a *App) *App {
		watchPubs(a, func(p *publication, from, to pubState) {
			mu.Lock()
			defer mu.Unlock()
			key := fmt.Sprintf("%v->%v", from, to)
			if taken[key] == nil {
				taken[key] = map[string]bool{}
			}
			taken[key][scenario] = true
		})
		return a
	}
	run := func(name string, fn func(t *testing.T)) {
		scenario = name
		t.Run(name, fn)
	}
	create := func(c *Controller, id string) error {
		rec := model.NewRecord("User", id)
		rec.Set("name", id)
		_, err := c.Create(rec)
		return err
	}
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	crash := func(t *testing.T, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); !faultinject.IsCrash(r) {
				t.Fatalf("recovered %v, want a crash fault", r)
			}
		}()
		fn()
	}

	run("live", func(t *testing.T) {
		f := NewFabric()
		sql, _ := newSQLApp(t, f, "sql", Config{})
		doc, _ := newDocApp(t, f, "doc", Config{})
		for _, a := range []*App{watch(sql), watch(doc)} {
			mustPublish(t, a, userDesc(), "name")
			must(t, create(a.NewController(nil), "u1"))
		}
		must(t, click(watch(ephemeralApp(t, f, "front", Config{}))))
	})

	run("withdrawn", func(t *testing.T) {
		f := NewFabric()
		staging, refusing := new(bool), new(bool)
		sql, err := NewApp(f, "sql", failingJournal{activerecord.New(reldb.New(reldb.Postgres)), staging}, Config{})
		must(t, err)
		direct, err := NewApp(f, "direct", refusingJournal{documentorm.New(docdb.New(docdb.MongoDB)), refusing}, Config{})
		must(t, err)
		doc, _ := newDocApp(t, f, "doc", Config{})
		for _, a := range []*App{watch(sql), watch(direct), watch(doc)} {
			mustPublish(t, a, userDesc(), "name")
		}
		missing := model.NewRecord("User", "nope")
		missing.Set("name", "x")
		for _, a := range []*App{sql, doc} { // an aborted transaction, a failed apply
			if _, err := a.NewController(nil).Update(missing); err == nil {
				t.Fatal("an update of a missing row succeeded")
			}
		}
		*staging, *refusing = true, true
		for _, a := range []*App{sql, direct} { // the entry refused
			if create(a.NewController(nil), "u1") == nil {
				t.Fatalf("%s published without its journal entry", a.name)
			}
		}
		doc.Store().Kill()
		if create(doc.NewController(nil), "u1") == nil {
			t.Fatal("published through a dead version store")
		}
		doc.Store().Revive()
		for _, a := range []*App{sql, direct, doc} {
			if d := a.JournalDepth(); d != 0 {
				t.Errorf("%s: JournalDepth = %d after withdrawn publishes", a.name, d)
			}
		}
	})

	run("admission", func(t *testing.T) {
		f := NewFabric()
		pub, _ := newDocApp(t, f, "pub", Config{})
		sub, _ := newSQLApp(t, f, "sub", Config{QueueHighWatermark: 2})
		mustPublish(t, watch(pub), userDesc(), "name")
		mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}})
		ctl := pub.NewController(nil)
		for _, id := range []string{"u1", "u2", "u3", "u4"} { // the last two are deferred
			must(t, create(ctl, id))
		}
		if st := pub.Stats(); st.Deferred != 2 {
			t.Fatalf("Deferred = %d, want 2", st.Deferred)
		}
		if n, err := pub.recoverJournal(func() bool { return false }); n != 0 || err != nil {
			t.Fatalf("a drain paced to a stop = %d, %v", n, err)
		}
		if n, err := pub.RecoverJournal(); n != 2 || err != nil || pub.JournalDepth() != 0 {
			t.Fatalf("RecoverJournal = %d, %v, depth %d; want 2, nil, 0", n, err, pub.JournalDepth())
		}
	})

	run("send failure", func(t *testing.T) {
		f := NewFabric()
		f.Net = netsim.New(1)
		pub, _ := newDocApp(t, f, "pub", Config{})
		mustPublish(t, watch(pub), userDesc(), "name")
		front := watch(ephemeralApp(t, f, "front", Config{}))
		f.Net.Partition("pub", EndpointBroker)
		f.Net.Partition("front", EndpointBroker)
		must(t, create(pub.NewController(nil), "u1")) // journal-and-defer
		if click(front) == nil {
			t.Fatal("an ephemeral publish succeeded through a partition")
		}
		f.Net.Heal("pub", EndpointBroker)
		if n, err := pub.RecoverJournal(); n != 1 || err != nil {
			t.Fatalf("RecoverJournal = %d, %v; want 1, nil", n, err)
		}
	})

	run("crashes and a successor", func(t *testing.T) {
		f := NewFabric()
		pub, pubMapper := newDocApp(t, f, "pub", Config{})
		mustPublish(t, watch(pub), userDesc(), "name")
		for i, site := range []string{FaultBeforePublish, FaultBeforeJournalAck} {
			pub.Faults().Arm(site, faultinject.Crash())
			crashPublish(t, pub, fmt.Sprintf("u%d", i), "n")
		}
		pub.Faults().Arm(FaultJournalDrain, faultinject.Crash())
		crash(t, func() { _, _ = pub.RecoverJournal() })
		corrupt := model.NewRecord(journalModel, journalID(0, 1))
		corrupt.Set("payload", "not a message")
		if _, err := pubMapper.Create(corrupt); err != nil {
			t.Fatal(err)
		}
		next := watch(restartApp(t, f, pub))
		mustPublish(t, next, userDesc(), "name")
		if n, err := next.RecoverJournal(); n != 3 || err != nil || next.JournalDepth() != 0 {
			t.Fatalf("RecoverJournal = %d, %v, depth %d; want 3, nil, 0", n, err, next.JournalDepth())
		}
	})

	var moves []string
	for from := range numPubStates {
		for to := range numPubStates {
			if pubEdges[from]&(1<<to) == 0 {
				continue
			}
			key := fmt.Sprintf("%v->%v", from, to)
			if len(taken[key]) == 0 {
				t.Errorf("%s is in the table and no scenario took it", key)
				continue
			}
			var by []string
			for s := range taken[key] {
				by = append(by, s)
			}
			sort.Strings(by)
			moves = append(moves, key+": "+strings.Join(by, ", "))
		}
	}
	t.Log("\n" + strings.Join(moves, "\n"))
}

// TestFailedWriteLeavesNoGap: a write that fails after its dependency
// plan bumped the counters — an update of a missing object, a journal
// entry the transaction refused — sends nothing, so it must take its
// bump back. Otherwise the session's next write carries a version no
// message will ever fill, and a causal subscriber whose DepTimeout is
// forever parks it for good.
func TestFailedWriteLeavesNoGap(t *testing.T) {
	for _, c := range []struct {
		name string
		pub  func(*testing.T, *Fabric) (*App, *bool)
	}{
		{"mongodb update of a missing object", func(t *testing.T, f *Fabric) (*App, *bool) {
			pub, _ := newDocApp(t, f, "pub", Config{Mode: Causal})
			return pub, nil
		}},
		{"postgresql journal refused", func(t *testing.T, f *Fabric) (*App, *bool) {
			fail := new(bool)
			pub, err := NewApp(f, "pub", failingJournal{activerecord.New(reldb.New(reldb.Postgres)), fail}, Config{Mode: Causal})
			if err != nil {
				t.Fatal(err)
			}
			return pub, fail
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := NewFabric()
			pub, fail := c.pub(t, f)
			mustPublish(t, pub, userDesc(), "name")
			sub, subMapper := newDocApp(t, f, "sub", Config{})
			mustSubscribe(t, sub, userDesc(), SubSpec{From: "pub", Attrs: []string{"name"}, Mode: Causal})
			sub.StartWorkers(1)
			defer sub.StopWorkers()

			ctl := pub.NewController(pub.NewSession("User", "me"))
			createUser(t, ctl, "u1", "v1")
			failed := model.NewRecord("User", "u2")
			failed.Set("name", "never")
			write := ctl.Update // u2 does not exist
			if fail != nil {
				*fail, write = true, ctl.Create
			}
			if _, err := write(failed); err == nil {
				t.Fatal("the failing write succeeded")
			}
			if fail != nil {
				*fail = false
			}
			createUser(t, ctl, "u3", "v3")

			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
				if _, err := subMapper.Find("User", "u3"); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("the next write never applied; parked: %v", sub.Stats().Parked)
				}
			}
			if p := sub.Stats().Parked; len(p) != 0 {
				t.Fatalf("parked after the next write applied: %v", p)
			}
			mustSettle(t, 2*time.Second, pub, sub)
			pubCounters, err := pub.Store().Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			subCounters, err := sub.Store().Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for k, c := range pubCounters {
				if got := subCounters[k].Ops; got != c.Ops {
					t.Errorf("key %d: subscriber ops %d, publisher %d", uint64(k), got, c.Ops)
				}
			}
		})
	}
}
