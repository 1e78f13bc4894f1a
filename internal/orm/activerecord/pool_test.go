package activerecord

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"synapse/internal/model"
	"synapse/internal/orm/ormtest"
	"synapse/internal/storage/reldb"
)

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

// newJournaled is a PostgreSQL mapper with the User model and a journal
// model, as a publisher's is.
func newJournaled(t *testing.T) *Mapper {
	t.Helper()
	m := New(reldb.New(reldb.Postgres))
	if err := m.Register(ormtest.NewUserDescriptor()); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(model.NewDescriptor("Journal", model.Field{Name: "payload", Type: model.String})); err != nil {
		t.Fatal(err)
	}
	return m
}

// publish is a publisher's transaction: Begin, a data write (a create,
// or an update of an existing user), Prepare, the journal entry, Commit.
// It returns the transaction, still to be released, and what Commit
// returned.
func publish(m *Mapper, user, entry string, create bool) (*Tx, []*model.Record, error) {
	tx := m.Begin().(*Tx)
	rec := model.NewRecord("User", user)
	rec.Set("name", "n-"+entry)
	write := tx.Update
	if create {
		write = tx.Create
	}
	if err := write(rec); err != nil {
		return tx, nil, err
	}
	if err := tx.Prepare(); err != nil {
		return tx, nil, err
	}
	j := model.NewRecord("Journal", entry)
	j.Set("payload", "p-"+entry)
	if err := tx.StageJournal(j); err != nil {
		return tx, nil, err
	}
	out, err := tx.Commit()
	return tx, out, err
}

// A released transaction goes back to the pool reset: no staged
// operation, no row lock, no record of the Commit before it. The records
// its Commit returned stay their caller's.
func TestTxReleaseResets(t *testing.T) {
	m := newJournaled(t)
	tx, out, err := publish(m, "u1", "j1", true)
	if err != nil {
		t.Fatal(err)
	}
	first := out[0]
	tx.Release()
	if !reflect.ValueOf(tx).Elem().IsZero() {
		t.Errorf("a released transaction is not reset: %d ops, closed=%v, records %v", len(tx.ops), tx.closed, tx.recBuf)
	}
	if first.ID != "u1" || first.String("name") != "n-j1" {
		t.Errorf("Release changed a record Commit returned: %+v", first)
	}

	// A transaction released while prepared gives its row locks back: a
	// second one preparing the same row does not wait.
	again := m.Begin().(*Tx)
	rec := model.NewRecord("User", "u1")
	rec.Set("name", "held")
	if err := again.Update(rec); err != nil {
		t.Fatal(err)
	}
	if err := again.Prepare(); err != nil {
		t.Fatal(err)
	}
	again.Release()
	done := make(chan error, 1)
	go func() {
		_, out, err := publish(m, "u1", "j2", false)
		if err == nil && (len(out) != 1 || out[0].String("name") != "n-j2") {
			err = fmt.Errorf("Commit after a reused transaction returned %+v", out)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a transaction released while prepared still holds its row lock")
	}
	if first.String("name") != "n-j1" {
		t.Errorf("a later transaction changed a record an earlier Commit returned: %+v", first)
	}
	if got, err := m.Find("User", "u1"); err != nil || got.String("name") != "n-j2" {
		t.Errorf("u1 = %+v, %v; want the last commit's name (the aborted one left nothing)", got, err)
	}

	twice := m.Begin().(*Tx)
	twice.Release()
	defer func() {
		if recover() == nil {
			t.Error("a second Release did not panic")
		}
	}()
	twice.Release()
}

// In steady state a publisher's transaction that is released allocates
// no transaction: Begin after Release allocates nothing, and the whole
// publish allocates exactly one object less than one never released.
func TestTxPoolSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	m := newJournaled(t)
	if _, _, err := publish(m, "u1", "seed", true); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { m.Begin().(*Tx).Release() }); n != 0 {
		t.Errorf("Begin after Release = %v allocs, want 0", n)
	}
	cycle := func(release bool) func() {
		return func() {
			tx, _, err := publish(m, "u1", "j", false)
			if err != nil {
				t.Fatal(err)
			}
			if release {
				tx.Release()
			}
			if _, err := m.DeleteRange("Journal", "j", "j\x00"); err != nil {
				t.Fatal(err)
			}
		}
	}
	pooled, unpooled := testing.AllocsPerRun(200, cycle(true)), testing.AllocsPerRun(200, cycle(false))
	t.Logf("publish transaction: %v allocs released, %v not released", pooled, unpooled)
	if pooled != unpooled-1 {
		t.Errorf("a released publish = %v allocs, want one less than %v (the transaction)", pooled, unpooled)
	}
}

// Concurrent publishers, each releasing its transaction after reading
// what Commit returned: every Commit returns its own write, and every
// write and journal entry lands. Run it under the race detector: a
// transaction handed to the next Begin while its last user still reads
// it is a race.
func TestTxPoolConcurrentPublishes(t *testing.T) {
	m := newJournaled(t)
	const publishers, each = 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, publishers)
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				user, entry := fmt.Sprintf("u%d", p), fmt.Sprintf("j%d-%03d", p, i)
				tx, out, err := publish(m, user, entry, i == 0)
				if err == nil && (len(out) != 1 || out[0].ID != user || out[0].String("name") != "n-"+entry) {
					err = fmt.Errorf("publisher %d's commit %d returned %+v", p, i, out)
				}
				tx.Release()
				if err != nil {
					errs <- err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := m.Len("Journal"); n != publishers*each {
		t.Errorf("%d journal entries, want %d", n, publishers*each)
	}
	for p := 0; p < publishers; p++ {
		if got, err := m.Find("User", fmt.Sprintf("u%d", p)); err != nil || got.String("name") != fmt.Sprintf("n-j%d-%03d", p, each-1) {
			t.Errorf("u%d = %+v, %v; want its publisher's last write", p, got, err)
		}
	}
}
