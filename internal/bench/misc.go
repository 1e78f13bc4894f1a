package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"synapse/internal/core"
	"synapse/internal/model"
)

// ---------------------------------------------------------------------
// §6.5: lost messages, dependency-wait timeouts, and recovery.
// ---------------------------------------------------------------------

// LostMsgConfig parameterizes the lost-message experiment.
type LostMsgConfig struct {
	Messages    int
	LossEvery   int // drop every n-th message
	DepTimeout  time.Duration
	QueueMaxLen int // 0 = unbounded
}

// lostMsgConfig drops 1 in 50 messages.
func lostMsgConfig(quick bool) LostMsgConfig {
	if quick {
		return LostMsgConfig{Messages: 200, LossEvery: 50}
	}
	return LostMsgConfig{Messages: 500, LossEvery: 50}
}

// RunLostMsgSweep runs the §6.5 timeout spectrum: give up at once (weak),
// a finite dependency wait, and pure causal — which heals only through
// queue decommission + rebootstrap, so that run bounds the queue.
func RunLostMsgSweep(cfg LostMsgConfig) ([]LostMsgResult, error) {
	var out []LostMsgResult
	for _, cfg.DepTimeout = range []time.Duration{0, 25 * time.Millisecond, core.WaitForever} {
		if cfg.DepTimeout == core.WaitForever {
			cfg.QueueMaxLen = 100
		}
		out = append(out, RunLostMsg(cfg))
	}
	return out, nil
}

// LostMsgResult reports how the subscriber weathered the losses.
type LostMsgResult struct {
	Timeout       time.Duration
	Lost          int
	Converged     bool
	ConvergeTime  time.Duration
	Decommissions bool
	Parked        []string // at the deadline: what the subscriber still waits for
}

// RunLostMsg publishes a stream of updates with injected message loss
// and measures whether and how fast a causal subscriber converges to
// the publisher's final state. With DepTimeout=0 behaviour approaches
// weak mode; with a finite timeout the subscriber skips the lost
// dependencies after waiting; with WaitForever it deadlocks until the
// queue-overflow decommission triggers the automatic partial bootstrap
// — the §6.5 production incident.
func RunLostMsg(cfg LostMsgConfig) LostMsgResult {
	// A zero DepTimeout is the §6.5 "give up immediately" end of the
	// spectrum, i.e. weak mode; Config.DepTimeout zero means default
	// (wait forever), so express it as a weak subscription.
	mode := core.Causal
	if cfg.DepTimeout == 0 {
		mode = core.Weak
	}
	p := pair(pairSpec{
		Pub:    core.Config{Mode: core.Causal},
		Sub:    core.Config{DepTimeout: cfg.DepTimeout, QueueMaxLen: cfg.QueueMaxLen},
		Models: itemModel("v", model.Int),
		Mode:   mode,
	})
	f, pub, sub := p.f, p.pub, p.sub
	sub.StartWorkers(4)
	defer sub.StopWorkers()
	q0 := sub.Queue()

	var lost, n atomic.Int64 // the filter runs on publisher goroutines
	f.Broker.SetLoss(func(queue, exchange string, payload []byte) bool {
		if n.Add(1)%int64(cfg.LossEvery) == 0 {
			lost.Add(1)
			return true
		}
		return false
	})

	ids := make([]string, 10)
	ctl := pub.NewController(nil)
	for i := range ids {
		ids[i] = fmt.Sprintf("it%d", i)
		rec := model.NewRecord("Item", ids[i])
		rec.Set("v", 0)
		if _, err := ctl.Create(rec); err != nil {
			panic(err)
		}
	}
	update := func(i int) {
		patch := model.NewRecord("Item", ids[i%len(ids)])
		patch.Set("v", i)
		if _, err := ctl.Update(patch); err != nil {
			panic(err)
		}
	}
	for i := 0; i < cfg.Messages; i++ {
		update(i)
	}
	f.Broker.SetLoss(nil)

	start := time.Now()
	res := LostMsgResult{Timeout: cfg.DepTimeout, Lost: int(lost.Load())}
	for i, deadline := cfg.Messages, start.Add(30*time.Second); time.Now().Before(deadline); i++ {
		if q := sub.Queue(); q != q0 || q.Dead() { // a recovered queue is a new handle
			res.Decommissions = true
		}
		if core.Converged(pub, sub) == nil {
			res.Converged = true
			res.ConvergeTime = time.Since(start)
			return res
		}
		// The stream stays live (lossless now): a subscriber parked behind a
		// loss heals only when the traffic behind it overflows the queue (§6.5).
		update(i)
		time.Sleep(5 * time.Millisecond)
	}
	res.Parked = sub.Stats().Parked
	return res
}

// FormatLostMsg renders the timeout sweep results.
func FormatLostMsg(results []LostMsgResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "§6.5: recovery from lost messages by dependency-wait timeout")
	fmt.Fprintf(&b, "%-14s %6s %10s %14s %14s\n", "timeout", "lost", "converged", "converge time", "decommission")
	for _, r := range results {
		timeout := "forever"
		if r.Timeout == 0 {
			timeout = "0 (weak)"
		} else if r.Timeout > 0 {
			timeout = r.Timeout.String()
		}
		fmt.Fprintf(&b, "%-14s %6d %10v %14s %14v\n",
			timeout, r.Lost, r.Converged, r.ConvergeTime.Round(time.Millisecond), r.Decommissions)
		for _, p := range r.Parked {
			fmt.Fprintf(&b, "  parked: %s\n", p)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Table 1: supported DB types and vendors.
// ---------------------------------------------------------------------

// table1 prints the engine/vendor support matrix.
func table1() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 1: DB types and vendors supported")
	fmt.Fprintf(&b, "%-12s %-34s %s\n", "Type", "Supported Vendors", "Example use cases")
	rows := []struct{ typ, vendors, use string }{
		{"Relational", "PostgreSQL, MySQL, Oracle", "Highly structured content"},
		{"Document", "MongoDB, TokuMX, RethinkDB", "General purpose"},
		{"Columnar", "Cassandra", "Write-intensive workloads"},
		{"Search", "Elasticsearch", "Aggregations and analytics"},
		{"Graph", "Neo4j", "Social network modeling"},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-34s %s\n", r.typ, r.vendors, r.use)
	}
	return b.String()
}

// fig8 points at the golden test that replays the paper's trace.
const fig8 = `Fig 8: dependency and message generation (see the golden test
internal/core/fig8_test.go, which replays the paper's exact trace).
Expected message dependencies, reproduced by the implementation:
  M1: {u1: 0, p1: 0}
  M2: {u2: 0, c1: 0, p1: 1}
  M3: {u1: 1, c2: 0, p1: 1}
  M4: {u1: 2, p1: 3}
`

// ---------------------------------------------------------------------
// Table 3: lines of code to support each DB/ORM.
// ---------------------------------------------------------------------

// Table3Row is one adapter's line count.
type Table3Row struct {
	DB     string
	ORM    string
	Pub    string
	Sub    string
	ORMLoC int
	DBLoC  int
}

// RunTable3 counts non-test Go lines in the shared ORM core, each ORM
// adapter and each storage engine package — the analogue of the paper's
// per-DB support cost table: the common part once (the first row), each
// further ORM its binding. As in the paper, engines sharing an adapter
// (PostgreSQL, MySQL, Oracle under activerecord) share its line count.
func RunTable3() ([]Table3Row, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	count := func(rel string) int {
		n, _ := countGoLines(filepath.Join(root, rel))
		return n
	}
	rows := []Table3Row{{DB: "(all)", ORM: "shared ORM core", Pub: "-", Sub: "-", ORMLoC: count("internal/orm")}}
	for _, a := range []struct {
		orm, engine, pub string
		dbs              []string
	}{
		{"activerecord", "reldb", "Y", []string{"PostgreSQL", "MySQL", "Oracle"}},
		{"documentorm", "docdb", "Y", []string{"MongoDB", "TokuMX", "RethinkDB"}},
		{"columnorm", "coldb", "Y", []string{"Cassandra"}},
		{"searchorm", "searchdb", "N", []string{"Elasticsearch"}},
		{"graphorm", "graphdb", "N", []string{"Neo4j"}},
	} {
		ormLoC, dbLoC := count("internal/orm/"+a.orm), count("internal/storage/"+a.engine)
		for _, db := range a.dbs {
			rows = append(rows, Table3Row{DB: db, ORM: a.orm, Pub: a.pub, Sub: "Y", ORMLoC: ormLoC, DBLoC: dbLoC})
		}
	}
	return rows, nil
}

// FormatTable3 renders the line counts.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 3: support for various DBs (non-test Go lines per package)")
	fmt.Fprintf(&b, "%-14s %-16s %5s %5s %9s %8s\n", "DB", "ORM adapter", "Pub?", "Sub?", "ORM LoC", "DB LoC")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-16s %5s %5s %9d %8d\n", r.DB, r.ORM, r.Pub, r.Sub, r.ORMLoC, r.DBLoC)
	}
	return b.String()
}

// repoRoot locates the repository root from this source file's path.
func repoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("bench: cannot locate source file")
	}
	// file = <root>/internal/bench/misc.go
	return filepath.Dir(filepath.Dir(filepath.Dir(file))), nil
}

// countGoLines counts lines of non-test .go files in a directory.
func countGoLines(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		total += strings.Count(string(data), "\n")
	}
	return total, nil
}
