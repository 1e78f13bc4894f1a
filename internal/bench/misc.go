package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"synapse/internal/core"
	"synapse/internal/model"
	"synapse/internal/storage"
	"synapse/internal/workload"
)

// ---------------------------------------------------------------------
// §6.5: lost messages, dependency-wait timeouts, and recovery.
// ---------------------------------------------------------------------

// LostMsgConfig parameterizes the lost-message experiment.
type LostMsgConfig struct {
	Messages    int
	LossEvery   int // drop every n-th message (0 = no loss)
	DepTimeout  time.Duration
	QueueMaxLen int
	Workers     int
	Deadline    time.Duration
}

// DefaultLostMsg drops 1 in 50 messages.
func DefaultLostMsg() LostMsgConfig {
	return LostMsgConfig{
		Messages:   500,
		LossEvery:  50,
		DepTimeout: 25 * time.Millisecond,
		// Unbounded queue by default; the pure-causal run of the CLI
		// overrides this to exercise the decommission path.
		QueueMaxLen: 0,
		Workers:     4,
		Deadline:    30 * time.Second,
	}
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
	f := core.NewFabric()
	pub := mustApp(f, "pub", NewMapper(MongoDB, storage.Profile{}), core.Config{Mode: core.Causal})
	sub := mustApp(f, "sub", NewMapper(MongoDB, storage.Profile{}), core.Config{
		DepTimeout:  cfg.DepTimeout,
		QueueMaxLen: cfg.QueueMaxLen,
	})
	item := model.NewDescriptor("Item",
		model.Field{Name: "v", Type: model.Int},
	)
	must(pub.Publish(item, core.PubSpec{Attrs: []string{"v"}}))
	subItem := model.NewDescriptor("Item",
		model.Field{Name: "v", Type: model.Int},
	)
	// A zero DepTimeout is the §6.5 "give up immediately" end of the
	// spectrum, i.e. weak mode; Config.DepTimeout zero means default
	// (wait forever), so express it as a weak subscription.
	mode := core.Causal
	if cfg.DepTimeout == 0 {
		mode = core.Weak
	}
	must(sub.Subscribe(subItem, core.SubSpec{From: "pub", Attrs: []string{"v"}, Mode: mode}))
	sub.StartWorkers(cfg.Workers)
	defer sub.StopWorkers()
	q0 := sub.Queue()

	var lost, n atomic.Int64 // the filter runs on publisher goroutines
	if cfg.LossEvery > 0 {
		f.Broker.SetLoss(func(queue, exchange string, payload []byte) bool {
			if n.Add(1)%int64(cfg.LossEvery) == 0 {
				lost.Add(1)
				return true
			}
			return false
		})
	}

	const objects = 10
	ctl := pub.NewController(nil)
	for i := 0; i < objects; i++ {
		rec := model.NewRecord("Item", fmt.Sprintf("it%d", i))
		rec.Set("v", 0)
		if _, err := ctl.Create(rec); err != nil {
			panic(err)
		}
	}
	update := func(i int) {
		patch := model.NewRecord("Item", fmt.Sprintf("it%d", i%objects))
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
	deadline := time.Now().Add(cfg.Deadline)
	for i := cfg.Messages; time.Now().Before(deadline); i++ {
		if q := sub.Queue(); q != q0 || q.Dead() { // a recovered queue is a new handle
			res.Decommissions = true
		}
		if converged(pub, sub, objects) {
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

func converged(pub, sub *core.App, objects int) bool {
	for i := 0; i < objects; i++ {
		id := fmt.Sprintf("it%d", i)
		want, err := pub.Mapper().Find("Item", id)
		if err != nil {
			return false
		}
		got, err := sub.Mapper().Find("Item", id)
		if err != nil {
			return false
		}
		if got.Int("v") != want.Int("v") {
			return false
		}
	}
	return true
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
// Ablation: dependency-hash cardinality (1 ⇒ global ordering).
// ---------------------------------------------------------------------

// AblationPoint is one cardinality cell.
type AblationPoint struct {
	Cardinality uint64
	Throughput  float64
}

// RunAblationHashCardinality sweeps the dependency hash space. As §4.2
// notes, "using a 1-entry dependency hash space is equivalent to using
// global ordering": hash collisions serialize unrelated objects, so
// subscriber parallelism — and throughput under a per-message callback
// cost — collapses as the space shrinks.
func RunAblationHashCardinality(cards []uint64, workers int, callback, duration time.Duration) []AblationPoint {
	var out []AblationPoint
	for _, card := range cards {
		f := core.NewFabric()
		pub := mustApp(f, "pub", NewMapper(MongoDB, storage.Profile{}), core.Config{
			Mode:           core.Causal,
			DepCardinality: card,
		})
		sub := mustApp(f, "sub", NewMapper(MongoDB, storage.Profile{}), core.Config{
			DepCardinality: card,
		})
		post, _ := SocialModels()
		must(pub.Publish(post, core.PubSpec{Attrs: []string{"author", "body"}}))
		subPost, _ := SocialModels()
		subPost.Callbacks.On(model.AfterCreate, func(*model.CallbackCtx) error {
			time.Sleep(callback)
			return nil
		})
		must(sub.Subscribe(subPost, core.SubSpec{From: "pub", Attrs: []string{"author", "body"}, Mode: core.Causal}))

		gen := workload.NewSocialGen(3, 256)
		gen.SetCommentRatio(0)
		need := int(1.5*duration.Seconds()/callback.Seconds())*workers + 50
		for i := 0; i < need; i++ {
			op := gen.Next()
			ctl := pub.NewController(nil)
			rec := model.NewRecord("Post", op.ID)
			rec.Set("author", op.UserID)
			rec.Set("body", "b")
			if _, err := ctl.Create(rec); err != nil {
				panic(err)
			}
		}
		start := time.Now()
		sub.StartWorkers(workers)
		time.Sleep(duration)
		count := sub.Processed.Count()
		elapsed := time.Since(start)
		sub.StopWorkers()
		out = append(out, AblationPoint{Cardinality: card, Throughput: float64(count) / elapsed.Seconds()})
	}
	return out
}

// FormatAblation renders the cardinality sweep.
func FormatAblation(points []AblationPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation: causal throughput [msg/s] vs dependency-hash cardinality")
	fmt.Fprintln(&b, "(cardinality 1 degenerates to global ordering, §4.2)")
	fmt.Fprintf(&b, "%-14s %12s\n", "cardinality", "throughput")
	for _, p := range points {
		card := fmt.Sprintf("%d", p.Cardinality)
		if p.Cardinality == 0 {
			card = "unbounded"
		}
		fmt.Fprintf(&b, "%-14s %12s\n", card, fmtRate(p.Throughput))
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Table 1: supported DB types and vendors.
// ---------------------------------------------------------------------

// FormatTable1 prints the engine/vendor support matrix.
func FormatTable1() string {
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
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	total := 0
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		total += strings.Count(string(data), "\n")
	}
	return total, nil
}
