package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records spans around the calls the benchmark can see from
// outside the program: the controller call (a publish), every call the
// program makes into a Mapper, and every Bus.Publish. The proxies that
// produce them are in proxy.go. Spans inside the program are a later
// change (ROADMAP item 3); nothing under internal/ is touched here.
//
// Every span feeds a per-(app, name) aggregate, which is what the
// per-layer metrics are computed from. The first maxSpans spans are also
// kept whole and written to the span file when the run ends.

// maxSpans bounds the spans kept for the span file (the first ~8,000
// messages of the measured phases); aggregates cover every span.
const maxSpans = 50_000

// span is one timed call. Times are ns since the run's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // the publish span that caused it; 0 when unknown
	Msg    int64  `json:"msg,omitempty"`    // sequence number of that publish in the traced phases
	App    string `json:"app"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// agg accumulates one (app, name) pair.
type agg struct {
	app, name string
	count     atomic.Int64
	ns        atomic.Int64
}

// objKey identifies the object a call is about.
type objKey struct{ model, id string }

type tracer struct {
	epoch time.Time
	// on gates recording to the measured phases; preload and warm-up are
	// traced by nobody.
	on atomic.Bool
	// capture gates payload capture for the isolated replays (preload and
	// warm-up of the measured fabric).
	capture atomic.Bool

	nextID atomic.Int64
	full   atomic.Bool
	pub    *agg // the controller calls

	mu       sync.Mutex
	spans    []span
	aggs     []*agg
	payloads [][]byte
	// latest maps an object to the publish span that last wrote it, so
	// that mapper and bus spans can name their parent while spans are
	// still being kept. open counts publish spans in progress; with
	// exactly one open, calls that carry no object (journal rows, bus
	// sends) belong to it.
	latest map[objKey][2]int64 // span id, msg
	open   map[int64]int64     // publish span id -> msg
}

func newTracer() *tracer {
	t := &tracer{latest: map[objKey][2]int64{}, open: map[int64]int64{}}
	t.pub = t.newAgg("pub", "core.publish")
	return t
}

// newAgg registers an aggregate; proxies call it once per operation at
// wrap time and keep the pointer, so recording is two atomic adds.
func (t *tracer) newAgg(app, name string) *agg {
	a := &agg{app: app, name: name}
	t.mu.Lock()
	t.aggs = append(t.aggs, a)
	t.mu.Unlock()
	return a
}

// record closes a span that started at start. key, when set, names the
// object the call was about.
func (t *tracer) record(a *agg, key objKey, start time.Time) {
	if !t.on.Load() {
		return
	}
	end := time.Now()
	a.count.Add(1)
	a.ns.Add(int64(end.Sub(start)))
	if t.full.Load() {
		return
	}
	t.mu.Lock()
	parent, msg := t.parentLocked(key)
	t.keepLocked(span{ID: t.nextID.Add(1), Parent: parent, Msg: msg, App: a.app, Name: a.name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

func (t *tracer) parentLocked(key objKey) (parent, msg int64) {
	if p, ok := t.latest[key]; ok {
		return p[0], p[1]
	}
	if len(t.open) == 1 {
		for id, m := range t.open {
			return id, m
		}
	}
	return 0, 0
}

func (t *tracer) keepLocked(s span) {
	if len(t.spans) >= maxSpans {
		t.full.Store(true)
		t.latest, t.open = nil, nil
		return
	}
	t.spans = append(t.spans, s)
}

// publishSpan is an open controller call.
type publishSpan struct {
	id, msg int64
}

// beginPublish opens the span of one controller call. Safe on a nil
// tracer (an untraced run).
func (t *tracer) beginPublish(o *op) publishSpan {
	if t == nil || !t.on.Load() || t.full.Load() {
		return publishSpan{}
	}
	ps := publishSpan{id: t.nextID.Add(1)}
	t.mu.Lock()
	if t.open != nil {
		ps.msg = ps.id
		t.open[ps.id] = ps.msg
		t.latest[objKey{o.model(), o.id}] = [2]int64{ps.id, ps.msg}
	}
	t.mu.Unlock()
	return ps
}

// endPublish closes it.
func (t *tracer) endPublish(ps publishSpan, start time.Time, took time.Duration) {
	if t == nil || !t.on.Load() {
		return
	}
	t.pub.count.Add(1)
	t.pub.ns.Add(int64(took))
	if ps.id == 0 {
		return
	}
	t.mu.Lock()
	if t.open != nil {
		delete(t.open, ps.id)
		t.keepLocked(span{ID: ps.id, Msg: ps.msg, App: "pub", Name: "core.publish",
			Start: int64(start.Sub(t.epoch)), End: int64(start.Add(took).Sub(t.epoch))})
	}
	t.mu.Unlock()
}

// total sums the aggregates match selects.
func (t *tracer) total(match func(a *agg) bool) (count int64, ns float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range t.aggs {
		if match(a) {
			count += a.count.Load()
			ns += float64(a.ns.Load())
		}
	}
	return count, ns
}

// traceFile is the span file's layout (see README.md, "Reading the
// trace").
type traceFile struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Epoch      string      `json:"epoch"`
	Aggregates []aggRecord `json:"aggregates"`
	Spans      []span      `json:"spans"`
}

type aggRecord struct {
	App    string  `json:"app"`
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	MeanNs float64 `json:"mean_ns"`
}

// write writes the span file, returning its path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	f := traceFile{Workload: workload, Seed: seed, Epoch: t.epoch.UTC().Format(time.RFC3339Nano), Spans: t.spans}
	for _, a := range t.aggs {
		if n := a.count.Load(); n > 0 {
			f.Aggregates = append(f.Aggregates, aggRecord{App: a.app, Name: a.name, Count: n, MeanNs: float64(a.ns.Load()) / float64(n)})
		}
	}
	t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
