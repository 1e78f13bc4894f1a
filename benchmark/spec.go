package main

import (
	"fmt"
	"time"

	"synapse"
)

// engine names a subscriber (or publisher) database.
type engine string

const (
	postgres      engine = "postgresql"
	mongodb       engine = "mongodb"
	cassandra     engine = "cassandra"
	elasticsearch engine = "elasticsearch"
	neo4j         engine = "neo4j"
)

// adapterOf names the ORM adapter that serves an engine — the <adapter>
// in the per-layer metric names.
var adapterOf = map[engine]string{
	postgres:      "activerecord",
	mongodb:       "documentorm",
	cassandra:     "columnorm",
	elasticsearch: "searchorm",
	neo4j:         "graphorm",
}

var allEngines = []engine{postgres, mongodb, cassandra, elasticsearch, neo4j}

func newMapper(e engine) synapse.Mapper {
	switch e {
	case postgres:
		return synapse.NewSQLMapper(synapse.Postgres)
	case mongodb:
		return synapse.NewDocumentMapper(synapse.MongoDB)
	case cassandra:
		return synapse.NewColumnMapper()
	case elasticsearch:
		return synapse.NewSearchMapper()
	case neo4j:
		return synapse.NewGraphMapper()
	}
	panic(fmt.Sprintf("benchmark: unknown engine %q", e))
}

// workloadSpec is one named workload: a fabric and a load.
type workloadSpec struct {
	name string
	why  string

	pubEngine  engine
	subEngines []engine
	mode       synapse.DeliveryMode // publisher and subscription mode
	workers    int                  // subscriber workers per app
	vstoreRTT  time.Duration        // injected on every app
	zipfHot    bool                 // post updates zipf(1.2) over hotPosts

	pacedRate    float64 // open-loop publishes per second
	pacedSenders int
	satPubs      int // closed-loop publisher goroutines
	// nominal is the publish rate the saturation phase is sized for:
	// message counts are nominal × seconds, fixed before the run, so a
	// run is message-count-bound and its retained heap is comparable
	// between runs and commits.
	nominal float64
}

// sleeps reports whether the workload's time is set by injected round
// trips: its latencies are sleeps, which do not get longer when the
// host's instructions do, and are reported as measured.
func (w workloadSpec) sleeps() bool { return w.vstoreRTT > 0 }

var workloads = []workloadSpec{
	{
		name:      "social_causal",
		why:       "CPU-bound baseline: PostgreSQL publisher (2PC, journaled) to one MongoDB subscriber, causal, no injected latency; the publisher is most of the cost, so model/orm/publish/journal savings show here",
		pubEngine: postgres, subEngines: []engine{mongodb}, mode: synapse.Causal, workers: 2,
		pacedRate: 4000, pacedSenders: 1, satPubs: 2, nominal: 24000,
	},
	{
		name:      "fanout_hetero",
		why:       "MongoDB publisher (journalDirect path) to five subscribers, one per engine: each publish is decoded and applied five times, so broker, decode, subscribe and the adapters dominate, not the publisher",
		pubEngine: mongodb, subEngines: allEngines, mode: synapse.Causal, workers: 1,
		pacedRate: 1500, pacedSenders: 1, satPubs: 1, nominal: 6500,
	},
	{
		name:      "weak_hot",
		why:       "social_causal's engines, all weak, 4 workers, zipf(1.2) updates over 64 hot posts: the version-guard discard path with no dependency waits; a causal-scheduler change must not move it",
		pubEngine: postgres, subEngines: []engine{mongodb}, mode: synapse.Weak, workers: 4, zipfHot: true,
		pacedRate: 4000, pacedSenders: 1, satPubs: 2, nominal: 24000,
	},
	{
		name:      "social_rtt",
		why:       "social_causal with a 1 ms version-store round trip on both apps, 8 workers, 32 mostly-sleeping publishers: waiting-bound, moved by batching and group commit on the critical path, not by CPU savings",
		pubEngine: postgres, subEngines: []engine{mongodb}, mode: synapse.Causal, workers: 8,
		// Not shorter than 1 ms: the Go runtime rounds the wait of an idle
		// processor up to a whole millisecond, so a 500 µs round trip took
		// 0.5 ms when the process was busy and 1.1 ms when it was not, and
		// the workload ran a quarter faster whenever the host slowed down.
		vstoreRTT: time.Millisecond,
		pacedRate: 300, pacedSenders: 4, satPubs: 32, nominal: 5000,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

var (
	postAttrs    = []string{"body", "rev", "t"}
	commentAttrs = []string{"post_id", "body", "post_rev", "t"}
)

// newModels returns fresh Post and Comment descriptors; every app needs
// its own (callbacks hang off the descriptor).
func newModels() (post, comment *synapse.Model) {
	post = synapse.NewModel("Post",
		synapse.F("body", synapse.String),
		synapse.F("rev", synapse.Int),
		synapse.F("t", synapse.Float))
	comment = synapse.NewModel("Comment",
		synapse.F("post_id", synapse.String),
		synapse.F("body", synapse.String),
		synapse.F("post_rev", synapse.Int),
		synapse.F("t", synapse.Float))
	return post, comment
}

// subName names subscriber i; engines may repeat across apps.
func subName(i int, e engine) string { return fmt.Sprintf("sub%d-%s", i, e) }
