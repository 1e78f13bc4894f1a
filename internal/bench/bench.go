// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§6). Experiments (table.go) is
// the one list of them: what each runs, the document it produces, how
// that prints, and the rule that gates it against its committed
// BENCH_*.json baseline. The synapse-bench command is a loop over it.
//
// Absolute numbers differ from the paper — the substrates are in-process
// simulators with scaled-down latency profiles, not a fleet of c3.large
// instances — but the harness preserves the experiments' structure:
// which system wins, by roughly what factor, and where the knees and
// crossovers fall. EXPERIMENTS.md records the scaling choices and the
// measured results side by side with the paper's.
package bench

import (
	"fmt"
	"time"

	"synapse/internal/core"
	"synapse/internal/model"
	"synapse/internal/orm"
	"synapse/internal/orm/activerecord"
	"synapse/internal/orm/columnorm"
	"synapse/internal/orm/documentorm"
	"synapse/internal/orm/graphorm"
	"synapse/internal/orm/searchorm"
	"synapse/internal/storage"
	"synapse/internal/storage/coldb"
	"synapse/internal/storage/docdb"
	"synapse/internal/storage/graphdb"
	"synapse/internal/storage/reldb"
	"synapse/internal/storage/searchdb"
)

// Engine names accepted by NewMapper.
const (
	PostgreSQL    = "postgresql"
	MySQL         = "mysql"
	Oracle        = "oracle"
	MongoDB       = "mongodb"
	TokuMX        = "tokumx"
	RethinkDB     = "rethinkdb"
	Cassandra     = "cassandra"
	Elasticsearch = "elasticsearch"
	Neo4j         = "neo4j"
	Ephemeral     = "ephemeral" // DB-less (nil mapper)
)

// engines is the one table of backed engines (everything but
// Ephemeral): how to build a mapper over each, the per-write latency
// used as the no-Synapse baseline in Fig 13(a), and the sustained write
// rate at which it saturates in the Fig 13(b) runs. PostgreSQL's 0.81ms
// and Cassandra's 1.9ms, and PostgreSQL's 12,000 and Elasticsearch's
// 20,000 writes/s, come from the paper; the others are interpolated to
// keep its ranking (column stores fastest, graph slowest).
var engines = []struct {
	name         string
	mapper       func(storage.Profile) orm.Mapper
	writeLatency time.Duration
	maxWriteRate float64
}{
	{PostgreSQL, relMapper(reldb.Postgres), 810 * time.Microsecond, 12000},
	{MySQL, relMapper(reldb.MySQL), 900 * time.Microsecond, 18000},
	{Oracle, relMapper(reldb.Oracle), 810 * time.Microsecond, 12000},
	{MongoDB, docMapper(docdb.MongoDB), 600 * time.Microsecond, 26000},
	{TokuMX, docMapper(docdb.TokuMX), 700 * time.Microsecond, 30000},
	{RethinkDB, docMapper(docdb.RethinkDB), 750 * time.Microsecond, 22000},
	{Cassandra, func(p storage.Profile) orm.Mapper { return columnorm.New(coldb.NewWithProfile(p)) }, 1900 * time.Microsecond, 45000},
	{Elasticsearch, func(p storage.Profile) orm.Mapper { return searchorm.New(searchdb.NewWithProfile(p)) }, 1200 * time.Microsecond, 20000},
	{Neo4j, func(p storage.Profile) orm.Mapper { return graphorm.New(graphdb.NewWithProfile(p)) }, 1500 * time.Microsecond, 9000},
}

func relMapper(v reldb.Flavor) func(storage.Profile) orm.Mapper {
	return func(p storage.Profile) orm.Mapper { return activerecord.New(reldb.NewWithProfile(v, p)) }
}

func docMapper(v docdb.Flavor) func(storage.Profile) orm.Mapper {
	return func(p storage.Profile) orm.Mapper { return documentorm.New(docdb.NewWithProfile(v, p)) }
}

// NewMapper builds a fresh mapper over the named engine with the given
// performance profile. Ephemeral returns nil (a DB-less app).
func NewMapper(engine string, p storage.Profile) orm.Mapper {
	for _, e := range engines {
		if e.name == engine {
			return e.mapper(p)
		}
	}
	if engine != Ephemeral {
		panic("bench: unknown engine " + engine)
	}
	return nil
}

// engineProfile makes an engine's workers latency-bound (its write
// latency) and caps it at its saturation rate; Ephemeral is unlimited.
func engineProfile(engine string) (p storage.Profile) {
	for _, e := range engines {
		if e.name == engine {
			p = storage.Profile{WriteLatency: e.writeLatency, ReadLatency: e.writeLatency / 2, MaxWriteRate: e.maxWriteRate}
		}
	}
	return p
}

// socialModels returns fresh Post and Comment descriptors for the §6.3
// social microbenchmark.
func socialModels() []*model.Descriptor {
	return []*model.Descriptor{
		model.NewDescriptor("Post",
			model.Field{Name: "author", Type: model.Ref, RefModel: "User"},
			model.Field{Name: "body", Type: model.String},
		),
		model.NewDescriptor("Comment",
			model.Field{Name: "post", Type: model.Ref, RefModel: "Post"},
			model.Field{Name: "author", Type: model.Ref, RefModel: "User"},
			model.Field{Name: "body", Type: model.String},
		),
	}
}

// itemModel returns the one-attribute Item descriptor the single-model
// experiments publish.
func itemModel(attr string, typ model.FieldType) func() []*model.Descriptor {
	return func() []*model.Descriptor {
		return []*model.Descriptor{model.NewDescriptor("Item", model.Field{Name: attr, Type: typ})}
	}
}

// vstoreShards is the version-store width of every experiment that
// injects a version-store round trip.
const vstoreShards = 8

// mustApp registers an app or panics (harness setup errors are bugs).
func mustApp(f *core.Fabric, name string, m orm.Mapper, cfg core.Config) *core.App {
	a, err := core.NewApp(f, name, m, cfg)
	if err != nil {
		panic(err)
	}
	return a
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// fmtRate renders a throughput for the paper-style tables.
func fmtRate(v float64) string {
	if v >= 100 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.1f", v)
}
