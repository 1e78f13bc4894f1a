// Package synapse is a Go implementation of Synapse (Viennot et al.,
// EuroSys 2015): an easy-to-use, strong-semantic replication system for
// heterogeneous-database microservice ecosystems.
//
// Services — Apps — run on their own databases and incorporate read-only
// views of each other's shared data. A publisher declares which model
// attributes it shares; subscribers declare what they incorporate, in
// their own schema, on their own engine. Synapse synchronizes the views
// in real time with selectable delivery semantics (global, causal, or
// weak ordering), tracking dependencies transparently through
// controller scopes.
//
// A minimal ecosystem (the paper's Fig 1):
//
//	fabric := synapse.NewFabric()
//
//	pub, _ := synapse.NewApp(fabric, "pub1",
//	    synapse.NewDocumentMapper(synapse.MongoDB), synapse.Config{})
//	user := synapse.NewModel("User",
//	    synapse.F("name", synapse.String))
//	pub.Publish(user, synapse.PubSpec{Attrs: []string{"name"}})
//
//	sub, _ := synapse.NewApp(fabric, "sub1",
//	    synapse.NewSQLMapper(synapse.Postgres), synapse.Config{})
//	subUser := synapse.NewModel("User",
//	    synapse.F("name", synapse.String))
//	sub.Subscribe(subUser, synapse.SubSpec{From: "pub1", Attrs: []string{"name"}})
//	sub.StartWorkers(4)
//
//	ctl := pub.NewController(pub.NewSession("User", "1"))
//	rec := synapse.NewRecord("User", "1")
//	rec.Set("name", "alice")
//	ctl.Create(rec)
//
// See the examples/ directory for complete applications, and DESIGN.md
// for the architecture.
package synapse

import (
	"synapse/internal/core"
	"synapse/internal/faultinject"
	"synapse/internal/jobs"
	"synapse/internal/model"
	"synapse/internal/netsim"
	"synapse/internal/orm"
	"synapse/internal/orm/activerecord"
	"synapse/internal/orm/columnorm"
	"synapse/internal/orm/documentorm"
	"synapse/internal/orm/graphorm"
	"synapse/internal/orm/searchorm"
	"synapse/internal/storage/coldb"
	"synapse/internal/storage/docdb"
	"synapse/internal/storage/graphdb"
	"synapse/internal/storage/reldb"
	"synapse/internal/storage/searchdb"
)

// Core abstractions (Table 2 of the paper).
type (
	// Fabric is the shared infrastructure of one ecosystem: broker,
	// coordinator, and the publisher registry.
	Fabric = core.Fabric
	// App is one service: publisher, subscriber, decorator, or any mix.
	App = core.App
	// Config configures an app (delivery mode, version-store sharding,
	// queue limits, dependency-wait timeout).
	Config = core.Config
	// PubSpec declares a publication; SubSpec a subscription.
	PubSpec = core.PubSpec
	SubSpec = core.SubSpec
	// Session scopes controllers to a user; Controller is a unit of work
	// with transparent dependency tracking; Txn stages transactional
	// writes that ship as one message.
	Session    = core.Session
	Controller = core.Controller
	Txn        = core.Txn
	// DeliveryMode selects update ordering semantics.
	DeliveryMode = core.DeliveryMode
)

// Model layer.
type (
	// Model describes a data model (the stand-in for a Ruby model
	// class): fields, virtual attributes, callbacks, inheritance.
	Model = model.Descriptor
	// Field declares one persisted attribute.
	Field = model.Field
	// FieldType enumerates attribute types.
	FieldType = model.FieldType
	// Record is one model instance.
	Record = model.Record
	// VirtualAttr is a programmer-provided getter/setter attribute used
	// for schema mapping.
	VirtualAttr = model.VirtualAttr
	// CallbackCtx is the context passed to active-model callbacks.
	CallbackCtx = model.CallbackCtx
	// Hook identifies a callback point.
	Hook = model.Hook
	// Factory generates deterministic sample records (§4.5 testing).
	Factory = model.Factory
	// FactorySet is a publisher's exported factory collection.
	FactorySet = model.FactorySet
)

// Delivery modes (§3.2).
const (
	Weak   = core.Weak
	Causal = core.Causal
	Global = core.Global
)

// WaitForever disables the dependency-wait timeout (pure causal mode).
const WaitForever = core.WaitForever

// Dependency-tracking policies (Config.DepTracker): the paper's hashed
// fixed-cardinality scheme, and exact per-object dotted version
// vectors. DESIGN.md §2g has the trade-off.
const (
	TrackerHash = core.TrackerHash
	TrackerDVV  = core.TrackerDVV
)

// Field types.
const (
	String     = model.String
	Int        = model.Int
	Float      = model.Float
	Bool       = model.Bool
	StringList = model.StringList
	Map        = model.Map
	Ref        = model.Ref
)

// Callback hooks.
const (
	BeforeCreate  = model.BeforeCreate
	AfterCreate   = model.AfterCreate
	BeforeUpdate  = model.BeforeUpdate
	AfterUpdate   = model.AfterUpdate
	BeforeDestroy = model.BeforeDestroy
	AfterDestroy  = model.AfterDestroy
)

// Errors.
var (
	ErrUnpublished   = core.ErrUnpublished
	ErrModeTooStrong = core.ErrModeTooStrong
	ErrNotOwner      = core.ErrNotOwner
	ErrDecoratorAttr = core.ErrDecoratorAttr
	// ErrDraining is returned by writes while App.Drain quiesces the app.
	ErrDraining = core.ErrDraining
)

// Fault injection (§4.5 testing). Arm named fault sites on an app's
// registry (App.Faults) to kill or fail the delivery pipeline at a
// precise seam; see DESIGN.md §2c.
type (
	// Fault is the action taken when an armed site fires.
	Fault = faultinject.Fault
	// FaultRegistry holds the armed sites of one app (or broker).
	FaultRegistry = faultinject.Registry
)

// Named fault sites on the publish/recover/apply path.
const (
	FaultBeforePublish    = core.FaultBeforePublish
	FaultBeforeJournalAck = core.FaultBeforeJournalAck
	FaultJournalDrain     = core.FaultJournalDrain
	FaultApply            = core.FaultApply
	// FaultBeforeAckFlush fires between a group-commit flush's counter
	// increments and its broker acks — the crash window whose
	// redeliveries the version guard must absorb (arm with FailWith;
	// the flusher treats any injected error as the crash).
	FaultBeforeAckFlush = core.FaultBeforeAckFlush
)

// Crash returns a Fault that models process death at the site (a
// recoverable panic; test with IsCrash).
func Crash() Fault { return faultinject.Crash() }

// FailWith returns a Fault that makes the site return err.
func FailWith(err error) Fault { return faultinject.Fail(err) }

// IsCrash reports whether a recovered panic value came from Crash.
func IsCrash(r any) bool { return faultinject.IsCrash(r) }

// Simulated network fabric (see DESIGN.md §2d): install a Network on
// Fabric.Net to route every cross-service call — broker publish/
// consume/ack, version-store round trips, coordinator reads — through
// seeded per-link latency, drops, duplicates, and partitions. Apps ride
// it out with per-endpoint retries, circuit breakers, and
// journal-and-defer publishes under one fixed policy: 2 attempts per
// call within 4 ms, a jittered backoff of up to 200 µs before the retry, a breaker that opens
// after 3 failed calls for a 5 ms cooldown, and a journal drain that
// retries every cooldown while a send is deferred or an ack parked.
type (
	// Network is the simulated network: per-link profiles, partitions,
	// and seeded fault decisions.
	Network = netsim.Network
	// NetProfile is one link's behaviour (latency band, drop and
	// duplicate rates).
	NetProfile = netsim.Profile
	// NetStats counts what the network did (calls, drops, duplicates,
	// calls rejected by partitions).
	NetStats = netsim.Stats
)

// NewNetwork builds a simulated network whose every fault decision is
// driven by the seed (same seed, same script).
func NewNetwork(seed int64) *Network { return netsim.New(seed) }

// Endpoint names apps dial on the simulated network: their own name is
// the client side; these are the service sides.
const (
	EndpointBroker = core.EndpointBroker
	EndpointCoord  = core.EndpointCoord
)

// EndpointVStore names an app's version-store endpoint on the network.
func EndpointVStore(app string) string { return core.EndpointVStore(app) }

// NewFabric creates an empty ecosystem.
func NewFabric() *Fabric { return core.NewFabric() }

// NewApp registers a service on the fabric.
func NewApp(f *Fabric, name string, mapper Mapper, cfg Config) (*App, error) {
	return core.NewApp(f, name, mapper, cfg)
}

// NewModel builds a model descriptor.
func NewModel(name string, fields ...Field) *Model {
	return model.NewDescriptor(name, fields...)
}

// F is shorthand for a field declaration.
func F(name string, t FieldType) Field { return Field{Name: name, Type: t} }

// FIndexed is shorthand for an indexed field declaration.
func FIndexed(name string, t FieldType) Field { return Field{Name: name, Type: t, Indexed: true} }

// NewRecord builds a model instance.
func NewRecord(modelName, id string) *Record { return model.NewRecord(modelName, id) }

// Mapper is the common ORM surface Synapse replicates through (the
// create/read/update/delete contract of §2; see internal/orm).
type Mapper = orm.Mapper

// SQL flavours for NewSQLMapper.
var (
	Postgres = reldb.Postgres
	MySQL    = reldb.MySQL
	Oracle   = reldb.Oracle
)

// Document flavours for NewDocumentMapper.
var (
	MongoDB   = docdb.MongoDB
	TokuMX    = docdb.TokuMX
	RethinkDB = docdb.RethinkDB
)

// NewSQLMapper builds an ActiveRecord-style mapper over a fresh
// relational database of the given flavour (PostgreSQL, MySQL, Oracle).
func NewSQLMapper(f reldb.Flavor) *activerecord.Mapper {
	return activerecord.New(reldb.New(f))
}

// NewDocumentMapper builds a Mongoid-style mapper over a fresh document
// database of the given flavour (MongoDB, TokuMX, RethinkDB).
func NewDocumentMapper(f docdb.Flavor) *documentorm.Mapper {
	return documentorm.New(docdb.New(f))
}

// NewColumnMapper builds a Cequel-style mapper over a fresh
// column-family database (Cassandra).
func NewColumnMapper() *columnorm.Mapper {
	return columnorm.New(coldb.New())
}

// NewSearchMapper builds a Stretcher-style, subscriber-only mapper over
// a fresh search database (Elasticsearch).
func NewSearchMapper() *searchorm.Mapper {
	return searchorm.New(searchdb.New())
}

// NewGraphMapper builds a Neo4j-style, subscriber-only mapper over a
// fresh graph database.
func NewGraphMapper() *graphorm.Mapper {
	return graphorm.New(graphdb.New())
}

// Background jobs (the Sidekiq-style scope of §4.2): each job runs in
// its own controller, so its writes are dependency-tracked like a
// request handler's.
type (
	// Job is one unit of background work.
	Job = jobs.Job
	// JobRunner executes queued jobs on a worker pool with retries.
	JobRunner = jobs.Runner
	// JobOptions tunes a JobRunner.
	JobOptions = jobs.Options
)

// NewJobRunner starts a background-job runner for the app.
func NewJobRunner(app *App, opts JobOptions) *JobRunner {
	return jobs.NewRunner(app, opts)
}

// Testing framework (§4.5).
type (
	// PublisherFile is the shareable publish contract + factories.
	PublisherFile = core.PublisherFile
	// Emulator replays factory-generated payloads against a subscriber.
	Emulator = core.Emulator
)

// NewEmulator builds a payload emulator for subscriber integration
// tests against an imported publisher file.
func NewEmulator(sub *App, pf PublisherFile) *Emulator {
	return core.NewEmulator(sub, pf)
}
