package core

import (
	"fmt"
	"sort"
	"sync"

	"synapse/internal/broker"
	"synapse/internal/coord"
	"synapse/internal/model"
	"synapse/internal/netsim"
)

// Bus is the messaging surface apps publish and consume through: the
// fabric's broker by default, or a wrapper around it (a tracing proxy,
// say) — anything that routes exchanges to durable queues with broker
// semantics (ErrBrokerDown while unavailable, defunct handles after a
// restart, at-least-once redelivery).
type Bus interface {
	Publish(exchange string, payload []byte) error
	DeclareQueue(name string, maxLen int) (*broker.Queue, error)
	Queue(name string) (*broker.Queue, bool)
	DeleteQueue(name string)
	Bind(queueName, exchange string) error
	ExchangePressure(exchange string) broker.Pressure
	Down() bool
}

// Fabric is the shared infrastructure of a Synapse ecosystem: the
// reliable message broker, the generation coordinator, and the registry
// of apps and their published models. One Fabric corresponds to one
// deployment (e.g. all of Crowdtap's services, Fig 10).
type Fabric struct {
	Broker *broker.Broker
	Coord  *coord.Coordinator
	// Bus, when non-nil, replaces Broker as the messaging surface the
	// apps use — install a wrapper here (before creating apps) and
	// publishers/subscribers address it transparently; Broker stays the
	// default bus and the handle tests reach into.
	Bus Bus
	// Net, when non-nil, is the simulated network every cross-service
	// call (broker publish/consume/ack, version-store round trips,
	// coordinator calls) is routed through — per-link latency, drops,
	// duplicates, and partitions (see internal/netsim). Install it
	// before creating apps; nil means a perfect in-process network.
	Net *netsim.Network

	mu   sync.RWMutex
	apps map[string]*App
	// published: app -> model -> attribute set (the "publisher file" of
	// §3.1, used for the static subscription checks of §4.5).
	published map[string]map[string]map[string]struct{}
	// modes: app -> publisher delivery mode.
	modes map[string]DeliveryMode
	// factories: app -> exported factory set (§4.5).
	factories map[string]model.FactorySet
}

// NewFabric creates an empty ecosystem.
func NewFabric() *Fabric {
	return &Fabric{
		Broker:    broker.New(),
		Coord:     coord.New(),
		apps:      make(map[string]*App),
		published: make(map[string]map[string]map[string]struct{}),
		modes:     make(map[string]DeliveryMode),
		factories: make(map[string]model.FactorySet),
	}
}

// bus returns the messaging surface apps talk to: the installed Bus,
// or the default single-node broker.
func (f *Fabric) bus() Bus {
	if f.Bus != nil {
		return f.Bus
	}
	return f.Broker
}

func (f *Fabric) registerApp(a *App) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.apps[a.name]; ok {
		return fmt.Errorf("synapse: app %q already registered", a.name)
	}
	f.apps[a.name] = a
	f.modes[a.name] = a.cfg.Mode
	return nil
}

// App returns a registered app.
func (f *Fabric) App(name string) (*App, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	a, ok := f.apps[name]
	return a, ok
}

// Apps lists registered app names, sorted.
func (f *Fabric) Apps() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.apps))
	for n := range f.apps {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// declarePublished records that app publishes the model attributes and
// rejects double-publication of an attribute by the same app.
func (f *Fabric) declarePublished(app, modelName string, attrs []string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	models := f.published[app]
	if models == nil {
		models = make(map[string]map[string]struct{})
		f.published[app] = models
	}
	set := models[modelName]
	if set == nil {
		set = make(map[string]struct{})
		models[modelName] = set
	}
	for _, a := range attrs {
		if _, dup := set[a]; dup {
			return fmt.Errorf("%w: %s/%s.%s", ErrAlreadyPublished, app, modelName, a)
		}
		set[a] = struct{}{}
	}
	return nil
}

// checkSubscribable is the static check of §4.5: subscribing to a model
// or attribute the origin does not publish fails immediately.
func (f *Fabric) checkSubscribable(origin, modelName string, attrs []string) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	models, ok := f.published[origin]
	if !ok {
		return fmt.Errorf("%w: app %q publishes nothing", ErrUnpublished, origin)
	}
	set, ok := models[modelName]
	if !ok {
		return fmt.Errorf("%w: %s does not publish model %s", ErrUnpublished, origin, modelName)
	}
	for _, a := range attrs {
		if _, ok := set[a]; !ok {
			return fmt.Errorf("%w: %s does not publish %s.%s", ErrUnpublished, origin, modelName, a)
		}
	}
	return nil
}

// PublishedAttrs returns the attributes app publishes for a model (the
// publisher-file listing), sorted.
func (f *Fabric) PublishedAttrs(app, modelName string) []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	set := f.published[app][modelName]
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// PublishedModels returns the model names app publishes, sorted.
func (f *Fabric) PublishedModels(app string) []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.published[app]))
	for m := range f.published[app] {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// publisherMode returns the delivery mode an app publishes with.
func (f *Fabric) publisherMode(app string) (DeliveryMode, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	m, ok := f.modes[app]
	return m, ok
}

// ExportFactories publishes an app's test-data factories for subscriber
// integration tests (§4.5).
func (f *Fabric) ExportFactories(app string, set model.FactorySet) {
	f.mu.Lock()
	f.factories[app] = set
	f.mu.Unlock()
}

// Factories returns an app's exported factory set.
func (f *Fabric) Factories(app string) (model.FactorySet, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	set, ok := f.factories[app]
	return set, ok
}
