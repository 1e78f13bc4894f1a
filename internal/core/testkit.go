package core

import (
	"fmt"
	"time"

	"synapse/internal/model"
	"synapse/internal/vstore"
	"synapse/internal/wire"
)

// PublisherFile is the shareable description of what a publisher
// publishes (§3.1: "Synapse generates a publisher file for each
// publisher listing the various objects and fields being published and
// is made available to developers who want to create subscribers"),
// together with the publisher's exported test-data factories (§4.5).
//
// Subscriber teams import a publisher file to develop and test their
// integration without running the publisher app at all.
type PublisherFile struct {
	App  string
	Mode DeliveryMode
	// Models maps model name to published attribute names.
	Models map[string][]string
	// Factories generate sample instances for integration tests.
	Factories model.FactorySet
}

// ExportPublisherFile produces the app's publisher file.
func (a *App) ExportPublisherFile() PublisherFile {
	pf := PublisherFile{
		App:    a.name,
		Mode:   a.cfg.Mode,
		Models: make(map[string][]string),
	}
	for _, m := range a.fabric.PublishedModels(a.name) {
		pf.Models[m] = a.fabric.PublishedAttrs(a.name, m)
	}
	if set, ok := a.fabric.Factories(a.name); ok {
		pf.Factories = set
	}
	return pf
}

// ImportPublisherFile registers a publisher's contract on the fabric
// without running the publisher app, enabling subscriber-side
// development and testing against the static checks of §4.5.
func (f *Fabric) ImportPublisherFile(pf PublisherFile) error {
	f.mu.Lock()
	if _, ok := f.apps[pf.App]; ok {
		f.mu.Unlock()
		return fmt.Errorf("synapse: app %q is live; import its file only in tests without the app", pf.App)
	}
	mode := pf.Mode
	if mode == modeUnset {
		mode = Causal
	}
	f.modes[pf.App] = mode
	f.mu.Unlock()
	for m, attrs := range pf.Models {
		if err := f.declarePublished(pf.App, m, attrs); err != nil {
			return err
		}
	}
	if pf.Factories != nil {
		f.ExportFactories(pf.App, pf.Factories)
	}
	return nil
}

// Emulator replays a publisher's factories against a subscriber,
// producing the same wire payloads the subscriber would receive in
// production (§4.5: "Synapse will emulate the payloads that would be
// received by the subscriber in a production environment").
type Emulator struct {
	sub    *App
	pf     PublisherFile
	seq    uint64
	emuVst *vstore.Store // emulated publisher counters
}

// NewEmulator builds an emulator for the subscriber app against the
// imported publisher file.
func NewEmulator(sub *App, pf PublisherFile) *Emulator {
	return &Emulator{
		sub:    sub,
		pf:     pf,
		emuVst: vstore.New(vstore.Config{Shards: 1}),
	}
}

// EmulateCreate synthesizes and processes the creation message for the
// seq-th factory instance of the model, returning the record shipped.
func (e *Emulator) EmulateCreate(modelName string, seq int) (*model.Record, error) {
	factory, ok := e.pf.Factories.For(modelName)
	if !ok {
		return nil, fmt.Errorf("synapse: publisher %s exports no factory for %s", e.pf.App, modelName)
	}
	rec := factory.New(seq)
	return rec, e.emulate(wire.OpCreate, rec)
}

// EmulateUpdate synthesizes and processes an update message carrying
// the given attributes for an existing instance.
func (e *Emulator) EmulateUpdate(rec *model.Record) error {
	return e.emulate(wire.OpUpdate, rec)
}

// EmulateDestroy synthesizes and processes a destroy message.
func (e *Emulator) EmulateDestroy(modelName, id string) error {
	return e.emulate(wire.OpDestroy, model.NewRecord(modelName, id))
}

// emulate builds a production-shaped message (object write dependency,
// advancing versions, publisher generation 0) and hands it to the
// subscriber's processing path — through JSON, exactly like the wire.
func (e *Emulator) emulate(verb wire.OpKind, rec *model.Record) error {
	attrs, published := e.pf.Models[rec.Model]
	if !published {
		return fmt.Errorf("%w: %s/%s", ErrUnpublished, e.pf.App, rec.Model)
	}
	key := e.emuVst.KeyFor(depName(e.pf.App, rec.Model, rec.ID))
	bumped, err := e.emuVst.BumpBatch(nil, []vstore.Key{key})
	if err != nil {
		return err
	}
	bumped.Release()

	e.seq++
	op := wire.Operation{
		Operation: verb,
		Types:     []string{rec.Model},
		ID:        rec.ID,
		Object:    wire.Token{Key: uint64(key)},
	}
	if verb != wire.OpDestroy {
		op.Attributes = make(map[string]any, len(attrs))
		for _, attr := range attrs {
			if rec.Has(attr) {
				op.Attributes[attr] = rec.Get(attr)
			}
		}
	}
	msg := &wire.Message{
		App:         e.pf.App,
		Operations:  []wire.Operation{op},
		Deps:        []wire.Dep{{Token: op.Object, Version: bumped.Version(key)}},
		PublishedAt: time.Now().UTC(),
		Seq:         e.seq,
	}
	payload, err := wire.Marshal(msg)
	if err != nil {
		return err
	}
	decoded, err := wire.Unmarshal(payload)
	if err != nil {
		return err
	}
	return e.sub.ProcessMessage(decoded)
}
