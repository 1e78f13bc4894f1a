package main

import (
	"time"

	"synapse"
	"synapse/internal/broker"
	"synapse/internal/orm"
)

// This file and layers.go are the only ones that import packages under
// internal/: the facade has no alias for the transactional mapper
// interfaces or the bus, and a proxy that did not forward them would
// silently move the publisher off the path it is supposed to time (a
// mapper that hides orm.Transactional sends PostgreSQL down the
// non-transactional journalDirect path).

// journalModel is the program's reserved publish-journal model; mapper
// calls on it are the journal layer, not the ORM layer.
const journalModel = "SynapseJournal"

// mapperAggs are one wrapped mapper's aggregates.
type mapperAggs struct {
	find, create, update, del, save  *agg
	begin, stage, prepare, commit    *agg
	journalWrite, journalAck, others *agg
}

// tracedMapper times every call the program makes into a mapper. The
// embedded interface forwards what is not timed (registration, scans,
// counters, the callback host).
type tracedMapper struct {
	synapse.Mapper
	tr *tracer
	a  mapperAggs
}

// tracedTxMapper is tracedMapper over a transactional engine.
type tracedTxMapper struct {
	*tracedMapper
	inner orm.Transactional
}

// wrapMapper wraps m in a timing proxy; on a nil tracer it returns m.
func (t *tracer) wrapMapper(app, adapter string, m synapse.Mapper) synapse.Mapper {
	if t == nil {
		return m
	}
	name := func(op string) *agg { return t.newAgg(app, "orm."+adapter+"."+op) }
	tm := &tracedMapper{Mapper: m, tr: t, a: mapperAggs{
		find: name("find"), create: name("create"), update: name("update"), del: name("delete"), save: name("save"),
		begin: name("tx_begin"), stage: name("tx_stage"), prepare: name("tx_prepare"), commit: name("tx_commit"),
		journalWrite: t.newAgg(app, "core.journal.write"), journalAck: t.newAgg(app, "core.journal.ack"),
	}}
	if tx, ok := m.(orm.Transactional); ok {
		return &tracedTxMapper{tracedMapper: tm, inner: tx}
	}
	return tm
}

func (m *tracedMapper) Find(model, id string) (*synapse.Record, error) {
	start := time.Now()
	rec, err := m.Mapper.Find(model, id)
	m.tr.record(m.a.find, objKey{model, id}, start)
	return rec, err
}

func (m *tracedMapper) Create(rec *synapse.Record) (*synapse.Record, error) {
	a := m.a.create
	if rec.Model == journalModel {
		a = m.a.journalWrite
	}
	start := time.Now()
	out, err := m.Mapper.Create(rec)
	m.tr.record(a, objKey{rec.Model, rec.ID}, start)
	return out, err
}

func (m *tracedMapper) Update(rec *synapse.Record) (*synapse.Record, error) {
	start := time.Now()
	out, err := m.Mapper.Update(rec)
	m.tr.record(m.a.update, objKey{rec.Model, rec.ID}, start)
	return out, err
}

func (m *tracedMapper) Delete(model, id string) error {
	a := m.a.del
	if model == journalModel {
		a = m.a.journalAck
	}
	start := time.Now()
	err := m.Mapper.Delete(model, id)
	m.tr.record(a, objKey{model, id}, start)
	return err
}

func (m *tracedMapper) Save(rec *synapse.Record) error {
	start := time.Now()
	err := m.Mapper.Save(rec)
	m.tr.record(m.a.save, objKey{rec.Model, rec.ID}, start)
	return err
}

// Begin implements orm.Transactional. The returned transaction forwards
// orm.TxJournaler exactly when the engine's does.
func (m *tracedTxMapper) Begin() orm.MapperTx {
	start := time.Now()
	inner := m.inner.Begin()
	m.tr.record(m.a.begin, objKey{}, start)
	tx := &tracedTx{inner: inner, m: m.tracedMapper}
	if j, ok := inner.(orm.TxJournaler); ok {
		return &tracedJournalTx{tracedTx: tx, j: j}
	}
	return tx
}

// tracedTx times a buffered transaction. key remembers the first staged
// object so that prepare, journal and commit spans find their publish.
type tracedTx struct {
	inner orm.MapperTx
	m     *tracedMapper
	key   objKey
}

func (tx *tracedTx) staged(model, id string, start time.Time) {
	if tx.key == (objKey{}) {
		tx.key = objKey{model, id}
	}
	tx.m.tr.record(tx.m.a.stage, tx.key, start)
}

func (tx *tracedTx) Create(rec *synapse.Record) error {
	start := time.Now()
	err := tx.inner.Create(rec)
	tx.staged(rec.Model, rec.ID, start)
	return err
}

func (tx *tracedTx) Update(rec *synapse.Record) error {
	start := time.Now()
	err := tx.inner.Update(rec)
	tx.staged(rec.Model, rec.ID, start)
	return err
}

func (tx *tracedTx) Delete(model, id string) error {
	start := time.Now()
	err := tx.inner.Delete(model, id)
	tx.staged(model, id, start)
	return err
}

func (tx *tracedTx) Prepare() error {
	start := time.Now()
	err := tx.inner.Prepare()
	tx.m.tr.record(tx.m.a.prepare, tx.key, start)
	return err
}

func (tx *tracedTx) Commit() ([]*synapse.Record, error) {
	start := time.Now()
	out, err := tx.inner.Commit()
	tx.m.tr.record(tx.m.a.commit, tx.key, start)
	return out, err
}

func (tx *tracedTx) Abort() { tx.inner.Abort() }

// tracedJournalTx adds orm.TxJournaler.
type tracedJournalTx struct {
	*tracedTx
	j orm.TxJournaler
}

func (tx *tracedJournalTx) StageJournal(rec *synapse.Record) error {
	start := time.Now()
	err := tx.j.StageJournal(rec)
	tx.m.tr.record(tx.m.a.journalWrite, tx.key, start)
	return err
}

// tracedBus times Bus.Publish and, while the tracer is capturing, keeps
// the wire payloads for the isolated replays. Everything else is the
// embedded broker's.
type tracedBus struct {
	*broker.Broker
	tr  *tracer
	pub *agg
}

// wrapBus installs the bus proxy on a fabric; a no-op on a nil tracer.
func (t *tracer) wrapBus(f *synapse.Fabric) {
	if t == nil {
		return
	}
	f.Bus = &tracedBus{Broker: f.Broker, tr: t, pub: t.newAgg("pub", "broker.publish")}
}

func (b *tracedBus) Publish(exchange string, payload []byte) error {
	if b.tr.capture.Load() {
		b.tr.mu.Lock()
		b.tr.payloads = append(b.tr.payloads, payload)
		b.tr.mu.Unlock()
	}
	start := time.Now()
	err := b.Broker.Publish(exchange, payload)
	b.tr.record(b.pub, objKey{}, start)
	return err
}
