package main

import (
	"fmt"
	"runtime"
	"time"

	"synapse"
	"synapse/internal/broker"
	"synapse/internal/deptrack"
	"synapse/internal/orm"
	"synapse/internal/vstore"
	"synapse/internal/wire"
)

// Isolated replay: each layer's public functions timed on the workload's
// own stream, from one goroutine, with nothing else running. The inputs
// are the ops the generator produced for preload and warm-up (same seed,
// same stream) and the wire payloads the traced run's bus proxy captured
// for exactly those ops. The preload part of every replay is untimed; it
// puts each store in the state the measured phases see.
//
// This is the only file besides proxy.go that imports internal/
// packages; a refactor of those packages may break it, and only it.

// layerCost is one isolated measurement.
type layerCost struct {
	ns     float64 // per op, on the reference host
	allocs float64 // per op
}

// replay holds the inputs of the isolated replays.
type replay struct {
	spec     workloadSpec
	ref      *reference
	gen      *generator
	preload  []op
	ops      []op // the warm-up stream: what is timed
	payloads [][]byte
	msgs     []*wire.Message // payloads decoded, preload first
	nPre     int             // payloads (and msgs) belonging to the preload
}

// measure runs op(0) … op(n-1) and charges the loop per op. As in the
// closed loops of a run, the reference operation runs after every
// refEvery-th op — interleaved, so it sees the caches the way the layer
// leaves them — and the loop's time, less the reference's own, is
// converted to the reference host with the factor those samples give
// (one goroutine in a hot loop: the whole interval scales, the way a
// busy closed loop does — see busyExponent).
func (rp *replay) measure(n int, op func(i int)) layerCost {
	if n == 0 {
		return layerCost{}
	}
	var m0, m1 runtime.MemStats
	var refTime time.Duration
	var refs []float64
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		op(i)
		if i%refEvery == refEvery-1 {
			if took, ok := rp.ref.sample(); ok {
				refTime += took
				refs = append(refs, float64(took))
			}
		}
	}
	wall := time.Since(start) - refTime
	runtime.ReadMemStats(&m1)
	factor := 1.0
	if len(refs) >= 10 {
		factor = busyFactor(median(refs) / refNominalNs)
	}
	return layerCost{
		ns:     float64(wall) / factor / float64(n),
		allocs: (float64(m1.Mallocs-m0.Mallocs) - float64(len(refs))*rp.ref.allocsPerOp) / float64(n),
	}
}

// buildRecord builds the record a publish of o carries (nil for a
// destroy), the way run.publish does; the send stamp and post revision
// are placeholders of the right type.
func (rp *replay) buildRecord(o *op) *synapse.Record {
	return rp.gen.record(o, int64(o.comment), o.rev)
}

// depNames returns the dependency names the publisher derives for o in
// causal mode: its own object and the session's user as writes, the
// comment's post as a read.
func (rp *replay) depNames(o *op) (reads, writes []string) {
	name := func(model, id string) string { return "pub/" + orm.Tableize(model) + "/id/" + id }
	writes = []string{name(o.model(), o.id), name("User", fmt.Sprintf("u%03d", o.user))}
	if o.kind == opCreateComment {
		reads = []string{name("Post", rp.gen.postIDs[o.post])}
	}
	return reads, writes
}

func registerModels(m synapse.Mapper) error {
	post, comment := newModels()
	if err := m.Register(post); err != nil {
		return err
	}
	return m.Register(comment)
}

// run performs every isolated replay and returns the per-layer metrics.
func (rp *replay) run() (map[string]float64, error) {
	out := map[string]float64{}
	put := func(prefix string, c layerCost) {
		out[prefix+"_ns"] = c.ns
		out[prefix+"_allocs"] = c.allocs
	}

	// model: building the records a request handler hands to the
	// controller.
	put("model.record_build", rp.measure(len(rp.ops), func(i int) { rp.buildRecord(&rp.ops[i]) }))

	// orm, publisher side: Create of the stream's new comments on the two
	// engines that publish (storage engine beneath included).
	for _, e := range []engine{postgres, mongodb} {
		c, err := rp.ormCreate(e)
		if err != nil {
			return nil, err
		}
		put("orm."+adapterOf[e]+".create", c)
	}
	// orm, subscriber side: Save (create, update) and Delete (destroy) of
	// the stream on each of the five engines.
	for _, e := range allEngines {
		c, err := rp.ormSave(e)
		if err != nil {
			return nil, err
		}
		put("orm."+adapterOf[e]+".save", c)
	}

	if err := rp.vstoreAndDeptrack(out, put); err != nil {
		return nil, err
	}
	if err := rp.wireAndBroker(out, put); err != nil {
		return nil, err
	}

	c, err := rp.publishWrite()
	if err != nil {
		return nil, err
	}
	put("core.publish.write", c)

	c, err = rp.subscribeProcess(synapse.Causal)
	if err != nil {
		return nil, err
	}
	put("core.subscribe.process", c)
	c, err = rp.subscribeProcess(synapse.Weak)
	if err != nil {
		return nil, err
	}
	out["core.subscribe.process_weak_ns"] = c.ns
	return out, nil
}

func (rp *replay) ormCreate(e engine) (layerCost, error) {
	m := newMapper(e)
	if err := registerModels(m); err != nil {
		return layerCost{}, err
	}
	for i := range rp.preload {
		if _, err := m.Create(rp.buildRecord(&rp.preload[i])); err != nil {
			return layerCost{}, err
		}
	}
	var recs []*synapse.Record
	for i := range rp.ops {
		if rp.ops[i].kind == opCreateComment {
			recs = append(recs, rp.buildRecord(&rp.ops[i]))
		}
	}
	var err error
	c := rp.measure(len(recs), func(i int) {
		if _, cerr := m.Create(recs[i]); cerr != nil {
			err = cerr
		}
	})
	return c, err
}

func (rp *replay) ormSave(e engine) (layerCost, error) {
	m := newMapper(e)
	if err := registerModels(m); err != nil {
		return layerCost{}, err
	}
	for i := range rp.preload {
		if err := m.Save(rp.buildRecord(&rp.preload[i])); err != nil {
			return layerCost{}, err
		}
	}
	recs := make([]*synapse.Record, len(rp.ops))
	for i := range rp.ops {
		recs[i] = rp.buildRecord(&rp.ops[i])
	}
	var err error
	c := rp.measure(len(rp.ops), func(i int) {
		var oerr error
		if recs[i] != nil {
			oerr = m.Save(recs[i])
		} else {
			oerr = m.Delete("Comment", rp.ops[i].id)
		}
		if oerr != nil {
			err = oerr
		}
	})
	return c, err
}

// vstoreAndDeptrack times the version-store round-trip plans and the
// tracker's plan on the stream's dependency names, with zero injected
// latency.
func (rp *replay) vstoreAndDeptrack(out map[string]float64, put func(string, layerCost)) error {
	store := vstore.New(vstore.Config{Shards: 1})
	tracker, err := deptrack.New("hash", store, false)
	if err != nil {
		return err
	}
	type names struct{ reads, writes []string }
	all := make([]names, len(rp.ops))
	for i := range rp.ops {
		all[i].reads, all[i].writes = rp.depNames(&rp.ops[i])
	}
	put("deptrack.plan", rp.measure(len(all), func(i int) {
		plan, perr := tracker.Plan(all[i].reads, all[i].writes)
		if perr != nil {
			err = perr
			return
		}
		plan.Release()
	}))
	if err != nil {
		return err
	}

	type keys struct{ reads, writes, all []vstore.Key }
	ks := make([]keys, len(all))
	for i, n := range all {
		for _, s := range n.reads {
			ks[i].reads = append(ks[i].reads, store.KeyFor(s))
		}
		for _, s := range n.writes {
			ks[i].writes = append(ks[i].writes, store.KeyFor(s))
		}
		ks[i].all = append(append([]vstore.Key(nil), ks[i].writes...), ks[i].reads...)
	}
	pubStore := vstore.New(vstore.Config{Shards: 1})
	bump := rp.measure(len(ks), func(i int) {
		b, berr := pubStore.BumpBatch(ks[i].reads, ks[i].writes)
		if berr != nil {
			err = berr
			return
		}
		b.Release()
	})
	// Subscriber side: counters already at 1, so every wait is satisfied
	// on its first check — the common case the dep-wait stage pays for.
	subStore := vstore.New(vstore.Config{Shards: 1})
	reqs := make([]map[vstore.Key]uint64, len(ks))
	incs := make([]map[vstore.Key]uint64, len(ks))
	for i, k := range ks {
		reqs[i] = map[vstore.Key]uint64{}
		incs[i] = map[vstore.Key]uint64{}
		for _, key := range k.all {
			reqs[i][key] = 1
			incs[i][key] = 1
		}
		if ierr := subStore.IncrOps(k.all); ierr != nil {
			return ierr
		}
	}
	wait := rp.measure(len(ks), func(i int) {
		if werr := subStore.WaitAtLeastMulti(reqs[i], 0); werr != nil {
			err = werr
		}
	})
	apply := rp.measure(len(ks), func(i int) {
		if _, aerr := subStore.ApplyBatch([]vstore.Claim{{Key: ks[i].writes[0], Version: uint64(i + 1)}}); aerr != nil {
			err = aerr
		}
	})
	incr := rp.measure(len(ks), func(i int) {
		if ierr := subStore.IncrOpsMulti(incs[i]); ierr != nil {
			err = ierr
		}
	})
	out["vstore.bump_batch_ns"] = bump.ns
	out["vstore.wait_multi_ns"] = wait.ns
	out["vstore.apply_batch_ns"] = apply.ns
	out["vstore.incr_multi_ns"] = incr.ns
	out["vstore.allocs_per_msg"] = bump.allocs + wait.allocs + apply.allocs + incr.allocs
	return err
}

// wireAndBroker times the codec and the broker on the captured payloads.
func (rp *replay) wireAndBroker(out map[string]float64, put func(string, layerCost)) error {
	payloads, msgs := rp.payloads[rp.nPre:], rp.msgs[rp.nPre:]
	var err error
	put("wire.marshal", rp.measure(len(msgs), func(i int) {
		if _, merr := wire.Marshal(msgs[i]); merr != nil {
			err = merr
		}
	}))
	put("wire.unmarshal", rp.measure(len(payloads), func(i int) {
		m, uerr := wire.UnmarshalPooled(payloads[i])
		if uerr != nil {
			err = uerr
			return
		}
		wire.ReleaseMessage(m)
	}))
	var bytes int
	for _, p := range payloads {
		bytes += len(p)
	}
	out["wire.payload_bytes"] = float64(bytes) / float64(max(len(payloads), 1))
	if err != nil {
		return err
	}

	fanout := func(queues int) (pub, getAck layerCost, ferr error) {
		b := broker.New()
		qs := make([]*broker.Queue, queues)
		for i := range qs {
			name := fmt.Sprintf("q%d", i)
			if qs[i], ferr = b.DeclareQueue(name, 0); ferr != nil {
				return
			}
			if ferr = b.Bind(name, "pub"); ferr != nil {
				return
			}
		}
		pub = rp.measure(len(payloads), func(i int) {
			if perr := b.Publish("pub", payloads[i]); perr != nil {
				ferr = perr
			}
		})
		// The consumer side, the way a worker drives it: a prefetched
		// batch of four, then one coalesced ack.
		tags := make([]uint64, 0, 4)
		getAck = rp.measure(len(payloads)/4, func(int) {
			batch, gerr := qs[0].GetBatch(4)
			if gerr != nil {
				ferr = gerr
				return
			}
			tags = tags[:0]
			for _, d := range batch {
				tags = append(tags, d.Tag)
			}
			if aerr := qs[0].AckMulti(tags); aerr != nil {
				ferr = aerr
			}
		})
		getAck.ns /= 4
		getAck.allocs /= 4
		return
	}
	pub1, getAck, err := fanout(1)
	if err != nil {
		return err
	}
	pub5, _, err := fanout(5)
	if err != nil {
		return err
	}
	out["broker.publish_ns"] = pub1.ns
	out["broker.publish_fanout5_ns"] = pub5.ns
	out["broker.get_ack_ns"] = getAck.ns
	out["broker.allocs_per_msg"] = pub1.allocs + getAck.allocs
	return nil
}

// publishWrite times the whole publisher path — a controller write on
// the workload's publisher engine and mode with no subscriber bound and
// zero injected latency.
func (rp *replay) publishWrite() (layerCost, error) {
	f := synapse.NewFabric()
	pub, err := synapse.NewApp(f, "pub", newMapper(rp.spec.pubEngine), synapse.Config{Mode: rp.spec.mode})
	if err != nil {
		return layerCost{}, err
	}
	post, comment := newModels()
	if err := pub.Publish(post, synapse.PubSpec{Attrs: postAttrs}); err != nil {
		return layerCost{}, err
	}
	if err := pub.Publish(comment, synapse.PubSpec{Attrs: commentAttrs}); err != nil {
		return layerCost{}, err
	}
	sessions := make([]*synapse.Session, numUsers)
	for u := range sessions {
		sessions[u] = pub.NewSession("User", fmt.Sprintf("u%03d", u))
	}
	write := func(o *op) error {
		ctl := pub.NewController(sessions[o.user])
		rec := rp.buildRecord(o)
		var werr error
		switch o.kind {
		case opCreatePost:
			_, werr = ctl.Create(rec)
		case opCreateComment:
			ctl.AddReadDeps("Post", rp.gen.postIDs[o.post])
			_, werr = ctl.Create(rec)
		case opUpdatePost:
			_, werr = ctl.Update(rec)
		case opDestroyComment:
			werr = ctl.Destroy("Comment", o.id)
		}
		return werr
	}
	for i := range rp.preload {
		if err := write(&rp.preload[i]); err != nil {
			return layerCost{}, err
		}
	}
	c := rp.measure(len(rp.ops), func(i int) {
		if werr := write(&rp.ops[i]); werr != nil {
			err = werr
		}
	})
	// The loop also built each record; that is the model layer's row.
	build := rp.measure(len(rp.ops), func(i int) { rp.buildRecord(&rp.ops[i]) })
	c.ns -= build.ns
	c.allocs -= build.allocs
	return c, err
}

// subscribeProcess times App.ProcessMessage on the pre-decoded stream,
// on a MongoDB subscriber with the given subscription mode and zero
// injected latency. Messages arrive in publish order, so no dependency
// wait blocks; the finite DepTimeout only guarantees that a surprise
// cannot hang the replay.
func (rp *replay) subscribeProcess(mode synapse.DeliveryMode) (layerCost, error) {
	f := synapse.NewFabric()
	pub, err := synapse.NewApp(f, "pub", newMapper(mongodb), synapse.Config{Mode: synapse.Causal})
	if err != nil {
		return layerCost{}, err
	}
	post, comment := newModels()
	if err := pub.Publish(post, synapse.PubSpec{Attrs: postAttrs}); err != nil {
		return layerCost{}, err
	}
	if err := pub.Publish(comment, synapse.PubSpec{Attrs: commentAttrs}); err != nil {
		return layerCost{}, err
	}
	sub, err := synapse.NewApp(f, "sub", newMapper(mongodb), synapse.Config{Mode: synapse.Causal, DepTimeout: 50 * time.Millisecond})
	if err != nil {
		return layerCost{}, err
	}
	sp, sc := newModels()
	if err := sub.Subscribe(sp, synapse.SubSpec{From: "pub", Attrs: postAttrs, Mode: mode}); err != nil {
		return layerCost{}, err
	}
	if err := sub.Subscribe(sc, synapse.SubSpec{From: "pub", Attrs: commentAttrs, Mode: mode}); err != nil {
		return layerCost{}, err
	}
	for _, m := range rp.msgs[:rp.nPre] {
		if err := sub.ProcessMessage(m); err != nil {
			return layerCost{}, err
		}
	}
	timed := rp.msgs[rp.nPre:]
	c := rp.measure(len(timed), func(i int) {
		if perr := sub.ProcessMessage(timed[i]); perr != nil {
			err = perr
		}
	})
	return c, err
}

// replayLayers prepares the isolated replays' inputs — the generator's
// preload and warm-up ops regenerated from the seed, and the payloads the
// bus proxy captured for them — and runs them.
func replayLayers(spec workloadSpec, seed int64, trun *run, tr *tracer) (map[string]float64, error) {
	gen := newGenerator(seed, spec.zipfHot, trun.pop)
	rp := &replay{spec: spec, gen: gen, preload: gen.preload(), payloads: tr.payloads}
	rp.ops = gen.stream(trun.sizes.warm)
	rp.nPre = len(rp.preload)
	if len(rp.payloads) != len(rp.preload)+len(rp.ops) {
		return nil, fmt.Errorf("captured %d payloads for %d ops", len(rp.payloads), len(rp.preload)+len(rp.ops))
	}
	rp.msgs = make([]*wire.Message, len(rp.payloads))
	for i, p := range rp.payloads {
		msg, err := wire.Unmarshal(p)
		if err != nil {
			return nil, fmt.Errorf("decode captured payload %d: %v", i, err)
		}
		rp.msgs[i] = msg
	}
	rp.ref = newReference()
	return rp.run()
}
