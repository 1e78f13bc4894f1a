package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"time"

	"synapse/internal/model"
)

// Converged is the one convergence verdict: nil once nothing is in
// flight from pub to subs and every subscriber's database holds what pub
// publishes to it, else an error naming the first app, model and object
// that is not there yet. Quiescence is checked first, because it is
// cheap: pub's journal owes no send, no app has an ack parked, and no
// subscriber's queue holds a delivery. Then every model a subscriber
// persists from pub is scanned on both sides (see sameRows).
func Converged(pub *App, subs ...*App) error {
	if n := pub.JournalDepth(); n > 0 {
		return fmt.Errorf("%s: journal still owes %d sends", pub.name, n)
	}
	for _, a := range append([]*App{pub}, subs...) {
		if n := a.PendingAcks(); n > 0 {
			return fmt.Errorf("%s: %d acks parked", a.name, n)
		}
	}
	for _, s := range subs {
		if q := s.Queue(); q != nil && q.Depth() > 0 {
			return fmt.Errorf("%s: %d deliveries queued, %d unacked", s.name, q.Len(), q.Unacked())
		}
	}
	for _, s := range subs {
		for _, m := range s.modelsFrom(pub.name) {
			if err := sameRows(pub, s, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// Settle polls Converged until it returns nil or ctx ends, and then
// returns the last verdict with what the subscribers still have parked.
func Settle(ctx context.Context, pub *App, subs ...*App) error {
	for {
		err := Converged(pub, subs...)
		if err == nil {
			return nil
		}
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			var parked []string
			for _, s := range subs {
				for _, p := range s.describeParked() {
					parked = append(parked, s.name+": "+p)
				}
			}
			return fmt.Errorf("%w: %w; parked: %q", ctx.Err(), err, parked)
		}
	}
}

// sameRows compares model m on pub and sub over the attributes sub
// subscribes to: every object pub holds must be on sub with equal
// attributes, and sub may hold no object pub lacks. An observer or an
// ephemeral publication holds no rows, and an attribute virtual on
// either side is not stored as published: those are not compared.
func sameRows(pub, sub *App, m string) error {
	pd, _ := pub.Descriptor(m)
	sd, _ := sub.Descriptor(m)
	sub.mu.RLock()
	ss := sub.subs[m][pub.name]
	observer, attrs := ss.observer, slices.Collect(maps.Keys(ss.attrs))
	sub.mu.RUnlock()
	if observer || pd == nil || pub.isEphemeral(m) {
		return nil
	}
	attrs = slices.DeleteFunc(attrs, func(a string) bool { return pd.VirtualAttrFor(a) != nil || sd.VirtualAttrFor(a) != nil })
	want := make(map[string]*model.Record)
	err := pub.mapper.Each(m, "", func(rec *model.Record) bool {
		want[rec.ID] = rec.Project(attrs)
		return true
	})
	var diff error
	if err == nil {
		err = sub.mapper.Each(m, "", func(rec *model.Record) bool {
			got, w := rec.Project(attrs), want[rec.ID]
			if w == nil {
				diff = fmt.Errorf("%s has %s/%s = %v, %s does not", sub.name, m, rec.ID, got.Attrs, pub.name)
			} else if !got.Equal(w) {
				diff = fmt.Errorf("%s has %s/%s = %v, %s has %v", sub.name, m, rec.ID, got.Attrs, pub.name, w.Attrs)
			}
			delete(want, rec.ID)
			return diff == nil
		})
	}
	switch {
	case err != nil:
		return fmt.Errorf("scan %s: %w", m, err)
	case diff != nil:
		return diff
	case len(want) > 0:
		id := slices.Min(slices.Collect(maps.Keys(want)))
		return fmt.Errorf("%s lacks %s/%s, %s has %v", sub.name, m, id, pub.name, want[id].Attrs)
	}
	return nil
}
