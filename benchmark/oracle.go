package main

import (
	"fmt"

	"synapse"
)

// subscribed lists, per model, the attributes every subscriber
// incorporates — what the oracle compares.
var subscribed = []struct {
	model string
	attrs []string
}{
	{"Post", postAttrs},
	{"Comment", commentAttrs},
}

// checkConvergence compares every subscriber's database with the
// publisher's: per model, the same number of objects, and for every
// object the same subscribed attributes. It returns the number of
// mismatches (each is one failed operation) and prints the first few.
// Callers drain first; with nothing in flight the comparison is exact.
func (r *run) checkConvergence() int64 {
	var bad int64
	report := func(format string, args ...any) {
		if bad++; bad <= 5 {
			fmt.Fprintf(r.log, "benchmark: %s: mismatch: %s\n", r.spec.name, fmt.Sprintf(format, args...))
		}
	}
	pubMapper := r.fab.pub.Mapper()
	for _, m := range subscribed {
		want := map[string]*synapse.Record{}
		if err := pubMapper.Each(m.model, "", func(rec *synapse.Record) bool {
			want[rec.ID] = rec.Project(m.attrs)
			return true
		}); err != nil {
			report("scan publisher %s: %v", m.model, err)
			continue
		}
		for _, s := range r.fab.subs {
			sm := s.app.Mapper()
			if n := sm.Len(m.model); n != len(want) {
				report("%s has %d %s objects, publisher has %d", s.name, n, m.model, len(want))
			}
			if err := sm.Each(m.model, "", func(rec *synapse.Record) bool {
				w, ok := want[rec.ID]
				switch {
				case !ok:
					report("%s has %s/%s, publisher does not", s.name, m.model, rec.ID)
				case !w.Equal(rec.Project(m.attrs)):
					report("%s %s/%s = %v, publisher has %v", s.name, m.model, rec.ID, rec.Project(m.attrs).Attrs, w.Attrs)
				}
				return true
			}); err != nil {
				report("scan %s %s: %v", s.name, m.model, err)
			}
		}
	}
	return bad
}
