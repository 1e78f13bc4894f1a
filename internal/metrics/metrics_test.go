package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMeter(t *testing.T) {
	m := NewMeter()
	m.Add(10)
	m.Add(5)
	if m.Count() != 15 {
		t.Errorf("Count = %d", m.Count())
	}
	start := time.Now().Add(-time.Second)
	rate := m.RateSince(start, start.Add(time.Second))
	if rate != 15 {
		t.Errorf("RateSince = %f", rate)
	}
	if m.RateSince(start, start) != 0 {
		t.Error("zero interval should report zero rate")
	}
	if m.Rate() <= 0 {
		t.Error("Rate should be positive after events")
	}
}

func TestTimelineOrderingAndFormat(t *testing.T) {
	tl := NewTimeline()
	tl.Record("Diaspora", "app", "post created")
	tl.Record("Mailer", "synapse-sub", "received post")
	events := tl.Events()
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].At > events[1].At {
		t.Error("events out of order")
	}
	s := tl.String()
	if !strings.Contains(s, "Diaspora") || !strings.Contains(s, "synapse-sub") {
		t.Errorf("String() = %q", s)
	}
}

func TestFmt(t *testing.T) {
	if got := Fmt(1500 * time.Microsecond); got != "1.50ms" {
		t.Errorf("Fmt = %q", got)
	}
}

func TestStageSet(t *testing.T) {
	s := NewStageSet("decode", "apply")
	s.Observe("decode", 2*time.Millisecond)
	s.Observe("decode", 4*time.Millisecond)
	s.Observe("apply", 10*time.Millisecond)
	s.Observe("ack", time.Millisecond) // registered on the fly

	if got := s.Stages(); len(got) != 3 || got[0] != "decode" || got[1] != "apply" || got[2] != "ack" {
		t.Fatalf("Stages = %v", got)
	}
	st := s.Stat("decode")
	if st.Count != 2 || st.Mean != 3*time.Millisecond || st.Total != 6*time.Millisecond {
		t.Errorf("decode stat = %+v", st)
	}
	if st := s.Stat("unknown"); st.Count != 0 {
		t.Errorf("unknown stage stat = %+v", st)
	}
	snap := s.Snapshot()
	if len(snap) != 3 || snap["apply"].Count != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	if out := s.String(); !strings.Contains(out, "decode") || !strings.Contains(out, "3.00ms") {
		t.Errorf("String = %q", out)
	}
}

// TestStageSetExactAndP95 records a latency-shaped sample set from
// eight goroutines at once (run under -race) and checks the snapshot
// against a sorted oracle: Count, Total and Mean are exact, P95 is
// within the recorder's 1/32 relative error.
func TestStageSetExactAndP95(t *testing.T) {
	const workers, per = 8, 5000
	rng := rand.New(rand.NewSource(11))
	samples := make([]time.Duration, workers*per)
	var total time.Duration
	for i := range samples {
		samples[i] = time.Duration(math.Exp(11 + 1.5*rng.NormFloat64()))
		total += samples[i]
	}
	s := NewStageSet("apply")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(part []time.Duration) {
			defer wg.Done()
			for _, d := range part {
				s.Observe("apply", d)
			}
		}(samples[w*per : (w+1)*per])
	}
	wg.Wait()

	st := s.Stat("apply")
	if st.Count != len(samples) || st.Total != total {
		t.Errorf("Count/Total = %d/%v, want %d/%v", st.Count, st.Total, len(samples), total)
	}
	if want := time.Duration(float64(total) / float64(len(samples))); st.Mean != want {
		t.Errorf("Mean = %v, want %v", st.Mean, want)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	want := samples[len(samples)*95/100-1]
	if diff := math.Abs(float64(st.P95 - want)); diff > float64(want)/32 {
		t.Errorf("P95 = %v, oracle %v: off by more than 1/32", st.P95, want)
	}
}

func TestStageSetConcurrent(t *testing.T) {
	s := NewStageSet("a")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Observe("a", time.Microsecond)
				s.Observe("b", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := s.Stat("a").Count; got != 800 {
		t.Errorf("a count = %d", got)
	}
	if got := s.Stat("b").Count; got != 800 {
		t.Errorf("b count = %d", got)
	}
}
