package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"synapse/internal/core"
	"synapse/internal/hdr"
	"synapse/internal/model"
	"synapse/internal/storage"
	"synapse/internal/workload"
)

// ---------------------------------------------------------------------
// Fig 12(a): per-controller publishing overheads on the Crowdtap mix.
// ---------------------------------------------------------------------

// Fig12Config parameterizes the Fig 12 controller replays.
type Fig12Config struct {
	Calls int // Fig 12(a) only
	// TimeScale shrinks the paper's production controller times (0.1 =
	// one tenth) so the replay finishes quickly; overheads scale with
	// it, percentages do not.
	TimeScale float64
}

// fig12Config replays 2,000 controller calls at one tenth of the
// production controller times.
func fig12Config(quick bool) Fig12Config {
	if quick {
		return Fig12Config{Calls: 300, TimeScale: 0.02}
	}
	return Fig12Config{Calls: 2000, TimeScale: 0.1}
}

// replayer is the causal-mode publisher both replays measure, and the
// controller calls they replay through it.
type replayer struct {
	app       *core.App
	timeScale float64
	next      int // Action ids
}

func newReplayer(name, engine string, timeScale float64) *replayer {
	app := mustApp(core.NewFabric(), name, NewMapper(engine, storage.Profile{}), core.Config{
		Mode:          core.Causal,
		VStoreShards:  vstoreShards,
		VStoreRTT:     400 * time.Microsecond,
		VStorePrecise: true, // sequential replay: spin-wait
	})
	action := model.NewDescriptor("Action",
		model.Field{Name: "kind", Type: model.String},
		model.Field{Name: "payload", Type: model.String},
	)
	must(app.Publish(action, core.PubSpec{Attrs: action.FieldNames()}))
	return &replayer{app: app, timeScale: timeScale}
}

// call runs one controller call of the profile in the user's session —
// the application's own work, then msgs creates with deps() read
// dependencies each — and returns the controller's wall time and the
// Synapse share of it.
func (r *replayer) call(profile workload.ControllerProfile, user string, msgs int, deps func() int) (ctrl, syn int64) {
	synBefore := r.app.Stats().PublishTime
	start := time.Now()
	time.Sleep(time.Duration(float64(profile.AppTime) * r.timeScale))
	ctl := r.app.NewController(r.app.NewSession("User", user))
	for m := 0; m < msgs; m++ {
		for d, n := 0, deps(); d < n; d++ {
			ctl.AddReadDeps("Action", fmt.Sprintf("seen-%d", d))
		}
		rec := model.NewRecord("Action", fmt.Sprintf("a-%d", r.next))
		r.next++
		rec.Set("kind", profile.Name)
		rec.Set("payload", "x")
		_, err := ctl.Create(rec)
		must(err)
	}
	return int64(time.Since(start)), int64(r.app.Stats().PublishTime - synBefore)
}

// Fig12aRow is one controller's measured line of the table.
type Fig12aRow struct {
	Controller   string
	CallPct      float64
	MsgsMean     float64
	MsgsP99      int
	DepsMean     float64
	DepsP99      int
	CtrlTimeMean time.Duration
	CtrlTimeP99  time.Duration
	SynTimeMean  time.Duration
	SynTimeP99   time.Duration
	OverheadPct  float64
}

// Fig12aResult is the full table plus the aggregate overhead.
type Fig12aResult struct {
	Rows            []Fig12aRow
	MeanOverheadPct float64
}

// RunFig12a replays the Crowdtap controller mix through a causal-mode
// publisher, measuring per-controller message counts, dependency
// counts, controller times, and Synapse time — the columns of the
// paper's Fig 12(a).
func RunFig12a(cfg Fig12Config) (Fig12aResult, error) {
	r := newReplayer("crowdtap-main", MongoDB, cfg.TimeScale)
	mix := workload.CrowdtapMix()
	sampler := workload.NewSampler(1, mix)

	type stats struct {
		ctrl, syn, msgs, deps hdr.Recorder
		calls                 int
	}
	byCtrl := make(map[string]*stats)
	for _, c := range mix {
		byCtrl[c.Name] = new(stats)
	}

	for i := 0; i < cfg.Calls; i++ {
		profile, msgs := sampler.Next()
		st := byCtrl[profile.Name]
		st.calls++
		ctrl, syn := r.call(profile, fmt.Sprintf("u%d", i%500), msgs, func() int {
			deps := sampler.SampleDeps(profile)
			st.deps.Record(int64(deps))
			return deps
		})
		st.ctrl.Record(ctrl)
		st.syn.Record(syn)
		st.msgs.Record(int64(msgs))
	}

	var res Fig12aResult
	var overheadSum float64
	var overheadN int
	for _, c := range mix {
		st := byCtrl[c.Name]
		if st.calls == 0 {
			continue
		}
		row := Fig12aRow{
			Controller:   c.Name,
			CallPct:      float64(st.calls) / float64(cfg.Calls),
			MsgsMean:     st.msgs.Mean(),
			MsgsP99:      int(st.msgs.Quantile(0.99)),
			DepsMean:     st.deps.Mean(),
			DepsP99:      int(st.deps.Quantile(0.99)),
			CtrlTimeMean: time.Duration(st.ctrl.Mean()),
			CtrlTimeP99:  time.Duration(st.ctrl.Quantile(0.99)),
			SynTimeMean:  time.Duration(st.syn.Mean()),
			SynTimeP99:   time.Duration(st.syn.Quantile(0.99)),
		}
		if row.CtrlTimeMean > 0 {
			row.OverheadPct = 100 * float64(row.SynTimeMean) / float64(row.CtrlTimeMean)
		}
		overheadSum += row.OverheadPct
		overheadN++
		res.Rows = append(res.Rows, row)
	}
	if overheadN > 0 {
		res.MeanOverheadPct = overheadSum / float64(overheadN)
	}
	return res, nil
}

// Format renders the table in the layout of Fig 12(a).
func (r Fig12aResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 12(a): Synapse overheads, Crowdtap controller mix (times scaled)\n")
	fmt.Fprintf(&b, "%-20s %7s  %13s  %13s  %17s  %22s\n",
		"Controller", "%Calls", "Msgs (m/p99)", "Deps (m/p99)", "Ctrl ms (m/p99)", "Synapse ms (m/p99/%)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-20s %6.1f%%  %6.2f %6d  %6.1f %6d  %8.1f %8.1f  %8.2f %8.2f %4.1f%%\n",
			row.Controller, row.CallPct*100,
			row.MsgsMean, row.MsgsP99,
			row.DepsMean, row.DepsP99,
			ms(row.CtrlTimeMean), ms(row.CtrlTimeP99),
			ms(row.SynTimeMean), ms(row.SynTimeP99), row.OverheadPct)
	}
	fmt.Fprintf(&b, "Overhead across all controllers: mean=%.1f%%\n", r.MeanOverheadPct)
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// ---------------------------------------------------------------------
// Fig 12(b): overheads for three controllers in three applications.
// ---------------------------------------------------------------------

// Fig12bRow is one controller bar of Fig 12(b).
type Fig12bRow struct {
	App         string
	Controller  string
	CtrlTime    time.Duration
	SynTime     time.Duration
	OverheadPct float64
}

// RunFig12b replays three controllers in each of the Crowdtap,
// Diaspora, and Discourse profiles, reporting the Synapse share of each
// controller's execution time (the grey bars of Fig 12(b)).
func RunFig12b(cfg Fig12Config) ([]Fig12bRow, error) {
	var out []Fig12bRow
	for _, appName := range []string{"crowdtap", "diaspora", "discourse"} {
		profiles := workload.OpenSourceMix()[appName]
		r := newReplayer(appName, PostgreSQL, cfg.TimeScale)
		rng := rand.New(rand.NewSource(8))
		for _, profile := range profiles {
			const calls = 40
			var ctrl, syn hdr.Recorder
			for i := 0; i < calls; i++ {
				msgs := int(profile.MsgsPerCall)
				if rng.Float64() < profile.MsgsPerCall-float64(msgs) {
					msgs++
				}
				c, s := r.call(profile, fmt.Sprintf("u%d", i), msgs, func() int { return int(profile.DepsPerMsg) })
				ctrl.Record(c)
				syn.Record(s)
			}
			row := Fig12bRow{
				App:        appName,
				Controller: profile.Name,
				CtrlTime:   time.Duration(ctrl.Mean()),
				SynTime:    time.Duration(syn.Mean()),
			}
			if row.CtrlTime > 0 {
				row.OverheadPct = 100 * float64(row.SynTime) / float64(row.CtrlTime)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// FormatFig12b renders the per-controller overhead bars.
func FormatFig12b(rows []Fig12bRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig 12(b): Synapse overhead share per controller (times scaled)")
	fmt.Fprintf(&b, "%-11s %-16s %12s %12s %9s\n", "App", "Controller", "Ctrl [ms]", "Synapse [ms]", "Overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %-16s %12.1f %12.2f %8.1f%%\n",
			r.App, r.Controller, ms(r.CtrlTime), ms(r.SynTime), r.OverheadPct)
	}
	return b.String()
}
