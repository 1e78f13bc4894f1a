package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runCheck is the self-check: for every workload, two sets (A and B) of n
// untraced runs of this same binary, interleaved run by run so that host
// drift hits both sets alike, each run in a fresh process with its own
// seed. For every metric × workload it prints both medians, how much
// worse B's is than A's, each set's spread (the distance between its
// first and third quartile over its median — the figure the acceptance
// pipeline computes), and the bound. It returns non-zero when two sets
// of the same code disagree by more than a bound, or a spread exceeds it.
func runCheck(specs []workloadSpec, n int, seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	breaches := 0
	for _, spec := range specs {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			set := i % 2
			rep, err := runChild(self, spec.name, seed+int64(i), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: %v\n", spec.name, i, err)
				return 1
			}
			if !rep.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d (seed %d): %d of %d operations failed\n", spec.name, i, seed+int64(i), rep.Failed, rep.Attempted)
				breaches++
			}
			for name, v := range rep.Metrics {
				sets[set][name] = append(sets[set][name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "%s %c%d done\n", spec.name, 'A'+set, i/2+1)
		}
		fmt.Printf("%s (two interleaved sets of %d runs, %g s each)\n", spec.name, n, seconds)
		fmt.Printf("  %-22s %14s %14s %9s %9s %9s %7s\n", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound")
		for _, m := range endToEndMetrics {
			a, b := sets[0][m.name], sets[1][m.name]
			_, ma, _ := quartiles(a)
			_, mb, _ := quartiles(b)
			worse := (mb - ma) / ma
			if m.better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			flag := ""
			if worse > m.bound || (m.name != "setup_s" && (sa > m.bound || sb > m.bound)) {
				flag = "  BREACH"
				breaches++
			}
			fmt.Printf("  %-22s %14.4f %14.4f %+8.2f%% %8.2f%% %8.2f%% %6.0f%%%s\n",
				m.name, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.bound, flag)
		}
	}
	if breaches > 0 {
		return 1
	}
	return 0
}

// runChild runs one untraced run in a fresh process and parses the last
// line of its standard output.
func runChild(self, workload string, seed int64, seconds float64) (report, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var rep report
	last := ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	if last == "" {
		return rep, fmt.Errorf("no result printed (%v)", err)
	}
	if jerr := json.Unmarshal([]byte(last), &rep); jerr != nil {
		return rep, fmt.Errorf("bad result line: %v", jerr)
	}
	// A non-zero exit with a parsed report is a run with failed operations;
	// the caller sees that in rep.Correct.
	return rep, nil
}

// quartiles returns the quartiles of Python's
// statistics.quantiles(vals, n=4) (the "exclusive" method), so that the
// figures below match the acceptance pipeline's.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	if len(vals) == 0 {
		return 0, 0, 0
	}
	if len(vals) == 1 {
		return vals[0], vals[0], vals[0]
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the distance between the first and third quartile as a share
// of the median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
