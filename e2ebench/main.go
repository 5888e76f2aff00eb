// Command e2ebench is the repository's end-to-end benchmark. It starts
// in-process servers (server.New over a scratch store.Store, served on
// loopback TCP), generates its inputs with datagen.ItemScan from the
// seed argument, drives one workload as a closed loop through the public
// /v2/jobs API, checks every job's result against an in-process
// reference, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run instead alternates traced and untraced jobs, replays every traced
// job through the layers' public functions between jobs, and reports the
// per-layer split. Run it from the repository root through run.sh, which
// builds it first:
//
//	bash e2ebench/run.sh --workload audit-catalog --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --selftest
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's machine-readable result: the final stdout line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = flag.String("seed", "1", "input seed: drives the generated relation and every certificate secret")
		seconds  = flag.Int("seconds", 20, "length of the timed phase in seconds")
		traced   = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		selftest = flag.Bool("selftest", false, "run every workload at a tiny size and check the benchmark itself")
	)
	flag.Parse()
	log := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

	if *selftest {
		if err := selfTest(os.Stdout); err != nil {
			log("selftest: FAIL: %v", err)
			os.Exit(1)
		}
		fmt.Println("selftest: ok")
		return
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		log("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || !validSeed(*seed) {
		log("--seconds must be >= 1, --trace 0 or 1, and --seed made of letters, digits, '.', '_' and '-'")
		os.Exit(2)
	}
	out, err := run(w, runOptions{seed: *seed, seconds: *seconds, trace: *traced == 1, report: os.Stdout})
	if err != nil {
		log("%s: %v", w.name, err)
		os.Exit(1)
	}
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only a run with no successful job leaves a ratio undefined.
			out.Metrics[name] = metric{0, m.Unit}
			out.Correct = false
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		log("encoding result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// printMetrics writes one human-readable line per metric, sorted by name.
func printMetrics(w io.Writer, title string, ms map[string]metric, notes map[string]string) {
	fmt.Fprintf(w, "== %s\n", title)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("  %-28s %14.4f %-6s", n, ms[n].Value, ms[n].Unit)
		if note := notes[n]; note != "" {
			line += "  " + note
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// validSeed keeps the seed safe to splice into JSON bodies and file
// names.
func validSeed(seed string) bool {
	if seed == "" || len(seed) > 64 {
		return false
	}
	for _, c := range seed {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}
