package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/api"
)

// benchmarkFile is the part of BENCHMARK.json the self-test holds the
// program to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// tiny shrinks a workload to self-test size.
func tiny(w workload) workload {
	w.rows = 40_000
	w.others = min(w.others, 3)
	return w
}

// selfTest runs every workload at a tiny size, both end to end and
// traced, and checks that each prints every metric BENCHMARK.json names,
// with its unit, and that every workload the file names exists. It then
// feeds the checker a corrupted audit (a flipped verdict) and checks
// that it counts as a failure, so the correctness gate cannot pass
// vacuously.
func selfTest(out io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, bw := range bf.Workloads {
		if _, ok := lookupWorkload(bw.Name); !ok {
			return fmt.Errorf("BENCHMARK.json names workload %q, which the program does not have", bw.Name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(tiny(w), runOptions{seed: "selftest", seconds: 1, trace: traced, report: out, setups: 1})
			if err != nil {
				return fmt.Errorf("%s (trace %v): %w", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s (trace %v): %d of %d jobs failed", w.name, traced, res.Failed, res.Attempted)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				return fmt.Errorf("%s (trace %v): printed %d metrics, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					return fmt.Errorf("%s (trace %v): metric %s printed as %+v, want unit %q", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
	w, _ := lookupWorkload("audit-catalog")
	if err := corruptionCaught(tiny(w)); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return nil
}

// corruptionCaught runs one real job of w, checks that its result
// passes, then corrupts it and checks that the same check fails it.
func corruptionCaught(w workload) error {
	ctx := context.Background()
	in, err := genInputs(w, "selftest")
	if err != nil {
		return err
	}
	wd, err := workDir()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(wd, "selftest-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fx, _, err := setUp(ctx, w, in, filepath.Join(dir, "env"))
	if err != nil {
		return err
	}
	defer fx.env.close()
	if fx.ref, err = auditReference(ctx, fx.env.front.store, in.schema, w.format, fx.suspect, fx.ownerID); err != nil {
		return err
	}
	good := fx.env.oneJob(ctx, fx.body, nil)
	good.rows = w.rows
	bad := good
	if bad.body, err = corrupt(good.body); err != nil {
		return err
	}
	results := []jobResult{good, bad}
	fx.check(results)
	if !results[0].ok() {
		return fmt.Errorf("a correct result failed its check: %s", results[0].failure())
	}
	if results[1].ok() {
		return errors.New("a corrupted result passed its check")
	}
	return nil
}

// corrupt damages a done audit's result: its first verdict flips.
func corrupt(body []byte) ([]byte, error) {
	var j api.Job
	if err := json.Unmarshal(body, &j); err != nil {
		return nil, err
	}
	if j.VerifyBatch == nil || len(j.VerifyBatch.Results) == 0 {
		return nil, errors.New("no result to corrupt")
	}
	r := &j.VerifyBatch.Results[0]
	if r.Verdict == api.VerdictPresent {
		r.Verdict = api.VerdictAbsent
	} else {
		r.Verdict = api.VerdictPresent
	}
	return json.Marshal(j)
}
