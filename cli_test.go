package repro_test

// End-to-end CLI integration tests: build the three commands and drive the
// full generate → embed → attack → detect pipeline through real processes
// and CSV files, the way a downstream user would.

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

const itemScanSpec = "Visit_Nbr:int!key, Item_Nbr:int:categorical"

// buildCommands compiles the CLIs once into a shared temp dir.
func buildCommands(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"wmtool", "wmdatagen", "wmexperiments", "wmserver"} {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}
	return bins
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

func runExpectFail(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		t.Fatalf("%s %s: expected failure\n%s", filepath.Base(bin), strings.Join(args, " "), out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCommands(t)
	dir := t.TempDir()
	data := filepath.Join(dir, "itemscan.csv")
	marked := filepath.Join(dir, "marked.csv")
	attacked := filepath.Join(dir, "attacked.csv")
	domain := filepath.Join(dir, "Item_Nbr.domain")

	// 1. Generate, including the catalog file the detector will need.
	out := run(t, bins["wmdatagen"], "-dataset", "itemscan", "-n", "8000",
		"-catalog", "400", "-seed", "cli-test", "-out", data, "-domains-dir", dir)
	if !strings.Contains(out, "wrote 8000 tuples") {
		t.Fatalf("datagen output: %s", out)
	}
	if _, err := os.Stat(domain); err != nil {
		t.Fatalf("catalog file missing: %v", err)
	}

	// 2. Embed against the catalog domain.
	out = run(t, bins["wmtool"], "embed", "-in", data, "-schema", itemScanSpec,
		"-attr", "Item_Nbr", "-wm", "1011001110", "-k1", "cli-s1", "-k2", "cli-s2",
		"-e", "40", "-domain", domain, "-out", marked)
	if !strings.Contains(out, "embedded 10-bit watermark") {
		t.Fatalf("embed output: %s", out)
	}
	// Bandwidth 8000/40 = 200 appears in the output for the detect step.
	if !strings.Contains(out, "bandwidth |wm_data|: 200") {
		t.Fatalf("embed output lacks bandwidth: %s", out)
	}

	// 3. Detect on the intact file.
	out = run(t, bins["wmtool"], "detect", "-in", marked, "-schema", itemScanSpec,
		"-attr", "Item_Nbr", "-wmlen", "10", "-k1", "cli-s1", "-k2", "cli-s2",
		"-e", "40", "-domain", domain, "-expect", "1011001110")
	if !strings.Contains(out, "detected watermark: 1011001110") {
		t.Fatalf("detect output: %s", out)
	}
	if !strings.Contains(out, "match vs expected: 100.0%") {
		t.Fatalf("detect match: %s", out)
	}

	// 4. Attack: drop 50% of tuples, then detect with the recorded
	// bandwidth and the catalog domain.
	run(t, bins["wmtool"], "attack", "-in", marked, "-schema", itemScanSpec,
		"-type", "subset", "-frac", "0.5", "-seed", "cli-attack", "-out", attacked)
	out = run(t, bins["wmtool"], "detect", "-in", attacked, "-schema", itemScanSpec,
		"-attr", "Item_Nbr", "-wmlen", "10", "-k1", "cli-s1", "-k2", "cli-s2",
		"-e", "40", "-bandwidth", "200", "-domain", domain, "-expect", "1011001110")
	if !strings.Contains(out, "match vs expected: 100.0%") {
		t.Fatalf("post-attack detect: %s", out)
	}

	// 4b. The documented pitfall: detecting the attacked file *without*
	// the catalog derives a shifted domain and degrades the match.
	out = run(t, bins["wmtool"], "detect", "-in", attacked, "-schema", itemScanSpec,
		"-attr", "Item_Nbr", "-wmlen", "10", "-k1", "cli-s1", "-k2", "cli-s2",
		"-e", "40", "-bandwidth", "200", "-expect", "1011001110")
	if strings.Contains(out, "match vs expected: 100.0%") {
		t.Logf("note: data-derived domain happened to survive the subset attack intact")
	}

	// 5. Wrong keys must not reproduce the mark.
	out = run(t, bins["wmtool"], "detect", "-in", marked, "-schema", itemScanSpec,
		"-attr", "Item_Nbr", "-wmlen", "10", "-k1", "wrong", "-k2", "keys",
		"-e", "40", "-expect", "1011001110")
	if strings.Contains(out, "match vs expected: 100.0%") {
		t.Fatalf("wrong keys matched: %s", out)
	}
}

// TestCLICertificateFlow exercises the recommended watermark/verify flow:
// one certificate file carries everything needed for later verification,
// including after an attack and after a bijective remap.
func TestCLICertificateFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCommands(t)
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	marked := filepath.Join(dir, "marked.csv")
	attacked := filepath.Join(dir, "attacked.csv")
	remapped := filepath.Join(dir, "remapped.csv")
	record := filepath.Join(dir, "record.json")

	run(t, bins["wmdatagen"], "-dataset", "itemscan", "-n", "20000",
		"-catalog", "300", "-zipf", "1.2", "-seed", "cert-test", "-out", data)
	out := run(t, bins["wmtool"], "watermark", "-in", data, "-schema", itemScanSpec,
		"-attr", "Item_Nbr", "-secret", "cert-secret", "-wm", "1011001110",
		"-e", "50", "-out", marked, "-record", record)
	if !strings.Contains(out, "certificate written") {
		t.Fatalf("watermark output: %s", out)
	}

	// Verify intact.
	out = run(t, bins["wmtool"], "verify", "-in", marked, "-schema", itemScanSpec,
		"-record", record)
	if !strings.Contains(out, "verdict: WATERMARK PRESENT") {
		t.Fatalf("verify output: %s", out)
	}
	if !strings.Contains(out, "bit agreement:      100.0%") {
		t.Fatalf("verify agreement: %s", out)
	}

	// Verify after a 50% subset attack — the record carries the bandwidth.
	run(t, bins["wmtool"], "attack", "-in", marked, "-schema", itemScanSpec,
		"-type", "subset", "-frac", "0.5", "-seed", "cert-attack", "-out", attacked)
	out = run(t, bins["wmtool"], "verify", "-in", attacked, "-schema", itemScanSpec,
		"-record", record)
	if !strings.Contains(out, "verdict: WATERMARK PRESENT") {
		t.Fatalf("post-attack verify: %s", out)
	}

	// Verify after a bijective remap — automatic Section 4.5 recovery.
	run(t, bins["wmtool"], "attack", "-in", marked, "-schema", itemScanSpec,
		"-type", "remap", "-attr", "Item_Nbr", "-seed", "cert-remap", "-out", remapped)
	out = run(t, bins["wmtool"], "verify", "-in", remapped, "-schema", itemScanSpec,
		"-record", record)
	if !strings.Contains(out, "inverse mapping") {
		t.Fatalf("remap recovery note missing: %s", out)
	}
	if !strings.Contains(out, "verdict: WATERMARK PRESENT") &&
		!strings.Contains(out, "verdict: partial match") {
		t.Fatalf("post-remap verify: %s", out)
	}

	// The certificate is the secret: verification with a corrupted record
	// must fail cleanly.
	if err := os.WriteFile(record, []byte(`{"secret":""}`), 0o600); err != nil {
		t.Fatal(err)
	}
	runExpectFail(t, bins["wmtool"], "verify", "-in", marked, "-schema", itemScanSpec,
		"-record", record)
}

func TestCLIAttackVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCommands(t)
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	run(t, bins["wmdatagen"], "-dataset", "itemscan", "-n", "2000",
		"-catalog", "100", "-seed", "variants", "-out", data)

	for _, tc := range []struct {
		typ  string
		args []string
	}{
		{"addition", nil},
		{"alteration", []string{"-attr", "Item_Nbr"}},
		{"shuffle", nil},
		{"sort", []string{"-attr", "Item_Nbr"}},
		{"remap", []string{"-attr", "Item_Nbr"}},
	} {
		out := filepath.Join(dir, tc.typ+".csv")
		args := append([]string{"attack", "-in", data, "-schema", itemScanSpec,
			"-type", tc.typ, "-frac", "0.2", "-out", out}, tc.args...)
		run(t, bins["wmtool"], args...)
		if _, err := os.Stat(out); err != nil {
			t.Errorf("%s: no output file", tc.typ)
		}
	}
}

func TestCLIAnalyze(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCommands(t)
	out := run(t, bins["wmtool"], "analyze", "-n", "6000", "-e", "60",
		"-a", "1200", "-p", "0.7", "-r", "15")
	for _, want := range []string{
		"marked tuples attacked (a/e):     20",
		"P(r,a) normal approx",
		"minimum e",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIExperimentsTableA(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCommands(t)
	dir := t.TempDir()
	out := run(t, bins["wmexperiments"], "-run", "tablea", "-outdir", dir)
	if !strings.Contains(out, "Table A") {
		t.Fatalf("experiments output: %s", out)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "tablea.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "row,paper_value,computed") {
		t.Fatalf("tablea.csv header: %s", csv[:40])
	}
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCommands(t)
	// Missing required flags.
	runExpectFail(t, bins["wmtool"], "embed", "-in", "x.csv")
	// Unknown command.
	runExpectFail(t, bins["wmtool"], "frobnicate")
	// Unknown attack type.
	dir := t.TempDir()
	data := filepath.Join(dir, "d.csv")
	run(t, bins["wmdatagen"], "-dataset", "itemscan", "-n", "100",
		"-catalog", "10", "-out", data)
	runExpectFail(t, bins["wmtool"], "attack", "-in", data, "-schema", itemScanSpec,
		"-type", "nuke", "-out", filepath.Join(dir, "o.csv"))
	// Datagen without -out.
	runExpectFail(t, bins["wmdatagen"], "-dataset", "itemscan")
	// -shard-rows takes a non-negative row count only. The unusable
	// -addr makes a server that wrongly accepted the value exit on its
	// own (with a listen error, not a -shard-rows one) instead of
	// serving forever.
	for _, v := range []string{"auto", "-1"} {
		out := runExpectFail(t, bins["wmserver"], "-coordinator", "-shard-rows", v,
			"-addr", "127.0.0.1:-1", "-store", filepath.Join(dir, "store"))
		if !strings.Contains(out, "-shard-rows") {
			t.Fatalf("wmserver -shard-rows %s: want a -shard-rows error, got:\n%s", v, out)
		}
	}
}

// TestCLIParallel: the -parallel flag must reproduce the sequential
// embed/detect results exactly — same marked file, same recovered bits.
func TestCLIParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCommands(t)
	dir := t.TempDir()
	data := filepath.Join(dir, "itemscan.csv")
	seqMarked := filepath.Join(dir, "seq.csv")
	parMarked := filepath.Join(dir, "par.csv")
	domain := filepath.Join(dir, "Item_Nbr.domain")

	run(t, bins["wmdatagen"], "-dataset", "itemscan", "-n", "8000",
		"-catalog", "400", "-seed", "cli-parallel", "-out", data, "-domains-dir", dir)

	embedArgs := []string{"embed", "-in", data, "-schema", itemScanSpec,
		"-attr", "Item_Nbr", "-wm", "1011001110", "-k1", "cli-s1", "-k2", "cli-s2",
		"-e", "40", "-domain", domain}
	run(t, bins["wmtool"], append(embedArgs, "-out", seqMarked)...)
	run(t, bins["wmtool"], append(embedArgs, "-out", parMarked, "-parallel", "0")...)

	seqBytes, err := os.ReadFile(seqMarked)
	if err != nil {
		t.Fatal(err)
	}
	parBytes, err := os.ReadFile(parMarked)
	if err != nil {
		t.Fatal(err)
	}
	if string(seqBytes) != string(parBytes) {
		t.Fatal("-parallel embed produced a different marked file")
	}

	out := run(t, bins["wmtool"], "detect", "-in", parMarked, "-schema", itemScanSpec,
		"-attr", "Item_Nbr", "-wmlen", "10", "-k1", "cli-s1", "-k2", "cli-s2",
		"-e", "40", "-domain", domain, "-expect", "1011001110", "-parallel", "0")
	if !strings.Contains(out, "detected watermark: 1011001110") ||
		!strings.Contains(out, "match vs expected: 100.0%") {
		t.Fatalf("parallel detect output: %s", out)
	}
}

// TestCLIBatchVerify: `verify -records a,b` audits one suspect against
// several certificates in a single streaming scan.
func TestCLIBatchVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildCommands(t)
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	marked := filepath.Join(dir, "marked.csv")
	recordA := filepath.Join(dir, "owner.json")
	recordB := filepath.Join(dir, "bystander.json")

	run(t, bins["wmdatagen"], "-dataset", "itemscan", "-n", "12000",
		"-catalog", "300", "-seed", "batch-cli", "-out", data)
	run(t, bins["wmtool"], "watermark", "-in", data, "-schema", itemScanSpec,
		"-attr", "Item_Nbr", "-secret", "batch-owner", "-wm", "1011001110",
		"-e", "40", "-out", marked, "-record", recordA)
	// A second owner marks a throwaway copy: their certificate must NOT
	// match the first owner's data.
	run(t, bins["wmtool"], "watermark", "-in", data, "-schema", itemScanSpec,
		"-attr", "Item_Nbr", "-secret", "batch-bystander", "-wm", "1011001110",
		"-e", "40", "-out", filepath.Join(dir, "other.csv"), "-record", recordB)

	out := run(t, bins["wmtool"], "verify", "-in", marked, "-schema", itemScanSpec,
		"-records", recordA+","+recordB, "-parallel", "0")
	if !strings.Contains(out, "against 2 certificates (one scan)") {
		t.Fatalf("batch verify banner: %s", out)
	}
	if !strings.Contains(out, "WATERMARK PRESENT") {
		t.Fatalf("owner certificate not detected: %s", out)
	}
	if !strings.Contains(out, "no watermark evidence") {
		t.Fatalf("bystander certificate not rejected: %s", out)
	}

	// -record and -records are mutually exclusive; one is required.
	runExpectFail(t, bins["wmtool"], "verify", "-in", marked, "-schema", itemScanSpec,
		"-record", recordA, "-records", recordA+","+recordB)
	runExpectFail(t, bins["wmtool"], "verify", "-in", marked, "-schema", itemScanSpec)
}

// TestCLIRemoteMode drives the SDK-backed remote mode end to end with
// real processes: a wmtool-serve server, then watermark/verify/audit
// against it over HTTP — the certificate living only in the server's
// store, addressed by ID.
func TestCLIRemoteMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs a server")
	}
	bins := buildCommands(t)
	dir := t.TempDir()
	data := filepath.Join(dir, "itemscan.csv")
	marked := filepath.Join(dir, "marked.csv")

	run(t, bins["wmdatagen"], "-dataset", "itemscan", "-n", "6000",
		"-catalog", "300", "-seed", "cli-remote", "-out", data, "-domains-dir", dir)

	// Grab a free port, then hand it to the server process.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	serverURL := "http://" + addr

	srv := exec.Command(bins["wmtool"], "serve", "-addr", addr,
		"-store", filepath.Join(dir, "store"), "-workers", "2", "-job-workers", "2")
	var srvOut strings.Builder
	srv.Stdout, srv.Stderr = &srvOut, &srvOut
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Process.Signal(os.Interrupt) //nolint:errcheck
		srv.Wait()                       //nolint:errcheck
	})
	// Wait for liveness.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(serverURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v\n%s", err, srvOut.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Remote watermark: certificate stored server-side, ID printed.
	out := run(t, bins["wmtool"], "watermark", "-server", serverURL,
		"-in", data, "-schema", itemScanSpec, "-attr", "Item_Nbr",
		"-secret", "cli-remote-secret", "-wm", "1011001110", "-e", "40",
		"-domain", filepath.Join(dir, "Item_Nbr.domain"), "-out", marked)
	m := regexp.MustCompile(`certificate stored server-side: id ([0-9a-f]{32})`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("watermark -server output lacks certificate id:\n%s", out)
	}
	certID := m[1]

	// Remote verify by stored ID, suspect streamed from disk.
	out = run(t, bins["wmtool"], "verify", "-server", serverURL,
		"-in", marked, "-schema", itemScanSpec, "-record", certID)
	if !strings.Contains(out, "bit agreement:      100.0%") ||
		!strings.Contains(out, "WATERMARK PRESENT") {
		t.Fatalf("verify -server output:\n%s", out)
	}

	// Async audit job: submit, wait, per-certificate verdicts.
	out = run(t, bins["wmtool"], "audit", "-server", serverURL,
		"-in", marked, "-schema", itemScanSpec, "-poll", "20ms")
	if !strings.Contains(out, "audit job job-") || !strings.Contains(out, "done in") {
		t.Fatalf("audit output lacks job lifecycle:\n%s", out)
	}
	if !strings.Contains(out, certID) || !strings.Contains(out, "WATERMARK PRESENT") {
		t.Fatalf("audit verdicts wrong:\n%s", out)
	}

	// The pristine file must not audit as present.
	out = run(t, bins["wmtool"], "audit", "-server", serverURL,
		"-in", data, "-schema", itemScanSpec, "-poll", "20ms")
	if strings.Contains(out, "WATERMARK PRESENT") {
		t.Fatalf("pristine data audited as present:\n%s", out)
	}
}

// TestCLIClusterAudit drives the distributed topology as real processes:
// one wmserver -coordinator, two wmserver -join workers, and wmtool
// audit -json pointed at the coordinator. The audit fans out across the
// worker processes and the -json report on stdout is pure
// machine-readable JSON matching the single-node verdicts.
func TestCLIClusterAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs three servers")
	}
	bins := buildCommands(t)
	dir := t.TempDir()
	data := filepath.Join(dir, "itemscan.csv")
	marked := filepath.Join(dir, "marked.csv")
	run(t, bins["wmdatagen"], "-dataset", "itemscan", "-n", "6000",
		"-catalog", "300", "-seed", "cli-cluster", "-out", data, "-domains-dir", dir)

	freePort := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		l.Close()
		return addr
	}
	startServer := func(name string, args ...string) string {
		t.Helper()
		addr := freePort()
		full := append([]string{"-addr", addr, "-store", filepath.Join(dir, name)}, args...)
		srv := exec.Command(bins["wmserver"], full...)
		var out strings.Builder
		srv.Stdout, srv.Stderr = &out, &out
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.Process.Signal(os.Interrupt) //nolint:errcheck
			srv.Wait()                       //nolint:errcheck
		})
		url := "http://" + addr
		deadline := time.Now().Add(15 * time.Second)
		for {
			resp, err := http.Get(url + "/healthz")
			if err == nil {
				resp.Body.Close()
				return url
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never came up: %v\n%s", name, err, out.String())
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	coordURL := startServer("coord", "-coordinator", "-shard-rows", "700")
	startServer("w1", "-join", coordURL, "-capacity", "2")
	startServer("w2", "-join", coordURL, "-capacity", "2")

	// Watermark through the coordinator so the certificate lands in ITS
	// store (workers need none — certificates travel in shard requests).
	out := run(t, bins["wmtool"], "watermark", "-server", coordURL,
		"-in", data, "-schema", itemScanSpec, "-attr", "Item_Nbr",
		"-secret", "cli-cluster-secret", "-wm", "1011001110", "-e", "40",
		"-domain", filepath.Join(dir, "Item_Nbr.domain"), "-out", marked)
	m := regexp.MustCompile(`certificate stored server-side: id ([0-9a-f]{32})`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("watermark output lacks certificate id:\n%s", out)
	}
	certID := m[1]

	// Wait for both workers' first heartbeats to land.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(coordURL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var health struct {
			Cluster struct {
				LiveWorkers int `json:"live_workers"`
			} `json:"cluster"`
		}
		err = json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if health.Cluster.LiveWorkers == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never joined (live=%d)", health.Cluster.LiveWorkers)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Distributed audit with -json: stdout is the pure JSON report.
	cmd := exec.Command(bins["wmtool"], "audit", "-server", coordURL,
		"-in", marked, "-schema", itemScanSpec, "-poll", "20ms", "-json")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("audit -json: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	var report struct {
		Results []struct {
			ID      string  `json:"id"`
			Match   float64 `json:"match"`
			Verdict string  `json:"verdict"`
		} `json:"results"`
		Tuples int `json:"tuples"`
	}
	if err := json.Unmarshal([]byte(stdout.String()), &report); err != nil {
		t.Fatalf("stdout is not pure JSON: %v\n%s", err, stdout.String())
	}
	if report.Tuples != 6000 || len(report.Results) != 1 {
		t.Fatalf("report shape: %+v", report)
	}
	if r := report.Results[0]; r.ID != certID || r.Match != 1 || r.Verdict != "present" {
		t.Fatalf("distributed verdict: %+v", r)
	}
	if !strings.Contains(stderr.String(), "audit job job-") {
		t.Fatalf("human chatter missing from stderr:\n%s", stderr.String())
	}
}
