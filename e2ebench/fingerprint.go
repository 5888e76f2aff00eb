package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/keyhash"
)

// fingerprint identifies the machine and the code a result came from —
// the data behind the rule that a hash backend stays only if some
// machine shows it winning.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit when the checkout is a repository; Source
	// is a digest of every Go source and module file under the working
	// directory, which identifies the code either way.
	Commit     string             `json:"commit"`
	Source     string             `json:"source_sha256"`
	HashKernel string             `json:"hash_kernel"`
	Backends   map[string]float64 `json:"backend_hashes_per_s"`
	Available  []string           `json:"backends_available"`
}

func fingerprintJSON() string {
	cal := keyhash.Calibrate()
	fp := fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     os.Getenv("E2EBENCH_COMMIT"),
		Source:     sourceDigest("."),
		HashKernel: string(cal.Kind),
		Backends:   map[string]float64{},
	}
	if fp.Commit == "" {
		fp.Commit = "unknown"
	}
	for kind, rate := range cal.HashesPerSec {
		fp.Backends[string(kind)] = rate
	}
	for _, b := range keyhash.Backends() {
		if b.Available {
			fp.Available = append(fp.Available, string(b.Kind))
		}
	}
	b, _ := json.Marshal(fp)
	return string(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the path and contents of every .go, .s and go.mod
// file under root, skipping hidden and build directories.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || strings.HasSuffix(name, ".s") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
