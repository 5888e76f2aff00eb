package keyhash

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// availableKernels returns every kernel kind constructible on this
// machine, so the equivalence suite covers each assembly backend
// exactly where it can run. Unavailability is taken from the backend
// registry itself: a kind that claims to be available but fails to
// construct is a test failure, not a skip.
func availableKernels(t testing.TB, k Key) map[KernelKind]Kernel {
	t.Helper()
	avail := map[KernelKind]bool{KernelAuto: true}
	for _, b := range Backends() {
		avail[b.Kind] = b.Available
	}
	kernels := map[KernelKind]Kernel{}
	for _, kind := range KernelKinds() {
		kern, err := k.NewKernel(kind)
		if err != nil {
			if !avail[kind] {
				t.Logf("kernel %q unavailable here: %v", kind, err)
				continue
			}
			t.Fatalf("NewKernel(%q): %v", kind, err)
		}
		kernels[kind] = kern
	}
	return kernels
}

// TestKernelMatchesHash drives every available kernel over value sets
// covering each execution path — the one-block and two-block assembly
// lanes, the pairing parity, and the beyond-lane streaming fallback —
// and requires digests bit-identical to the scalar construct.
func TestKernelMatchesHash(t *testing.T) {
	k := NewKey("kernel-equivalence")
	cases := [][]string{
		{},
		{"solo"},
		{"a", "b"},
		{"", "", ""},
		{"500123", "500124", "500125", "500126", "500127"},
		{strings.Repeat("x", 47), strings.Repeat("y", 48), strings.Repeat("z", 200), "tiny"},
		{strings.Repeat("long-value-", 30), strings.Repeat("w", 1000)},
	}
	// Ragged batch tails for every lane width: batch sizes around the
	// 2-, 4- and 8-lane boundaries, same-length values so they all land
	// in one block-count bucket.
	for _, n := range []int{3, 4, 5, 7, 8, 9, 15, 16, 17} {
		batch := make([]string, n)
		for i := range batch {
			batch[i] = fmt.Sprintf("tail-%02d-%02d", n, i)
		}
		cases = append(cases, batch)
	}
	// One-block and two-block values interleaved, so multi-lane batches
	// fill both buckets at once and flush them at different times.
	var mixed []string
	for i := 0; i < 23; i++ {
		if i%3 == 0 {
			mixed = append(mixed, strings.Repeat("m", 90)+fmt.Sprint(i))
		} else {
			mixed = append(mixed, fmt.Sprintf("m%d", i))
		}
	}
	cases = append(cases, mixed)
	// Every value length from 0 through past the two-block lane
	// boundary, in one batch (odd/even pairings shift as it goes).
	var sweep []string
	for n := 0; n <= 140; n++ {
		sweep = append(sweep, strings.Repeat("v", n))
	}
	cases = append(cases, sweep)

	for kind, kern := range availableKernels(t, k) {
		t.Run(string(kind), func(t *testing.T) {
			for ci, values := range cases {
				out := make([]Digest, len(values))
				kern.HashMany(values, out)
				for i, v := range values {
					if want := HashString(k, v); out[i] != want {
						t.Fatalf("case %d value %d (len %d): kernel %q digest mismatch\n got %x\nwant %x",
							ci, i, len(v), kind, out[i], want)
					}
				}
				// The columnar entry point must produce the identical
				// digests over the same byte sequences.
				data, offs := column(values)
				colOut := make([]Digest, len(values))
				kern.HashColumn(data, offs, colOut)
				for i := range values {
					if colOut[i] != out[i] {
						t.Fatalf("case %d value %d: kernel %q HashColumn differs from HashMany",
							ci, i, kind)
					}
				}
			}
		})
	}
}

// column lays values out as a contiguous arena + offsets, the shape
// HashColumn consumes.
func column(values []string) ([]byte, []int32) {
	offs := make([]int32, 1, len(values)+1)
	var data []byte
	for _, v := range values {
		data = append(data, v...)
		offs = append(offs, int32(len(data)))
	}
	return data, offs
}

// TestKernelMatchesHashRandom is the randomized sweep: arbitrary batch
// shapes, lengths and contents, odd keys included.
func TestKernelMatchesHashRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		keyLen := 1 + rng.Intn(64)
		keyBytes := make([]byte, keyLen)
		rng.Read(keyBytes)
		k := Key(keyBytes)
		values := make([]string, rng.Intn(40))
		for i := range values {
			b := make([]byte, rng.Intn(160))
			rng.Read(b)
			values[i] = string(b)
		}
		for kind, kern := range availableKernels(t, k) {
			out := make([]Digest, len(values))
			kern.HashMany(values, out)
			for i, v := range values {
				if want := HashString(k, v); out[i] != want {
					t.Fatalf("trial %d kernel %q keyLen %d value %d (len %d): digest mismatch",
						trial, kind, keyLen, i, len(v))
				}
			}
			data, offs := column(values)
			colOut := make([]Digest, len(values))
			kern.HashColumn(data, offs, colOut)
			for i := range values {
				if colOut[i] != out[i] {
					t.Fatalf("trial %d kernel %q value %d: HashColumn differs from HashMany",
						trial, kind, i)
				}
			}
		}
	}
}

// FuzzKernelMatchesHash cross-checks every available kernel against the
// scalar construct on fuzzer-chosen key and value bytes.
func FuzzKernelMatchesHash(f *testing.F) {
	f.Add([]byte("seed-key"), "value-a", "value-b", "value-c")
	f.Add([]byte{1}, "", strings.Repeat("q", 60), strings.Repeat("r", 130))
	f.Fuzz(func(t *testing.T, keyBytes []byte, v0, v1, v2 string) {
		if len(keyBytes) == 0 {
			t.Skip()
		}
		k := Key(keyBytes)
		values := []string{v0, v1, v2, v0}
		for kind, kern := range availableKernels(t, k) {
			out := make([]Digest, len(values))
			kern.HashMany(values, out)
			for i, v := range values {
				if want := HashString(k, v); out[i] != want {
					t.Fatalf("kernel %q value %d: digest mismatch", kind, i)
				}
			}
			data, offs := column(values)
			colOut := make([]Digest, len(values))
			kern.HashColumn(data, offs, colOut)
			for i := range values {
				if colOut[i] != out[i] {
					t.Fatalf("kernel %q value %d: HashColumn differs from HashMany", kind, i)
				}
			}
		}
	})
}

func TestNewKernelErrors(t *testing.T) {
	if _, err := Key(nil).NewKernel(KernelAuto); err == nil {
		t.Fatal("empty key: want error")
	}
	if _, err := NewKey("x").NewKernel(KernelKind("no-such-backend")); err == nil {
		t.Fatal("unknown kind: want error")
	}
}

// TestBlockMemoSharesLanes proves the lane cache: same (column, key)
// pairs hit the memo, different columns or keys do not, and Reset
// invalidates.
func TestBlockMemoSharesLanes(t *testing.T) {
	kA, kB := NewKey("owner-a"), NewKey("owner-b")
	kernA := countingKernel{inner: mustKernel(t, kA)}
	kernB := countingKernel{inner: mustKernel(t, kB)}
	values := []string{"k1", "k2", "k3"}

	var m BlockMemo
	first := m.Lane(0, string(kA), &kernA, values)
	again := m.Lane(0, string(kA), &kernA, values)
	if kernA.calls != 1 {
		t.Fatalf("same lane twice: %d kernel calls, want 1", kernA.calls)
	}
	if &first[0] != &again[0] {
		t.Fatal("memo hit should return the cached slice")
	}
	for i, v := range values {
		if first[i] != HashString(kA, v) {
			t.Fatalf("lane digest %d mismatch", i)
		}
	}

	m.Lane(1, string(kA), &kernA, values) // different column: new lane
	if kernA.calls != 2 {
		t.Fatalf("distinct column should re-hash: %d calls, want 2", kernA.calls)
	}
	m.Lane(0, string(kB), &kernB, values) // different key: new lane
	if kernB.calls != 1 {
		t.Fatalf("distinct key should hash its own lane: %d calls, want 1", kernB.calls)
	}

	// The columnar entry shares lanes with the string entry: same
	// (col, key) hits the memo without re-hashing.
	data, offs := column(values)
	col := m.LaneColumn(0, string(kA), &kernA, data, offs)
	if kernA.calls != 2 {
		t.Fatalf("LaneColumn should hit the Lane memo: %d calls, want 2", kernA.calls)
	}
	if &col[0] != &first[0] {
		t.Fatal("LaneColumn memo hit should return the cached slice")
	}

	m.Reset()
	m.LaneColumn(0, string(kA), &kernA, data, offs)
	if kernA.calls != 3 {
		t.Fatalf("Reset should invalidate lanes: %d calls, want 3", kernA.calls)
	}
	if d := m.Lane(0, string(kA), &kernA, values); d[0] != HashString(kA, values[0]) {
		t.Fatal("LaneColumn-filled lane digest mismatch")
	}
}

func mustKernel(t *testing.T, k Key) Kernel {
	t.Helper()
	kern, err := k.NewKernel(KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	return kern
}

// countingKernel counts HashMany invocations for memo assertions.
type countingKernel struct {
	inner Kernel
	calls int
}

func (c *countingKernel) HashMany(values []string, out []Digest) {
	c.calls++
	c.inner.HashMany(values, out)
}

func (c *countingKernel) HashColumn(data []byte, offs []int32, out []Digest) {
	c.calls++
	c.inner.HashColumn(data, offs, out)
}

// TestKernelKindsRoundTrip pins the knob spellings that travel through
// core.Spec and the CLI flags.
func TestKernelKindsRoundTrip(t *testing.T) {
	avail := map[KernelKind]bool{KernelAuto: true}
	for _, b := range Backends() {
		avail[b.Kind] = b.Available
	}
	for _, kind := range KernelKinds() {
		if !avail[kind] {
			continue // availability varies by CPU
		}
		if _, err := NewKey("k").NewKernel(kind); err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
	}
	got := fmt.Sprintf("%s/%s/%s", KernelPortable, KernelMultiBuffer, KernelAVX2)
	if got != "portable/multibuffer/avx2" {
		t.Fatalf("kernel kind spellings changed: %s", got)
	}
}

// TestBackendRegistry pins the registry invariants every enumeration
// path (KernelKinds, KernelStats, Calibrate, wmtool kernels) relies on.
func TestBackendRegistry(t *testing.T) {
	backends := Backends()
	if len(backends) == 0 || backends[0].Kind != KernelPortable {
		t.Fatalf("portable backend must be registered first: %+v", backends)
	}
	if !backends[0].Available {
		t.Fatal("portable backend must always be available")
	}
	seen := map[KernelKind]bool{}
	for _, b := range backends {
		if seen[b.Kind] {
			t.Fatalf("duplicate backend %q", b.Kind)
		}
		seen[b.Kind] = true
		if b.Lanes < 1 {
			t.Fatalf("backend %q: lanes %d", b.Kind, b.Lanes)
		}
		if b.Kind != KernelPortable && b.Requires == "" {
			t.Fatalf("accelerated backend %q must name its CPU gate", b.Kind)
		}
	}
	stats := KernelStats()
	for _, b := range backends {
		if _, ok := stats[b.Kind]; !ok {
			t.Fatalf("KernelStats missing backend %q", b.Kind)
		}
	}
	if len(stats) != len(backends) {
		t.Fatalf("KernelStats has %d entries, registry %d", len(stats), len(backends))
	}
}

// TestKernelStatsCount proves the counters actually tick through the
// registry pairs: a fresh kernel's HashMany moves its backend's totals.
func TestKernelStatsCount(t *testing.T) {
	k := NewKey("stats-key")
	values := []string{"a", "b", "c"}
	out := make([]Digest, len(values))
	for kind, kern := range availableKernels(t, k) {
		if kind == KernelAuto {
			continue // double-counts whichever backend it resolves to
		}
		before := KernelStats()[kind]
		kern.HashMany(values, out)
		after := KernelStats()[kind]
		if after.Calls != before.Calls+1 || after.Values != before.Values+uint64(len(values)) {
			t.Fatalf("kernel %q counters did not tick: before %+v after %+v", kind, before, after)
		}
	}
}

// TestCalibrate pins the auto-selection contract: the winner is an
// available backend, every available backend gets a measured positive
// rate, and the cached result is stable across calls.
func TestCalibrate(t *testing.T) {
	cal := Calibrate()
	d := Calibrate()
	if cal.Kind != d.Kind {
		t.Fatalf("Calibrate not cached: %q then %q", cal.Kind, d.Kind)
	}
	found := false
	for _, b := range Backends() {
		if b.Kind == cal.Kind {
			found = true
			if !b.Available {
				t.Fatalf("calibration picked unavailable backend %q", cal.Kind)
			}
		}
		if b.Available {
			if rate, ok := cal.HashesPerSec[b.Kind]; !ok || rate <= 0 {
				t.Fatalf("backend %q: no positive calibrated rate (%v)", b.Kind, cal.HashesPerSec)
			}
		}
	}
	if !found {
		t.Fatalf("calibration picked unregistered backend %q", cal.Kind)
	}
	if cal.Rate() <= 0 {
		t.Fatalf("chosen backend rate %v", cal.Rate())
	}
	if AutoKind() != cal.Kind {
		t.Fatalf("AutoKind %q != Calibrate().Kind %q", AutoKind(), cal.Kind)
	}
}

// TestAutoKernelEquivalenceCovered is the CI guard: KernelAuto must
// never resolve to a backend whose equivalence suite would be skipped.
// The equivalence tests skip exactly the backends Backends() reports
// unavailable, so the auto pick being available — and constructible —
// means its digests are cross-checked on this machine.
func TestAutoKernelEquivalenceCovered(t *testing.T) {
	kind := AutoKind()
	for _, b := range Backends() {
		if b.Kind != kind {
			continue
		}
		if !b.Available {
			t.Fatalf("KernelAuto resolves to %q, which is unavailable here: its equivalence test is skipped", kind)
		}
		if _, err := NewKey("guard").NewKernel(kind); err != nil {
			t.Fatalf("KernelAuto resolves to %q but it does not construct: %v", kind, err)
		}
		t.Logf("KernelAuto -> %q (%d lanes), equivalence-covered on this machine", kind, b.Lanes)
		return
	}
	t.Fatalf("KernelAuto resolves to unregistered backend %q", kind)
}
