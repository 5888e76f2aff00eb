package keyhash

import (
	"crypto/sha256"
	"fmt"
)

// Kernel is a batched evaluation context for H(·;k): the pluggable bottom
// of the block-at-a-time scan engine. One HashMany call hashes a whole
// block of key values, which lets an implementation amortize per-call
// overhead (scratch reuse, padding assembly) or run several one-shot
// SHA-256 states at once (the amd64 multi-buffer backend). Digests are
// bit-identical to Hash/HashString — a Kernel is an execution strategy,
// never a different hash.
//
// Implementations must be immutable after construction and safe for
// concurrent use: the detection fan-out shares one prepared Scanner (and
// therefore one Kernel) across all worker goroutines. Per-call scratch
// lives on the stack or in caller-owned state (see BlockMemo).
type Kernel interface {
	// HashMany computes H(values[i];k) into out[i] for every value.
	// len(out) must be at least len(values).
	HashMany(values []string, out []Digest)
	// HashColumn is HashMany over a columnar value view: value i is
	// data[offs[i]:offs[i+1]], with len(offs) == n+1 and offs[0] == 0 —
	// the exact arena shape of a relation block column. The scan engine
	// hashes key-column bytes directly through this entry point, never
	// materializing a string per field. len(out) must be at least
	// len(offs)-1. Digests are bit-identical to HashMany over the same
	// byte sequences.
	HashColumn(data []byte, offs []int32, out []Digest)
}

// vals abstracts the two batch shapes the kernels accept — a []string
// batch and a columnar arena view — so each backend's batching core is
// written once, generically, and instantiated per shape with direct
// (devirtualized) accessors.
type vals[V ~string | ~[]byte] interface {
	count() int
	at(i int) V
}

type strVals []string

func (s strVals) count() int      { return len(s) }
func (s strVals) at(i int) string { return s[i] }

type colVals struct {
	data []byte
	offs []int32
}

func (c colVals) count() int      { return len(c.offs) - 1 }
func (c colVals) at(i int) []byte { return c.data[c.offs[i]:c.offs[i+1]] }

// hashFull is the beyond-lane streaming fallback for either value
// shape. (For V = []byte the conversion is a no-op; for V = string it
// pays the same copy HashString always has.)
func hashFull[V ~string | ~[]byte](k Key, v V) Digest { return Hash(k, []byte(v)) }

// KernelKind names a batched hash backend.
type KernelKind string

const (
	// KernelAuto picks the fastest backend available on this machine:
	// the first NewKernel(KernelAuto) in a process runs a short
	// calibration pass (see Calibrate) that micro-benchmarks every
	// available backend and caches the winner.
	KernelAuto KernelKind = ""
	// KernelPortable is the pure-Go batched kernel: one-shot SHA-256 per
	// value over a reused stack scratch buffer. Available everywhere.
	KernelPortable KernelKind = "portable"
	// KernelMultiBuffer interleaves two one-shot SHA-256 message streams
	// through the CPU's SHA extensions in one assembly loop, hiding the
	// SHA256RNDS2 dependency-chain latency that leaves a single-stream
	// implementation underutilizing the execution ports. amd64 with
	// SHA-NI only; NewKernel reports an error elsewhere.
	KernelMultiBuffer KernelKind = "multibuffer"
	// KernelAVX2 is the 8-lane multi-buffer SHA-256 kernel: a transposed
	// message schedule evaluated with plain AVX2 integer SIMD, one YMM
	// word per round across eight independent messages. No SHA-NI
	// dependency — amd64 with AVX2 + BMI2 only.
	KernelAVX2 KernelKind = "avx2"
)

// backendDef is one registered hash backend: the registry entry that
// lets a kernel self-describe its lane width and CPU requirements, so
// enumeration (KernelKinds, Backends, KernelStats, Calibrate) can never
// silently miss a backend that NewKernel accepts.
type backendDef struct {
	kind  KernelKind
	lanes int
	// requires names the CPU gate for diagnostics ("" = none).
	requires string
	// available reports whether this CPU can run the backend.
	available func() bool
	// build constructs the kernel for a validated key; only called when
	// available() is true.
	build func(Key) Kernel
	// counters is the backend's process-wide HashMany activity, ticked
	// by every kernel the def builds and read by KernelStats.
	counters kernelCounters
}

// registry holds every backend in presentation order: portable first,
// then the accelerated backends by increasing lane count (arch init
// functions append theirs). Selection order is NOT registry order —
// KernelAuto picks by measured throughput (Calibrate).
var registry = func() []*backendDef {
	d := &backendDef{
		kind:      KernelPortable,
		lanes:     1,
		available: func() bool { return true },
	}
	d.build = func(k Key) Kernel { return newPortableKernel(k, &d.counters) }
	return []*backendDef{d}
}()

func lookupBackend(kind KernelKind) *backendDef {
	for _, d := range registry {
		if d.kind == kind {
			return d
		}
	}
	return nil
}

// KernelKinds lists the kinds accepted by NewKernel, KernelAuto first.
func KernelKinds() []KernelKind {
	kinds := make([]KernelKind, 0, len(registry)+1)
	kinds = append(kinds, KernelAuto)
	for _, d := range registry {
		kinds = append(kinds, d.kind)
	}
	return kinds
}

// BackendInfo describes one registered hash backend for introspection
// (wmtool kernels, the README catalog, tests).
type BackendInfo struct {
	// Kind is the spelling NewKernel accepts.
	Kind KernelKind `json:"kind"`
	// Lanes is how many independent SHA-256 streams one HashMany batch
	// step evaluates.
	Lanes int `json:"lanes"`
	// Requires names the CPU features gating the backend ("" = none).
	Requires string `json:"requires,omitempty"`
	// Available reports whether this machine can run the backend.
	Available bool `json:"available"`
}

// Backends lists every registered backend in presentation order,
// including ones this CPU cannot run (Available reports which).
func Backends() []BackendInfo {
	out := make([]BackendInfo, len(registry))
	for i, d := range registry {
		out[i] = BackendInfo{
			Kind:      d.kind,
			Lanes:     d.lanes,
			Requires:  d.requires,
			Available: d.available(),
		}
	}
	return out
}

// NewKernel validates the key and builds the requested hash backend.
// KernelAuto never fails on a valid key (it resolves to the calibrated
// winner, see Calibrate); a concrete kind fails where the CPU (or
// architecture) lacks the features it needs.
func (k Key) NewKernel(kind KernelKind) (Kernel, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if kind == KernelAuto {
		kind = AutoKind()
	}
	d := lookupBackend(kind)
	if d == nil {
		return nil, fmt.Errorf("keyhash: unknown hash kernel %q (want one of %s)", kind, kindSpellings())
	}
	if !d.available() {
		return nil, fmt.Errorf("keyhash: kernel %q unavailable on this CPU (needs %s)", kind, d.requires)
	}
	return d.build(k), nil
}

// kindSpellings renders the accepted kinds for error messages.
func kindSpellings() string {
	s := fmt.Sprintf("%q", KernelAuto)
	for _, d := range registry {
		s += fmt.Sprintf(", %q", d.kind)
	}
	return s
}

// portableKernel is the pure-Go batched backend. The construct's message
// layout (len(k) ‖ k ‖ v ‖ k) is assembled into one stack scratch buffer
// that lives for the whole HashMany call, so the per-call zero-init and
// prefix copy of Hasher.HashString are paid once per block instead of
// once per value.
type portableKernel struct {
	h   *Hasher
	ctr *kernelCounters
}

func newPortableKernel(k Key, ctr *kernelCounters) *portableKernel {
	h, err := k.NewHasher()
	if err != nil {
		// NewKernel validated the key already.
		panic(fmt.Sprintf("keyhash: portable kernel: %v", err))
	}
	return &portableKernel{h: h, ctr: ctr}
}

// HashMany hashes every value with a single scratch buffer. Values too
// long for the one-shot buffer fall back to the streaming construct,
// exactly like Hasher.HashString.
func (p *portableKernel) HashMany(values []string, out []Digest) {
	p.ctr.tick(len(values))
	hashBatchPortable[string, strVals](p.h, strVals(values), out)
}

// HashColumn hashes a block column's arena view, same strategy.
func (p *portableKernel) HashColumn(data []byte, offs []int32, out []Digest) {
	if len(offs) == 0 {
		return
	}
	p.ctr.tick(len(offs) - 1)
	hashBatchPortable[[]byte, colVals](p.h, colVals{data: data, offs: offs}, out)
}

// hashBatchPortable is the portable batching core over either value
// shape: the construct's prefix is copied into one scratch buffer that
// lives for the whole batch.
func hashBatchPortable[V ~string | ~[]byte, S vals[V]](h *Hasher, src S, out []Digest) {
	n := src.count()
	if n <= 0 {
		return
	}
	_ = out[:n] // one bounds check up front
	var buf [oneShotMax]byte
	prefixLen := copy(buf[:], h.prefix)
	for i := 0; i < n; i++ {
		v := src.at(i)
		total := prefixLen + len(v) + len(h.key)
		if total > oneShotMax {
			out[i] = hashFull(h.key, v)
			continue
		}
		w := prefixLen
		w += copy(buf[w:], v)
		w += copy(buf[w:], h.key)
		out[i] = Digest(sha256.Sum256(buf[:w]))
	}
}

// laneKey identifies one memo lane: a secret key evaluated over one key
// column. Two scanners that derive the same k1 (certificates of the same
// owner secret) and resolve the same key column share a lane.
type laneKey struct {
	col int
	key string
}

// BlockMemo caches HashMany results per lane for ONE block of key
// values, so N certificates sharing a key column hash each distinct key
// value once per lane, not once per certificate. The caller owns the
// block identity: Reset invalidates every lane when the block changes.
//
// A BlockMemo is mutable scratch — per worker, never shared across
// goroutines.
type BlockMemo struct {
	lanes map[laneKey][]Digest
	free  [][]Digest
}

// Reset invalidates all lanes (the scratch block moved on); digest
// slices are recycled into the next block's lanes.
func (m *BlockMemo) Reset() {
	for k, d := range m.lanes {
		m.free = append(m.free, d)
		delete(m.lanes, k)
	}
}

// lane returns the digest slice for lk, reporting whether it was
// already computed. A miss returns a recycled (or grown) slice of n
// digests already installed in the map.
func (m *BlockMemo) lane(lk laneKey, n int) ([]Digest, bool) {
	if m.lanes == nil {
		m.lanes = make(map[laneKey][]Digest)
	}
	if d, ok := m.lanes[lk]; ok {
		return d, true
	}
	var d []Digest
	if f := len(m.free); f > 0 {
		d = m.free[f-1][:0]
		m.free = m.free[:f-1]
	}
	if cap(d) < n {
		d = make([]Digest, n)
	}
	d = d[:n]
	m.lanes[lk] = d
	return d, false
}

// Lane returns the digests of values under kern, computing them on the
// first call for this (col, key) lane and replaying them afterwards.
// key is the string form of the secret key (callers cache it — passing
// string(k) inline would allocate per call). The returned slice is
// valid until the next Reset.
func (m *BlockMemo) Lane(col int, key string, kern Kernel, values []string) []Digest {
	d, hit := m.lane(laneKey{col: col, key: key}, len(values))
	if !hit {
		kern.HashMany(values, d)
	}
	return d
}

// LaneColumn is Lane over a block column's arena view (value i is
// data[offs[i]:offs[i+1]], len(offs) == rows+1). Lanes are shared with
// Lane: the digests are bit-identical either way.
func (m *BlockMemo) LaneColumn(col int, key string, kern Kernel, data []byte, offs []int32) []Digest {
	d, hit := m.lane(laneKey{col: col, key: key}, len(offs)-1)
	if !hit {
		kern.HashColumn(data, offs, d)
	}
	return d
}
