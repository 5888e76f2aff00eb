package keyhash

import (
	"encoding/binary"
	"fmt"
)

// The multi-buffer backend: two independent one-shot SHA-256 message
// streams interleaved through the CPU's SHA extensions in a single
// assembly loop (sha256block2_amd64.s). A single-stream SHA-NI
// implementation is latency-bound — each SHA256RNDS2 depends on the
// previous one, so the execution port sits idle most cycles. Feeding two
// independent states through the same instruction stream fills those
// bubbles and raises throughput well above 1.5× without changing a
// single digest bit.

// cpuid and xgetbv are implemented in cpuid_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv(index uint32) (eax, edx uint32)

// init appends the amd64 backends to the registry in increasing lane
// order: 2-lane SHA-NI, 8-lane AVX2. One init keeps the registry order
// deterministic regardless of file compilation order.
func init() {
	registry = append(registry,
		multiBufferDef(),
		avx2Def(),
	)
}

func multiBufferDef() *backendDef {
	d := &backendDef{
		kind:      KernelMultiBuffer,
		lanes:     2,
		requires:  "amd64 with SHA-NI, SSSE3, SSE4.1",
		available: func() bool { return hasSHANI },
	}
	d.build = func(k Key) Kernel { return newMultiKernel(k, &d.counters) }
	return d
}

// hasSHANI reports whether the CPU has the SHA extensions plus the
// SSSE3/SSE4.1 shuffles the kernel uses.
var hasSHANI = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const ssse3Bit = 1 << 9  // CPUID.1:ECX.SSSE3
	const sse41Bit = 1 << 19 // CPUID.1:ECX.SSE4.1
	const shaBit = 1 << 29   // CPUID.7.0:EBX.SHA
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&ssse3Bit == 0 || ecx1&sse41Bit == 0 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&shaBit != 0
}()

// sha256block2 runs the SHA-256 compression over two independent
// messages at once: `blocks` 64-byte blocks from p0 are folded into s0
// while the same number from p1 fold into s1. States are plain h[0..7]
// word order (initialize to the IV for a fresh message).
//
//go:noescape
func sha256block2(s0, s1 *[8]uint32, p0, p1 *byte, blocks int)

// sha256IV is the SHA-256 initial state (FIPS 180-4, 5.3.3).
var sha256IV = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// laneBytes is the multi-buffer lane width: up to two SHA-256 blocks,
// message plus mandatory padding.
const laneBytes = 128

// multiKernel pairs values into two-lane assembly calls. Immutable and
// safe for concurrent use: all per-call scratch is on the stack.
type multiKernel struct {
	h      *Hasher
	key    Key
	prefix []byte // len(k) ‖ k
	ctr    *kernelCounters
}

// newMultiKernel returns the two-lane multi-buffer kernel. The caller
// (the registry) has already checked availability and validated k.
func newMultiKernel(k Key, ctr *kernelCounters) Kernel {
	h, err := k.NewHasher()
	if err != nil {
		panic(fmt.Sprintf("keyhash: multibuffer kernel: %v", err))
	}
	return &multiKernel{h: h, key: k, prefix: h.prefix, ctr: ctr}
}

// paddedBlocks returns the padded block count of the construct for a
// value of vLen bytes — 1 or 2 — or 0 when it exceeds the two-block
// lane (streaming fallback).
func paddedBlocks(prefixLen, keyLen, vLen int) int {
	total := prefixLen + vLen + keyLen
	switch {
	case total+9 <= 64:
		return 1
	case total+9 <= laneBytes:
		return 2
	default:
		return 0
	}
}

// fillPadded assembles the fully padded message len(k) ‖ k ‖ v ‖ k ‖
// 0x80 ‖ 0… ‖ len into a lane buffer, exactly as SHA-256 would pad it.
func fillPadded(buf *[laneBytes]byte, prefix []byte, key Key, v []byte, blocks int) {
	n := copy(buf[:], prefix)
	n += copy(buf[n:], v)
	n += copy(buf[n:], key)
	end := 64 * blocks
	buf[n] = 0x80
	clear(buf[n+1 : end-8])
	binary.BigEndian.PutUint64(buf[end-8:end], uint64(n)*8)
}

// HashColumn pairs values of equal padded block count and hashes each
// pair in one two-lane assembly call. Odd tails run through the scalar
// Hasher; values beyond the lane width use the streaming construct. The
// digests are bit-identical to Hash/HashString in every case.
func (m *multiKernel) HashColumn(data []byte, offs []int32, out []Digest) {
	n := len(offs) - 1
	if n <= 0 {
		return
	}
	m.ctr.tick(n)
	_ = out[:n] // one bounds check up front
	at := func(i int) []byte { return data[offs[i]:offs[i+1]] }
	var b0, b1 [laneBytes]byte
	pending := [3]int{-1, -1, -1} // pending value index per block count
	for i := 0; i < n; i++ {
		v := at(i)
		nb := paddedBlocks(len(m.prefix), len(m.key), len(v))
		if nb == 0 {
			out[i] = Hash(m.key, v)
			continue
		}
		j := pending[nb]
		if j < 0 {
			pending[nb] = i
			continue
		}
		pending[nb] = -1
		fillPadded(&b0, m.prefix, m.key, at(j), nb)
		fillPadded(&b1, m.prefix, m.key, v, nb)
		s0, s1 := sha256IV, sha256IV
		sha256block2(&s0, &s1, &b0[0], &b1[0], nb)
		putDigest(&out[j], &s0)
		putDigest(&out[i], &s1)
	}
	for _, j := range pending[1:] {
		if j >= 0 {
			out[j] = m.h.Hash(at(j))
		}
	}
}

// putDigest serializes a final SHA-256 state into the big-endian digest
// byte order.
func putDigest(d *Digest, s *[8]uint32) {
	for i, w := range s {
		binary.BigEndian.PutUint32(d[4*i:], w)
	}
}
