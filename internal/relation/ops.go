package relation

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/stats"
)

// This file implements the data transformations that both legitimate users
// and the Section 2.3 adversary apply: sorting/shuffling (A4), horizontal
// subsetting (A1), vertical partitioning (A5). The attack package composes
// these; they live here because they are ordinary relational operations.

// SortBy reorders tuples by the named attribute ascending (numeric order
// for TypeInt attributes, lexicographic otherwise), rebuilding the key
// index. Ties keep their relative order.
func (r *Relation) SortBy(attr string) error {
	j, ok := r.schema.Index(attr)
	if !ok {
		return fmt.Errorf("relation: unknown attribute %q", attr)
	}
	typ := r.schema.Attr(j).Type
	vals := make([]string, r.n)
	for i := range vals {
		b, row := r.locate(i)
		vals[i] = b.cols[j].String(row)
	}
	perm := identity(r.n)
	sort.SliceStable(perm, func(a, b int) bool {
		va, vb := vals[perm[a]], vals[perm[b]]
		if typ == TypeInt {
			ia, errA := strconv.ParseInt(va, 10, 64)
			ib, errB := strconv.ParseInt(vb, 10, 64)
			if errA == nil && errB == nil {
				return ia < ib
			}
		}
		return va < vb
	})
	r.permute(perm)
	return nil
}

// Shuffle randomly permutes tuple order (attack A4: subset re-sorting —
// detection must not depend on any predefined ordering).
func (r *Relation) Shuffle(src *stats.Source) {
	perm := identity(r.n)
	src.Shuffle(len(perm), func(i, j int) {
		perm[i], perm[j] = perm[j], perm[i]
	})
	r.permute(perm)
}

// SelectRows returns a new relation containing copies of the rows at the
// given indices, in the given order.
func (r *Relation) SelectRows(rows []int) (*Relation, error) {
	out := New(r.schema)
	for _, i := range rows {
		if i < 0 || i >= r.n {
			return nil, fmt.Errorf("relation: row %d out of range [0,%d)", i, r.n)
		}
		if err := out.Append(r.Tuple(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Filter returns a new relation with copies of the rows for which keep
// returns true. keep receives each row as an owned Tuple.
func (r *Relation) Filter(keep func(i int, t Tuple) bool) *Relation {
	out := New(r.schema)
	for i := 0; i < r.n; i++ {
		if t := r.Tuple(i); keep(i, t) {
			out.MustAppend(t)
		}
	}
	return out
}

// Project returns a new relation keeping only the named attributes — the
// A5 vertical partition. The primary key follows Schema.Project semantics.
// Rows whose projected key collides are dropped (first occurrence wins),
// mirroring the duplicate elimination a real projection would perform; the
// second return value counts dropped rows.
func (r *Relation) Project(keep ...string) (*Relation, int, error) {
	ps, err := r.schema.Project(keep...)
	if err != nil {
		return nil, 0, err
	}
	cols := make([]int, len(keep))
	for i, name := range keep {
		j, _ := r.schema.Index(name)
		cols[i] = j
	}
	out := New(ps)
	dropped := 0
	for i := 0; i < r.n; i++ {
		t := r.Tuple(i)
		nt := make(Tuple, len(cols))
		for k, c := range cols {
			nt[k] = t[c]
		}
		if err := out.Append(nt); err != nil {
			dropped++ // duplicate projected key
		}
	}
	return out, dropped, nil
}

// AppendAll appends copies of every tuple in o, returning the number of
// tuples rejected for duplicate keys.
func (r *Relation) AppendAll(o *Relation) (rejected int, err error) {
	if !r.schema.Equal(o.schema) {
		return 0, fmt.Errorf("relation: schema mismatch in AppendAll")
	}
	for i := 0; i < o.n; i++ {
		if appendErr := r.Append(o.Tuple(i)); appendErr != nil {
			rejected++
		}
	}
	return rejected, nil
}

// identity returns [0, 1, …, n-1].
func identity(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// permute reorders the rows so that new row i is old row perm[i],
// rebuilding the blocks and remapping the key index in place.
func (r *Relation) permute(perm []int) {
	old := r.blocks
	r.blocks, r.n = nil, 0
	newRow := make([]int, len(perm))
	for i, p := range perm {
		r.tail().appendRow(old[p/BlockRows], p%BlockRows)
		r.n++
		newRow[p] = i
	}
	for k, i := range r.keys {
		r.keys[k] = newRow[i]
	}
}
