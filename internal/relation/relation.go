// Package relation is the relational-data substrate for the categorical
// watermarking system. The paper assumes a schema (K, A, B) — a primary key
// K and discrete attributes A, B — hosted on a DBMS and accessed through
// JDBC (Figure 3); this package is the in-memory stand-in: schemas,
// tuples, relations, categorical domains, codecs, sorting and partitioning.
//
// A Relation stores its rows as a sequence of columnar Blocks of
// BlockRows rows each — every attribute's values as raw bytes in one
// arena per column — plus the primary-key index. The scan and embedding
// kernels (internal/mark) work on those blocks directly; Tuple
// materializes one row as strings for the row-shaped callers. Values are
// untyped bytes; Attribute.Type records the logical type for codecs and
// generators. Categorical semantics (the sorted value set {a_1 … a_nA}
// of Section 2.1) live in Domain.
package relation

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
)

// Type is the logical type of an attribute's values.
type Type int

const (
	// TypeString holds free-form text values.
	TypeString Type = iota
	// TypeInt holds base-10 integer values (e.g. Visit_Nbr, Item_Nbr).
	TypeInt
)

// String returns the type's schema-spec name.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType parses a schema-spec type name.
func ParseType(s string) (Type, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "string", "str", "text":
		return TypeString, nil
	case "int", "integer":
		return TypeInt, nil
	default:
		return 0, fmt.Errorf("relation: unknown type %q", s)
	}
}

// Attribute describes one column.
type Attribute struct {
	// Name is the attribute name, unique within a schema.
	Name string
	// Type is the logical value type.
	Type Type
	// Categorical marks attributes drawing from a finite discrete value
	// set — the watermark embedding channels of Section 3.
	Categorical bool
}

// Schema describes a relation's columns and its primary key.
type Schema struct {
	attrs    []Attribute
	byName   map[string]int
	keyIndex int
}

// NewSchema builds a schema from attributes; keyAttr names the primary key
// (the paper's K). Attribute names must be unique and non-empty.
func NewSchema(attrs []Attribute, keyAttr string) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, errors.New("relation: schema needs at least one attribute")
	}
	s := &Schema{
		attrs:    append([]Attribute(nil), attrs...),
		byName:   make(map[string]int, len(attrs)),
		keyIndex: -1,
	}
	for i, a := range s.attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("relation: attribute %d has empty name", i)
		}
		if _, dup := s.byName[a.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute %q", a.Name)
		}
		s.byName[a.Name] = i
		if a.Name == keyAttr {
			s.keyIndex = i
		}
	}
	if s.keyIndex < 0 {
		return nil, fmt.Errorf("relation: primary key %q not among attributes", keyAttr)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and generators
// with static inputs.
func MustSchema(attrs []Attribute, keyAttr string) *Schema {
	s, err := NewSchema(attrs, keyAttr)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Attr returns the attribute at position i.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Attrs returns a copy of the attribute list.
func (s *Schema) Attrs() []Attribute { return append([]Attribute(nil), s.attrs...) }

// Index returns the position of the named attribute.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// KeyIndex returns the primary key's position.
func (s *Schema) KeyIndex() int { return s.keyIndex }

// KeyName returns the primary key's attribute name.
func (s *Schema) KeyName() string { return s.attrs[s.keyIndex].Name }

// CategoricalAttrs returns the names of all categorical attributes,
// in schema order.
func (s *Schema) CategoricalAttrs() []string {
	var out []string
	for _, a := range s.attrs {
		if a.Categorical {
			out = append(out, a.Name)
		}
	}
	return out
}

// Project returns a new schema keeping only the named attributes (in the
// given order). If the original primary key is kept it remains the key;
// otherwise keyAttr of the projection is the first kept attribute —
// mirroring an A5 vertical partition where "one of the remaining attributes
// can act as a primary key" (Section 3.3).
func (s *Schema) Project(keep ...string) (*Schema, error) {
	if len(keep) == 0 {
		return nil, errors.New("relation: projection keeps no attributes")
	}
	attrs := make([]Attribute, 0, len(keep))
	key := ""
	for _, name := range keep {
		i, ok := s.byName[name]
		if !ok {
			return nil, fmt.Errorf("relation: unknown attribute %q", name)
		}
		attrs = append(attrs, s.attrs[i])
		if name == s.KeyName() {
			key = name
		}
	}
	if key == "" {
		key = attrs[0].Name
	}
	return NewSchema(attrs, key)
}

// Equal reports structural equality of two schemas.
func (s *Schema) Equal(o *Schema) bool {
	if s.Arity() != o.Arity() || s.keyIndex != o.keyIndex {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != o.attrs[i] {
			return false
		}
	}
	return true
}

// Tuple is one row: values by attribute position, as strings.
type Tuple []string

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// BlockRows is the number of rows per stored block of a Relation: every
// block but the last holds exactly this many. It is also the default
// batch of the block readers and the scan engine (mark.DefaultBlockRows):
// large enough to amortize a kernel call, small enough that a block's
// keys and digests stay cache-resident while every certificate of a
// batch audit sweeps it.
const BlockRows = 512

// Relation is an ordered multiset of tuples under a schema, with primary
// key uniqueness enforced on insert. Rows live in columnar blocks (see
// Block); row i is row i%BlockRows of block i/BlockRows.
type Relation struct {
	schema *Schema
	blocks []*Block
	n      int
	keys   map[string]int // key value -> row index
}

// New returns an empty relation with the given schema.
func New(schema *Schema) *Relation {
	return &Relation{schema: schema, keys: make(map[string]int)}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples (the paper's N).
func (r *Relation) Len() int { return r.n }

// NumBlocks returns the number of stored blocks.
func (r *Relation) NumBlocks() int { return len(r.blocks) }

// Block returns stored block i, holding rows [i*BlockRows,
// i*BlockRows+Block(i).Rows()). The block belongs to the relation: read
// it (the scan kernels do), but change values only through SetValue,
// and never pass it to PutBlock.
func (r *Relation) Block(i int) *Block { return r.blocks[i] }

// locate returns the block holding row i and the row's index in it.
// A row out of range panics in the block's offset table.
func (r *Relation) locate(i int) (*Block, int) {
	return r.blocks[i/BlockRows], i % BlockRows
}

// ErrDuplicateKey is returned by Append when a tuple reuses a primary key.
var ErrDuplicateKey = errors.New("relation: duplicate primary key")

// Append adds a tuple. It validates arity and primary-key uniqueness.
// The values are copied into the relation's blocks.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.schema.Arity() {
		return fmt.Errorf("relation: tuple arity %d, schema arity %d",
			len(t), r.schema.Arity())
	}
	key := t[r.schema.keyIndex]
	if _, dup := r.keys[key]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateKey, key)
	}
	r.keys[key] = r.n
	_ = r.tail().AppendTuple(t) // cannot fail: arity checked above
	r.n++
	return nil
}

// tail returns the block the next row goes into, opening a new one when
// the last is full.
func (r *Relation) tail() *Block {
	if r.n%BlockRows == 0 {
		r.blocks = append(r.blocks, NewBlock(r.schema))
	}
	return r.blocks[len(r.blocks)-1]
}

// appendBlock adds the rows of b, indexing their keys. A block that
// starts a fresh stored block is kept as it is, so ingestion copies no
// value; otherwise its rows are copied onto the tail. The first error
// names the offending row, 1-based across the whole relation, and leaves
// the relation unusable.
func (r *Relation) appendBlock(b *Block) error {
	keys := b.Col(r.schema.keyIndex)
	for j := 0; j < b.Rows(); j++ {
		if _, dup := r.keys[string(keys.Value(j))]; dup {
			return fmt.Errorf("row %d: %w: %q", r.n+j+1, ErrDuplicateKey, keys.Value(j))
		}
		r.keys[keys.String(j)] = r.n + j
	}
	if r.n%BlockRows == 0 && b.Rows() <= BlockRows {
		r.blocks = append(r.blocks, b)
		r.n += b.Rows()
		return nil
	}
	for j := 0; j < b.Rows(); j++ {
		r.tail().appendRow(b, j)
		r.n++
	}
	return nil
}

// MustAppend is Append that panics on error; for generators whose inputs
// are unique by construction.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Tuple returns row i as an owned copy: one string per attribute, in
// schema order. Changing it does not change the relation; use SetValue.
// Hot paths read the stored blocks instead.
func (r *Relation) Tuple(i int) Tuple {
	b, j := r.locate(i)
	return b.Tuple(j)
}

// Value returns T_i(attr): the value of the named attribute in row i.
func (r *Relation) Value(i int, attr string) (string, error) {
	j, ok := r.schema.Index(attr)
	if !ok {
		return "", fmt.Errorf("relation: unknown attribute %q", attr)
	}
	b, row := r.locate(i)
	return b.cols[j].String(row), nil
}

// SetValue overwrites the named attribute in row i, in place within the
// row's block (O(BlockRows), whatever the relation's size), maintaining
// the primary-key index if the key column is the one changed. A write
// bumps the block's generation, so a scan memo keyed on it never replays
// digests of the old value.
func (r *Relation) SetValue(i int, attr, value string) error {
	j, ok := r.schema.Index(attr)
	if !ok {
		return fmt.Errorf("relation: unknown attribute %q", attr)
	}
	b, row := r.locate(i)
	if j == r.schema.keyIndex {
		if k, dup := r.keys[value]; dup {
			if k == i {
				return nil // the row's own key: no change
			}
			return fmt.Errorf("%w: %q", ErrDuplicateKey, value)
		}
		delete(r.keys, b.cols[j].String(row))
		r.keys[value] = i
	}
	b.cols[j].set(row, value)
	b.gen++
	return nil
}

// Key returns the primary-key value of row i.
func (r *Relation) Key(i int) string {
	b, row := r.locate(i)
	return b.cols[r.schema.keyIndex].String(row)
}

// Lookup returns the row index holding the given primary-key value.
func (r *Relation) Lookup(key string) (int, bool) {
	i, ok := r.keys[key]
	return i, ok
}

// Clone returns a deep copy: independent blocks and key index, shared
// (immutable) schema.
func (r *Relation) Clone() *Relation {
	c := &Relation{
		schema: r.schema,
		blocks: make([]*Block, len(r.blocks)),
		n:      r.n,
		keys:   make(map[string]int, len(r.keys)),
	}
	for i, b := range r.blocks {
		c.blocks[i] = b.clone()
	}
	for k, v := range r.keys {
		c.keys[k] = v
	}
	return c
}

// Equal reports whether two relations have equal schemas and identical
// tuple sequences (order-sensitive; use EqualUnordered for set equality).
func (r *Relation) Equal(o *Relation) bool {
	if !r.schema.Equal(o.schema) || r.Len() != o.Len() {
		return false
	}
	for i := 0; i < r.n; i++ {
		if !sameRow(r, i, o, i) {
			return false
		}
	}
	return true
}

// EqualUnordered reports whether two relations contain the same tuples
// regardless of order, matching rows by primary key.
func (r *Relation) EqualUnordered(o *Relation) bool {
	if !r.schema.Equal(o.schema) || r.Len() != o.Len() {
		return false
	}
	for i := 0; i < r.n; i++ {
		b, row := r.locate(i)
		j, ok := o.keys[string(b.cols[r.schema.keyIndex].Value(row))]
		if !ok || !sameRow(r, i, o, j) {
			return false
		}
	}
	return true
}

// sameRow reports whether row i of r and row j of o hold equal values.
func sameRow(r *Relation, i int, o *Relation, j int) bool {
	rb, ri := r.locate(i)
	ob, oj := o.locate(j)
	for c := range rb.cols {
		if !bytes.Equal(rb.cols[c].Value(ri), ob.cols[c].Value(oj)) {
			return false
		}
	}
	return true
}
