package relation

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// itemScanSchema mirrors the paper's Wal-Mart test relation:
// Visit_Nbr INTEGER PRIMARY KEY, Item_Nbr INTEGER (categorical).
func itemScanSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Attribute{
		{Name: "Visit_Nbr", Type: TypeInt},
		{Name: "Item_Nbr", Type: TypeInt, Categorical: true},
	}, "Visit_Nbr")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func threeAttrSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Attribute{
		{Name: "ticket", Type: TypeInt},
		{Name: "city", Type: TypeString, Categorical: true},
		{Name: "airline", Type: TypeString, Categorical: true},
	}, "ticket")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	cases := []struct {
		name  string
		attrs []Attribute
		key   string
	}{
		{"empty", nil, "k"},
		{"missing key", []Attribute{{Name: "a"}}, "b"},
		{"duplicate attr", []Attribute{{Name: "a"}, {Name: "a"}}, "a"},
		{"empty name", []Attribute{{Name: ""}}, ""},
	}
	for _, c := range cases {
		if _, err := NewSchema(c.attrs, c.key); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := threeAttrSchema(t)
	if s.Arity() != 3 {
		t.Fatalf("arity %d", s.Arity())
	}
	if s.KeyName() != "ticket" || s.KeyIndex() != 0 {
		t.Fatalf("key %q at %d", s.KeyName(), s.KeyIndex())
	}
	i, ok := s.Index("airline")
	if !ok || i != 2 {
		t.Fatalf("Index(airline) = %d,%v", i, ok)
	}
	if _, ok := s.Index("nope"); ok {
		t.Fatal("unknown attribute found")
	}
	cats := s.CategoricalAttrs()
	if len(cats) != 2 || cats[0] != "city" || cats[1] != "airline" {
		t.Fatalf("categorical attrs %v", cats)
	}
}

func TestSchemaProjectKeepsKey(t *testing.T) {
	s := threeAttrSchema(t)
	p, err := s.Project("ticket", "city")
	if err != nil {
		t.Fatal(err)
	}
	if p.KeyName() != "ticket" {
		t.Fatalf("projected key %q, want ticket", p.KeyName())
	}
}

func TestSchemaProjectPromotesFirstAttr(t *testing.T) {
	s := threeAttrSchema(t)
	p, err := s.Project("city", "airline")
	if err != nil {
		t.Fatal(err)
	}
	if p.KeyName() != "city" {
		t.Fatalf("projected key %q, want city (first kept)", p.KeyName())
	}
}

func TestSchemaProjectErrors(t *testing.T) {
	s := threeAttrSchema(t)
	if _, err := s.Project(); err == nil {
		t.Error("empty projection should fail")
	}
	if _, err := s.Project("ghost"); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestAppendAndLookup(t *testing.T) {
	r := New(itemScanSchema(t))
	for i := 0; i < 10; i++ {
		if err := r.Append(Tuple{strconv.Itoa(i), strconv.Itoa(100 + i%3)}); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 10 {
		t.Fatalf("len %d", r.Len())
	}
	idx, ok := r.Lookup("7")
	if !ok || r.Key(idx) != "7" {
		t.Fatalf("Lookup(7) = %d,%v", idx, ok)
	}
	v, err := r.Value(idx, "Item_Nbr")
	if err != nil || v != "101" {
		t.Fatalf("Value = %q, %v", v, err)
	}
}

func TestAppendArityMismatch(t *testing.T) {
	r := New(itemScanSchema(t))
	if err := r.Append(Tuple{"1"}); err == nil {
		t.Fatal("short tuple accepted")
	}
	if err := r.Append(Tuple{"1", "2", "3"}); err == nil {
		t.Fatal("long tuple accepted")
	}
}

func TestAppendDuplicateKey(t *testing.T) {
	r := New(itemScanSchema(t))
	if err := r.Append(Tuple{"1", "100"}); err != nil {
		t.Fatal(err)
	}
	err := r.Append(Tuple{"1", "200"})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate key error = %v", err)
	}
}

func TestSetValue(t *testing.T) {
	r := New(itemScanSchema(t))
	r.MustAppend(Tuple{"1", "100"})
	if err := r.SetValue(0, "Item_Nbr", "999"); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Value(0, "Item_Nbr"); v != "999" {
		t.Fatalf("value after set = %q", v)
	}
	if err := r.SetValue(0, "ghost", "x"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestSetValueKeyMaintainsIndex(t *testing.T) {
	r := New(itemScanSchema(t))
	r.MustAppend(Tuple{"1", "100"})
	r.MustAppend(Tuple{"2", "200"})
	if err := r.SetValue(0, "Visit_Nbr", "2"); err == nil {
		t.Fatal("key collision accepted")
	}
	if err := r.SetValue(0, "Visit_Nbr", "42"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup("1"); ok {
		t.Fatal("stale key still indexed")
	}
	idx, ok := r.Lookup("42")
	if !ok || idx != 0 {
		t.Fatalf("new key lookup = %d,%v", idx, ok)
	}
	// Setting a key to itself is a no-op, not a collision.
	if err := r.SetValue(1, "Visit_Nbr", "2"); err != nil {
		t.Fatalf("self-assignment rejected: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	r := New(itemScanSchema(t))
	r.MustAppend(Tuple{"1", "100"})
	c := r.Clone()
	if err := c.SetValue(0, "Item_Nbr", "777"); err != nil {
		t.Fatal(err)
	}
	c.MustAppend(Tuple{"2", "200"})
	if v, _ := r.Value(0, "Item_Nbr"); v != "100" {
		t.Fatal("clone mutation leaked into original")
	}
	if r.Len() != 1 || c.Len() != 2 {
		t.Fatal("clone append leaked")
	}
}

func TestEqualOrderSensitive(t *testing.T) {
	s := itemScanSchema(t)
	a, b := New(s), New(s)
	a.MustAppend(Tuple{"1", "x"})
	a.MustAppend(Tuple{"2", "y"})
	b.MustAppend(Tuple{"2", "y"})
	b.MustAppend(Tuple{"1", "x"})
	if a.Equal(b) {
		t.Fatal("Equal should be order-sensitive")
	}
	if !a.EqualUnordered(b) {
		t.Fatal("EqualUnordered should match reordered relations")
	}
}

func TestEqualUnorderedDetectsValueChange(t *testing.T) {
	s := itemScanSchema(t)
	a, b := New(s), New(s)
	a.MustAppend(Tuple{"1", "x"})
	b.MustAppend(Tuple{"1", "CHANGED"})
	if a.EqualUnordered(b) {
		t.Fatal("value change not detected")
	}
}

func TestEqualUnorderedDetectsMissingKey(t *testing.T) {
	s := itemScanSchema(t)
	a, b := New(s), New(s)
	a.MustAppend(Tuple{"1", "x"})
	b.MustAppend(Tuple{"2", "x"})
	if a.EqualUnordered(b) {
		t.Fatal("key mismatch not detected")
	}
}

func TestTypeParseRoundTrip(t *testing.T) {
	for _, typ := range []Type{TypeString, TypeInt} {
		got, err := ParseType(typ.String())
		if err != nil || got != typ {
			t.Errorf("round trip %v: got %v, %v", typ, got, err)
		}
	}
	if _, err := ParseType("float"); err == nil {
		t.Error("unknown type accepted")
	}
}

// checkModel fails unless r holds exactly the rows of model, in order,
// with every key indexed at its row, every stored block but the last
// full, and Tuple returning an owned copy.
func checkModel(t *testing.T, what string, r *Relation, model [][]string) {
	t.Helper()
	if r.Len() != len(model) {
		t.Fatalf("%s: %d rows, model %d", what, r.Len(), len(model))
	}
	for i := 0; i < r.NumBlocks(); i++ {
		if rows := r.Block(i).Rows(); i < r.NumBlocks()-1 && rows != BlockRows {
			t.Fatalf("%s: stored block %d of %d holds %d rows", what, i, r.NumBlocks(), rows)
		}
	}
	key := r.Schema().KeyIndex()
	for i, want := range model {
		got := r.Tuple(i)
		if !reflect.DeepEqual([]string(got), want) {
			t.Fatalf("%s: row %d = %q, model %q", what, i, got, want)
		}
		if j, ok := r.Lookup(want[key]); !ok || j != i {
			t.Fatalf("%s: key %q indexed at %d,%v, want %d", what, want[key], j, ok, i)
		}
		got[0] = "scribble" // an owned copy: the relation must not see it
	}
	if len(r.keys) != len(model) {
		t.Fatalf("%s: %d indexed keys, %d rows", what, len(r.keys), len(model))
	}
}

// TestSetValueMatchesModel drives in-place rewrites against a
// [][]string model: values of differing lengths (growing, shrinking,
// emptying) at random rows across several stored blocks, key-column
// rewrites with a duplicate rejected and the relation left unchanged,
// and a clone mutated independently of its source.
func TestSetValueMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	r := New(threeAttrSchema(t))
	var model [][]string
	for i := 0; i < 3*BlockRows+77; i++ {
		row := []string{strconv.Itoa(i), "city" + strconv.Itoa(i%13), strings.Repeat("a", i%5)}
		r.MustAppend(Tuple(row).Clone())
		model = append(model, row)
	}
	checkModel(t, "appended", r, model)
	attrs := []string{"ticket", "city", "airline"}
	value := func() string { return strings.Repeat(string(rune('a'+rng.Intn(26))), rng.Intn(40)) }

	for step := 0; step < 4000; step++ {
		i, c := rng.Intn(len(model)), rng.Intn(3)
		v := value()
		if c == 0 {
			if rng.Intn(4) == 0 { // a key another row holds
				v = model[rng.Intn(len(model))][0]
			} else {
				v = "k" + strconv.Itoa(step) + v
			}
		}
		gen := r.Block(i / BlockRows).Gen()
		_, taken := r.Lookup(v)
		dup := c == 0 && v != model[i][0] && taken
		err := r.SetValue(i, attrs[c], v)
		switch {
		case dup:
			if !errors.Is(err, ErrDuplicateKey) {
				t.Fatalf("step %d: duplicate key %q accepted: %v", step, v, err)
			}
		case err != nil:
			t.Fatalf("step %d: %v", step, err)
		default:
			if v != model[i][c] && r.Block(i/BlockRows).Gen() == gen {
				t.Fatalf("step %d: value changed but block generation stayed %d", step, gen)
			}
			model[i][c] = v
		}
		if step%500 == 0 {
			checkModel(t, fmt.Sprintf("step %d", step), r, model)
		}
	}
	checkModel(t, "final", r, model)

	c := r.Clone()
	cmodel := make([][]string, len(model))
	for i, row := range model {
		cmodel[i] = append([]string(nil), row...)
	}
	for step := 0; step < 200; step++ {
		i := rng.Intn(len(cmodel))
		v := value()
		if err := c.SetValue(i, "airline", v); err != nil {
			t.Fatal(err)
		}
		cmodel[i][2] = v
	}
	if err := c.SetValue(0, "ticket", "clone-only-key"); err != nil {
		t.Fatal(err)
	}
	cmodel[0][0] = "clone-only-key"
	c.MustAppend(Tuple{"clone-extra", "x", "y"})
	cmodel = append(cmodel, []string{"clone-extra", "x", "y"})
	checkModel(t, "clone", c, cmodel)
	checkModel(t, "source after clone edits", r, model)
}
