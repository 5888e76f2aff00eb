package relation

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestParseSchemaSpec(t *testing.T) {
	s, err := ParseSchemaSpec("Visit_Nbr:int!key, Item_Nbr:int:categorical")
	if err != nil {
		t.Fatal(err)
	}
	if s.Arity() != 2 || s.KeyName() != "Visit_Nbr" {
		t.Fatalf("arity=%d key=%s", s.Arity(), s.KeyName())
	}
	if !s.Attr(1).Categorical || s.Attr(0).Categorical {
		t.Fatal("categorical flags wrong")
	}
	if s.Attr(0).Type != TypeInt {
		t.Fatal("type wrong")
	}
}

func TestParseSchemaSpecDefaultKey(t *testing.T) {
	s, err := ParseSchemaSpec("a:string, b:string:cat")
	if err != nil {
		t.Fatal(err)
	}
	if s.KeyName() != "a" {
		t.Fatalf("default key %q, want first attribute", s.KeyName())
	}
}

func TestParseSchemaSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"a",
		"a:float",
		"a:int:wat",
		"a:int!key, b:int!key",
		"a:int:cat:extra",
	} {
		if _, err := ParseSchemaSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestSchemaSpecRoundTrip(t *testing.T) {
	specs := []string{
		"Visit_Nbr:int!key, Item_Nbr:int:categorical",
		"a:string!key, b:string:categorical, c:int",
		"x:int!key",
	}
	for _, spec := range specs {
		s, err := ParseSchemaSpec(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		s2, err := ParseSchemaSpec(SchemaSpec(s))
		if err != nil {
			t.Fatalf("re-parse %q: %v", SchemaSpec(s), err)
		}
		if !s.Equal(s2) {
			t.Errorf("round trip changed schema: %q -> %q", spec, SchemaSpec(s2))
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := MustSchema([]Attribute{
		{Name: "k", Type: TypeInt},
		{Name: "city", Type: TypeString, Categorical: true},
	}, "k")
	r := New(s)
	r.MustAppend(Tuple{"1", "chicago"})
	r.MustAppend(Tuple{"2", "san jose"}) // embedded space
	r.MustAppend(Tuple{"3", `quoted "city"`})

	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(back) {
		t.Fatal("CSV round trip changed relation")
	}
}

func TestReadCSVColumnReorder(t *testing.T) {
	s := MustSchema([]Attribute{
		{Name: "k", Type: TypeInt},
		{Name: "v", Type: TypeString},
	}, "k")
	in := "v,k\nhello,1\nworld,2\n"
	r, err := ReadCSV(strings.NewReader(in), s)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Value(0, "v"); v != "hello" {
		t.Fatalf("reordered read got v=%q", v)
	}
	if r.Key(1) != "2" {
		t.Fatalf("reordered read got key=%q", r.Key(1))
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := MustSchema([]Attribute{
		{Name: "k", Type: TypeInt},
		{Name: "v", Type: TypeString},
	}, "k")
	cases := map[string]string{
		"unknown column":   "k,zzz\n1,a\n",
		"duplicate column": "k,k\n1,a\n",
		"missing column":   "k\n1\n",
		"bad row arity":    "k,v\n1\n",
		"duplicate key":    "k,v\n1,a\n1,b\n",
		"empty input":      "",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriteCSVEmptyRelation(t *testing.T) {
	s := MustSchema([]Attribute{{Name: "k", Type: TypeInt}}, "k")
	var buf bytes.Buffer
	if err := WriteCSV(&buf, New(s)); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "k" {
		t.Fatalf("empty relation CSV = %q", got)
	}
}

// TestWritersMatchStdlib pins WriteCSV and WriteJSONL, which format
// straight from block bytes, to the stdlib encoders they replace:
// encoding/csv.Writer over each tuple, and json.Encoder over each row
// as a map[string]string. Values cover every quoting and escaping rule:
// separators, quotes, CR/LF, leading Unicode space, the lone `\.`,
// HTML characters, control bytes, U+2028 and invalid UTF-8.
func TestWritersMatchStdlib(t *testing.T) {
	schema := MustSchema([]Attribute{
		{Name: "z<key>", Type: TypeString},
		{Name: "a \"name\"", Type: TypeString, Categorical: true},
		{Name: "m,id", Type: TypeString},
	}, "z<key>")
	values := []string{"", "plain", "a,b", `say "hi"`, "line\nbreak", "cr\rlf\r\n", " lead",
		"\u00a0nbsp", "\u3000ideo", "\t tab", `\.`, `\.x`, "<tag>&amp;", "a<b", "c>d", "e&f", "ctl\x01\x1f\x7f",
		"ls\u2028ps\u2029", "bad\xffutf8", "ünïcödé", "trail ", "\""}
	r := New(schema)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3*len(values)+BlockRows; i++ {
		r.MustAppend(Tuple{values[i%len(values)] + strconv.Itoa(i),
			values[rng.Intn(len(values))], values[rng.Intn(len(values))]})
	}

	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	header := make([]string, schema.Arity())
	for i := range header {
		header[i] = schema.Attr(i).Name
	}
	cw.Write(header) //nolint:errcheck // checked through cw.Error
	for i := 0; i < r.Len(); i++ {
		cw.Write(r.Tuple(i)) //nolint:errcheck
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteCSV(&got, r); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("WriteCSV differs from encoding/csv:\n got %q\nwant %q", got.String(), want.String())
	}

	want.Reset()
	enc := json.NewEncoder(&want)
	for i := 0; i < r.Len(); i++ {
		obj := make(map[string]string, schema.Arity())
		for j, v := range r.Tuple(i) {
			obj[schema.Attr(j).Name] = v
		}
		if err := enc.Encode(obj); err != nil {
			t.Fatal(err)
		}
	}
	got.Reset()
	if err := WriteJSONL(&got, r); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("WriteJSONL differs from json.Encoder:\n got %q\nwant %q", got.String(), want.String())
	}
}
