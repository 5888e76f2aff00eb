package relation

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// The zero-copy block readers must be bit-identical to the stdlib-backed
// row readers of rowio_test.go — those are the oracle. Every comparison
// here demands: identical rows up to the first error, and agreement on
// whether an error occurs (messages may differ). ReadCSV/ReadJSONL, which
// materialize through the block readers, must likewise agree with ReadAll
// over the oracle.

func drainRows(rr RowReader) ([][]string, error) {
	var rows [][]string
	for {
		t, err := rr.Read()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		rows = append(rows, []string(t))
	}
}

func drainBlockRows(t *testing.T, br BlockReader, maxRows int) ([][]string, error) {
	t.Helper()
	b := NewBlock(br.Schema())
	var rows [][]string
	for {
		n, err := br.ReadBlock(b, maxRows)
		if err == io.EOF && n != 0 {
			t.Fatalf("ReadBlock returned %d rows together with io.EOF", n)
		}
		for i := 0; i < n; i++ {
			rows = append(rows, []string(b.Tuple(i)))
		}
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		if n == 0 {
			t.Fatal("ReadBlock returned (0, nil)")
		}
	}
}

func sameRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func compareCSVWithOracle(t *testing.T, in string, blockRows int) {
	t.Helper()
	schema := rowioSchema(t)
	rr, lerr := NewCSVRowReader(strings.NewReader(in), schema)
	br, berr := NewCSVBlockReader(strings.NewReader(in), schema)
	if (lerr != nil) != (berr != nil) {
		t.Fatalf("header disagreement on %q: legacy %v, block %v", in, lerr, berr)
	}
	if lerr != nil {
		return
	}
	want, wantErr := drainRows(rr)
	got, gotErr := drainBlockRows(t, br, blockRows)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("error disagreement on %q: legacy %v, block %v", in, wantErr, gotErr)
	}
	if !sameRows(want, got) {
		t.Fatalf("row disagreement on %q:\nlegacy: %q\nblock:  %q", in, want, got)
	}
}

func compareJSONLWithOracle(t *testing.T, in string, blockRows int) {
	t.Helper()
	schema := rowioSchema(t)
	want, wantErr := drainRows(NewJSONLRowReader(strings.NewReader(in), schema))
	got, gotErr := drainBlockRows(t, NewJSONLBlockReader(strings.NewReader(in), schema), blockRows)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("error disagreement on %q: legacy %v, block %v", in, wantErr, gotErr)
	}
	if !sameRows(want, got) {
		t.Fatalf("row disagreement on %q:\nlegacy: %q\nblock:  %q", in, want, got)
	}
}

// compareReadWithOracle checks a materializing codec's result against
// ReadAll over the oracle reader (or the oracle's header error): both
// fail, or both yield the same relation.
func compareReadWithOracle(t *testing.T, in string, got *Relation, gotErr error, oracle RowReader, oracleErr error) {
	t.Helper()
	var want *Relation
	wantErr := oracleErr
	if wantErr == nil {
		want, wantErr = ReadAll(oracle)
	}
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("materialize error disagreement on %q: oracle %v, read %v", in, wantErr, gotErr)
	}
	if wantErr == nil && !want.Equal(got) {
		t.Fatalf("materialize disagreement on %q:\noracle: %v\nread:   %v", in, want, got)
	}
}

// Duplicate primary keys: the streams yield both rows, and every
// materializing read must reject them.
const (
	csvDupKeyInput   = "Visit_Nbr,Item_Nbr\n1,10\n1,11\n"
	jsonlDupKeyInput = "{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"10\"}\n{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"11\"}\n"
)

var csvOracleCases = []string{
	"Visit_Nbr,Item_Nbr\n1,10\n2,11\n",
	"Item_Nbr,Visit_Nbr\n10,1\n11,2\n", // reordered columns
	"Visit_Nbr,Item_Nbr\r\n1,10\r\n2,11\r\n",
	"Visit_Nbr,Item_Nbr\n1,10",                 // no trailing newline
	"Visit_Nbr,Item_Nbr\n1,10\r",               // trailing \r at EOF
	"Visit_Nbr,Item_Nbr\n\n1,10\n\r\n2,11\n\n", // blank lines
	"Visit_Nbr,Item_Nbr\n\"1\",\"a,b\"\n",
	"Visit_Nbr,Item_Nbr\n1,\"a\"\"b\"\n",
	"Visit_Nbr,Item_Nbr\n1,\"multi\nline\"\n2,x\n",
	"Visit_Nbr,Item_Nbr\n1,\"multi\r\nline\"\n",
	"Visit_Nbr,Item_Nbr\n1,\"\"\n",
	"Visit_Nbr,Item_Nbr\n,\n",
	"\"Visit_Nbr\",\"Item_Nbr\"\n1,10\n",   // quoted header
	"Visit_Nbr,Item_Nbr\n1,a\rb\n",         // interior \r
	"Visit_Nbr,Item_Nbr\n1,a\r\r\n",        // \r\r\n tail
	"Visit_Nbr,Item_Nbr\n1\n",              // short row
	"Visit_Nbr,Item_Nbr\n1,2,3\n4,5\n",     // long row
	"Visit_Nbr,Item_Nbr\n\"1,2\n",          // unterminated quote
	"Visit_Nbr,Item_Nbr\n1,\"a\"b\n",       // stray quote after close
	"Visit_Nbr,Item_Nbr\n1,a\"b\n",         // bare quote
	"Visit_Nbr,Item_Nbr\n1,10\n2\n3,12\n",  // error mid-stream after good rows
	"Visit_Nbr,Item_Nbr\n1,\"a\n\n\nb\"\n", // blank lines inside quotes
	csvDupKeyInput,
	"Visit_Nbr,Item_Nbr",
	"Visit_Nbr,Item_Nbr\n",
	"",
	"\r",
	"Wrong,Item_Nbr\n1,2\n",
	"Visit_Nbr\n1\n",
}

// TestBlocksAdapter pins relation.Blocks to the BlockReader contract:
// a row source comes out block by block with exactly its rows, a
// mid-stream error arrives after the rows before it and stays sticky,
// and a source that already is a BlockReader passes through unchanged.
func TestBlocksAdapter(t *testing.T) {
	schema := rowioSchema(t)
	for _, in := range csvOracleCases {
		for _, blockRows := range []int{0, 1, 2, 512} {
			rr, err := NewCSVRowReader(strings.NewReader(in), schema)
			if err != nil {
				continue // header errors never reach the adapter
			}
			want, wantErr := drainRows(rr)
			rr, _ = NewCSVRowReader(strings.NewReader(in), schema)
			br := Blocks(rr)
			got, gotErr := drainBlockRows(t, br, blockRows)
			if (wantErr != nil) != (gotErr != nil) || !sameRows(want, got) {
				t.Fatalf("%q blockRows %d: adapter gave %q, %v; rows gave %q, %v",
					in, blockRows, got, gotErr, want, wantErr)
			}
			if gotErr != nil {
				if n, err := br.ReadBlock(NewBlock(schema), blockRows); n != 0 || err != gotErr {
					t.Fatalf("%q: error not sticky: (%d, %v) after %v", in, n, err, gotErr)
				}
			}
		}
	}
	cbr, err := NewCSVBlockReader(strings.NewReader(csvOracleCases[0]), schema)
	if err != nil {
		t.Fatal(err)
	}
	if Blocks(cbr) != BlockReader(cbr) {
		t.Fatal("Blocks wrapped a source that already is a BlockReader")
	}
}

func TestCSVBlockReaderMatchesLegacy(t *testing.T) {
	schema := rowioSchema(t)
	for _, in := range csvOracleCases {
		for _, blockRows := range []int{1, 2, 512} {
			compareCSVWithOracle(t, in, blockRows)
		}
		rr, rerr := NewCSVRowReader(strings.NewReader(in), schema)
		got, err := ReadCSV(strings.NewReader(in), schema)
		compareReadWithOracle(t, in, got, err, rr, rerr)
	}
	if _, err := ReadCSV(strings.NewReader(csvDupKeyInput), schema); err == nil {
		t.Fatal("ReadCSV accepted a duplicate primary key")
	}
}

var jsonlOracleCases = []string{
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"10\"}\n{\"Visit_Nbr\":\"2\",\"Item_Nbr\":\"11\"}\n",
	"{\"Item_Nbr\":\"10\",\"Visit_Nbr\":\"1\"}\n", // reordered keys
	"  {\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"10\"}  ",
	"{\n  \"Visit_Nbr\": \"1\",\n  \"Item_Nbr\": \"10\"\n}\n", // pretty-printed
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"10\"}{\"Visit_Nbr\":\"2\",\"Item_Nbr\":\"11\"}",
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":null}\n",                      // null -> ""
	"{\"Visit_Nbr\":\"1\",\"Visit_Nbr\":\"2\",\"Item_Nbr\":\"x\"}\n", // dup key, last wins
	"{\"Visit_Nbr\":\"a\\\"b\",\"Item_Nbr\":\"\\u0041\\n\\t\"}\n",    // escapes
	"{\"Visit_Nbr\":\"\\ud83d\\ude00\",\"Item_Nbr\":\"x\"}\n",        // surrogate pair
	"{\"Visit_Nbr\":\"\\ud800\",\"Item_Nbr\":\"x\"}\n",               // lone surrogate
	"{\"Visit_Nbr\":\"\\ud800\\ud800\",\"Item_Nbr\":\"x\"}\n",        // surrogate + surrogate
	"{\"Visit_Nbr\":\"\xff\xfe\",\"Item_Nbr\":\"x\"}\n",              // invalid UTF-8
	"{\"\\u0056isit_Nbr\":\"1\",\"Item_Nbr\":\"2\"}\n",               // escaped key
	"{\"Visit_Nbr\":\"1\"}\n",                                        // missing key
	"{\"Visit_Nbr\":\"1\",\"Wrong\":\"2\"}\n",                        // unknown key
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":2}\n",                         // number value
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":true}\n",                      // bool value
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":[\"x\"]}\n",                   // array value
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":{\"a\":1}}\n",                 // object value
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"2\",}\n",                    // trailing comma
	"{}",
	"null\n",
	"not json\n",
	"[\"x\"]\n",
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"2\"",         // truncated
	"{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"2\"}garbage", // good row then garbage
	"{\"Visit_Nbr\":\"a\tb\",\"Item_Nbr\":\"x\"}\n",   // raw control char
	jsonlDupKeyInput,
	"",
	"   \n\t ",
}

func TestJSONLBlockReaderMatchesLegacy(t *testing.T) {
	schema := rowioSchema(t)
	for _, in := range jsonlOracleCases {
		for _, blockRows := range []int{1, 2, 512} {
			compareJSONLWithOracle(t, in, blockRows)
		}
		got, err := ReadJSONL(strings.NewReader(in), schema)
		compareReadWithOracle(t, in, got, err, NewJSONLRowReader(strings.NewReader(in), schema), nil)
	}
	if _, err := ReadJSONL(strings.NewReader(jsonlDupKeyInput), schema); err == nil {
		t.Fatal("ReadJSONL accepted a duplicate primary key")
	}
}

func FuzzCSVBlockReader(f *testing.F) {
	for _, in := range csvOracleCases {
		f.Add(in, uint8(3))
	}
	f.Fuzz(func(t *testing.T, in string, blockRows uint8) {
		compareCSVWithOracle(t, in, int(blockRows%8)+1)
	})
}

func FuzzJSONLBlockReader(f *testing.F) {
	for _, in := range jsonlOracleCases {
		f.Add(in, uint8(3))
	}
	f.Fuzz(func(t *testing.T, in string, blockRows uint8) {
		compareJSONLWithOracle(t, in, int(blockRows%8)+1)
	})
}

// TestCSVBlockReaderRawSpans checks the raw record spans: header plus
// concatenated spans must re-parse to the identical row stream, and for
// input with no blank lines the concatenation is the input itself.
func TestCSVBlockReaderRawSpans(t *testing.T) {
	schema := rowioSchema(t)
	in := "Visit_Nbr,Item_Nbr\r\n1,10\r\n\n\"2\",\"a\"\"b\"\n3,\"multi\nline\"\n4,40"
	br, err := NewCSVBlockReader(strings.NewReader(in), schema)
	if err != nil {
		t.Fatal(err)
	}
	br.SetRecordRaw(true)
	var payload []byte
	payload = append(payload, br.RawHeader()...)
	blk := NewBlock(schema)
	var want [][]string
	for {
		n, err := br.ReadBlock(blk, 2)
		for i := 0; i < n; i++ {
			want = append(want, []string(blk.Tuple(i)))
		}
		payload = append(payload, blk.RawBytes()...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	rr, err := NewCSVRowReader(strings.NewReader(string(payload)), schema)
	if err != nil {
		t.Fatalf("raw payload header: %v\npayload: %q", err, payload)
	}
	got, err := drainRows(rr)
	if err != nil {
		t.Fatalf("raw payload re-parse: %v\npayload: %q", err, payload)
	}
	if !sameRows(want, got) {
		t.Fatalf("raw payload rows differ:\nwant %q\ngot  %q", want, got)
	}

	// Without blank lines the raw spans are exactly the input bytes.
	in2 := "Visit_Nbr,Item_Nbr\n1,10\n2,\"a,b\"\n"
	br2, err := NewCSVBlockReader(strings.NewReader(in2), schema)
	if err != nil {
		t.Fatal(err)
	}
	br2.SetRecordRaw(true)
	var exact []byte
	exact = append(exact, br2.RawHeader()...)
	for {
		n, err := br2.ReadBlock(blk, 512)
		_ = n
		exact = append(exact, blk.RawBytes()...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if string(exact) != in2 {
		t.Fatalf("raw spans not byte-identical to input:\nin  %q\nout %q", in2, exact)
	}
}

// TestJSONLBlockReaderRawSpans: concatenated object spans (one per
// line) must re-parse to the identical row stream.
func TestJSONLBlockReaderRawSpans(t *testing.T) {
	schema := rowioSchema(t)
	in := "{\"Visit_Nbr\":\"1\",\"Item_Nbr\":\"a\\\"b\"}   \n\n  {\"Item_Nbr\":\"11\",\"Visit_Nbr\":\"2\"}"
	br := NewJSONLBlockReader(strings.NewReader(in), schema)
	br.SetRecordRaw(true)
	if br.RawHeader() != nil {
		t.Fatal("JSONL RawHeader should be nil")
	}
	blk := NewBlock(schema)
	var payload []byte
	var want [][]string
	for {
		n, err := br.ReadBlock(blk, 1)
		for i := 0; i < n; i++ {
			want = append(want, []string(blk.Tuple(i)))
		}
		payload = append(payload, blk.RawBytes()...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := drainRows(NewJSONLRowReader(strings.NewReader(string(payload)), schema))
	if err != nil {
		t.Fatalf("raw payload re-parse: %v\npayload: %q", err, payload)
	}
	if !sameRows(want, got) {
		t.Fatalf("raw payload rows differ:\nwant %q\ngot  %q", want, got)
	}
}

// TestBlockReaderRowCompat: the RowReader view over a block reader must
// match the legacy reader row for row, including rows before an error.
func TestBlockReaderRowCompat(t *testing.T) {
	schema := rowioSchema(t)
	in := "Visit_Nbr,Item_Nbr\n1,10\n2,11\n3\n"
	rr, err := NewCSVRowReader(strings.NewReader(in), schema)
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewCSVBlockReader(strings.NewReader(in), schema)
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := drainRows(rr)
	got, gotErr := drainRows(br)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("error disagreement: legacy %v, block %v", wantErr, gotErr)
	}
	if !sameRows(want, got) {
		t.Fatalf("rows differ:\nwant %q\ngot  %q", want, got)
	}
	if len(got) != 2 {
		t.Fatalf("expected the 2 rows before the error, got %d", len(got))
	}
}

func TestBlockPoolAndGen(t *testing.T) {
	schema := rowioSchema(t)
	b := GetBlock(schema)
	g := b.Gen()
	if err := b.AppendTuple(Tuple{"1", "10"}); err != nil {
		t.Fatal(err)
	}
	if b.Rows() != 1 || b.Col(0).String(0) != "1" || string(b.Value(0, 1)) != "10" {
		t.Fatalf("block contents wrong: %d rows", b.Rows())
	}
	b.Reset(schema)
	if b.Gen() == g {
		t.Fatal("Reset did not advance generation")
	}
	if b.Rows() != 0 || b.Col(0).Rows() != 0 {
		t.Fatal("Reset did not empty block")
	}
	PutBlock(b)
}

// TestBlockReadAllocsCSV pins the warm block-read path at zero
// allocations per block (hence per row) — the tentpole invariant.
func TestBlockReadAllocsCSV(t *testing.T) {
	schema := rowioSchema(t)
	var sb strings.Builder
	sb.WriteString("Visit_Nbr,Item_Nbr\n")
	for i := 0; i < 6000; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, 10+i%97)
	}
	br, err := NewCSVBlockReader(strings.NewReader(sb.String()), schema)
	if err != nil {
		t.Fatal(err)
	}
	blk := NewBlock(schema)
	for i := 0; i < 4; i++ { // warm arenas
		if _, err := br.ReadBlock(blk, 32); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		n, err := br.ReadBlock(blk, 32)
		if err != nil || n == 0 {
			t.Fatalf("ReadBlock: n=%d err=%v", n, err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm CSV ReadBlock allocates: %v allocs/block", avg)
	}
}

// TestBlockReadAllocsJSONL is the JSONL counterpart.
func TestBlockReadAllocsJSONL(t *testing.T) {
	schema := rowioSchema(t)
	var sb strings.Builder
	for i := 0; i < 6000; i++ {
		fmt.Fprintf(&sb, "{\"Visit_Nbr\":\"%d\",\"Item_Nbr\":\"%d\"}\n", i, 10+i%97)
	}
	br := NewJSONLBlockReader(strings.NewReader(sb.String()), schema)
	blk := NewBlock(schema)
	for i := 0; i < 4; i++ {
		if _, err := br.ReadBlock(blk, 32); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		n, err := br.ReadBlock(blk, 32)
		if err != nil || n == 0 {
			t.Fatalf("ReadBlock: n=%d err=%v", n, err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm JSONL ReadBlock allocates: %v allocs/block", avg)
	}
}

// BenchmarkRowReader compares the stdlib-backed oracle readers against
// the zero-copy block readers over identical inputs.
func BenchmarkRowReader(b *testing.B) {
	schema := rowioSchema(b)
	const rows = 4096
	var plain, quoted, jsonl strings.Builder
	plain.WriteString("Visit_Nbr,Item_Nbr\n")
	quoted.WriteString("Visit_Nbr,Item_Nbr\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&plain, "%d,%d\n", i, 10+i%97)
		fmt.Fprintf(&quoted, "\"%d\",\"it\"\"em,%d\"\n", i, 10+i%97)
		fmt.Fprintf(&jsonl, "{\"Visit_Nbr\":\"%d\",\"Item_Nbr\":\"%d\"}\n", i, 10+i%97)
	}

	legacy := func(in string, mk func(string) (RowReader, error)) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(in)))
			for i := 0; i < b.N; i++ {
				rr, err := mk(in)
				if err != nil {
					b.Fatal(err)
				}
				var sink int
				for {
					t, err := rr.Read()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					sink += len(t[0])
				}
				_ = sink
			}
		}
	}
	block := func(in string, mk func(string) (BlockReader, error)) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(in)))
			blk := NewBlock(schema)
			for i := 0; i < b.N; i++ {
				br, err := mk(in)
				if err != nil {
					b.Fatal(err)
				}
				var sink int
				for {
					n, err := br.ReadBlock(blk, 512)
					for j := 0; j < n; j++ {
						sink += len(blk.Value(j, 0))
					}
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				_ = sink
			}
		}
	}

	mkLegacyCSV := func(in string) (RowReader, error) {
		return NewCSVRowReader(strings.NewReader(in), schema)
	}
	mkLegacyJSONL := func(in string) (RowReader, error) {
		return NewJSONLRowReader(strings.NewReader(in), schema), nil
	}
	mkBlockCSV := func(in string) (BlockReader, error) {
		return NewCSVBlockReader(strings.NewReader(in), schema)
	}
	mkBlockJSONL := func(in string) (BlockReader, error) {
		return NewJSONLBlockReader(strings.NewReader(in), schema), nil
	}

	b.Run("csv/stdlib", legacy(plain.String(), mkLegacyCSV))
	b.Run("csv/zerocopy", block(plain.String(), mkBlockCSV))
	b.Run("csv-quoted/stdlib", legacy(quoted.String(), mkLegacyCSV))
	b.Run("csv-quoted/zerocopy", block(quoted.String(), mkBlockCSV))
	b.Run("jsonl/stdlib", legacy(jsonl.String(), mkLegacyJSONL))
	b.Run("jsonl/zerocopy", block(jsonl.String(), mkBlockJSONL))
}

// TestReadAllAllocsPerRow pins materialized ingestion at about one
// allocation per row: ReadCSV and ReadJSONL keep the blocks the reader
// filled as the relation's storage, so the only per-row allocation left
// is the key string of the primary-key index (block arenas, offsets and
// index growth amortize to a few hundredths of one).
func TestReadAllAllocsPerRow(t *testing.T) {
	const rows = 100000
	schema := rowioSchema(t)
	var csvData, jsonlData strings.Builder
	csvData.WriteString("Visit_Nbr,Item_Nbr\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&csvData, "%d,%d\n", 500000+i, 10+i%997)
		fmt.Fprintf(&jsonlData, "{\"Visit_Nbr\":\"%d\",\"Item_Nbr\":\"%d\"}\n", 500000+i, 10+i%997)
	}
	for _, tc := range []struct {
		name string
		read func() (*Relation, error)
	}{
		{"csv", func() (*Relation, error) { return ReadCSV(strings.NewReader(csvData.String()), schema) }},
		{"jsonl", func() (*Relation, error) { return ReadJSONL(strings.NewReader(jsonlData.String()), schema) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			avg := testing.AllocsPerRun(3, func() {
				r, err := tc.read()
				if err != nil {
					t.Fatal(err)
				}
				if r.Len() != rows {
					t.Fatalf("read %d rows, want %d", r.Len(), rows)
				}
			})
			if perRow := avg / rows; perRow > 1.1 {
				t.Fatalf("%s ingestion: %.3f allocs/row, want <= 1.1", tc.name, perRow)
			} else {
				t.Logf("%s ingestion: %.3f allocs/row", tc.name, perRow)
			}
		})
	}
}
