package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/api"
	"repro/internal/datagen"
	"repro/internal/relation"
)

// workload is one traffic mix: whole-catalog verify_batch audits of one
// suspect. Every workload is a closed loop of one client, which submits
// its next job only after the previous one is terminal.
type workload struct {
	name string
	why  string
	// format is the inline relation format of the job payloads.
	format string
	// rows is the size of the suspect.
	rows int
	// others is the number of catalog certificates besides the owner's;
	// they are registered by watermarking a smaller relation.
	others int
	// workers is the number of cluster workers joined to a coordinator;
	// 0 runs a single-node server.
	workers int
}

// otherRows sizes the relation the non-owner certificates mark: large
// enough that a 128-bit mark fits its bandwidth, small enough that
// registering 31 of them is cheap.
const otherRows = 16384

// wmBits is the length of every certificate's mark. At 128 bits an
// unrelated certificate matching at the "partial" threshold (>= 0.7) has
// odds around 1e-6, so the catalog's verdicts are fixed by the seed only
// in theory, never in practice.
const wmBits = 128

// workloads lists every workload the program runs; BENCHMARK.json names
// the same ones.
var workloads = []workload{
	{
		name:   "audit-catalog",
		why:    "hash and vote dominate: a 100k-row CSV suspect audited against a 32-certificate catalog on one node, 1 client",
		format: "csv",
		rows:   100_000,
		others: 31,
	},
	{
		name:    "audit-cluster",
		why:     "request decode, ingest, shard transfer and merge dominate: a 200k-row JSONL suspect, 1 certificate, coordinator + 2 workers, 1 client",
		format:  "jsonl",
		rows:    200_000,
		workers: 2,
	},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is everything the generator derives from the seed. The program
// under test receives only these bytes.
type inputs struct {
	schema string
	// regOwner and regOthers are the pre-encoded POST /v2/watermark
	// bodies that register the catalog.
	regOwner  []byte
	regOthers [][]byte
}

func genInputs(w workload, seed string) (*inputs, error) {
	rel, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
		N: w.rows, CatalogSize: 1000, ZipfS: 1.0, Seed: "e2ebench/" + seed,
	})
	if err != nil {
		return nil, err
	}
	in := &inputs{schema: relation.SchemaSpec(rel.Schema())}
	// data is the relation the owner marks.
	data, err := encodeRel(rel, w.format)
	if err != nil {
		return nil, err
	}
	wm, domain := seedBits(seed, wmBits), dom.Values()
	wmReq := func(data, format, secret string) api.WatermarkRequest {
		return api.WatermarkRequest{
			Schema: in.schema, Format: format, Data: data, Secret: secret,
			Attribute: "Item_Nbr", WM: wm, Domain: domain,
		}
	}
	if in.regOwner, err = json.Marshal(wmReq(data, w.format, "owner/"+seed)); err != nil {
		return nil, err
	}
	if w.others == 0 {
		return in, nil
	}
	// The other certificates all mark one smaller relation.
	rel, _, err = datagen.ItemScan(datagen.ItemScanConfig{
		N: otherRows, CatalogSize: 1000, ZipfS: 1.0, Seed: "e2ebench-others/" + seed,
	})
	if err != nil {
		return nil, err
	}
	small, err := encodeRel(rel, "csv")
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.others; i++ {
		body, err := json.Marshal(wmReq(small, "csv", fmt.Sprintf("other-%02d/%s", i, seed)))
		if err != nil {
			return nil, err
		}
		in.regOthers = append(in.regOthers, body)
	}
	return in, nil
}

// auditBody encodes a whole-catalog verify_batch job over suspect.
func auditBody(in *inputs, format, suspect string) ([]byte, error) {
	return json.Marshal(api.JobRequest{Kind: api.JobKindVerifyBatch,
		VerifyBatch: &api.BatchVerifyRequest{Schema: in.schema, Format: format, Data: suspect}})
}

func encodeRel(rel *relation.Relation, format string) (string, error) {
	var b strings.Builder
	var err error
	if format == "jsonl" {
		err = relation.WriteJSONL(&b, rel)
	} else {
		err = relation.WriteCSV(&b, rel)
	}
	return b.String(), err
}

// seedBits derives an n-bit mark from the seed.
func seedBits(seed string, n int) string {
	var b strings.Builder
	for block := 0; b.Len() < n; block++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("e2ebench-wm/%s/%d", seed, block)))
		for _, c := range sum {
			for bit := 7; bit >= 0 && b.Len() < n; bit-- {
				b.WriteByte('0' + (c>>bit)&1)
			}
		}
	}
	return b.String()
}
