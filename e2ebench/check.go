package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/server/store"
)

// verdict maps a match fraction onto the API verdict scale at the shared
// core thresholds.
func verdict(match float64) string {
	switch {
	case match >= core.PresentThreshold:
		return api.VerdictPresent
	case match >= core.PartialThreshold:
		return api.VerdictPartial
	default:
		return api.VerdictAbsent
	}
}

func newReader(data, format string, schema *relation.Schema) (relation.RowReader, error) {
	if format == "jsonl" {
		return relation.NewJSONLBlockReader(strings.NewReader(data), schema), nil
	}
	return relation.NewCSVBlockReader(strings.NewReader(data), schema)
}

// catalog loads every stored certificate in the order a whole-catalog
// audit visits them.
func catalog(st *store.Store) ([]string, []*core.Record, error) {
	ids, err := st.List()
	if err != nil {
		return nil, nil, err
	}
	recs := make([]*core.Record, len(ids))
	for i, id := range ids {
		if recs[i], err = st.Get(id); err != nil {
			return nil, nil, err
		}
	}
	return ids, recs, nil
}

// auditReference computes, in-process and with core.VerifyBatch on the
// same bytes the jobs send, the result every audit job must return, and
// checks that it is the expected one: the owner's certificate present,
// every other certificate absent.
func auditReference(ctx context.Context, st *store.Store, schemaSpec, format, suspect, ownerID string) (*api.BatchVerifyResponse, error) {
	ids, recs, err := catalog(st)
	if err != nil {
		return nil, err
	}
	schema, err := relation.ParseSchemaSpec(schemaSpec)
	if err != nil {
		return nil, err
	}
	src, err := newReader(suspect, format, schema)
	if err != nil {
		return nil, err
	}
	outs, err := core.VerifyBatch(ctx, recs, src, core.BatchOptions{Workers: 2})
	if err != nil {
		return nil, err
	}
	ref := &api.BatchVerifyResponse{Results: make([]api.BatchVerifyResult, len(ids))}
	for i, out := range outs {
		if out.Err != nil {
			return nil, fmt.Errorf("reference: certificate %s: %w", ids[i], out.Err)
		}
		ref.Results[i] = api.BatchVerifyResult{
			ID: ids[i], Match: out.Report.Match, Detected: out.Report.Detected, Verdict: verdict(out.Report.Match),
		}
		ref.Tuples = out.Report.Primary.Tuples
		want := api.VerdictAbsent
		if ids[i] == ownerID {
			want = api.VerdictPresent
		}
		if got := ref.Results[i].Verdict; got != want {
			return nil, fmt.Errorf("reference: certificate %s is %s, want %s", ids[i], got, want)
		}
	}
	return ref, nil
}

// checkAudit compares a terminal audit job body with the reference.
func checkAudit(body []byte, ref *api.BatchVerifyResponse) error {
	var j api.Job
	if err := json.Unmarshal(body, &j); err != nil {
		return err
	}
	if j.VerifyBatch == nil {
		return errors.New("done job without a verify_batch result")
	}
	if !reflect.DeepEqual(j.VerifyBatch, ref) {
		return fmt.Errorf("result differs from the in-process reference: got %d results over %d tuples, want %d over %d",
			len(j.VerifyBatch.Results), j.VerifyBatch.Tuples, len(ref.Results), ref.Tuples)
	}
	return nil
}
