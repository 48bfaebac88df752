package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	d := LMSYSChat1M()
	orig := AzureTrace(d, 16, TraceConfig{RatePerSec: 5, N: 12, Seed: 3})
	var buf bytes.Buffer
	if err := WriteTrace(&buf, d, 16, orig); err != nil {
		t.Fatal(err)
	}
	gotDS, got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotDS.Name != d.Name || gotDS.Topics != d.Topics {
		t.Fatalf("dataset metadata lost: %+v", gotDS)
	}
	if len(got) != len(orig) {
		t.Fatalf("length %d != %d", len(got), len(orig))
	}
	for i := range got {
		if got[i].ID != orig[i].ID || got[i].Topic != orig[i].Topic ||
			got[i].InputTokens != orig[i].InputTokens ||
			got[i].OutputTokens != orig[i].OutputTokens ||
			got[i].ArrivalMS != orig[i].ArrivalMS ||
			got[i].Seed != orig[i].Seed {
			t.Fatalf("request %d mismatch: %+v vs %+v", i, got[i], orig[i])
		}
		for j := range got[i].Embedding {
			if got[i].Embedding[j] != orig[i].Embedding[j] {
				t.Fatalf("request %d embedding mismatch", i)
			}
		}
	}
}

// TestTraceRoundTripSessionTenant: multi-turn and multi-tenant identity
// survives persistence — a replayed mix still partitions per tenant and
// keeps session threads intact.
func TestTraceRoundTripSessionTenant(t *testing.T) {
	mixed := MultiTenantTrace(16, 5, testTenants())
	sess := NewSessions(LMSYSChat1M(), 16,
		SessionConfig{MeanTurns: 2, ThinkTimeS: 1, Drift: 0.05}, 8)
	opener := sess.Initial(Poisson{RatePerSec: 4}, 1, uint64(len(mixed)+1)<<32)[0]
	opener.ArrivalMS = mixed[len(mixed)-1].ArrivalMS + 1
	mixed = append(mixed, opener)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, LMSYSChat1M(), 16, mixed); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Tenant != mixed[i].Tenant || got[i].Session != mixed[i].Session ||
			got[i].Turn != mixed[i].Turn {
			t.Fatalf("session/tenant identity lost at %d: %+v vs %+v", i, got[i], mixed[i])
		}
		// Multi-tenant mixes blend datasets; each request must keep its
		// own, not be relabeled to the file's dataset.
		if got[i].Dataset != mixed[i].Dataset {
			t.Fatalf("dataset identity lost at %d: %q vs %q", i, got[i].Dataset, mixed[i].Dataset)
		}
	}
	per := SummarizeTenants(got)
	if per["steady"].N != 30 || per["bursty"].N != 20 {
		t.Fatalf("replayed tenant partition wrong: %v", per)
	}
}

func TestReadTraceRejectsCorruption(t *testing.T) {
	d := LMSYSChat1M()
	reqs := d.Sample(Options{Dim: 8, N: 3, Seed: 1})

	write := func(mutate func(*traceFile)) string {
		tf := traceFile{Version: 1, Dataset: d, Dim: 8}
		for _, q := range reqs {
			tf.Requests = append(tf.Requests, requestEntry{
				ID: q.ID, Topic: q.Topic, Embedding: q.Embedding,
				InputTokens: q.InputTokens, OutputTokens: q.OutputTokens, Seed: q.Seed,
			})
		}
		mutate(&tf)
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tf.Dataset, tf.Dim, nil); err != nil {
			t.Fatal(err)
		}
		// Re-encode manually to keep the mutation (WriteTrace rebuilds).
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(tf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	cases := map[string]string{
		"bad version": write(func(tf *traceFile) { tf.Version = 9 }),
		"bad dim":     write(func(tf *traceFile) { tf.Dim = 0 }),
		"dup id":      write(func(tf *traceFile) { tf.Requests[1].ID = tf.Requests[0].ID }),
		"zero tokens": write(func(tf *traceFile) { tf.Requests[0].InputTokens = 0 }),
		"dim mismatch": write(func(tf *traceFile) {
			tf.Requests[0].Embedding = tf.Requests[0].Embedding[:4]
		}),
		"arrival backwards": write(func(tf *traceFile) {
			tf.Requests[0].ArrivalMS = 10
			tf.Requests[1].ArrivalMS = 5
		}),
		"not json": "{",
	}
	for name, payload := range cases {
		if _, _, err := ReadTrace(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

func TestReadTraceReplayable(t *testing.T) {
	// A round-tripped trace must simulate identically to the original.
	d := ShareGPT()
	orig := d.Sample(Options{Dim: 16, N: 2, Seed: 9})
	for i := range orig {
		orig[i].InputTokens, orig[i].OutputTokens = 4, 3
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, d, 16, orig); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].PromptSpec.Seed != orig[0].PromptSpec.Seed {
		t.Fatal("prompt seeds differ; replay would diverge")
	}
}

// TestReadTraceAllocationBounded: a file claiming a wide dim costs memory
// in proportion to its size. Rows were once carved from 1024-row arena
// blocks sized by dim, so one 10000-wide request allocated 80 MB.
func TestReadTraceAllocationBounded(t *testing.T) {
	const dim = 10000
	var b strings.Builder
	fmt.Fprintf(&b, `{"version":1,"dim":%d,"requests":[{"id":1,"input_tokens":1,"output_tokens":1,"embedding":[0`, dim)
	b.WriteString(strings.Repeat(",0", dim-1))
	b.WriteString("]}]}")
	input := b.String()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, reqs, err := ReadTrace(strings.NewReader(input))
	runtime.ReadMemStats(&after)
	if err != nil || len(reqs) != 1 {
		t.Fatalf("decoding the wide trace: %d requests, %v", len(reqs), err)
	}
	// Decoding alone costs about 25x here: each 2-byte "0," becomes an
	// 8-byte float in a geometrically grown slice.
	if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(input)); got > limit {
		t.Errorf("decoding a %d-byte trace allocated %d bytes, want at most %d", len(input), got, limit)
	}
}

// FuzzReadTrace: ReadTrace never panics, and any trace it accepts
// survives WriteTrace and a second decode unchanged.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	d := LMSYSChat1M()
	trace := MultiTenantTrace(4, 1, []TenantSpec{
		{Name: "a", Dataset: d, Arrivals: Poisson{RatePerSec: 4}, N: 3},
		AdversarialTenant("b", 4, 2, 5),
	})
	if err := WriteTrace(&buf, d, 4, trace); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	for _, seed := range []string{
		valid,
		valid[:len(valid)/2],
		strings.Replace(valid, `"version": 1`, `"version": 2`, 1),
		strings.Replace(valid, `"dim": 4`, `"dim": 200000`, 1),
		strings.Replace(valid, `"input_tokens": `, `"input_tokens": -`, 1),
		`{"version":1,"dim":1,"requests":[]}`,
		`{"version":1,"dim":1,"requests":[null]}`,
		`{"version":1,"dim":2,"requests":[{"id":1,"input_tokens":1,"output_tokens":1,"embedding":[0,1],"arrival_ms":5},` +
			`{"id":2,"input_tokens":1,"output_tokens":1,"embedding":[1,0],"arrival_ms":4}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d1, r1, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		dim := 1 // any valid dim re-encodes an empty trace
		if len(r1) > 0 {
			dim = len(r1[0].Embedding)
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, d1, dim, r1); err != nil {
			t.Fatalf("re-encoding an accepted trace: %v", err)
		}
		d2, r2, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-decoding a written trace: %v", err)
		}
		if d2 != d1 || !reflect.DeepEqual(r2, r1) {
			t.Fatal("decode → WriteTrace → decode changed the trace")
		}
	})
}
