package moe

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"
)

// TestTracerDropsPromptEmbedding: once Trace returns, the tracer holds no
// reference to the prompt's embedding, so an idle tracer cannot pin the
// arena block a streamed request's embedding was cut from.
func TestTracerDropsPromptEmbedding(t *testing.T) {
	cfg := Tiny()
	tr := NewModel(cfg, 5).NewTracer()
	spec := testPrompt(cfg, 1, 0, 0.1, 4, 3)
	emb := make([]float64, cfg.SemDim)
	copy(emb, spec.Embedding)
	spec.Embedding = emb
	gone := weak.Make(&emb[0])

	its := tr.Trace(spec, nil)
	spec, emb = PromptSpec{}, nil
	for i := 0; i < 5 && gone.Value() != nil; i++ {
		runtime.GC()
	}
	if gone.Value() != nil {
		t.Fatal("the tracer still references the prompt embedding after Trace")
	}
	runtime.KeepAlive(tr)
	runtime.KeepAlive(its)
}

// TestTracersShareModelFreeList: tracers of one model on different
// goroutines trace and recycle through the model's one free list, and
// every trace still equals Model.Trace's fresh simulation.
func TestTracersShareModelFreeList(t *testing.T) {
	cfg := Tiny()
	m := NewModel(cfg, 9)
	const n = 40
	want := make([][]*Iteration, n)
	for i := range want {
		want[i] = m.Trace(testPrompt(cfg, uint64(i), uint64(i%3), 0.1, 2+i%5, 1+i%7))
	}
	// Each goroutine traces every other request and recycles the
	// other's previous trace, so iterations cross goroutines.
	handoff := make(chan []*Iteration, 4)
	var wg sync.WaitGroup
	errs := make([]int, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := m.NewTracer()
			for i := g; i < n; i += 2 {
				its := tr.Trace(testPrompt(cfg, uint64(i), uint64(i%3), 0.1, 2+i%5, 1+i%7), nil)
				if !reflect.DeepEqual(its, want[i]) {
					errs[g]++
				}
				handoff <- its
				tr.Recycle(<-handoff)
			}
		}(g)
	}
	wg.Wait()
	if errs[0]+errs[1] != 0 {
		t.Fatalf("%d recycled traces differ from a fresh simulation", errs[0]+errs[1])
	}
}
