// Fixture for callalloc's intraprocedural side: //finemoe:hotpath
// functions must not allocate in their own bodies; unannotated functions
// are free to.
package hot

type buf struct {
	data []float64
}

func sink(v any) { _ = v }

//finemoe:hotpath
func (b *buf) step(xs []float64) float64 {
	out := 0.0
	for _, x := range xs {
		out += x
	}
	if cap(b.data) < len(xs) {
		b.data = make([]float64, len(xs)) // amortized grow guard: ok
	}
	b.data = b.data[:len(xs)]
	return out
}

//finemoe:hotpath
func escape() *buf {
	return &buf{} // want "allocates on every call"
}

//finemoe:hotpath
func fresh(n int) []int {
	xs := make([]int, n) // want "make outside a cap/len grow guard"
	return xs
}

//finemoe:hotpath
func newAlloc() *int {
	return new(int) // want "allocates on every call"
}

//finemoe:hotpath
func sliceLit() []int {
	return []int{1, 2, 3} // want "allocates a fresh backing store"
}

//finemoe:hotpath
func appendNoCap(n int) []int {
	var xs []int
	for i := 0; i < n; i++ {
		xs = append(xs, i) // want "declared without preallocated capacity"
	}
	return xs
}

// The caller owns the capacity of a parameter slice.
//
//finemoe:hotpath
func appendParam(dst []int, v int) []int {
	return append(dst, v)
}

//finemoe:hotpath
func boxArg(x int) {
	sink(x) // want "boxes the value"
}

// Pointers fit the interface data word without allocating.
//
//finemoe:hotpath
func boxPointerOK(p *int) {
	sink(p)
}

//finemoe:hotpath
func boxAssign(x int) any {
	var v any
	v = x // want "boxes the value"
	return v
}

//finemoe:hotpath
func closureCapture(n int) func() int {
	return func() int { return n } // want "closure captures n"
}

//finemoe:hotpath
func closureStaticOK() func() int {
	return func() int { return 42 }
}

//finemoe:hotpath
func annotated() []int {
	//finemoe:allocok fixture: cold path taken once per run
	return []int{1}
}

// Not annotated: callalloc has nothing to say here.
func coldAlloc() *buf {
	return &buf{}
}
