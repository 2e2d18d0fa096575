// Package hotpath is the hotpathalloc fixture: functions carrying the
// //sinr:hotpath annotation must contain no allocation sources; everything
// else may allocate freely.
package hotpath

import "fmt"

type scratch struct {
	buf  []int
	name string
}

func helper() {}

// Hot trips every allocation source the analyzer knows.
//
//sinr:hotpath
func Hot(s *scratch, in []int) int {
	lit := []int{1, 2}                // want `slice/map literal allocates`
	tmp := make([]int, 4)             // want `make allocates`
	p := new(scratch)                 // want `new allocates`
	q := &scratch{}                   // want `&composite literal escapes to the heap`
	f := func() int { return 1 }      // want `closure allocates its captures`
	go helper()                       // want `go statement allocates a goroutine`
	defer helper()                    // want `defer has per-call overhead`
	label := s.name + "!"             // want `string concatenation allocates`
	msg := fmt.Sprintf("%d", len(in)) // want `fmt.Sprintf allocates`
	lit = append(lit, 3)              // want `append to a local slice may grow`
	var boxed any
	boxed = any(len(in)) // want `conversion to interface boxes the value`
	_ = boxed
	_, _, _, _ = tmp, p, q, label
	_ = msg
	return f()
}

// Cold is the annotated negative: appends into caller scratch, a field, and
// a parameter, struct value literals, and plain arithmetic are all legal.
//
//sinr:hotpath
func Cold(s *scratch, out []int, x int) []int {
	s.buf = append(s.buf, x)
	out = append(out, x)
	v := scratch{buf: s.buf}
	sum := 0
	for _, b := range v.buf {
		sum += b * x
	}
	return append(out[:0], sum)
}

// Unmarked has no annotation, so its allocations are nobody's business.
func Unmarked(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("%d", i))
	}
	return out
}
