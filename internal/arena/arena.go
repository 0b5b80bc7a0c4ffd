// Package arena provides a reset-and-reuse scratch allocator for the
// per-phase working arrays of the coloring pipelines. The dense phases (ACD,
// classification, list building, repair planning) each need a handful of
// n-sized slices per call; allocating them with make on every call dominated
// allocation profiles and kept the GC busy during benchmark runs. An Arena
// hands out zeroed slices carved from growing slabs; Reset rewinds all slabs
// at once so the next phase reuses the same memory.
//
// Ownership rules (see DESIGN.md §14):
//
//   - A slice obtained from an Arena is valid until the next Reset of that
//     arena; callers must not retain it beyond the phase that took it.
//   - Slices are zeroed on Take, matching make semantics, so adopting the
//     arena never changes behavior — only allocation counts.
//   - Arenas are not safe for concurrent use; one arena belongs to one
//     running pipeline (the round engine's worker goroutines never allocate
//     from it directly).
//   - Results that outlive the run (colorings, ACD structures, witnesses)
//     are allocated with make as before; the arena is for scratch only.
//
// Get/Put recycle warmed arenas through a global pool so steady-state
// service traffic stops growing slabs entirely.
package arena

import "sync"

// slab is one typed bump allocator. A take that does not fit the current
// buffer gets a fresh buffer sized for that take alone (at least 1024
// elements), so a cold slab allocates what its takes need and nothing more;
// the slices already handed out keep the earlier buffers alive. reset then
// folds the cycle into one buffer: if the cycle's takes spread over several
// buffers, they are dropped and the next cycle's first take allocates one
// buffer for all of them, so a phase that repeats its takes runs
// allocation-free from its second cycle on.
type slab[T any] struct {
	buf  []T
	off  int
	used int // elements taken since the last reset, over every buffer
	want int // size of the next buffer, set by a reset that consolidates
}

// take returns a zeroed slice of length n from the slab, growing it as
// needed.
func (s *slab[T]) take(n int) []T {
	if s.off+n > len(s.buf) {
		s.buf = make([]T, max(n, s.want, 1024))
		s.off, s.want = 0, 0
	}
	out := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	s.used += n
	clear(out)
	return out
}

func (s *slab[T]) reset() {
	if s.used > len(s.buf) {
		s.buf, s.want = nil, s.used
	}
	s.off, s.used = 0, 0
}

// Arena is a bundle of typed slabs covering the element types the hot paths
// need. The zero value is ready to use.
type Arena struct {
	ints  slab[int]
	i32s  slab[int32]
	bools slab[bool]
}

// Reset rewinds every slab; all previously taken slices become invalid.
func (a *Arena) Reset() {
	a.ints.reset()
	a.i32s.reset()
	a.bools.reset()
}

// Ints returns a zeroed []int of length n.
func (a *Arena) Ints(n int) []int { return a.ints.take(n) }

// IntsFill returns an []int of length n with every entry set to v (the
// common "-1 means unset" initialization).
func (a *Arena) IntsFill(n, v int) []int {
	s := a.ints.take(n)
	if v != 0 {
		for i := range s {
			s[i] = v
		}
	}
	return s
}

// Int32s returns a zeroed []int32 of length n.
func (a *Arena) Int32s(n int) []int32 { return a.i32s.take(n) }

// Int32sFill returns an []int32 of length n with every entry set to v.
func (a *Arena) Int32sFill(n int, v int32) []int32 {
	s := a.i32s.take(n)
	if v != 0 {
		for i := range s {
			s[i] = v
		}
	}
	return s
}

// Bools returns a zeroed []bool of length n.
func (a *Arena) Bools(n int) []bool { return a.bools.take(n) }

var pool = sync.Pool{New: func() any { return new(Arena) }}

// Get returns a warmed arena from the global pool.
func Get() *Arena { return pool.Get().(*Arena) }

// Put resets a and returns it to the pool.
func Put(a *Arena) {
	a.Reset()
	pool.Put(a)
}
