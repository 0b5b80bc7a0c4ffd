package graph

import "fmt"

// Streamed scale families. A Builder accumulates an edge-pair slice, which
// doubles the peak memory of a build; at n = 10⁷ that is gigabytes of
// transient garbage. The constructors here emit their families straight
// through FromStream, so building touches only the final CSR arrays: the
// two-pass counting build is the whole allocation story.

// Circulant builds the circulant graph C_n(1, …, d/2): vertex v is adjacent
// to v±s mod n for s = 1..d/2 — connected and d-regular for n > d and even
// d. This is the scale benchmark's stand-in for sparse bounded-degree
// inputs, colored by the deg+1 list-coloring machinery rather than the
// dense pipeline (its almost-clique decomposition is empty).
func Circulant(n, d, workers int) (*Graph, error) {
	if d < 0 || d%2 != 0 || (d > 0 && n <= d) {
		return nil, fmt.Errorf("graph: Circulant needs even d >= 0 and n > d, got n=%d d=%d", n, d)
	}
	return FromStream(n, workers, func(emit func(u, v int)) error {
		for v := 0; v < n; v++ {
			for s := 1; s <= d/2; s++ {
				emit(v, (v+s)%n)
			}
		}
		return nil
	})
}

// EasyCliqueRingStream builds EasyCliqueRing's graph through the streaming
// CSR path, so the dense ring family scales to k·delta = 10⁷ vertices
// without a Builder's pair slice; EasyCliqueRing is this on one worker plus
// the clique partition. TestEasyCliqueRingStreamMatchesBuilder pins the
// byte-identity across worker counts. Requires k >= 4 and even delta >= 4.
func EasyCliqueRingStream(k, delta, workers int) (*Graph, error) {
	if k < 4 || delta < 4 || delta%2 != 0 {
		return nil, fmt.Errorf("graph: EasyCliqueRingStream needs k >= 4 and even delta >= 4, got k=%d delta=%d", k, delta)
	}
	n := k * delta
	half := delta / 2
	return FromStream(n, workers, func(emit func(u, v int)) error {
		emitCliques(k, delta, emit)
		// Vertices 0..delta/2-1 of clique c match to vertices
		// delta/2..delta-1 of clique (c+1) mod k.
		for c := 0; c < k; c++ {
			next := (c + 1) % k
			for j := 0; j < half; j++ {
				emit(c*delta+j, next*delta+half+j)
			}
		}
		return nil
	})
}
