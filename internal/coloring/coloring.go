// Package coloring provides vertex-coloring primitives shared by every
// algorithm in the repository: partial colorings, palettes (sets of
// available colors), and verifiers for properness, completeness, and
// list-compliance.
//
// Colors are 0-based integers; the Δ-coloring problem uses the color space
// [0, Δ). The sentinel None (-1) marks an uncolored vertex.
package coloring

import (
	"fmt"
	"math/bits"

	"deltacoloring/internal/graph"
)

// None marks an uncolored vertex.
const None = -1

// Partial is a partial vertex coloring: Colors[v] is the color of v or None.
type Partial struct {
	Colors []int
}

// NewPartial returns an all-uncolored partial coloring on n vertices.
func NewPartial(n int) *Partial {
	c := &Partial{Colors: make([]int, n)}
	for v := range c.Colors {
		c.Colors[v] = None
	}
	return c
}

// Colored reports whether v has a color.
func (c *Partial) Colored(v int) bool { return c.Colors[v] != None }

// CountColored returns the number of colored vertices.
func (c *Partial) CountColored() int {
	n := 0
	for _, col := range c.Colors {
		if col != None {
			n++
		}
	}
	return n
}

// VerifyProper checks that no edge of g is monochromatic (uncolored
// endpoints are fine) and every used color lies in [0, numColors).
func VerifyProper(g *graph.Graph, c *Partial, numColors int) error {
	if len(c.Colors) != g.N() {
		return fmt.Errorf("coloring: %d colors for %d vertices", len(c.Colors), g.N())
	}
	for v, col := range c.Colors {
		if col == None {
			continue
		}
		if col < 0 || col >= numColors {
			return fmt.Errorf("coloring: vertex %d: color %d outside [0,%d)", v, col, numColors)
		}
		for _, w := range g.Neighbors(v) {
			if c.Colors[w] == col {
				return fmt.Errorf("coloring: edge (%d,%d): monochromatic color %d", v, w, col)
			}
		}
	}
	return nil
}

// VerifyComplete checks properness and that every vertex is colored.
func VerifyComplete(g *graph.Graph, c *Partial, numColors int) error {
	if err := VerifyProper(g, c, numColors); err != nil {
		return err
	}
	for v, col := range c.Colors {
		if col == None {
			return fmt.Errorf("coloring: vertex %d: uncolored", v)
		}
	}
	return nil
}

// VerifyLists checks properness plus that each colored vertex used a color
// from its list.
func VerifyLists(g *graph.Graph, c *Partial, lists []Palette) error {
	if len(lists) != g.N() {
		return fmt.Errorf("coloring: %d lists for %d vertices", len(lists), g.N())
	}
	maxColor := 0
	for _, l := range lists {
		if m := l.Max(); m >= maxColor {
			maxColor = m + 1
		}
	}
	if err := VerifyProper(g, c, maxColor); err != nil {
		return err
	}
	for v, col := range c.Colors {
		if col != None && !lists[v].Has(col) {
			return fmt.Errorf("coloring: vertex %d: color %d not in its list", v, col)
		}
	}
	return nil
}

// Palette is a set of colors represented as a bitset. The zero value is the
// empty palette.
type Palette struct {
	words []uint64
}

// WordsFor returns the number of 64-bit words a palette over [0, k) needs.
// Slab allocators use it to size backing stores for ListSlab.
func WordsFor(k int) int { return (k + 63) / 64 }

// FullPalette returns the palette {0, ..., k-1}.
func FullPalette(k int) Palette {
	var p Palette
	p.Fill(k)
	return p
}

// Fill resets the palette to exactly {0, ..., k-1}, reusing the existing
// word storage when it is large enough. It is the word-wide replacement for
// the k-iteration Add loop: full words are set with a single store and the
// last partial word with one mask.
func (p *Palette) Fill(k int) {
	nw := WordsFor(k)
	if cap(p.words) < nw {
		p.words = make([]uint64, nw)
	} else {
		p.words = p.words[:nw]
	}
	if nw == 0 {
		return
	}
	for i := 0; i < nw-1; i++ {
		p.words[i] = ^uint64(0)
	}
	last := ^uint64(0)
	if r := k % 64; r != 0 {
		last = 1<<r - 1
	}
	p.words[nw-1] = last
}

// Add inserts color x, growing the word storage in a single resize when x
// lies beyond the current capacity (not one appended word at a time).
func (p *Palette) Add(x int) {
	w := x / 64
	if w >= len(p.words) {
		if w < cap(p.words) {
			tail := p.words[len(p.words) : w+1]
			for i := range tail {
				tail[i] = 0
			}
			p.words = p.words[:w+1]
		} else {
			grown := make([]uint64, w+1)
			copy(grown, p.words)
			p.words = grown
		}
	}
	p.words[w] |= 1 << (x % 64)
}

// Remove deletes color x if present.
func (p *Palette) Remove(x int) {
	w := x / 64
	if w < len(p.words) {
		p.words[w] &^= 1 << (x % 64)
	}
}

// Has reports whether color x is in the palette.
func (p Palette) Has(x int) bool {
	w := x / 64
	return x >= 0 && w < len(p.words) && p.words[w]&(1<<(x%64)) != 0
}

// Size returns the number of colors in the palette.
func (p Palette) Size() int {
	n := 0
	for _, w := range p.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Min returns the smallest color in the palette, or -1 if empty.
func (p Palette) Min() int {
	for i, w := range p.words {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Max returns the largest color in the palette, or -1 if empty.
func (p Palette) Max() int {
	for i := len(p.words) - 1; i >= 0; i-- {
		if p.words[i] != 0 {
			return i*64 + 63 - bits.LeadingZeros64(p.words[i])
		}
	}
	return -1
}

// Colors returns the palette's colors in increasing order.
func (p Palette) Colors() []int {
	return p.AppendColors(make([]int, 0, p.Size()))
}

// AppendColors appends the palette's colors in increasing order to dst and
// returns the extended slice — the allocation-free form of Colors for loops
// that re-enumerate palettes with a reused buffer.
func (p Palette) AppendColors(dst []int) []int {
	for i, w := range p.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, i*64+b)
			w &^= 1 << b
		}
	}
	return dst
}

// CopyFrom makes p an exact copy of q, reusing p's storage when possible.
func (p *Palette) CopyFrom(q Palette) {
	if cap(p.words) < len(q.words) {
		p.words = make([]uint64, len(q.words))
	} else {
		p.words = p.words[:len(q.words)]
	}
	copy(p.words, q.words)
}

// AndNot removes every color of q from p word-wide (p &^= q), the kernel
// behind conflict elimination: one ANDN per 64 colors instead of a
// per-color branch loop.
func (p *Palette) AndNot(q Palette) {
	n := len(p.words)
	if len(q.words) < n {
		n = len(q.words)
	}
	for i := 0; i < n; i++ {
		p.words[i] &^= q.words[i]
	}
}

// Available returns the palette [0,k) minus the colors of v's colored
// neighbors in g — the greedy choice set for v.
func Available(g *graph.Graph, c *Partial, v, k int) Palette {
	var p Palette
	AvailableInto(&p, g, c, v, k)
	return p
}

// AvailableInto fills p with the palette [0,k) minus the colors of v's
// colored neighbors, reusing p's word storage — the zero-allocation form of
// Available for hot paths that rebuild lists every phase.
func AvailableInto(p *Palette, g *graph.Graph, c *Partial, v, k int) {
	p.Fill(k)
	words := p.words
	for _, w := range g.Neighbors(v) {
		if col := c.Colors[w]; col >= 0 && col < k {
			words[col>>6] &^= 1 << (col & 63)
		}
	}
}

// GreedyComplete colors every uncolored vertex of g (in index order) with
// the smallest available color from [0,k). It returns an error if some
// vertex has no available color. It is the sequential baseline and the
// final safety net in tests.
func GreedyComplete(g *graph.Graph, c *Partial, k int) error {
	var p Palette
	for v := range c.Colors {
		if c.Colors[v] != None {
			continue
		}
		AvailableInto(&p, g, c, v, k)
		col := p.Min()
		if col < 0 {
			return fmt.Errorf("coloring: vertex %d: empty palette", v)
		}
		c.Colors[v] = col
	}
	return nil
}

// ListSlab backs a family of per-vertex palettes with one reusable word
// slab, so building n lists costs two allocations after warm-up instead of
// n. Take hands out palettes whose words alias the slab; they are valid
// until the next Take, and must not be retained across it. A palette that
// grows beyond its slab slot (Add past k) reallocates onto its own storage
// automatically because the slot's capacity is clipped.
type ListSlab struct {
	words []uint64
	lists []Palette
}

// Take returns n palettes, each Fill(k), carved out of the slab.
func (s *ListSlab) Take(n, k int) []Palette {
	per := WordsFor(k)
	need := n * per
	if cap(s.words) < need {
		s.words = make([]uint64, need)
	} else {
		s.words = s.words[:need]
	}
	if cap(s.lists) < n {
		s.lists = make([]Palette, n)
	} else {
		s.lists = s.lists[:n]
	}
	for i := 0; i < n; i++ {
		w := s.words[i*per : i*per : (i+1)*per]
		s.lists[i] = Palette{words: w}
		s.lists[i].Fill(k)
	}
	return s.lists
}
