package service

import (
	"container/list"
	"unsafe"
)

// retainedColorings sizes the byte budget that the job table and the result
// cache share: room for this many of the largest colorings the server
// accepts (MaxVertices colors at 8 B each), 64 MiB at the default limit.
const retainedColorings = 8

// retainedBudget is the byte bound on the responses the job table and the
// result cache retain together.
func (c Config) retainedBudget() int64 {
	return retainedColorings * 8 * int64(c.MaxVertices)
}

// responseBytes is what a retained response pins on the heap: the struct,
// its colors at 8 B per vertex, its spans and its strings.
func responseBytes(r *ColorResponse) int64 {
	n := int64(unsafe.Sizeof(*r)) + 8*int64(cap(r.Colors)) +
		int64(len(r.JobID)+len(r.State)+len(r.Backend)+len(r.Error))
	for _, sp := range r.Spans {
		n += int64(unsafe.Sizeof(sp)) + int64(len(sp.Name))
	}
	for _, ph := range r.CheckPhases {
		n += int64(unsafe.Sizeof(ph)) + int64(len(ph))
	}
	if r.Shatter != nil {
		n += int64(unsafe.Sizeof(*r.Shatter))
	}
	return n
}

// ledger counts the bytes of the responses the job table and the cache
// hold. A response both hold (a finished job's result is also its cache
// entry) is counted once, while either still holds it.
type ledger struct {
	refs  map[*ColorResponse]int
	bytes int64
}

func (l *ledger) hold(r *ColorResponse) {
	if l.refs == nil {
		l.refs = make(map[*ColorResponse]int)
	}
	if l.refs[r]++; l.refs[r] == 1 {
		l.bytes += responseBytes(r)
	}
}

func (l *ledger) release(r *ColorResponse) {
	if l.refs[r]--; l.refs[r] == 0 {
		delete(l.refs, r)
		l.bytes -= responseBytes(r)
	}
}

// lruCache is a fixed-capacity least-recently-used result cache. Values are
// completed *ColorResponse objects, treated as immutable after insertion:
// hits hand out shallow copies whose slices are shared read-only. It has
// no lock of its own: the server guards it with its job-table lock, since
// both share one ledger and one byte budget.
type lruCache struct {
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	led   *ledger
}

type lruEntry struct {
	key string
	val *ColorResponse
}

func newLRU(max int, led *ledger) *lruCache {
	if max < 1 {
		max = 1
	}
	return &lruCache{max: max, ll: list.New(), items: make(map[string]*list.Element), led: led}
}

func (c *lruCache) get(key string) (*ColorResponse, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// add stores val under key and evicts the least recently used entry beyond
// the capacity.
func (c *lruCache) add(key string, val *ColorResponse) {
	c.led.hold(val)
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruEntry)
		c.led.release(e.val)
		e.val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	if c.ll.Len() > c.max {
		c.remove(c.ll.Back())
	}
}

// trim drops, least recently used first, the entries whose response nothing
// else retains, while over reports true. An entry whose response a job
// record also holds stays: dropping it would free nothing.
func (c *lruCache) trim(over func() bool) {
	for el := c.ll.Back(); el != nil && over(); {
		prev := el.Prev()
		if c.led.refs[el.Value.(*lruEntry).val] == 1 {
			c.remove(el)
		}
		el = prev
	}
}

// forget drops the entry under key if it holds val.
func (c *lruCache) forget(key string, val *ColorResponse) {
	if el, ok := c.items[key]; ok && el.Value.(*lruEntry).val == val {
		c.remove(el)
	}
}

func (c *lruCache) remove(el *list.Element) {
	e := c.ll.Remove(el).(*lruEntry)
	delete(c.items, e.key)
	c.led.release(e.val)
}

func (c *lruCache) len() int { return c.ll.Len() }
