package listcolor

import "deltacoloring/internal/local"

// Planner hands out, in order, the plans of a sequence of instances whose
// active sets are all known up front. On a network with one worker each plan
// is made by Next on the calling goroutine, exactly as Solve would make it.
// With w > 1 workers, up to w−1 upcoming plans are made ahead, each on its
// own goroutine and a one-worker view of the network, while the caller
// sweeps the current instance on the network's workers, so about w
// goroutines stay busy. The window bounds both the goroutines and the plans
// held at once: planning further ahead buys no core and costs peak memory.
//
// Rounds are charged to the shared counter from whichever goroutine plans,
// so totals and per-phase spans match the sequential order; only the wall
// time changes. A panic in a planning goroutine, in particular the
// local.Interrupt of a cancelled run, is re-raised by Next on the caller, so
// local.RecoverInterrupt still turns it into an error. Close must be called
// (typically deferred) once the caller is done, on every path: it waits for
// the plans still in flight, so no goroutine outlives the run.
type Planner struct {
	net   *local.Network
	sets  [][]int
	ahead int
	// done[i] receives plan i; started counts the plans launched.
	done    []chan planned
	next    int
	started int
}

type planned struct {
	plan  *Plan
	err   error
	panic any
}

// NewPlanner prepares the plans of the instances whose active vertices are
// sets[0], sets[1], ... on net's graph. Nothing is planned until Next.
func NewPlanner(net *local.Network, sets [][]int) *Planner {
	pl := &Planner{net: net, sets: sets, ahead: net.Workers() - 1}
	if pl.ahead > 0 {
		pl.done = make([]chan planned, len(sets))
	}
	return pl
}

// Next returns the next instance's plan, or the error NewPlan gave for it.
func (pl *Planner) Next() (*Plan, error) {
	i := pl.next
	pl.next++
	if pl.done == nil {
		return NewPlan(pl.net, pl.sets[i])
	}
	for ; pl.started < len(pl.sets) && pl.started <= i+pl.ahead; pl.started++ {
		pl.launch(pl.started)
	}
	r := <-pl.done[i]
	pl.done[i] = nil
	if r.panic != nil {
		panic(r.panic)
	}
	return r.plan, r.err
}

// launch plans instance i on its own goroutine and a one-worker view of the
// network; the buffered channel never blocks the goroutine.
func (pl *Planner) launch(i int) {
	ch := make(chan planned, 1)
	pl.done[i] = ch
	pnet := pl.net.Virtual(pl.net.Graph(), 1)
	pnet.SetWorkers(1)
	go func() {
		var r planned
		defer func() {
			r.panic = recover()
			ch <- r
		}()
		r.plan, r.err = NewPlan(pnet, pl.sets[i])
	}()
}

// Close waits for every plan launched but not yet taken by Next.
func (pl *Planner) Close() {
	for i := pl.next; i < pl.started; i++ {
		<-pl.done[i]
		pl.done[i] = nil
	}
	pl.next = pl.started
}
