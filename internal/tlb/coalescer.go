package tlb

import "gpureach/internal/sim"

// Coalescer merges concurrent translation requests to the same page, the
// way the hardware coalesces a SIMD unit's lane accesses and in-flight
// L1 misses (§2.1: "memory accesses targeting the same page are
// coalesced by the hardware"). The first requester for a key triggers
// the real lookup; later requesters for the same key ride along and are
// all completed together.
type Coalescer struct {
	inflight sim.Table[[]waiter]
	// freeLists recycles drained waiter slices: steady-state joins then
	// append into retained capacity instead of allocating.
	freeLists [][]waiter
	// Merged counts requests that piggybacked on an in-flight miss.
	Merged uint64
	// Started counts misses that went down the memory system.
	Started uint64
}

// EntryHandler is the completion callback form used on the translation
// hot path: a plain function pointer plus a payload word, so joining a
// coalescer does not allocate a closure per request.
type EntryHandler func(ctx any, e Entry)

type waiter struct {
	h   EntryHandler
	ctx any
}

// NewCoalescer returns an empty coalescer.
func NewCoalescer() *Coalescer { return &Coalescer{} }

// callEntryClosure adapts the closure-style Join API onto the handler
// form: the func value itself rides in the ctx word.
func callEntryClosure(ctx any, e Entry) { ctx.(func(Entry))(e) }

// Join registers done to be called when key's translation resolves.
// It reports whether the caller is the first requester and must start
// the actual translation; subsequent callers are merged.
func (c *Coalescer) Join(key Key, done func(Entry)) (first bool) {
	return c.JoinEvent(key, callEntryClosure, done)
}

// JoinEvent is the allocation-free form of Join: h(ctx, entry) runs
// when key resolves.
func (c *Coalescer) JoinEvent(key Key, h EntryHandler, ctx any) (first bool) {
	waiters, fresh := c.inflight.Insert(uint64(key))
	if fresh && len(c.freeLists) > 0 {
		n := len(c.freeLists) - 1
		*waiters = c.freeLists[n]
		c.freeLists[n] = nil
		c.freeLists = c.freeLists[:n]
	}
	*waiters = append(*waiters, waiter{h: h, ctx: ctx})
	if !fresh {
		c.Merged++
		return false
	}
	c.Started++
	return true
}

// Complete resolves key with entry, invoking every waiter in join order.
// Completing a key with no waiters is a no-op (it can happen when a
// shootdown raced the completion and cleared the waiters).
func (c *Coalescer) Complete(key Key, entry Entry) {
	waiters, exists := c.inflight.Delete(uint64(key))
	if !exists {
		return
	}
	for i := range waiters {
		waiters[i].h(waiters[i].ctx, entry)
	}
	for i := range waiters {
		waiters[i] = waiter{} // release ctx refs before recycling
	}
	c.freeLists = append(c.freeLists, waiters[:0])
}

// Inflight returns the number of distinct keys currently outstanding.
func (c *Coalescer) Inflight() int { return c.inflight.Len() }
