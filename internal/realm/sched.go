package realm

import (
	"sync"
)

// Scheduler is the weighted-fair admission gate in front of the shared
// worker pool: every unit of per-tenant pipeline work — an ingest batch
// folding into the tenant's engine, one analysis plane run per window, a
// durable history append — passes through Run, which blocks until
// deficit round-robin over the tenant weights grants one of the pool's
// slots. The work itself executes on the caller's own goroutine, so the
// ordering contracts of the consumer bus (epoch order, one goroutine per
// consumer) survive unchanged; the scheduler only decides *when* the
// caller may proceed.
//
// DRR invariants:
//
//   - Work-conserving: a slot is never idle while any tenant has queued
//     work (the free-slot fast path admits immediately when nothing
//     waits).
//   - Per-visit replenish: each round-robin visit to a backlogged tenant
//     adds quantum*weight to its deficit; the tenant is granted slots
//     while its deficit covers the cost at the head of its FIFO.
//   - Bounded delay: a tenant's head-of-queue task waits at most
//     O(cost/quantum) full rounds regardless of how much work other
//     tenants have queued — the noisy-neighbor bound the e2e test pins.
//   - An emptied queue forfeits its deficit (reset to zero), so an idle
//     tenant cannot bank credit and later burst ahead of its weight.
type Scheduler struct {
	mu      sync.Mutex
	slots   int // configured pool width
	free    int
	quantum int64
	tenants map[string]*schedQueue
	ring    []*schedQueue
	pos     int // ring cursor; persists across dispatches so grants resume mid-round
	waiting int
}

// schedQueue is one tenant's FIFO of admission waiters plus its DRR state.
type schedQueue struct {
	name        string
	weight      int64
	deficit     int64
	replenished bool // deficit already topped up on the current ring visit
	waiters     []*schedWaiter
	granted     uint64 // lifetime grants, for Stats
}

type schedWaiter struct {
	cost  int64
	ready chan struct{}
}

// defaultQuantum is the per-visit deficit top-up for a weight-1 tenant,
// in cost units (ingested records, or graph nodes+edges for analysis
// work). One visit covers a typical ingest batch outright.
const defaultQuantum = 4096

// maxTaskCost clamps a single task's cost so one enormous window cannot
// demand thousands of replenish rounds before it is ever granted.
const maxTaskCost = 1 << 20

// NewScheduler builds a scheduler over `slots` concurrent worker slots
// (minimum 1). quantum <= 0 selects the default.
func NewScheduler(slots int, quantum int64) *Scheduler {
	if slots < 1 {
		slots = 1
	}
	if quantum <= 0 {
		quantum = defaultQuantum
	}
	return &Scheduler{
		slots:   slots,
		free:    slots,
		quantum: quantum,
		tenants: make(map[string]*schedQueue),
	}
}

// SetWeight fixes a tenant's DRR weight (minimum 1; new tenants default
// to 1). Takes effect from the tenant's next replenish.
func (s *Scheduler) SetWeight(tenant string, weight int64) {
	if s == nil {
		return
	}
	if weight < 1 {
		weight = 1
	}
	s.mu.Lock()
	s.queueLocked(tenant).weight = weight
	s.mu.Unlock()
}

// Run executes fn once the tenant is granted a worker slot. cost is the
// task's size in the scheduler's work units; it is clamped to [1,
// maxTaskCost]. A nil scheduler runs fn immediately (the single-tenant
// fallback, matching the package's nil-safe conventions).
func (s *Scheduler) Run(tenant string, cost int64, fn func()) {
	if s == nil {
		fn()
		return
	}
	s.acquire(tenant, cost)
	defer s.release()
	fn()
}

func (s *Scheduler) acquire(tenant string, cost int64) {
	if cost < 1 {
		cost = 1
	} else if cost > maxTaskCost {
		cost = maxTaskCost
	}
	s.mu.Lock()
	q := s.queueLocked(tenant)
	// Fast path: nothing queued anywhere and a slot is free — admit
	// without touching deficits. Fairness only has meaning under
	// contention, and the uncontended single-tenant daemon must not pay
	// for it (the tenancy row of the ingest overhead gate).
	if s.waiting == 0 && s.free > 0 {
		s.free--
		q.granted++
		s.mu.Unlock()
		return
	}
	w := &schedWaiter{cost: cost, ready: make(chan struct{})}
	q.waiters = append(q.waiters, w)
	s.waiting++
	s.dispatchLocked()
	s.mu.Unlock()
	<-w.ready
}

func (s *Scheduler) release() {
	s.mu.Lock()
	s.free++
	s.dispatchLocked()
	s.mu.Unlock()
}

// queueLocked returns (or registers) the tenant's queue.
func (s *Scheduler) queueLocked(tenant string) *schedQueue {
	q := s.tenants[tenant]
	if q == nil {
		q = &schedQueue{name: tenant, weight: 1}
		s.tenants[tenant] = q
		s.ring = append(s.ring, q)
	}
	return q
}

// dispatchLocked hands free slots to waiters in deficit-round-robin
// order. The cursor and each queue's replenished flag persist across
// calls, so a round interrupted by slot exhaustion resumes exactly where
// it stopped instead of re-crediting the same tenant.
func (s *Scheduler) dispatchLocked() {
	for s.free > 0 && s.waiting > 0 {
		q := s.ring[s.pos]
		if len(q.waiters) == 0 {
			q.deficit = 0
			q.replenished = false
			s.pos = (s.pos + 1) % len(s.ring)
			continue
		}
		if !q.replenished {
			q.deficit += s.quantum * q.weight
			q.replenished = true
		}
		for len(q.waiters) > 0 && s.free > 0 && q.deficit >= q.waiters[0].cost {
			w := q.waiters[0]
			q.waiters[0] = nil
			q.waiters = q.waiters[1:]
			q.deficit -= w.cost
			q.granted++
			s.free--
			s.waiting--
			close(w.ready)
		}
		if s.free == 0 {
			return // resume at this queue, deficit intact, on the next release
		}
		if len(q.waiters) == 0 {
			q.deficit = 0
		}
		q.replenished = false
		s.pos = (s.pos + 1) % len(s.ring)
	}
}

// QueueStat is one tenant's row in the scheduler's Stats snapshot.
type QueueStat struct {
	Tenant  string `json:"tenant"`
	Weight  int64  `json:"weight"`
	Depth   int    `json:"depth"`
	Granted uint64 `json:"granted"`
}

// Stats snapshots per-tenant queue state in registration order.
func (s *Scheduler) Stats() []QueueStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]QueueStat, 0, len(s.ring))
	for _, q := range s.ring {
		out = append(out, QueueStat{Tenant: q.name, Weight: q.weight, Depth: len(q.waiters), Granted: q.granted})
	}
	return out
}

// Slots returns the configured pool width.
func (s *Scheduler) Slots() int { return s.slots }

// Depth returns one tenant's queued (not yet granted) task count.
func (s *Scheduler) Depth(tenant string) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.tenants[tenant]; q != nil {
		return len(q.waiters)
	}
	return 0
}
