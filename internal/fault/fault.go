// Package fault is the deterministic fault-injection subsystem behind the
// cluster's crash tests and the chaos campaign (TestChaosCampaign). A Plan is
// a seeded, reproducible fault schedule: each Injection names a Site (a
// well-known point in the runtime — a page seal, a lane delivery, a
// checkpoint write, a spill), a worker, and the 0-based hit index K at
// which it fires. Production code calls Hit/ErrAt unconditionally at every
// site — all Plan methods are safe on a nil receiver and cost one mutex
// hop when a plan is armed, nothing when it is nil — so the injected
// crashes travel the exact code paths a real user-code panic or disk error
// would.
//
// Injections fire exactly once. That models the transient faults the
// cluster's bounded retry policy (cluster.Config.MaxRetries) is meant to
// absorb: the recovered retry re-executes the same deterministic work
// without re-crashing, which is precisely what distinguishes it from a
// deterministic user bug (identical crash on every attempt — the retry
// policy fails those fast instead of burning retries).
//
// Hit counting is per (Site, Worker) and cumulative across crash retries:
// replayed work hits the counter again. For the single-injection schedules
// the chaos campaign sweeps, K therefore addresses the K-th occurrence of
// the site on that worker in the whole job, which on a first attempt is
// the K-th delivery/seal/spill exactly as the hand-placed test hooks used
// to count. Sites hit concurrently by several executor threads (PageSeal,
// SpillEnqueue) fire on whichever thread reaches hit K first — the
// schedule is deterministic in (Site, Worker, K) while the interleaving
// behind the K-th hit may vary; recovery correctness never depends on
// which thread crashed.
package fault

import (
	"fmt"
	"math/rand"
	"sync"
)

// Site is a well-known fault-injection point in the cluster runtime.
type Site int

const (
	// PageSeal fires as a producer executor thread seals a shuffle page,
	// before it enters the exchange (aggregation and join repartition
	// producers alike). Panic site; recovered by the producer-role retry
	// with sender-side dedup.
	PageSeal Site = iota
	// Delivery fires as the aggregation consumer takes delivery of a
	// shuffled page. Panic site; recovered by checkpoint restore + replay.
	Delivery
	// BuildPage fires as the join consumer takes delivery of a build-side
	// page. Panic site; recovered by the build's table-clone checkpoint.
	BuildPage
	// ProbePage fires as the join consumer takes delivery of a probe-side
	// page. Panic site; recovered by the probe cursor checkpoint.
	ProbePage
	// Emit fires immediately before the join hands a match to user emit.
	// Panic site; recovered by the exactly-once emit cursor.
	Emit
	// Finalize fires before the aggregation consumer finalizes its merged
	// maps. Panic site; recovered from the end-of-stream checkpoint.
	Finalize
	// Checkpoint fires at the start of a consumer checkpoint write (agg
	// snapshot persist, join build cut, join probe cut), before the
	// recovery record mutates. Panic site; the previous cut stays the
	// recovery point.
	Checkpoint
	// SpillEnqueue fires as the memory governor spills a page image to its
	// store. Panic site; lands on whichever backend goroutine crossed the
	// budget (producer enqueue or consumer settle).
	SpillEnqueue
	// SpillWrite injects an I/O error from the spill store's write path.
	// Error site; the job must fail cleanly, not hang or panic.
	SpillWrite
	// SpillRead injects an I/O error from the spill store's read path
	// (delivery reload or replay). Error site.
	SpillRead
	// CheckpointIO injects an I/O error from checkpoint persistence.
	// Error site.
	CheckpointIO
	// ConnDrop injects a dropped transport connection: the socket
	// transport severs its active connection immediately before a frame
	// write, forcing the redial path. Error site at the injection point,
	// but the transport absorbs it by reconnecting and re-sending the
	// frame — jobs still succeed, and ShipStats.Reconnects counts the
	// redials. Transport-level hits count against worker 0 (the wire has
	// no worker identity of its own).
	ConnDrop
	// ProcKill kills a proc-mode worker process (cmd/pcworker) mid-job.
	// Unlike the in-process sites, the fault executes across the process
	// boundary: the master extracts the injection (Plan.Take) and ships
	// it in the consume request, and the worker exits hard right after
	// its (K+1)-th durable checkpoint save — deterministically past a
	// durable cut, before the ack leaves its process. The master observes
	// both role sessions sever, respawns the process, and the role retry
	// resumes from the worker's durable cut exactly as for an in-process
	// crash.
	ProcKill
	// ProbeBitmap fires as an outer-join probe records a build-side match
	// in the match bitmap, immediately before the bit mutates. Panic
	// site; recovered by the bitmap + probe-cursor checkpoint.
	ProbeBitmap

	numSites
)

// String names the site.
func (s Site) String() string {
	names := [...]string{
		PageSeal:     "PageSeal",
		Delivery:     "Delivery",
		BuildPage:    "BuildPage",
		ProbePage:    "ProbePage",
		Emit:         "Emit",
		Finalize:     "Finalize",
		Checkpoint:   "Checkpoint",
		SpillEnqueue: "SpillEnqueue",
		SpillWrite:   "SpillWrite",
		SpillRead:    "SpillRead",
		CheckpointIO: "CheckpointIO",
		ConnDrop:     "ConnDrop",
		ProcKill:     "ProcKill",
		ProbeBitmap:  "ProbeBitmap",
	}
	if s >= 0 && int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("Site(%d)", int(s))
}

// IsError reports whether the site injects an error (ErrAt) rather than a
// panic (Hit).
func (s Site) IsError() bool {
	return s == SpillWrite || s == SpillRead || s == CheckpointIO || s == ConnDrop
}

// Injection is one scheduled fault: at the K-th hit (0-based) of Site on
// Worker, panic (panic sites) or return an injected error (error sites).
type Injection struct {
	Site   Site
	Worker int
	K      int
}

// Crash is the panic value of an injected crash. It is distinguishable
// from any user-code panic, so tests can tell an injected fault from an
// organic bug.
type Crash struct {
	Site   Site
	Worker int
	K      int
}

// Error makes Crash readable when a backend formats the recovered panic.
func (c *Crash) Error() string {
	return fmt.Sprintf("fault: injected crash at %s (worker %d, hit %d)", c.Site, c.Worker, c.K)
}

// InjectedError is the error value returned by an armed error site.
type InjectedError struct {
	Site   Site
	Worker int
	K      int
}

// Error names the injected site, worker and hit, so a failed job's error
// says which injection failed it.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected %s I/O error (worker %d, hit %d)", e.Site, e.Worker, e.K)
}

type siteKey struct {
	site   Site
	worker int
}

type armed struct {
	Injection
	fired bool
}

// Plan is one job's fault schedule: a set of injections plus the
// per-(site, worker) hit counters they fire against. All methods are safe
// for concurrent use and on a nil receiver (a nil *Plan is the "no faults"
// plan production code always threads through).
type Plan struct {
	mu   sync.Mutex
	inj  []armed
	hits map[siteKey]int
}

// NewPlan arms a schedule of injections.
func NewPlan(injections ...Injection) *Plan {
	return &Plan{inj: append([]armed(nil), func() []armed {
		a := make([]armed, len(injections))
		for i, in := range injections {
			a[i] = armed{Injection: in}
		}
		return a
	}()...), hits: map[siteKey]int{}}
}

// count advances the (site, worker) hit counter and returns the armed
// injection that fires at this hit, if any.
func (p *Plan) count(site Site, worker int) *armed {
	k := siteKey{site, worker}
	hit := p.hits[k]
	p.hits[k] = hit + 1
	for i := range p.inj {
		in := &p.inj[i]
		if !in.fired && in.Site == site && in.Worker == worker && in.K == hit {
			in.fired = true
			return in
		}
	}
	return nil
}

// Hit records one occurrence of a panic site on worker and panics with a
// *Crash if an armed injection fires here. Error sites never fire through
// Hit. Safe on a nil plan (no-op).
func (p *Plan) Hit(site Site, worker int) {
	if p == nil || site.IsError() {
		return
	}
	p.mu.Lock()
	in := p.count(site, worker)
	p.mu.Unlock()
	if in != nil {
		panic(&Crash{Site: site, Worker: worker, K: in.K})
	}
}

// ErrAt records one occurrence of an error site on worker and returns an
// *InjectedError if an armed injection fires here, nil otherwise. Panic
// sites never fire through ErrAt. Safe on a nil plan (returns nil).
func (p *Plan) ErrAt(site Site, worker int) error {
	if p == nil || !site.IsError() {
		return nil
	}
	p.mu.Lock()
	in := p.count(site, worker)
	p.mu.Unlock()
	if in != nil {
		return &InjectedError{Site: site, Worker: worker, K: in.K}
	}
	return nil
}

// Take extracts the first unfired injection armed at (site, worker),
// marking it fired, and returns its K. Proc-mode masters use it to ship a
// fault across the process boundary instead of firing it in-process —
// the worker executes it (ProcKill: exit hard right after the (K+1)-th
// durable checkpoint save), so "fired" here means "shipped into the
// worker". ok is false when nothing is armed there. Safe on a nil plan.
func (p *Plan) Take(site Site, worker int) (k int, ok bool) {
	if p == nil {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.inj {
		in := &p.inj[i]
		if !in.fired && in.Site == site && in.Worker == worker {
			in.fired = true
			return in.K, true
		}
	}
	return 0, false
}

// Fired reports how many of the plan's injections have fired.
func (p *Plan) Fired() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.inj {
		if p.inj[i].fired {
			n++
		}
	}
	return n
}

// Pending reports how many of the plan's injections have not fired (the
// workload never reached their hit index — e.g. a worker that owned no
// pages of the targeted stream).
func (p *Plan) Pending() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.inj {
		if !p.inj[i].fired {
			n++
		}
	}
	return n
}

// Injections returns a copy of the plan's schedule.
func (p *Plan) Injections() []Injection {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Injection, len(p.inj))
	for i := range p.inj {
		out[i] = p.inj[i].Injection
	}
	return out
}

// String describes the schedule ("panic@ProbePage w1 k3; err@SpillRead w0
// k0") for campaign reports and test failures.
func (p *Plan) String() string {
	if p == nil {
		return "no faults"
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ""
	for i := range p.inj {
		in := &p.inj[i]
		kind := "panic"
		if in.Site.IsError() {
			kind = "err"
		}
		if s != "" {
			s += "; "
		}
		s += fmt.Sprintf("%s@%s w%d k%d", kind, in.Site, in.Worker, in.K)
	}
	if s == "" {
		return "empty plan"
	}
	return s
}

// defaultMaxK caps the hit index Seeded draws per site, tuned so most
// schedules land inside the workload's actual hit counts (a K past the
// stream's end simply never fires — the campaign reports it as pending).
var defaultMaxK = map[Site]int{
	PageSeal:     3,
	Delivery:     4,
	BuildPage:    4,
	ProbePage:    4,
	Emit:         16,
	Finalize:     1,
	Checkpoint:   2,
	SpillEnqueue: 3,
	SpillWrite:   2,
	SpillRead:    2,
	CheckpointIO: 1,
	ConnDrop:     3,
	ProcKill:     3,
	ProbeBitmap:  8,
}

// Seeded derives a reproducible single-injection plan from seed. The site
// cycles through sites with the seed — consecutive seeds cover every site —
// and the worker and hit index come from a seed-keyed PRNG, so a (seed,
// workers, sites) triple always names the same schedule.
func Seeded(seed int64, workers int, sites []Site) *Plan {
	if len(sites) == 0 || workers <= 0 {
		return NewPlan()
	}
	idx := int(seed % int64(len(sites)))
	if idx < 0 {
		idx += len(sites)
	}
	site := sites[idx]
	rng := rand.New(rand.NewSource(seed))
	maxK := defaultMaxK[site]
	if maxK <= 0 {
		maxK = 1
	}
	return NewPlan(Injection{Site: site, Worker: rng.Intn(workers), K: rng.Intn(maxK)})
}
