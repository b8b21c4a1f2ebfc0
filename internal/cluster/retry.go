package cluster

// Bounded, accounted crash retry. Every piece of user-code work a worker
// backend runs — a stage pipeline, a shuffle producer, a streaming
// consumer, a join probe — goes through runRole, which owns the whole
// crash policy in one place:
//
//   - A panic kills the backend (Backend.Run converts it to
//     errBackendCrashed); the front end re-forks and runRole retries the
//     role, at most retryBudget times per step.
//   - A retried attempt that crashes with a panic message identical to the
//     previous attempt's is a deterministic user bug — re-running the same
//     deterministic work produced the same crash — and fails the job
//     immediately, naming the role and worker, instead of burning the
//     remaining retry budget on a bug no re-fork will absorb.
//   - A role that returns because the step's exchange was cancelled
//     (exchange.ErrCancelled) did not crash, whatever the cancellation's
//     cause was: it observed a sibling's failure and returns as it is, with
//     no retry and no accounting.
//   - errBackendDead at entry (a sibling role crashed the shared backend
//     between our Backend() fetch and Run) is not this role's crash: the
//     role re-fetches a fresh backend without consuming a retry, bounded
//     so two roles cannot ping-pong a dying backend forever.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/exchange"
)

// Role labels for retry accounting (ExecStats.RoleRetries keys) and
// failure messages.
const (
	rolePipeline = "pipeline"
	roleProducer = "producer"
	roleConsumer = "consumer"
	roleProbe    = "probe"
)

// retryBudget is how many crash re-fork retries one role gets in one step.
// Every consumer recovers by replay from page 0, so one retry absorbs a
// transient crash; a second distinct crash fails the job.
const retryBudget = 1

// crashMessage strips the worker-specific prefix Backend.Run wraps around
// a recovered panic, leaving just the panic's own text for the
// identical-crash comparison.
func crashMessage(err error) string {
	s := err.Error()
	if i := strings.Index(s, "): "); i >= 0 {
		return s[i+len("): "):]
	}
	return s
}

// runRole runs r.body under the crash policy above. r.onRetry runs before
// each recovery attempt, on the scheduler goroutine and under mu, for stats
// accounting.
func (c *Cluster) runRole(r *role, mu *sync.Mutex) error {
	attempt := 0
	lastCrash := ""
	// A dead backend at entry means a sibling crashed it; re-fetching is
	// free but bounded so a persistently crashing sibling cannot spin us.
	deadBudget := 4 * (retryBudget + 2)
	for {
		entered, err := c.attempt(r)
		if err == nil {
			return nil
		}
		if errors.Is(err, errBackendDead) && !entered {
			if deadBudget <= 0 {
				return fmt.Errorf("cluster: %s role (%s) on worker %d could not start: %w", r.name, r.what, r.w.ID, err)
			}
			deadBudget--
			continue
		}
		if errors.Is(err, exchange.ErrCancelled) || !errors.Is(err, errBackendCrashed) {
			return err
		}
		// A dead process leaves no panic text to compare: only an
		// in-process crash can be recognized as repeating.
		msg := crashMessage(err)
		if !r.proc && lastCrash != "" && msg == lastCrash {
			return fmt.Errorf("cluster: %s role (%s) on worker %d failed deterministically (identical crash on retry): %w", r.name, r.what, r.w.ID, err)
		}
		if attempt >= retryBudget {
			return fmt.Errorf("cluster: %s role (%s) on worker %d exhausted %d crash retries: %w", r.name, r.what, r.w.ID, retryBudget, err)
		}
		lastCrash = msg
		attempt++
		if r.onRetry != nil {
			mu.Lock()
			r.onRetry()
			mu.Unlock()
		}
	}
}

// attempt is one try at r.body on r.w's backend, wherever that lives, and
// reports a crash as errBackendCrashed. In-process the body runs on the
// live backend (re-forked if a crash killed the last one) and a panic is
// the crash; entered tells a body that never started — the backend was
// already dead — from one that ran.
//
// A proc role's body talks to the worker's pcworker process over a session
// connection; if it fails and the process is found dead, the failure is a
// worker crash. A body failure with the process still alive is a protocol
// or job error and fails the role. Crash detection is incarnation-aware:
// the session ran against one spawn generation, and a sibling role's retry
// may have respawned the worker already — a changed generation is a lost
// process even though something is alive now. Same-generation death gets a
// short grace window, since a session error races the kernel reaping the
// dying process.
func (c *Cluster) attempt(r *role) (entered bool, err error) {
	if !r.proc {
		err = r.w.Front.Backend().Run(func() error {
			entered = true
			return r.body()
		})
		return entered, err
	}
	pw := c.procs.workers[r.w.ID]
	if err := pw.revive(); err != nil {
		return true, err
	}
	gen := pw.generation()
	err = r.body()
	if err == nil || (pw.generation() == gen && !pw.deadWithin(2*time.Second)) {
		return true, err
	}
	return true, fmt.Errorf("%w (worker %d): process died: %v", errBackendCrashed, pw.id, err)
}
