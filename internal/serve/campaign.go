package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gpurel/internal/core"
	"gpurel/internal/faultinj"
	"gpurel/internal/isa"
	"gpurel/internal/kernels"
	"gpurel/internal/par"
	"gpurel/internal/patterns"
	"gpurel/internal/stats"
)

// Request is a campaign submission: which workload on which device,
// under which injector semantics, and how tight each instruction
// class's 95% Wilson interval must be before that class stops.
//
// TargetWidth is the full interval width (Upper - Lower) applied to
// both the SDC and the DUE AVF of every class; a class keeps sampling
// until both are at least that tight (or MaxTrials caps it). This is
// the paper's per-class sampling discipline (§III-D sizes campaigns so
// intervals stay below 5%) made adaptive: classes whose AVFs sit near 0
// or 1 — most of them — reach the target with a fraction of the
// worst-case fixed count (stats.WorstCaseTrials).
type Request struct {
	Code        string  `json:"code"`
	Device      string  `json:"device"`         // kepler|k40c|volta|v100 (default volta)
	Tool        string  `json:"tool,omitempty"` // sassifi|nvbitfi (default nvbitfi)
	TargetWidth float64 `json:"target_width"`   // full Wilson width target (default 0.25)
	Seed        uint64  `json:"seed"`

	// MaxTrials caps each class (default 4096); MinTrials floors it so
	// a lucky first batch cannot stop a class on noise (default 16).
	// Batch is the per-class round size, the granularity at which the
	// engine re-evaluates the stop rule (default 16).
	MaxTrials int `json:"max_trials,omitempty"`
	MinTrials int `json:"min_trials,omitempty"`
	Batch     int `json:"batch,omitempty"`

	// Workers bounds this campaign's shard parallelism (default 4). It
	// affects scheduling only: final counts are byte-identical across
	// worker counts, because every trial's plan is a pure function of
	// (Seed, class, trial index) and the set of indices run is decided
	// at deterministic round boundaries.
	Workers int `json:"workers,omitempty"`
}

func (r *Request) defaults() {
	if r.TargetWidth <= 0 {
		r.TargetWidth = 0.25
	}
	if r.MaxTrials <= 0 {
		r.MaxTrials = 4096
	}
	if r.MinTrials <= 0 {
		r.MinTrials = 16
	}
	if r.Batch <= 0 {
		r.Batch = 16
	}
	if r.Workers <= 0 {
		r.Workers = 4
	}
}

// Campaign states.
const (
	StateBuilding = "building" // runner golden run in progress
	StateRunning  = "running"
	StatePaused   = "paused"
	StateDone     = "done"
	StateFailed   = "failed"
)

// ClassStatus is the per-instruction-class view of a campaign.
type ClassStatus struct {
	Class    string  `json:"class"`
	Trials   int     `json:"trials"`
	SDC      int     `json:"sdc"`
	DUE      int     `json:"due"`
	Masked   int     `json:"masked"`
	SDCLower float64 `json:"sdc_lower"`
	SDCUpper float64 `json:"sdc_upper"`
	DUELower float64 `json:"due_lower"`
	DUEUpper float64 `json:"due_upper"`
	SDCWidth float64 `json:"sdc_width"`
	DUEWidth float64 `json:"due_width"`
	Stopped  bool    `json:"stopped"`
	CapHit   bool    `json:"cap_hit"`
}

// Status is a point-in-time campaign snapshot, the payload of
// GET /campaigns/{id} and of every SSE stream event.
type Status struct {
	ID          string        `json:"id"`
	Code        string        `json:"code"`
	Device      string        `json:"device"`
	Tool        string        `json:"tool"`
	Seed        uint64        `json:"seed"`
	TargetWidth float64       `json:"target_width"`
	State       string        `json:"state"`
	Error       string        `json:"error,omitempty"`
	Trials      int           `json:"trials"`
	SDC         int           `json:"sdc"`
	DUE         int           `json:"due"`
	Masked      int           `json:"masked"`
	Classes     []ClassStatus `json:"classes"`

	// BaselineTrials is what a fixed-count campaign sized for the same
	// per-class width guarantee would cost: classes x
	// stats.WorstCaseTrials(TargetWidth). The savings the adaptive stop
	// buys is 1 - Trials/BaselineTrials.
	BaselineTrials int `json:"baseline_trials"`

	ElapsedMS    int64   `json:"elapsed_ms"`
	TrialsPerSec float64 `json:"trials_per_sec"`
}

// Counts is the deterministic subset of a campaign's final state: no
// timing, no derived floats — only what the fault model produced. Two
// runs of the same request agree on these bytes regardless of worker
// count, pause/resume history, concurrent duplicates or daemon
// restarts; the serve tests and the perfbench serve workload compare
// them directly.
type Counts struct {
	Code    string        `json:"code"`
	Device  string        `json:"device"`
	Tool    string        `json:"tool"`
	Seed    uint64        `json:"seed"`
	Classes []ClassCounts `json:"classes"`
}

// ClassCounts is one class's deterministic outcome tallies. Patterns
// breaks the class's SDCs down by spatial/magnitude pattern; like the
// outcome counts it is a pure function of (Seed, class, index) and so
// byte-identical across worker counts and pause/resume histories.
type ClassCounts struct {
	Class    string             `json:"class"`
	Trials   int                `json:"trials"`
	SDC      int                `json:"sdc"`
	DUE      int                `json:"due"`
	Masked   int                `json:"masked"`
	Patterns patterns.Ledger    `json:"patterns"`
	DUEModes patterns.DUELedger `json:"due_modes"`
}

// classProgress is the engine's per-class accumulator: the class's
// outcome tally plus its sampler and stop state.
type classProgress struct {
	faultinj.Tally
	class   isa.Class
	sampler *faultinj.ClassSampler // nil while paused / before build
	stopped bool
	capHit  bool
}

// counts is the class's deterministic tallies, as /counts and the
// checkpoint carry them.
func (cp *classProgress) counts() ClassCounts {
	return ClassCounts{
		Class: cp.class.String(), Trials: cp.Injected,
		SDC: cp.SDC, DUE: cp.DUE, Masked: cp.Masked,
		Patterns: cp.Patterns, DUEModes: cp.DUEModes,
	}
}

// Campaign is one adaptively-stopped injection campaign owned by a
// Server. All mutable state is guarded by mu; the run loop is the only
// writer of counts, handlers are readers.
type Campaign struct {
	ID  string
	req Request
	srv *Server

	tool faultinj.Tool

	mu      sync.Mutex
	state   string
	errMsg  string
	classes []*classProgress
	notify  chan struct{} // closed and replaced on every state change
	started time.Time
	elapsed time.Duration // accumulated across pause/resume

	pauseReq  bool
	resumeCh  chan struct{}
	runnerRef *kernels.Runner // held only while running
}

func newCampaign(id string, req Request, tool faultinj.Tool, srv *Server) *Campaign {
	return &Campaign{
		ID: id, req: req, srv: srv, tool: tool,
		state:    StateBuilding,
		notify:   make(chan struct{}),
		resumeCh: make(chan struct{}, 1),
	}
}

// signalLocked wakes every status watcher. Callers hold c.mu.
func (c *Campaign) signalLocked() {
	close(c.notify)
	c.notify = make(chan struct{})
}

// Updated returns a channel that is closed at the campaign's next state
// change, the SSE stream's wait primitive.
func (c *Campaign) Updated() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.notify
}

// Status snapshots the campaign.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		ID: c.ID, Code: c.req.Code, Device: c.req.Device,
		Tool: c.tool.String(), Seed: c.req.Seed,
		TargetWidth: c.req.TargetWidth,
		State:       c.state, Error: c.errMsg,
	}
	for _, cp := range c.classes {
		sdcIv := stats.Wilson(cp.SDC, cp.Injected)
		dueIv := stats.Wilson(cp.DUE, cp.Injected)
		st.Classes = append(st.Classes, ClassStatus{
			Class:  cp.class.String(),
			Trials: cp.Injected, SDC: cp.SDC, DUE: cp.DUE, Masked: cp.Masked,
			SDCLower: sdcIv.Lower, SDCUpper: sdcIv.Upper,
			DUELower: dueIv.Lower, DUEUpper: dueIv.Upper,
			SDCWidth: sdcIv.Width(), DUEWidth: dueIv.Width(),
			Stopped: cp.stopped, CapHit: cp.capHit,
		})
		st.Trials += cp.Injected
		st.SDC += cp.SDC
		st.DUE += cp.DUE
		st.Masked += cp.Masked
	}
	st.BaselineTrials = len(c.classes) * stats.WorstCaseTrials(c.req.TargetWidth)
	el := c.elapsed
	// started is zero until run() begins, e.g. in the status snapshot
	// returned by the create handler.
	if (c.state == StateRunning || c.state == StateBuilding) && !c.started.IsZero() {
		el += time.Since(c.started)
	}
	st.ElapsedMS = el.Milliseconds()
	if el > 0 {
		st.TrialsPerSec = float64(st.Trials) / el.Seconds()
	}
	return st
}

// Counts snapshots the deterministic outcome tallies.
func (c *Campaign) Counts() Counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := Counts{
		Code: c.req.Code, Device: c.req.Device,
		Tool: c.tool.String(), Seed: c.req.Seed,
	}
	for _, cp := range c.classes {
		out.Classes = append(out.Classes, cp.counts())
	}
	return out
}

// Pause asks the engine to checkpoint and halt at the next round
// boundary. Idempotent while running; an error if the campaign already
// finished.
func (c *Campaign) Pause() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case StateDone, StateFailed:
		return fmt.Errorf("serve: campaign %s already %s", c.ID, c.state)
	case StatePaused:
		return nil
	}
	c.pauseReq = true
	return nil
}

// Resume restarts a paused campaign. Idempotent while running.
func (c *Campaign) Resume() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case StateDone, StateFailed:
		return fmt.Errorf("serve: campaign %s already %s", c.ID, c.state)
	case StateRunning, StateBuilding:
		c.pauseReq = false // cancel a not-yet-honored pause
		return nil
	}
	select {
	case c.resumeCh <- struct{}{}:
	default:
	}
	return nil
}

// Done reports whether the campaign reached a terminal state.
func (s Status) Done() bool { return s.State == StateDone || s.State == StateFailed }

// checkpointJSON is the persisted campaign state. Counts are all the
// engine needs: the next trial of class k is always index trials(k),
// and the sampler regenerates any index from the seed, so a resumed
// campaign continues the exact sequence the uninterrupted one runs.
type checkpointJSON struct {
	ID      string        `json:"id"`
	Request Request       `json:"request"`
	Tool    string        `json:"tool"`
	Classes []ClassCounts `json:"classes"`
	Stopped []string      `json:"stopped,omitempty"`
	CapHit  []string      `json:"cap_hit,omitempty"`
}

func (c *Campaign) checkpointPath() string {
	return filepath.Join(c.srv.opts.SpoolDir, c.ID+".json")
}

// checkpoint persists the campaign via the core persistence layer's
// atomic writer. Callers hold c.mu.
func (c *Campaign) checkpointLocked() error {
	ck := checkpointJSON{ID: c.ID, Request: c.req, Tool: c.tool.String()}
	for _, cp := range c.classes {
		ck.Classes = append(ck.Classes, cp.counts())
		if cp.stopped {
			ck.Stopped = append(ck.Stopped, cp.class.String())
		}
		if cp.capHit {
			ck.CapHit = append(ck.CapHit, cp.class.String())
		}
	}
	return core.WriteJSONAtomic(c.checkpointPath(), ck)
}

// validID reports whether id has the shape Create mints ("c" and six
// digits). Only such IDs may name a spool file: anything else could
// reach outside the spool directory.
func validID(id string) bool {
	if len(id) != 7 || id[0] != 'c' {
		return false
	}
	for _, ch := range id[1:] {
		if ch < '0' || ch > '9' {
			return false
		}
	}
	return true
}

// loadCheckpoint reads a checkpoint back into a fresh Campaign in the
// paused state. The file is outside input: it is rejected unless its
// ID is the one it is filed under, its request is valid, and every
// class's counts are consistent with each other and the request's cap.
func (s *Server) loadCheckpoint(id string) (*Campaign, error) {
	if !validID(id) {
		return nil, fmt.Errorf("serve: %q is not a campaign ID", id)
	}
	path := filepath.Join(s.opts.SpoolDir, id+".json")
	var ck checkpointJSON
	if err := core.ReadJSON(path, &ck); err != nil {
		return nil, err
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("serve: checkpoint %s: %s", path, fmt.Sprintf(format, args...))
	}
	if ck.ID != id {
		return nil, bad("names campaign %q", ck.ID)
	}
	tool, err := validate(&ck.Request)
	if err != nil {
		return nil, bad("%v", err)
	}
	if ck.Tool != tool.String() {
		return nil, bad("tool %q, but its request asks for %s", ck.Tool, tool)
	}
	c := newCampaign(ck.ID, ck.Request, tool, s)
	classes := make(map[string]*classProgress)
	for _, cc := range ck.Classes {
		class, err := faultinj.ClassByName(cc.Class)
		if err != nil {
			return nil, bad("%v", err)
		}
		if classes[cc.Class] != nil {
			return nil, bad("class %s listed twice", cc.Class)
		}
		cp := &classProgress{class: class, Tally: faultinj.Tally{
			Injected: cc.Trials, SDC: cc.SDC, DUE: cc.DUE, Masked: cc.Masked,
			Patterns: cc.Patterns, DUEModes: cc.DUEModes,
		}}
		if err := cp.Check(); err != nil {
			return nil, bad("class %s: %v", cc.Class, err)
		}
		if cp.Injected > ck.Request.MaxTrials {
			return nil, bad("class %s: %d trials over max_trials %d", cc.Class, cp.Injected, ck.Request.MaxTrials)
		}
		classes[cc.Class] = cp
		c.classes = append(c.classes, cp)
	}
	for _, n := range ck.Stopped {
		if classes[n] == nil {
			return nil, bad("stopped class %s is not in the checkpoint", n)
		}
		classes[n].stopped = true
	}
	for _, n := range ck.CapHit {
		if classes[n] == nil {
			return nil, bad("cap_hit class %s is not in the checkpoint", n)
		}
		classes[n].capHit = true
	}
	c.state = StatePaused
	return c, nil
}

// run is the campaign engine: acquire the (cached) runner, shard
// batches of deterministically-indexed trials across the worker pool,
// and stop each class once its Wilson intervals are tight enough.
// Determinism does not depend on execution order anywhere: the set of
// indices run is fixed at round boundaries by counts alone, each index
// maps to one plan, and outcome tallies are order-free sums.
func (c *Campaign) run() {
	c.srv.metrics.campaignsActive.Add(1)

	c.mu.Lock()
	c.started = time.Now()
	resume := c.state == StatePaused
	c.mu.Unlock()
	if resume {
		// A checkpoint-loaded campaign starts its goroutine paused and
		// waits for the resume signal before touching the runner.
		c.srv.metrics.campaignsPaused.Add(1)
		<-c.resumeCh
		c.srv.metrics.campaignsPaused.Add(-1)
		c.mu.Lock()
		c.state = StateBuilding
		c.started = time.Now()
		c.signalLocked()
		c.mu.Unlock()
	}

	if err := c.acquireRunner(); err != nil {
		c.fail(err)
		return
	}

	for {
		// Honor a pause at the round boundary: checkpoint, drop the
		// runner reference (the cache may evict it), and block.
		c.mu.Lock()
		if c.pauseReq {
			c.pauseReq = false
			c.elapsed += time.Since(c.started)
			if err := c.checkpointLocked(); err != nil {
				c.mu.Unlock()
				c.fail(fmt.Errorf("serve: checkpointing %s: %w", c.ID, err))
				return
			}
			c.state = StatePaused
			c.runnerRef = nil
			for _, cp := range c.classes {
				cp.sampler = nil
			}
			c.signalLocked()
			c.mu.Unlock()

			c.srv.metrics.campaignsPaused.Add(1)
			<-c.resumeCh
			c.srv.metrics.campaignsPaused.Add(-1)

			c.mu.Lock()
			c.state = StateBuilding
			c.started = time.Now()
			c.signalLocked()
			c.mu.Unlock()
			if err := c.acquireRunner(); err != nil {
				c.fail(err)
				return
			}
			continue
		}
		jobs := c.scheduleRound()
		c.mu.Unlock()

		if len(jobs) == 0 {
			break
		}
		if err := c.runRound(jobs); err != nil {
			c.fail(err)
			return
		}

		c.mu.Lock()
		c.settleRound(jobs)
		c.signalLocked()
		c.mu.Unlock()
	}

	c.mu.Lock()
	c.elapsed += time.Since(c.started)
	c.state = StateDone
	c.runnerRef = nil
	// The checkpoint of a finished campaign is stale; remove it so the
	// spool only holds resumable state.
	os.Remove(c.checkpointPath())
	c.finishLocked(&c.srv.metrics.campaignsCompleted)
	c.mu.Unlock()
}

// finishLocked ends the campaign's run: it bumps the terminal counter,
// drops the active gauge, and only then wakes the watchers, so a waiter
// woken by the terminal state always reads final /metrics. Callers hold
// c.mu and have set the terminal state.
func (c *Campaign) finishLocked(terminal *atomic.Uint64) {
	terminal.Add(1)
	c.srv.metrics.campaignsActive.Add(-1)
	c.signalLocked()
}

// acquireRunner gets the shared runner from the cache (building it and
// paying the golden run if cold), then (re)builds the per-class
// samplers. On a fresh campaign it also discovers the class set; on a
// resumed one the checkpointed classes must all still exist — the
// build is deterministic, so a mismatch is a corrupted checkpoint.
func (c *Campaign) acquireRunner() error {
	runner, err := c.srv.runnerFor(c.req, c.tool)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runnerRef = runner
	if len(c.classes) == 0 {
		for _, class := range faultinj.AdaptiveClasses(runner, c.tool) {
			c.classes = append(c.classes, &classProgress{class: class})
		}
		if len(c.classes) == 0 {
			return fmt.Errorf("serve: %s has no injectable instructions under %s",
				c.req.Code, c.tool)
		}
	}
	for _, cp := range c.classes {
		s, ok := faultinj.NewClassSampler(runner, c.tool, cp.class)
		if !ok {
			return fmt.Errorf("serve: campaign %s: class %s has no population (corrupt checkpoint?)",
				c.ID, cp.class)
		}
		cp.sampler = s
	}
	c.state = StateRunning
	c.signalLocked()
	return nil
}

// trialJob addresses one trial: class slot and deterministic index.
type trialJob struct {
	ci    int
	index uint64
	rec   kernels.TrialRecord
}

// scheduleRound fixes the next round's trial set: for every class that
// has not stopped, indices [trials, trials+batch), capped at MaxTrials.
// Callers hold c.mu; the schedule depends only on counts, which is what
// makes it — and everything downstream — worker-count-independent.
func (c *Campaign) scheduleRound() []*trialJob {
	var jobs []*trialJob
	for ci, cp := range c.classes {
		if cp.stopped {
			continue
		}
		end := cp.Injected + c.req.Batch
		if end > c.req.MaxTrials {
			end = c.req.MaxTrials
		}
		for i := cp.Injected; i < end; i++ {
			jobs = append(jobs, &trialJob{ci: ci, index: uint64(i)})
		}
		if end >= c.req.MaxTrials && cp.Injected >= c.req.MaxTrials {
			// Defensive: a class at cap should have been marked stopped
			// by settleRound already.
			cp.stopped, cp.capHit = true, true
		}
	}
	return jobs
}

// runRound executes the scheduled trials across at most Workers
// goroutines, each trial also holding a slot of the server's global
// simulation semaphore. The first infrastructure error aborts the
// campaign — a failed trial is not an outcome.
func (c *Campaign) runRound(jobs []*trialJob) error {
	c.mu.Lock()
	runner := c.runnerRef
	seed := c.req.Seed
	samplers := make([]*faultinj.ClassSampler, len(c.classes))
	for i, cp := range c.classes {
		samplers[i] = cp.sampler
	}
	c.mu.Unlock()

	return par.ForEach(len(jobs), c.req.Workers, func(i int) error {
		job := jobs[i]
		c.srv.simSem <- struct{}{}
		defer func() { <-c.srv.simSem }()
		plan, launch := samplers[job.ci].Plan(seed, job.index)
		rec, err := runner.RunTrialWithFault(plan, launch)
		if err != nil {
			return fmt.Errorf("serve: campaign %s trial %d: %w", c.ID, job.index, err)
		}
		job.rec = rec
		c.srv.metrics.TrialDone()
		return nil
	})
}

// settleRound folds the round's outcomes into the class tallies and
// re-evaluates the stop rule. Callers hold c.mu.
func (c *Campaign) settleRound(jobs []*trialJob) {
	var geo *kernels.OutputRegion
	if c.runnerRef != nil {
		geo = c.runnerRef.Instance().Output
	}
	for _, job := range jobs {
		c.classes[job.ci].Count(patterns.Observe(job.rec, geo))
	}
	for _, cp := range c.classes {
		if cp.stopped {
			continue
		}
		if cp.Injected >= c.req.MinTrials {
			sdcW := stats.Wilson(cp.SDC, cp.Injected).Width()
			dueW := stats.Wilson(cp.DUE, cp.Injected).Width()
			if sdcW <= c.req.TargetWidth && dueW <= c.req.TargetWidth {
				cp.stopped = true
				continue
			}
		}
		if cp.Injected >= c.req.MaxTrials {
			cp.stopped, cp.capHit = true, true
		}
	}
}

func (c *Campaign) fail(err error) {
	c.mu.Lock()
	c.elapsed += time.Since(c.started)
	c.state = StateFailed
	c.errMsg = err.Error()
	c.runnerRef = nil
	c.finishLocked(&c.srv.metrics.campaignsFailed)
	c.mu.Unlock()
	c.srv.logf("campaign %s failed: %v", c.ID, err)
}
