package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/serve"
	"gpurel/internal/stats"
	"gpurel/internal/suite"
)

// serveCacheBytes is the daemon's runner-cache budget: about half the
// mix's runner working set (kernels.runner_mb of a traced serve run),
// so the cold tail evicts and rebuilds runners while the hot set mostly
// hits.
const serveCacheBytes = 75 << 20

// Mix shape. The multiset of requests is fixed, so a run's total work
// barely moves with the seed: hot pair k (a cross-validation kernel
// under NVBitFI, in suite order) gets a Zipf share 1/(k+1) of serveHot
// requests, every cold pair (FYOLOV3 and DGEMM among them) gets one,
// and every hot pair gets one exact duplicate whose counts must match
// its original's. The seed draws the order, the campaign seeds, and
// which requests pause after their first round and resume.
const (
	serveHot      = 180
	servePauseOne = 8 // every 8th request in the drawn order pauses
	serveWidth    = 0.25
	serveBatch    = 16
)

var serveScale = fmt.Sprintf("closed loop of nproc clients over %d campaigns (NVBitFI on every injectable pair + SASSIFI on Kepler), width %.2f, cache %d MB",
	len(serveMixFor(1, false)), serveWidth, serveCacheBytes>>20)

// serveReq is one request of the mix.
type serveReq struct {
	req   serve.Request
	dupOf int  // position of the request this one repeats (-1: none)
	pause bool // pause after the first round, then resume
}

// servePairs lists the (code, device, tool) triples the daemon can
// run: NVBitFI on every injectable pair, SASSIFI on Kepler. hot marks
// the cross-validation kernels under NVBitFI.
func servePairs() (hot, cold []serve.Request) {
	for _, dev := range []*device.Device{device.K40c(), device.V100()} {
		tag := devTag(dev)
		for _, tool := range []faultinj.Tool{faultinj.NVBitFI, faultinj.Sassifi} {
			if tool == faultinj.Sassifi && dev.Arch != device.Kepler {
				continue
			}
			for _, e := range suite.ForDevice(dev) {
				if !injectable(dev, tool, e) {
					continue
				}
				r := serve.Request{Code: e.Name, Device: tag, Tool: strings.ToLower(tool.String()),
					TargetWidth: serveWidth, Batch: serveBatch}
				if tool == faultinj.NVBitFI && matrixKernel(e.Name) {
					hot = append(hot, r)
				} else {
					cold = append(cold, r)
				}
			}
		}
	}
	return hot, cold
}

// zipfCounts splits total into n counts proportional to 1/(k+1), by
// largest remainder.
func zipfCounts(total, n int) []int {
	var h float64
	for k := 0; k < n; k++ {
		h += 1 / float64(k+1)
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	left := total
	for k := range counts {
		q := float64(total) / float64(k+1) / h
		counts[k] = int(q)
		rem[k] = q - float64(counts[k])
		left -= counts[k]
	}
	for ; left > 0; left-- {
		best := 0
		for k := range rem {
			if rem[k] > rem[best] {
				best = k
			}
		}
		counts[best]++
		rem[best] = -1
	}
	return counts
}

// serveMixFor builds the mix for a seed. The probe-sized mix requests
// each hot pair once, plus its duplicate.
func serveMixFor(seed uint64, probe bool) []serveReq {
	rng := stats.NewRNG(seed, 0x5e7e)
	hot, cold := servePairs()
	counts := zipfCounts(serveHot, len(hot))
	if probe {
		cold = nil
		for k := range counts {
			counts[k] = 1
		}
	}
	type item struct {
		req  serve.Request
		orig int // item index of the request this one repeats (-1: none)
	}
	var items []item
	for k, h := range hot {
		first := len(items)
		for i := 0; i < counts[k]; i++ {
			h.Seed = rng.Uint64() >> 1
			items = append(items, item{h, -1})
		}
		items = append(items, item{items[first].req, first})
	}
	for _, c := range cold {
		c.Seed = rng.Uint64() >> 1
		items = append(items, item{c, -1})
	}
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	shuffle(rng, order)
	pos := make([]int, len(items))
	for p, i := range order {
		pos[i] = p
	}
	mix := make([]serveReq, len(items))
	for p, i := range order {
		mix[p] = serveReq{req: items[i].req, dupOf: -1, pause: p%servePauseOne == servePauseOne-1}
		if o := items[i].orig; o >= 0 {
			mix[p].dupOf = pos[o]
		}
	}
	return mix
}

// daemon is a serve.Server behind a loopback listener.
type daemon struct {
	http   *http.Server
	base   string
	client *http.Client
	spool  string
	done   chan error
}

func setupServe(seed uint64) error {
	d, err := startDaemon()
	if err != nil {
		return err
	}
	return d.stop()
}

// startDaemon is the serve workload's set-up: serve.New, the listener,
// and a warm-up pass that opens one connection per client.
func startDaemon() (*daemon, error) {
	spool, err := os.MkdirTemp(mustMkdir(buildDir), "spool-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{SimWorkers: runtime.NumCPU(), CacheBytes: serveCacheBytes, SpoolDir: spool})
	if err != nil {
		os.RemoveAll(spool)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(spool)
		return nil, err
	}
	d := &daemon{
		http:   &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * runtime.NumCPU()}},
		spool:  spool,
		done:   make(chan error, 1),
	}
	go func() { d.done <- d.http.Serve(ln) }()
	var wg sync.WaitGroup
	errs := make([]error, runtime.NumCPU())
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = d.get("/healthz")
		}(i)
	}
	wg.Wait()
	if _, err := d.get("/metrics"); err != nil {
		errs = append(errs, err)
	}
	for _, err := range errs {
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("serve warm-up: %w", err)
		}
	}
	return d, nil
}

// stop shuts the listener down, waits for the serving goroutine, and
// removes the spool.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	os.RemoveAll(d.spool)
	return err
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, err
}

func (d *daemon) post(path string, body []byte) (serve.Status, error) {
	var st serve.Status
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("POST %s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))
	}
	return st, json.Unmarshal(data, &st)
}

// campaignRun is what a client observed of one campaign.
type campaignRun struct {
	status     serve.Status
	counts     []byte
	create     time.Duration // POST /campaigns
	building   time.Duration // create until first running
	checkpoint time.Duration // pause until paused, plus resume until running
	total      time.Duration // create until a terminal state
	countsLat  time.Duration // GET counts
	err        error
}

// drive runs one campaign: create it, follow its event stream to a
// terminal state (pausing and resuming it on the way when asked), and
// fetch its counts.
func (d *daemon) drive(tr *tracer, sr serveReq, i int) *campaignRun {
	run := &campaignRun{}
	body, err := json.Marshal(sr.req)
	if err != nil {
		run.err = err
		return run
	}
	trace := fmt.Sprintf("serve/campaign-%03d", i)
	root := tr.begin(0, trace, "bench.campaign")
	defer tr.end(root)
	t0 := time.Now()
	id := tr.begin(root, trace, "serve.create")
	st, err := d.post("/campaigns", body)
	tr.end(id)
	run.create = time.Since(t0)
	if err != nil {
		run.err = err
		return run
	}
	cid := st.ID

	resp, err := d.client.Get(d.base + "/campaigns/" + cid + "/stream")
	if err != nil {
		run.err = err
		return run
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	phase := tr.begin(root, trace, "serve.building")
	var tPause, tResume time.Time
	paused, resumed := false, false
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if err := json.Unmarshal([]byte(line), &st); err != nil {
			run.err = err
			return run
		}
		now := time.Now()
		switch {
		case st.State != serve.StateBuilding && run.building == 0:
			run.building = now.Sub(t0)
			tr.end(phase)
			phase = tr.begin(root, trace, "serve.running")
		case st.State == serve.StatePaused && !paused:
			paused = true
			run.checkpoint += now.Sub(tPause)
			tr.end(phase)
			phase = tr.begin(root, trace, "serve.resume")
			tResume = time.Now()
			if _, err := d.post("/campaigns/"+cid+"/resume", nil); err != nil {
				run.err = err
				return run
			}
		case st.State == serve.StateRunning && paused && !resumed:
			resumed = true
			run.checkpoint += now.Sub(tResume)
			tr.end(phase)
			phase = tr.begin(root, trace, "serve.running")
		}
		if sr.pause && tPause.IsZero() && st.State == serve.StateRunning && st.Trials > 0 {
			tr.end(phase)
			phase = tr.begin(root, trace, "serve.pause")
			tPause = time.Now()
			if _, err := d.post("/campaigns/"+cid+"/pause", nil); err != nil {
				// The campaign may have finished its last round before
				// the pause arrived; only a live campaign must accept it.
				var latest serve.Status
				if body, gerr := d.get("/campaigns/" + cid); gerr != nil || json.Unmarshal(body, &latest) != nil || !latest.Done() {
					run.err = err
					return run
				}
			}
		}
		if st.Done() {
			break
		}
	}
	tr.end(phase)
	if err := sc.Err(); err != nil {
		run.err = err
		return run
	}
	run.total = time.Since(t0)
	run.status = st
	if st.State != serve.StateDone {
		run.err = fmt.Errorf("campaign %s ended %s: %s", cid, st.State, st.Error)
		return run
	}
	t1 := time.Now()
	id = tr.begin(root, trace, "serve.counts")
	run.counts, run.err = d.get("/campaigns/" + cid + "/counts")
	tr.end(id)
	run.countsLat = time.Since(t1)
	return run
}

// serveMix drives the mix through a closed loop of nproc clients and
// returns each request's run and the time from the first request to
// the last terminal state.
func serveMix(tr *tracer, d *daemon, mix []serveReq) ([]*campaignRun, time.Duration) {
	runs := make([]*campaignRun, len(mix))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(mix) {
					return
				}
				runs[i] = d.drive(tr, mix[i], i)
			}
		}()
	}
	wg.Wait()
	return runs, time.Since(t0)
}

// checkServe counts failed campaigns, requires every duplicate's
// counts to match its original's byte for byte, and digests the counts.
func checkServe(mix []serveReq, runs []*campaignRun, out *outcome) {
	out.attempted += len(runs)
	var blobs [][]byte
	for i, r := range runs {
		if r.err != nil {
			out.fail("serve request %d (%s on %s): %v", i, mix[i].req.Code, mix[i].req.Device, r.err)
			continue
		}
		if o := mix[i].dupOf; o >= 0 && runs[o].err == nil && !bytes.Equal(r.counts, runs[o].counts) {
			out.problem("serve request %d repeats %d but its /counts differ", i, o)
		}
		blobs = append(blobs, r.counts)
	}
	out.digest = digest(blobs...)
}

func fixedServe(seed uint64, _ string) outcome {
	var out outcome
	d, err := startDaemon()
	if err != nil {
		out.attempted = 1
		out.fail("serve: %v", err)
		return out
	}
	mix := serveMixFor(seed, false)
	runs, wall := serveMix(nil, d, mix)
	out.wall = wall
	checkServe(mix, runs, &out)
	if text, err := d.get("/metrics"); err == nil {
		trials := 0
		for _, r := range runs {
			trials += r.status.Trials
		}
		fmt.Fprintf(stderr, "serve: %d campaigns, %d trials, cache hits %.0f misses %.0f evictions %.0f\n",
			len(runs), trials, promValue(text, "gpurel_runner_cache_hits"),
			promValue(text, "gpurel_runner_cache_misses"), promValue(text, "gpurel_runner_cache_evictions"))
	}
	if err := d.stop(); err != nil {
		out.problem("serve: stopping: %v", err)
	}
	return out
}

func walkServe(tr *tracer, seed uint64, _ string, probe bool) (metrics, outcome) {
	var out outcome
	mark := tr.mark()
	d, err := startDaemon()
	if err != nil {
		out.attempted = 1
		out.fail("serve: %v", err)
		return nil, out
	}
	mix := serveMixFor(seed, probe)
	runs, wall := serveMix(tr, d, mix)
	out.wall = wall
	checkServe(mix, runs, &out)
	metricsText, err := d.get("/metrics")
	if err != nil {
		out.problem("serve: /metrics: %v", err)
	}
	if err := d.stop(); err != nil {
		out.problem("serve: stopping: %v", err)
	}

	m := metrics{}
	var create, counts, building, total, ckpt []float64
	var trials, baseline int
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		create = append(create, r.create.Seconds())
		counts = append(counts, r.countsLat.Seconds())
		building = append(building, r.building.Seconds())
		total = append(total, r.total.Seconds())
		if r.checkpoint > 0 {
			ckpt = append(ckpt, r.checkpoint.Seconds())
		}
		trials += r.status.Trials
		baseline += r.status.BaselineTrials
	}
	pct := func(xs []float64, q float64) float64 { v, _ := percentile(xs, q); return v }
	m.set("serve.create_ms_p50", "ms", pct(create, 0.5)*1e3)
	m.set("serve.counts_ms_p50", "ms", pct(counts, 0.5)*1e3)
	m.set("serve.building_ms_p50", "ms", pct(building, 0.5)*1e3)
	m.set("serve.building_ms_p90", "ms", pct(building, 0.9)*1e3)
	m.set("serve.checkpoint_ms_p50", "ms", pct(ckpt, 0.5)*1e3)
	m.set("serve.campaign_p50_s", "s", pct(total, 0.5))
	m.set("serve.campaign_p90_s", "s", pct(total, 0.9))
	m.set("serve.trials_per_s", "1/s", float64(trials)/wall.Seconds())
	m.set("serve.trials_per_campaign", "count", float64(trials)/float64(max(1, len(total))))
	m.set("serve.savings_ratio", "ratio", float64(trials)/float64(max(1, baseline)))
	hits, misses, evictions := promValue(metricsText, "gpurel_runner_cache_hits"),
		promValue(metricsText, "gpurel_runner_cache_misses"), promValue(metricsText, "gpurel_runner_cache_evictions")
	m.set("serve.cache_hit_ratio", "ratio", hits/max(1, hits+misses))
	m.set("serve.cache_evictions", "count", evictions)

	// The daemon's golden runs and replays happen inside the server, out
	// of the tracer's reach: build the mix's runners here, traced, and
	// walk trials over them for the kernels, asm and sim metrics.
	var targets []replayTarget
	var tally runnerTally
	seen := map[string]bool{}
	for _, sr := range mix {
		key := sr.req.Code + "/" + sr.req.Device + "/" + sr.req.Tool
		if seen[key] {
			continue
		}
		seen[key] = true
		dev, tool, e, err := resolve(sr.req)
		if err != nil {
			out.problem("serve: %v", err)
			continue
		}
		tr.call(0, "serve/asm", "asm.Build", func(int) error {
			_, err := e.Build(dev, tool.OptLevel())
			return err
		})
		r, err := newRunner(tr, 0, "serve/runners", e.Name, e.Build, dev, tool.OptLevel())
		if err != nil {
			out.problem("serve: %v", err)
			continue
		}
		tally.add(r)
		targets = append(targets, replayTarget{r, tool})
	}
	for k, v := range replayWalk(tr, seed, targets, probe, &out) {
		m[k] = v
	}
	runnerMetrics(m, newSpanStats(tr.since(mark)), tally)
	m.set("kernels.runner_builds", "count", misses)
	return m, out
}

// shuffle permutes xs with the seeded generator (Fisher-Yates).
func shuffle[T any](rng *stats.RNG, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		k := rng.IntN(i + 1)
		xs[i], xs[k] = xs[k], xs[i]
	}
}

// resolve maps a request to its device, tool and suite entry.
func resolve(r serve.Request) (*device.Device, faultinj.Tool, suite.Entry, error) {
	dev := device.V100()
	if r.Device == "kepler" {
		dev = device.K40c()
	}
	tool := faultinj.NVBitFI
	if r.Tool == "sassifi" {
		tool = faultinj.Sassifi
	}
	e, err := suite.Find(suite.ForDevice(dev), r.Code)
	return dev, tool, e, err
}

// promValue reads one `name value` line of the /metrics text.
func promValue(text []byte, name string) float64 {
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return f
			}
		}
	}
	return 0
}
