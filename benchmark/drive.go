package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"videopipe/internal/core"
	"videopipe/internal/experiments"
	"videopipe/internal/frame"
	"videopipe/internal/metrics"
	"videopipe/internal/wire"
)

// cycleLen is how many template frames each pipeline cycles through. The
// templates span one two-second rep of the scene, so pose-bearing scenes
// show motion; rendering them is harness work and is not timed.
const cycleLen = 16

// startLead places a phase's start instant slightly in the future, so
// offset-zero arrivals are not already late when injection begins.
const startLead = 20 * time.Millisecond

// drainTimeout bounds the wait for in-flight frames after the last
// arrival; drainStable ends it early once nothing has moved for that long.
const (
	drainTimeout = 5 * time.Second
	drainStable  = time.Second
)

// renderTemplates renders each pipeline's template cycle with the
// renderer its own source would use.
func renderTemplates(sc experiments.FloodScenario) ([][]*frame.Frame, error) {
	out := make([][]*frame.Frame, pipelines)
	for i := range out {
		render, err := core.SourceRenderer(sc.Pipeline(laneName(i), i).Source)
		if err != nil {
			releaseTemplates(out)
			return nil, err
		}
		for k := 0; k < cycleLen; k++ {
			f, err := render(uint64(k), 2*time.Second*time.Duration(k)/cycleLen)
			if err != nil {
				releaseTemplates(out)
				return nil, err
			}
			out[i] = append(out[i], f)
		}
	}
	return out, nil
}

func releaseTemplates(t [][]*frame.Frame) {
	for _, lane := range t {
		for _, f := range lane {
			f.Release()
		}
	}
}

func laneName(i int) string { return fmt.Sprintf("p%d", i) }

// deployment is one timed set-up: a registry, a cluster and every
// pipeline launched with its credits primed.
type deployment struct {
	cluster  *core.Cluster
	pipes    []*core.Pipeline
	rec      *recorder
	setup    time.Duration
	launches []time.Duration
}

// deploy performs the workload's set-up, timed from the registry build to
// the last PrimeCredits. A non-nil tracer installs the timing codec on
// every device.
func deploy(w workload, sc experiments.FloodScenario, planner core.Planner, tr *tracer) (*deployment, error) {
	start := time.Now()
	reg, rec, err := buildRegistry(sc, w.scene, tr)
	if err != nil {
		return nil, err
	}
	cluster, err := core.NewCluster(sc.Spec, reg)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if tr != nil {
		// Device.SetCodec is the per-device form of Cluster.SetCodec; each
		// device's timing codec knows the media factor it is padded by.
		for _, dc := range sc.Spec.Devices {
			if dev, ok := cluster.Device(dc.Name); ok {
				dev.SetCodec(newTimingCodec(tr, mediaFactor(dc)))
			}
		}
	}
	d := &deployment{cluster: cluster, rec: rec}
	for i := 0; i < pipelines; i++ {
		t0 := time.Now()
		p, err := cluster.Launch(sc.Pipeline(laneName(i), i), planner)
		if err != nil {
			cluster.Close()
			return nil, fmt.Errorf("launch pipeline %d: %w", i, err)
		}
		d.launches = append(d.launches, time.Since(t0))
		p.PrimeCredits()
		d.pipes = append(d.pipes, p)
	}
	d.setup = time.Since(start)
	return d, nil
}

func (d *deployment) close() { d.cluster.Close() }

// sumMeters adds one per-module meter over every module of every pipeline.
func (d *deployment) sumMeters(prefix, suffix string) uint64 {
	reg := d.cluster.Metrics()
	var n uint64
	for _, p := range d.pipes {
		for _, mod := range p.Modules() {
			key := p.Name() + "." + mod
			//vpvet:allow metername prefix and suffix are the module meters named at each call site
			n += reg.Meter(prefix + key + suffix).Count()
		}
	}
	return n
}

// moduleHistograms returns one per-module histogram of every module of
// every pipeline.
func (d *deployment) moduleHistograms(prefix, suffix string) []*metrics.Histogram {
	reg := d.cluster.Metrics()
	var out []*metrics.Histogram
	for _, p := range d.pipes {
		for _, mod := range p.Modules() {
			key := p.Name() + "." + mod
			//vpvet:allow metername prefix and suffix are the module histograms named at each call site
			out = append(out, reg.Histogram(prefix+key+suffix))
		}
	}
	return out
}

func (d *deployment) completed() uint64 { return d.sumMeters("pipeline.", ".frames_done") }
func (d *deployment) abandoned() uint64 { return d.sumMeters("module.", ".abandoned") }

// phase is what one open-loop phase measured.
type phase struct {
	name    string
	horizon time.Duration
	offered int
	shed    int
	// completed, abandoned and the error counters are read after drain.
	completed, abandoned                uint64
	moduleErrors, decodeErrors, timeout uint64
	// e2e holds every completed frame's latency from its due instant,
	// sorted ascending.
	e2e []time.Duration
	// cpu and alloc cover injection through drain.
	cpu   time.Duration
	alloc uint64
	// late is the injector's worst lateness behind schedule.
	late time.Duration
	// poolHits and poolMisses are the frame pool's deltas.
	poolHits, poolMisses uint64
	// wireBytes is the wire layer's copied-bytes delta.
	wireBytes uint64
}

// runPhase offers every arrival at its due instant from one injector
// goroutine, then drains. Each frame carries its due instant as Captured,
// so a stall anywhere is charged to the system, and a unique Seq, so
// spans of one frame share an identifier.
func runPhase(name string, d *deployment, templates [][]*frame.Frame, arrivals []arrival, horizon time.Duration, tr *tracer, seq *uint64) phase {
	ph := phase{name: name, horizon: horizon, offered: len(arrivals)}
	runtime.GC()
	cpu0 := cpuTime()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	hits0, misses0 := frame.PoolStats()
	wire0 := wire.BytesCopied()

	start := time.Now().Add(startLead)
	for _, a := range arrivals {
		due := start.Add(a.due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lane := templates[a.lane]
		f := lane[a.k%len(lane)].Clone()
		*seq++
		id := *seq
		f.Seq = id
		f.Captured = due
		d.rec.adm.expect(id, a.lane, a.k)
		t0 := time.Now()
		ok := d.pipes[a.lane].Offer(f)
		tr.add("core.offer", t0, time.Now(), id, 0, 0)
		if ok {
			d.rec.adm.admit(a.lane, a.k)
		} else {
			ph.shed++
		}
		if late := time.Since(due); late > ph.late {
			ph.late = late
		}
	}

	admitted := uint64(ph.offered - ph.shed)
	deadline := time.Now().Add(drainTimeout)
	last, since := d.completed()+d.abandoned(), time.Now()
	for last < admitted && time.Now().Before(deadline) && time.Since(since) < drainStable {
		time.Sleep(10 * time.Millisecond)
		if cur := d.completed() + d.abandoned(); cur != last {
			last, since = cur, time.Now()
		}
	}

	ph.cpu = cpuTime() - cpu0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	ph.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	hits1, misses1 := frame.PoolStats()
	ph.poolHits, ph.poolMisses = hits1-hits0, misses1-misses0
	ph.wireBytes = wire.BytesCopied() - wire0

	ph.completed = d.completed()
	ph.abandoned = d.abandoned()
	ph.moduleErrors = d.sumMeters("module.", ".errors")
	ph.decodeErrors = d.sumMeters("module.", ".decode_errors")
	ph.timeout = d.cluster.Metrics().Meter("rpc.timeouts").Count()
	for _, h := range d.moduleHistograms("pipeline.", ".e2e") {
		ph.e2e = append(ph.e2e, h.Samples()...)
	}
	sort.Slice(ph.e2e, func(i, j int) bool { return ph.e2e[i] < ph.e2e[j] })
	return ph
}

// quantile returns the q-quantile of sorted samples (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// within counts the samples at or below limit.
func within(sorted []time.Duration, limit time.Duration) int {
	return sort.Search(len(sorted), func(i int) bool { return sorted[i] > limit })
}

func meanOf(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func medianOf(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set in bytes (Linux reports
// ru_maxrss in KiB).
func peakRSS() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss) * 1024
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// check is the output check of one run: every failed frame or call is
// counted against the frames attempted.
type check struct {
	attempted int
	failed    uint64
	problems  []string
	// windows counts activity labels asserted against the scene.
	windows uint64
}

func (c *check) fail(n uint64, format string, args ...any) {
	if n == 0 {
		return
	}
	c.failed += n
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// phase checks frame conservation after drain, offered = shed + completed
// + abandoned, and that no module, decode or RPC error occurred. An
// abandoned frame is a lost frame and fails too.
func (c *check) phase(ph phase) {
	c.attempted += ph.offered
	accounted := uint64(ph.shed) + ph.completed + ph.abandoned
	if offered := uint64(ph.offered); accounted != offered {
		diff := offered - accounted
		if accounted > offered {
			diff = accounted - offered
		}
		c.fail(diff, "%s: conservation: offered %d != shed %d + completed %d + abandoned %d",
			ph.name, ph.offered, ph.shed, ph.completed, ph.abandoned)
	}
	c.fail(ph.abandoned, "%s: %d frames abandoned", ph.name, ph.abandoned)
	c.fail(ph.moduleErrors, "%s: %d module errors", ph.name, ph.moduleErrors)
	c.fail(ph.decodeErrors, "%s: %d decode errors", ph.name, ph.decodeErrors)
	c.fail(ph.timeout, "%s: %d rpc timeouts", ph.name, ph.timeout)
}

// services checks the wrapped vision handlers of one deployment.
func (c *check) services(name string, rec *recorder) {
	c.windows += rec.windows.Load()
	svcs := make([]string, 0, len(rec.stats))
	for s := range rec.stats {
		svcs = append(svcs, s)
	}
	sort.Strings(svcs)
	for _, s := range svcs {
		st := rec.stats[s]
		c.fail(st.errors.Load(), "%s: %s: %d handler errors", name, s, st.errors.Load())
		c.fail(st.bad.Load(), "%s: %s: %d wrong results of %d", name, s, st.bad.Load(), st.calls.Load())
	}
}
