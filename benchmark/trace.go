package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"videopipe/internal/device"
	"videopipe/internal/experiments"
	"videopipe/internal/frame"
	"videopipe/internal/services"
	"videopipe/internal/vision"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around it. Seq is the frame's sequence number, stamped before
// Offer and carried across hops by the codec; zero when the call carries
// no frame. Pad is the modelled time the device adds after a codec call
// (the span itself is the real work).
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Seq   uint64 `json:"seq"`
	Bytes int    `json:"bytes,omitempty"`
	Pad   int64  `json:"pad_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, start, end time.Time, seq uint64, bytes int, pad time.Duration) {
	if t == nil {
		return
	}
	s := span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Seq: seq, Bytes: bytes, Pad: int64(pad)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanStats summarises the spans of one name.
type spanStats struct {
	n     int
	total time.Duration
	pad   time.Duration
	bytes int64
	durs  []time.Duration
}

func (s spanStats) meanMS() float64 {
	if s.n == 0 {
		return 0
	}
	return ms(s.total) / float64(s.n)
}

func (t *tracer) stats(name string) spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var st spanStats
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		d := time.Duration(s.End - s.Start)
		st.n++
		st.total += d
		st.pad += time.Duration(s.Pad)
		st.bytes += int64(s.Bytes)
		st.durs = append(st.durs, d)
	}
	sort.Slice(st.durs, func(i, j int) bool { return st.durs[i] < st.durs[j] })
	return st
}

// write stores the spans as JSON lines, in start order.
func (t *tracer) write(path string) (err error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("spans: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// timingCodec is the devices' default transfer codec (JPEG at quality 85)
// with a span around every encode and decode. It implements
// frame.AppendEncoder so the module push path keeps its scratch-buffer
// encode. deploy installs one on every device, but each service server
// keeps the codec it was built with in NewCluster, so server-side RPC
// decode and encode are not seen here.
//
// The device wraps whatever codec it is given in its media padding, which
// stretches each call to 1/MediaFactor of its real time; padShare is that
// stretch minus one, so each span also carries the modelled time the
// device adds after it.
type timingCodec struct {
	inner    frame.JPEGCodec
	tr       *tracer
	padShare float64
}

var (
	_ frame.Codec         = timingCodec{}
	_ frame.AppendEncoder = timingCodec{}
)

func newTimingCodec(tr *tracer, mediaFactor float64) timingCodec {
	c := timingCodec{inner: frame.JPEGCodec{Quality: 85}, tr: tr}
	if mediaFactor > 0 && mediaFactor < 1 {
		c.padShare = 1/mediaFactor - 1
	}
	return c
}

// mediaFactor is a device's codec speed as device.New resolves it: the
// class default unless the config gives a profile, and the CPU factor when
// the profile gives no media factor.
func mediaFactor(dc device.Config) float64 {
	p := dc.Profile
	if p.CPUFactor == 0 {
		p = device.DefaultProfile(dc.Class)
	}
	if p.MediaFactor == 0 {
		return p.CPUFactor
	}
	return p.MediaFactor
}

// pad is the device padding that follows a codec call of real time d.
func (c timingCodec) pad(d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.padShare)
}

func (c timingCodec) Name() string { return c.inner.Name() }

func (c timingCodec) Encode(f *frame.Frame) ([]byte, error) { return c.AppendEncode(nil, f) }

func (c timingCodec) AppendEncode(dst []byte, f *frame.Frame) ([]byte, error) {
	start, n0 := time.Now(), len(dst)
	out, err := c.inner.AppendEncode(dst, f)
	end := time.Now()
	c.tr.add("frame.encode", start, end, f.Seq, len(out)-n0, c.pad(end.Sub(start)))
	return out, err
}

func (c timingCodec) Decode(data []byte) (*frame.Frame, error) {
	start := time.Now()
	f, err := c.inner.Decode(data)
	end := time.Now()
	var seq uint64
	if f != nil {
		seq = f.Seq
	}
	c.tr.add("frame.decode", start, end, seq, len(data), c.pad(end.Sub(start)))
	return f, err
}

// serviceStats counts one service's handler calls and the outcomes the
// output check rejects.
type serviceStats struct {
	calls   atomic.Uint64
	errors  atomic.Uint64
	bad     atomic.Uint64
	compute atomic.Int64 // nanoseconds inside the real handler
}

// admissions tracks, per pipeline, the run of consecutive arrivals it
// admitted, so the check knows which activity windows hold only
// consecutive frames of the scene.
type admissions struct {
	mu      sync.Mutex
	lastK   []int // last admitted arrival index per pipeline
	run     []int // consecutive admitted arrivals ending at lastK
	regular map[uint64]bool
}

func newAdmissions(lanes int) *admissions {
	a := &admissions{lastK: make([]int, lanes), run: make([]int, lanes), regular: make(map[uint64]bool)}
	for i := range a.lastK {
		a.lastK[i] = -2
	}
	return a
}

// expect records, before frame seq is offered as arrival k of lane,
// whether admitting it completes a window of consecutive arrivals.
func (a *admissions) expect(seq uint64, lane, k int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	run := 1
	if a.lastK[lane] == k-1 {
		run = a.run[lane] + 1
	}
	a.regular[seq] = run >= vision.WindowSize
}

// admit advances lane's run after arrival k was admitted.
func (a *admissions) admit(lane, k int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.lastK[lane] == k-1 {
		a.run[lane]++
	} else {
		a.run[lane] = 1
	}
	a.lastK[lane] = k
}

func (a *admissions) regularWindow(seq uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.regular[seq]
}

// recorder wraps every service handler of one deployment's registry: it
// times the real handler (the part of a call that is not padding up to
// the spec's Cost), checks the vision outputs, and keeps one real pose for
// the interpreter probe.
type recorder struct {
	scene string
	tr    *tracer
	stats map[string]*serviceStats // fixed at build time
	adm   *admissions
	// windows counts the activity labels checked against the scene.
	windows atomic.Uint64
	pose    atomic.Value // map[string]any
}

// buildRegistry builds the scenario's registry and re-registers every
// spec with its handler wrapped by a fresh recorder.
func buildRegistry(sc experiments.FloodScenario, scene string, tr *tracer) (*services.Registry, *recorder, error) {
	base, err := sc.Registry()
	if err != nil {
		return nil, nil, fmt.Errorf("registry: %w", err)
	}
	rec := &recorder{scene: scene, tr: tr, stats: make(map[string]*serviceStats), adm: newAdmissions(pipelines)}
	reg := services.NewRegistry()
	names := base.Names()
	sort.Strings(names)
	for _, name := range names {
		spec, err := base.Lookup(name)
		if err != nil {
			return nil, nil, err
		}
		st := &serviceStats{}
		rec.stats[name] = st
		spec.Handler = rec.wrap(name, st, spec.Handler)
		if err := reg.Register(spec); err != nil {
			return nil, nil, err
		}
	}
	return reg, rec, nil
}

func (r *recorder) wrap(name string, st *serviceStats, h services.Handler) services.Handler {
	spanName := "services." + name + ".compute"
	return func(ctx context.Context, req services.Request) (services.Response, error) {
		var seq uint64
		if req.Frame != nil {
			seq = req.Frame.Seq
		}
		start := time.Now()
		resp, err := h(ctx, req)
		end := time.Now()
		st.calls.Add(1)
		st.compute.Add(int64(end.Sub(start)))
		r.tr.add(spanName, start, end, seq, 0, 0)
		switch {
		case err != nil:
			st.errors.Add(1)
		case !r.valid(name, req, resp.Result):
			st.bad.Add(1)
		}
		return resp, err
	}
}

// valid is the output check on the vision services. The synthetic subject
// is always in frame, so pose detection must find it on every frame. The
// display call carries the activity label of the window ending at its
// frame; when that window holds consecutive arrivals of the scene, the
// label must be the scene. Windows with shed frames in them are sampled
// unevenly, unlike the classifier's training windows, so their label is
// not asserted (NOTES.md gives the measured error rate).
func (r *recorder) valid(name string, req services.Request, result map[string]any) bool {
	switch name {
	case services.PoseDetector:
		if found, _ := result["found"].(bool); !found {
			return false
		}
		if p, ok := result["pose"].(map[string]any); ok && r.pose.Load() == nil {
			r.pose.Store(p)
		}
	case services.Display:
		if r.scene == "" || req.Frame == nil || !r.adm.regularWindow(req.Frame.Seq) {
			return true
		}
		r.windows.Add(1)
		return req.Args["activity"] == r.scene
	}
	return true
}

// samplePose returns a pose some pose_detector call produced, or nil.
func (r *recorder) samplePose() map[string]any {
	p, _ := r.pose.Load().(map[string]any)
	return p
}
