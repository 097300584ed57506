package main

import (
	"fmt"
	"slices"
	"time"

	"videopipe/internal/core"
	"videopipe/internal/experiments"
	"videopipe/internal/metrics"
	"videopipe/internal/script"
	"videopipe/internal/services"
)

// ledgerServices are the services whose per-layer rows are printed on
// every workload; a workload that never calls one reports zeros.
var ledgerServices = []string{
	services.PoseDetector,
	services.ActivityClassifier,
	services.RepCounter,
	services.Display,
}

// layerInputs is everything the per-layer metrics are derived from: the
// traced phase, its deployment and spans, the untraced phase it is
// compared with, and the set-up timings of the traced run.
type layerInputs struct {
	traced, untraced phase
	d                *deployment
	tr               *tracer
	launches         []time.Duration
	sc               experiments.FloodScenario
}

// layerMetrics computes the per-layer metrics of a traced run. Each value
// is tagged in NOTES.md as real host work or modelled time.
func layerMetrics(in layerInputs) (map[string]float64, error) {
	ph, d, tr := in.traced, in.d, in.tr
	if ph.completed == 0 || in.untraced.completed == 0 {
		return nil, fmt.Errorf("traced run completed no frames")
	}
	frames := float64(ph.completed)
	reg := d.cluster.Metrics()
	m := map[string]float64{}

	// core: admission and launch.
	offers := tr.stats("core.offer")
	m["core.offer_us"] = float64(quantile(offers.durs, 0.5)) / float64(time.Microsecond)
	m["core.shed_ratio"] = float64(ph.shed) / float64(ph.offered)
	m["core.launch_ms"] = ms(meanOf(in.launches))

	// device: the module event loop, summed along each frame's chain.
	var handle time.Duration
	for _, h := range d.moduleHistograms("module.", ".handle") {
		handle += h.Mean() * time.Duration(h.Count())
	}
	var encodePush time.Duration
	var pushes uint64
	for _, h := range d.moduleHistograms("module.", ".encode") {
		encodePush += h.Mean() * time.Duration(h.Count())
		pushes += h.Count()
	}
	m["device.handle_ms_per_frame"] = ms(handle) / frames
	m["device.events_per_frame"] = float64(d.sumMeters("module.", ".events")) / frames
	m["device.abandoned"] = float64(ph.abandoned)
	m["device.errors"] = float64(ph.moduleErrors + ph.decodeErrors)

	// services: real handler time, padding up to Cost, and pool waits.
	for _, svc := range ledgerServices {
		for _, k := range []string{"compute_ms", "pad_ms", "queue_wait_p50_ms", "queue_wait_p95_ms", "calls_per_batch"} {
			m["services."+svc+"."+k] = 0
		}
	}
	var callTime, padTotal time.Duration
	var rpcCalls uint64
	var rpcOverhead time.Duration
	for _, svc := range d.cluster.ServiceNames() {
		var remote *metrics.Histogram
		for _, where := range []string{"local", "remote"} {
			h := reg.Histogram("service." + svc + "." + where)
			callTime += h.Mean() * time.Duration(h.Count())
			if where == "remote" {
				remote = h
			}
		}
		pool, err := d.cluster.Pool(svc)
		if err != nil {
			return nil, err
		}
		nominal, err := nominalCost(d.cluster, svc, pool)
		if err != nil {
			return nil, err
		}
		wait := pool.WaitStats()
		st := d.rec.stats[svc]
		var compute, pad time.Duration
		if n := st.calls.Load(); n > 0 {
			compute = time.Duration(st.compute.Load() / int64(n))
			pad = max(0, nominal-compute)
			padTotal += pad * time.Duration(n)
		}
		if n := remote.Count(); n > 0 {
			// The server's pool holds a call for its nominal cost plus the
			// wait it observed; the rest of the remote call is wire work.
			rpcOverhead += remote.Mean()*time.Duration(n) - (nominal+wait.Mean)*time.Duration(n)
			rpcCalls += n
		}
		if !slices.Contains(ledgerServices, svc) {
			continue
		}
		batches := float64(pool.Batches())
		perBatch := 0.0
		switch {
		case batches > 0:
			perBatch = float64(pool.BatchedRequests()) / batches
		case st.calls.Load() > 0:
			perBatch = 1 // batching is off: every call is its own batch
		}
		m["services."+svc+".compute_ms"] = ms(compute)
		m["services."+svc+".pad_ms"] = ms(pad)
		m["services."+svc+".queue_wait_p50_ms"] = ms(wait.P50)
		m["services."+svc+".queue_wait_p95_ms"] = ms(wait.P95)
		m["services."+svc+".calls_per_batch"] = perBatch
	}

	// script: interpreter work along the chain.
	m["script.instructions_per_frame"] = float64(d.sumMeters("script.", ".instructions")) / frames
	m["script.self_ms_per_frame"] = ms(handle-callTime-encodePush) / frames
	cfg := in.sc.Pipeline("probe", 0)
	load, err := probeLoad(cfg)
	if err != nil {
		return nil, err
	}
	m["script.load_ms"] = ms(load)
	heavy := heaviestModule(d)
	ev, err := probeEvent(cfg, heavy, d.rec.samplePose())
	if err != nil {
		return nil, err
	}
	m["script.event_us"] = float64(ev) / float64(time.Microsecond)

	// frame: codec work seen by the timing codec, and the buffer pool.
	enc, dec := tr.stats("frame.encode"), tr.stats("frame.decode")
	m["frame.encodes_per_frame"] = float64(enc.n) / frames
	m["frame.decodes_per_frame"] = float64(dec.n) / frames
	m["frame.encode_ms"] = enc.meanMS()
	m["frame.decode_ms"] = dec.meanMS()
	m["frame.encoded_kb_per_frame"] = float64(enc.bytes) / 1024 / frames
	if total := ph.poolHits + ph.poolMisses; total > 0 {
		m["frame.pool_hit_ratio"] = float64(ph.poolHits) / float64(total)
	} else {
		m["frame.pool_hit_ratio"] = 0
	}

	// netsim: modelled transit. Every link in these clusters uses the
	// default profile; a message pays propagation, mean jitter and the
	// expected loss penalty, and its bytes pay serialization.
	link := d.cluster.Network().Profile("phone", "desktop")
	perMsg := link.Latency + link.Jitter/2 + time.Duration(link.Loss*float64(link.RTT()))
	perByte := 0.0
	if link.Bandwidth > 0 {
		perByte = float64(time.Second) / float64(link.Bandwidth)
	}
	var encBytes float64
	if enc.n > 0 {
		encBytes = float64(enc.bytes) / float64(enc.n)
	}
	pushBytes := float64(pushes) * encBytes
	pushTransit := time.Duration(pushes)*perMsg + time.Duration(pushBytes*perByte)
	rpcTransit := time.Duration(2*rpcCalls)*perMsg + time.Duration(max(0, float64(ph.wireBytes)-pushBytes)*perByte)
	m["netsim.transit_ms_per_frame"] = ms(pushTransit+rpcTransit) / frames

	// wire: bytes copied into sockets, and the RPC layer's own time: a
	// remote call less the server pool's time and the modelled transit
	// of its request and reply.
	m["wire.copied_kb_per_frame"] = float64(ph.wireBytes) / 1024 / frames
	m["wire.rpc_overhead_ms"] = 0
	if rpcCalls > 0 {
		m["wire.rpc_overhead_ms"] = ms(rpcOverhead-rpcTransit) / float64(rpcCalls)
	}
	m["wire.rpc_timeouts"] = float64(ph.timeout)

	// Ledger. A frame's blocking chain is its modules' handle time (which
	// already holds service calls, RPC transit and push encodes with their
	// device media padding), plus the transit and receive-side decode, real
	// and padded, of each push between devices. Modelled time is transit,
	// service padding up to Cost, and codec media padding.
	e2eMean := ms(meanOf(ph.e2e))
	pushDecodes := min(uint64(dec.n), pushes)
	var decodePad time.Duration
	if dec.n > 0 {
		decodePad = dec.pad * time.Duration(pushDecodes) / time.Duration(dec.n)
	}
	accounted := ms(handle)/frames + (ms(pushTransit+decodePad)+float64(pushDecodes)*dec.meanMS())/frames
	modelled := ms(pushTransit+rpcTransit+padTotal+enc.pad+decodePad) / frames
	m["modelled_share"] = modelled / e2eMean
	m["unaccounted_share"] = 1 - accounted/e2eMean
	untracedCPU := ms(in.untraced.cpu) / float64(in.untraced.completed)
	m["trace_overhead"] = (ms(ph.cpu)/frames)/untracedCPU - 1
	return m, nil
}

// nominalCost is the service's Cost scaled to its host's CPU factor: the
// time a call holds the pool when it does not wait.
func nominalCost(c *core.Cluster, svc string, pool *services.Pool) (time.Duration, error) {
	host, _ := c.ServiceHost(svc)
	dev, ok := c.Device(host)
	if !ok {
		return 0, fmt.Errorf("service %q has no host", svc)
	}
	return time.Duration(float64(pool.Spec().Cost) / dev.CPUFactor()), nil
}

// heaviestModule is the module with the most interpreter instructions per
// event in the traced run.
func heaviestModule(d *deployment) string {
	reg := d.cluster.Metrics()
	best, bestPer := "", -1.0
	p := d.pipes[0]
	for _, mod := range p.Modules() {
		key := p.Name() + "." + mod
		events := reg.Meter("module." + key + ".events").Count()
		if events == 0 {
			continue
		}
		per := float64(reg.Meter("script."+key+".instructions").Count()) / float64(events)
		if per > bestPer {
			best, bestPer = mod, per
		}
	}
	return best
}

// probeReps is how many times each interpreter probe repeats; the probes
// report the median repetition.
const probeReps = 21

// probeLoad times NewContext plus Load of every module source of one
// pipeline, the interpreter's share of Launch.
func probeLoad(cfg core.PipelineConfig) (time.Duration, error) {
	times := make([]time.Duration, probeReps)
	for r := range times {
		start := time.Now()
		for _, mc := range cfg.Modules {
			if err := script.NewContext().Load(mc.Source); err != nil {
				return 0, fmt.Errorf("load %s: %w", mc.Name, err)
			}
		}
		times[r] = time.Since(start)
	}
	return medianOf(times), nil
}

// probeEvents is how many event_received calls one probe repetition
// times, after as many warm-up calls (which also fill sliding windows).
const probeEvents = 50

// probeEvent times Context.Call("event_received") on one module with the
// host functions stubbed, so only the interpreter runs. The message and
// the stubbed service reply carry every field the workload's scripts read.
func probeEvent(cfg core.PipelineConfig, module string, pose map[string]any) (time.Duration, error) {
	mc, ok := cfg.Module(module)
	if !ok {
		return 0, fmt.Errorf("probe: no module %q", module)
	}
	ctx := script.NewContext()
	none := func([]script.Value) (script.Value, error) { return nil, nil }
	for _, name := range []string{"call_module", "frame_done", "log", "metric"} {
		ctx.Bind(name, none)
	}
	ctx.Bind("now_ms", func([]script.Value) (script.Value, error) {
		return float64(time.Now().UnixNano()) / 1e6, nil
	})
	ctx.Bind("device_name", func([]script.Value) (script.Value, error) { return "probe", nil })
	reply := map[string]any{
		"found": true, "pose": pose, "activity": "squat", "confidence": 0.9,
		"actionable": true, "state": "", "reps": 0.0,
	}
	ctx.Bind("call_service", func([]script.Value) (script.Value, error) { return script.FromGo(reply), nil })
	if err := ctx.Load(mc.Source); err != nil {
		return 0, fmt.Errorf("probe: load %s: %w", module, err)
	}
	if ctx.Has("init") {
		if _, err := ctx.Call("init"); err != nil {
			return 0, fmt.Errorf("probe: init %s: %w", module, err)
		}
	}
	msg := map[string]any{
		"frame_ref": 1.0, "seq": 1.0, "captured_ms": float64(time.Now().UnixNano()) / 1e6,
		"pose": pose, "activity": "squat", "confidence": 0.9, "reps": 0.0,
	}
	call := func() error {
		_, err := ctx.Call("event_received", script.FromGo(msg))
		return err
	}
	for i := 0; i < probeEvents; i++ {
		if err := call(); err != nil {
			return 0, fmt.Errorf("probe: %s: %w", module, err)
		}
	}
	times := make([]time.Duration, probeReps)
	for r := range times {
		start := time.Now()
		for i := 0; i < probeEvents; i++ {
			if err := call(); err != nil {
				return 0, fmt.Errorf("probe: %s: %w", module, err)
			}
		}
		times[r] = time.Since(start) / probeEvents
	}
	return medianOf(times), nil
}
