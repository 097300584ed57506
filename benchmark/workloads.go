package main

import (
	"fmt"
	"sort"
	"time"

	"videopipe/internal/apps"
	"videopipe/internal/core"
	"videopipe/internal/experiments"
	"videopipe/internal/flood"
)

// pipelines is the fleet size of every workload.
const pipelines = 4

// steadyShare is the part of an untraced run spent at the steady rate; the
// rest runs at the overload rate.
const steadyShare = 0.8

// workload is one traffic mix the benchmark drives open-loop: a flood
// scenario, where its modules are placed, and the two offered rates it is
// measured at. NOTES.md records why each one was chosen.
type workload struct {
	name string
	mix  experiments.FloodMix
	// baseline swaps the scenario's cluster and planner for the paper's
	// remote-API baseline: every module on the phone, every service call
	// a wire request to the desktop.
	baseline bool
	// limit is the latency a steady-rate frame must meet to count as ok.
	limit time.Duration
	// process is the arrival process of both phases.
	process flood.Process
	// steadyRate and overloadRate are per-pipeline rates (eps).
	steadyRate, overloadRate float64
	// repeats splits the steady phase into that many runs on fresh
	// clusters; latency and CPU are the medians over them, so a burst of
	// host noise in one of them does not set the result.
	repeats int
	// scene is the activity the classifier must report on every window;
	// empty for a workload without services.
	scene string
}

var workloads = []workload{
	{
		name:         "scripted",
		mix:          experiments.MixScripted,
		limit:        100 * time.Millisecond,
		process:      flood.Uniform,
		steadyRate:   6,
		overloadRate: 50,
		repeats:      3,
	},
	{
		name:         "pose",
		mix:          experiments.MixPose,
		limit:        400 * time.Millisecond,
		process:      flood.Poisson,
		steadyRate:   2.5,
		overloadRate: 12,
		repeats:      1,
		scene:        "squat",
	},
	{
		name:         "remote",
		mix:          experiments.MixPose,
		baseline:     true,
		limit:        400 * time.Millisecond,
		process:      flood.Uniform,
		steadyRate:   2.5,
		overloadRate: 10,
		repeats:      1,
		scene:        "squat",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// scenario resolves the workload's flood scenario and planner; a nil
// planner selects the cluster default (co-location).
func (w workload) scenario() (experiments.FloodScenario, core.Planner, error) {
	sc, err := experiments.FloodScenarioFor(w.mix)
	if err != nil {
		return experiments.FloodScenario{}, nil, err
	}
	if w.baseline {
		sc.Spec = apps.BaselineClusterSpec()
		return sc, core.BaselinePlanner{}, nil
	}
	return sc, nil, nil
}

// arrival is one scheduled frame: when it is due, which pipeline it
// enters, and its index in that pipeline's schedule.
type arrival struct {
	due  time.Duration
	lane int
	k    int
}

// schedule draws every pipeline's arrivals for one phase and merges them
// into the single stream the injector walks. Phase p of a run draws with
// pipeline seeds p*pipelines .. p*pipelines+pipelines-1, so the steady and
// overload phases never replay each other's arrivals.
//
// Poisson pipelines draw independently. Uniform pipelines are cameras at
// one frame rate, evenly staggered: pipeline i replays the first
// pipeline's schedule shifted by i/pipelines of a frame interval. With an
// independent random phase each, how closely two cameras happened to fire
// together set the scripted p95 (24 ms for seeds whose phases were at
// least 23 ms apart, 31-38 ms for seeds with two phases under 10 ms apart).
func schedule(process flood.Process, rate float64, horizon time.Duration, seed int64, phase int) ([]flood.Schedule, []arrival, error) {
	lanes := make([]flood.Schedule, pipelines)
	var merged []arrival
	for i := range lanes {
		lane := i
		if process == flood.Uniform {
			lane = 0
		}
		s, err := flood.Generate(process, rate, horizon, flood.PipelineSeed(seed, phase*pipelines+lane))
		if err != nil {
			return nil, nil, err
		}
		if lane != i {
			shift := time.Duration(float64(time.Second) / rate * float64(i) / pipelines)
			offsets := s.Offsets
			s.Offsets = nil
			for _, off := range offsets {
				if off+shift < horizon {
					s.Offsets = append(s.Offsets, off+shift)
				}
			}
		}
		lanes[i] = s
		for k, off := range s.Offsets {
			merged = append(merged, arrival{due: off, lane: i, k: k})
		}
	}
	sort.SliceStable(merged, func(a, b int) bool { return merged[a].due < merged[b].due })
	return lanes, merged, nil
}
