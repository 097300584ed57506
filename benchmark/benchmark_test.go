package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"videopipe/internal/device"
	"videopipe/internal/flood"
	"videopipe/internal/frame"
)

// fingerprint hashes every lane's schedule fingerprint into one string:
// equal fingerprints mean the same frames are offered at the same instants.
func fingerprint(lanes []flood.Schedule) string {
	h := fnv.New64a()
	events := 0
	for _, s := range lanes {
		h.Write([]byte(s.Fingerprint()))
		events += len(s.Offsets)
	}
	return fmt.Sprintf("lanes=%d events=%d hash=%016x", len(lanes), events, h.Sum64())
}

func TestScheduleFingerprintIsReproducible(t *testing.T) {
	lanes, merged, err := schedule(flood.Poisson, 6, 5*time.Second, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := schedule(flood.Poisson, 6, 5*time.Second, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fingerprint(lanes), fingerprint(again); a != b {
		t.Fatalf("same seed, different schedules:\n%s\n%s", a, b)
	}
	other, _, err := schedule(flood.Poisson, 6, 5*time.Second, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	overload, _, err := schedule(flood.Poisson, 6, 5*time.Second, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(other) == fingerprint(lanes) || fingerprint(overload) == fingerprint(lanes) {
		t.Fatal("another seed or phase reproduced the schedule")
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].due < merged[i-1].due {
			t.Fatalf("merged schedule out of order at %d", i)
		}
	}
}

// neverDone is the scripted sink with its frame_done call removed.
const neverDone = `
	function event_received(message) {
		var acc = 0;
		for (var i = 0; i < 10; i++) {
			acc = acc + i;
		}
	}
`

// scriptedPhase runs one short steady phase of the scripted workload,
// optionally hot-swapping every sink first, and returns its check.
func scriptedPhase(t *testing.T, swapSink bool) *check {
	t.Helper()
	w, err := findWorkload("scripted")
	if err != nil {
		t.Fatal(err)
	}
	p, err := prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	defer releaseTemplates(p.templates)
	d, err := deploy(w, p.sc, p.planner, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if swapSink {
		for _, pipe := range d.pipes {
			if err := pipe.UpdateModule("burn_c", neverDone); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for d.sumMeters("module.", ".updates") < uint64(len(d.pipes)) {
			if time.Now().After(deadline) {
				t.Fatal("hot swap never applied")
			}
			time.Sleep(time.Millisecond)
		}
	}
	horizon := time.Second
	_, arrivals, err := schedule(w.process, w.steadyRate, horizon, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	chk := &check{}
	ph := runPhase("steady", d, p.templates, arrivals, horizon, nil, &p.seq)
	chk.phase(ph)
	chk.services("steady", d.rec)
	return chk
}

func TestCheckPassesOnHealthyRun(t *testing.T) {
	chk := scriptedPhase(t, false)
	if chk.attempted == 0 || chk.failed != 0 {
		t.Fatalf("healthy run: %d attempted, %d failed: %v", chk.attempted, chk.failed, chk.problems)
	}
}

func TestCheckFailsWhenSinkNeverCompletes(t *testing.T) {
	chk := scriptedPhase(t, true)
	if chk.failed == 0 {
		t.Fatalf("sink without frame_done passed the check (%d attempted)", chk.attempted)
	}
	if !strings.Contains(strings.Join(chk.problems, "\n"), "conservation") {
		t.Fatalf("check failed for another reason: %v", chk.problems)
	}
}

func TestTimingCodecRecordsSpansAndKeepsSeq(t *testing.T) {
	tr := newTracer()
	c := newTimingCodec(tr, 1)
	f := frame.MustNewPooled(64, 48)
	defer f.Release()
	f.Seq = 42
	scratch := make([]byte, 0, 1<<16)
	data, err := frame.AppendEncode(c, scratch, f)
	if err != nil {
		t.Fatal(err)
	}
	if &data[0] != &scratch[:1][0] {
		t.Fatal("AppendEncode did not encode into the scratch buffer")
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	if got.Seq != 42 {
		t.Fatalf("decoded seq %d, want 42", got.Seq)
	}
	enc, dec := tr.stats("frame.encode"), tr.stats("frame.decode")
	if enc.n != 1 || dec.n != 1 || enc.bytes != int64(len(data)) || dec.bytes != int64(len(data)) {
		t.Fatalf("spans: %d encodes (%d bytes), %d decodes (%d bytes), want 1 each of %d bytes",
			enc.n, enc.bytes, dec.n, dec.bytes, len(data))
	}
}

func TestTimingCodecCarriesMediaPadding(t *testing.T) {
	if got := mediaFactor(device.Config{Class: device.Watch}); got != 0.3 {
		t.Fatalf("watch media factor %v, want the class default 0.3", got)
	}
	if got := mediaFactor(device.Config{Class: device.Phone, Profile: device.Profile{CPUFactor: 0.25}}); got != 0.25 {
		t.Fatalf("profile without media factor: %v, want its CPU factor 0.25", got)
	}
	tr := newTracer()
	c := newTimingCodec(tr, 0.5)
	f := frame.MustNewPooled(64, 48)
	defer f.Release()
	if _, err := c.Encode(f); err != nil {
		t.Fatal(err)
	}
	if enc := tr.stats("frame.encode"); enc.n != 1 || enc.pad != enc.total {
		t.Fatalf("media factor 0.5: %d spans, pad %v for %v of real work, want equal", enc.n, enc.pad, enc.total)
	}
}

func TestUniformPipelinesAreStaggered(t *testing.T) {
	lanes, _, err := schedule(flood.Uniform, 4, 2*time.Second, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	interval := time.Second / 4
	for i := 1; i < len(lanes); i++ {
		want := lanes[0].Offsets[0] + interval*time.Duration(i)/pipelines
		if got := lanes[i].Offsets[0]; got != want {
			t.Fatalf("pipeline %d starts at %v, want %v", i, got, want)
		}
	}
}
