package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"vitri"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	got, err := percentile(xs, 90)
	if err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if got, err = percentile(xs, 50); err != nil || got != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", got, err)
	}
	// 99 samples leave 9 beyond rank 90: refused, never estimated.
	if _, err := percentile(xs[:99], 90); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p90 of 99 samples: err %v, want errTooFewSamples", err)
	}
	if _, err := percentile(nil, 90); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p90 of nothing: err %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("median")
	}
}

func TestDigestStable(t *testing.T) {
	ms := []vitri.Match{{VideoID: 7, Similarity: 0.5}, {VideoID: 3, Similarity: 0.25}}
	// Pinned: a digest printed by one commit must mean the same ranking
	// when compared with another's.
	const want uint64 = 0x355f7e28eb7b4435
	if got := matchDigest(ms); got != want {
		t.Fatalf("digest %#x, want %#x", got, want)
	}
	swapped := []vitri.Match{ms[1], ms[0]}
	if matchDigest(swapped) == matchDigest(ms) {
		t.Fatal("digest ignores rank order")
	}
	nudged := []vitri.Match{{VideoID: 7, Similarity: math.Nextafter(0.5, 1)}, ms[1]}
	if matchDigest(nudged) == matchDigest(ms) {
		t.Fatal("digest ignores the last bit of a similarity")
	}
	if matchDigest(nil) != fnvOffset {
		t.Fatal("empty digest is not the FNV offset basis")
	}
}

func testEnv(seed int64, trace bool, out *bytes.Buffer) *env {
	return &env{cfg: config{seed: seed, seconds: 0, short: true, trace: trace}, sz: shortSizes, out: out, work: newWorkDir()}
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	var out bytes.Buffer
	sumDigest := func(seed int64) uint64 {
		in, err := genSummaryInputs(testEnv(seed, false, &out), false)
		if err != nil {
			t.Fatal(err)
		}
		h := uint64(fnvOffset)
		for _, q := range in.queries {
			for _, tr := range q.Triplets {
				h = fnvMix(h, math.Float64bits(tr.Position[0]))
			}
		}
		for _, s := range in.sources {
			h = fnvMix(h, uint64(s))
		}
		return fnvMix(h, uint64(len(in.sums)))
	}
	frameDigest := func(seed int64) uint64 {
		in, err := genFrameInputs(shortSizes.httpScale, seed, shortSizes.httpTriplets, shortSizes.httpQueries)
		if err != nil {
			t.Fatal(err)
		}
		if over := in.triplets - shortSizes.httpTriplets; over < 0 || over > 40 {
			t.Errorf("seed %d: population holds %d triplets, target %d", seed, in.triplets, shortSizes.httpTriplets)
		}
		h := uint64(fnvOffset)
		for _, c := range in.clips {
			h = fnvMix(fnvMix(h, uint64(len(c))), math.Float64bits(c[0][0]))
		}
		return h
	}
	for name, f := range map[string]func(int64) uint64{"summaries": sumDigest, "frames": frameDigest} {
		if f(5) != f(5) {
			t.Errorf("%s: same seed, different inputs", name)
		}
		if f(5) == f(6) {
			t.Errorf("%s: different seeds, same inputs", name)
		}
	}
}

// TestShortSmoke runs all four workloads, untraced and traced, at toy
// scale and holds what they emit against BENCHMARK.json: exactly its
// workloads, and from each run exactly its metrics with their units.
func TestShortSmoke(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range c.Workloads {
		declared = append(declared, w.Name)
		if fw := findWorkload(w.Name); fw == nil || fw.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and the binary disagree on it or its why", w.Name)
		}
	}
	if strings.Join(declared, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json names workloads %v, the binary has %v", declared, workloadNames())
	}
	if len(c.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the binary %d", len(c.PerLayer), len(layerMetrics))
	}
	// The contract's limits: every bound in (0, 0.25], set-up's the largest.
	var setupBound, maxBound float64
	for _, m := range c.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s has bound %v, the largest is %v", setupBound, maxBound)
	}

	for wi := range workloads {
		w := &workloads[wi]
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			e := testEnv(11, trace, &out)
			e.cfg.workload = w.name
			e.cfg.traceOut = t.TempDir() + "/spans.json"
			res, err := runWorkload(w, e)
			e.work.cleanup()
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			var wantNames, gotNames []string
			for _, m := range want {
				wantNames = append(wantNames, m.Name)
				got, ok := res.Metrics[m.Name]
				if ok && got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
				if ok && (math.IsNaN(got.Value) || math.IsInf(got.Value, 0)) {
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, m.Name, got.Value)
				}
				if ok && !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.Name, got.Value)
				}
			}
			for name := range res.Metrics {
				gotNames = append(gotNames, name)
			}
			sort.Strings(wantNames)
			sort.Strings(gotNames)
			if strings.Join(wantNames, ",") != strings.Join(gotNames, ",") {
				t.Errorf("%s trace=%v: emitted metrics\n %v\nBENCHMARK.json lists\n %v", w.name, trace, gotNames, wantNames)
			}
			if line, err := json.Marshal(res); err != nil || !bytes.HasPrefix(line, []byte(`{"correct":true,"attempted":`)) {
				t.Errorf("%s: result line %s, %v", w.name, line, err)
			}
		}
	}
}

func TestGuardRails(t *testing.T) {
	var out bytes.Buffer
	if code := realMain([]string{"-workload", "knn-100k", "-seconds", "5"}, &out); code == 0 {
		t.Error("a 5 s run outside -short was accepted")
	}
	if code := realMain([]string{"-workload", "no-such", "-short"}, &out); code == 0 {
		t.Error("an unknown workload was accepted")
	}
	if code := realMain([]string{"-workload", "knn-100k", "-short", "-trace", "2"}, &out); code == 0 {
		t.Error("-trace 2 was accepted")
	}
	// A phase too thin to report from fails the run instead of printing a tail it cannot support.
	thin := func(samples, passes int) error {
		ph := phase{ms: make([]float64, samples), passes: passes, wall: time.Second}
		return queryMetrics(testEnv(1, false, &out), &ph, map[string]metric{})
	}
	if thin(99, 3) == nil {
		t.Error("99 samples were reported from")
	}
	if thin(200, 2) == nil {
		t.Error("2 passes were reported from")
	}
	if thin(102, 3) != nil {
		t.Error("102 samples over 3 passes were refused")
	}
}
