package main

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"coordcharge/internal/scenario"
)

// summaryOf is the fidelity comparison key: the result's deterministic
// summary plus the grid metrics it omits.
func summaryOf(r *scenario.CoordResult) string {
	return r.Summary() + fmt.Sprintf("grid=%+v\n", r.Grid)
}

// TestTracedLoopFidelity: the traced tick loop must reproduce
// RunCoordinated byte for byte on one op of each batch workload at two seeds,
// flight digests included, or its per-layer numbers describe another program.
func TestTracedLoopFidelity(t *testing.T) {
	e := &env{workdir: t.TempDir()}
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("msb-table3/seed%d", seed), func(t *testing.T) {
			for i, spec := range fig13Specs(seed) {
				want, err := scenario.RunCoordinated(spec)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := runTraced(spec, newTracer())
				if err != nil {
					t.Fatal(err)
				}
				if a, b := summaryOf(want), summaryOf(got); a != b {
					t.Fatalf("run %d differs:\nlibrary:\n%s\ntraced:\n%s", i, a, b)
				}
			}
		})
		for _, w := range []batchWorkload{siteIncident{}, distPlane{}} {
			t.Run(fmt.Sprintf("%s/seed%d", w.name(), seed), func(t *testing.T) {
				if testing.Short() && w.name() == "dist-plane" && seed != 1 {
					t.Skip("one dist-plane seed in -short mode")
				}
				want, err := w.run(e, seed)
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.traced(e, seed, newTracer())
				if err != nil {
					t.Fatal(err)
				}
				if want.summary != got.summary {
					t.Fatalf("op differs:\nlibrary:\n%s\ntraced:\n%s", want.summary, got.summary)
				}
				if len(want.problems)+len(got.problems) > 0 {
					t.Fatalf("checks failed: %v / %v", want.problems, got.problems)
				}
			})
		}
	}
}

// tracedSelf runs op seed of site-incident through the traced loop n times
// and returns each layer's median self time.
func tracedSelf(t *testing.T, seed int64, n int, delay map[spanKind]time.Duration) [numSpanKinds]time.Duration {
	t.Helper()
	e := &env{workdir: t.TempDir()}
	runs := make([][numSpanKinds]time.Duration, n)
	for i := range runs {
		tr := newTracer()
		for k, d := range delay {
			tr.delay[k] = d
		}
		op := tr.begin(spanOp)
		if _, err := (siteIncident{}).traced(e, seed, tr); err != nil {
			t.Fatal(err)
		}
		tr.end(op)
		runs[i] = tr.fold().self
	}
	var med [numSpanKinds]time.Duration
	for k := range med {
		xs := make([]time.Duration, n)
		for i := range runs {
			xs[i] = runs[i][k]
		}
		sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
		med[k] = xs[n/2]
	}
	return med
}

// TestAttributionNamesInjectedLayer: a fixed delay injected inside every
// storm-guard span must show up in the per-layer breakdown as storm.guard
// growing, with no other layer's self time moving beyond its spread.
func TestAttributionNamesInjectedLayer(t *testing.T) {
	const runs = 5
	base := tracedSelf(t, 1, runs, nil)
	// A layer's spread is the gap between two baseline medians.
	again := tracedSelf(t, 1, runs, nil)
	slow := tracedSelf(t, 1, runs, map[spanKind]time.Duration{spanGuard: 20 * time.Microsecond})

	grown, most := spanKind(0), time.Duration(0)
	for k := spanKind(1); k < numSpanKinds; k++ {
		if d := slow[k] - base[k]; d > most {
			grown, most = k, d
		}
	}
	if grown != spanGuard {
		t.Fatalf("breakdown names %s as the layer that grew (by %v), want %s",
			spanNames[grown], most, spanNames[spanGuard])
	}
	for k := spanKind(1); k < numSpanKinds; k++ {
		if k == spanGuard {
			continue
		}
		spread := base[k] - again[k]
		if spread < 0 {
			spread = -spread
		}
		// Allow three spreads plus a floor for scheduler noise on tiny layers.
		limit := 3*spread + base[k]/5 + 2*time.Millisecond
		if d := slow[k] - base[k]; d > limit || -d > limit {
			t.Errorf("%s moved by %v with the delay in %s (limit %v)", spanNames[k], d, spanNames[spanGuard], limit)
		}
	}
}
