// Command reproduce regenerates every artifact of the paper in one run and
// writes them to an output directory: each figure as an ASCII chart, a CSV
// series and an SVG, each table as text and CSV, plus an index naming the
// files each artifact wrote. It is the repository's one artifact command;
// EXPERIMENTS.md says which file holds which figure or table.
//
// Usage:
//
//	reproduce -out artifacts [-years 20000] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"coordcharge/internal/ckpt"
	"coordcharge/internal/report"
	"coordcharge/internal/scenario"
)

// output is one saved file set: a chart (name.txt, name.csv, name.svg) or a
// table (name.txt, name.csv).
type output struct {
	name  string
	chart *report.Chart
	table *report.Table
}

func (o output) save(dir string) error {
	if o.chart != nil {
		return report.SaveChart(dir, o.name, o.chart)
	}
	return report.SaveTable(dir, o.name, o.table)
}

// artifact builds one paper artifact: a figure, a table, or a figure with
// its panels or summary table, each output under its own name.
type artifact struct {
	name  string
	build func() ([]output, error)
}

func main() {
	out := flag.String("out", "artifacts", "output directory")
	years := flag.Float64("years", 20000, "Monte Carlo horizon in simulated years")
	seed := flag.Int64("seed", 1, "seed for traces and the Monte Carlo")
	flag.Parse()
	if err := reproduce(*out, *years, *seed, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		os.Exit(1)
	}
}

// reproduce builds every artifact into dir, reporting progress on w, and
// writes INDEX.txt: one line per artifact with its build time and the names
// of the files it wrote.
func reproduce(dir string, years float64, seed int64, w io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var index strings.Builder
	fmt.Fprintf(&index, "coordcharge reproduction artifacts (seed %d, %s)\n\n", seed, wallNow().UTC().Format(time.RFC3339))
	for _, a := range artifacts(years, seed) {
		start := wallNow()
		outs, err := a.build()
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		names := make([]string, len(outs))
		for i, o := range outs {
			if err := o.save(dir); err != nil {
				return err
			}
			names[i] = o.name
		}
		took := wallNow().Sub(start).Round(time.Millisecond)
		fmt.Fprintf(&index, "%-22s %8s  %s\n", a.name, took, strings.Join(names, " "))
		fmt.Fprintf(w, "wrote %s (%s)\n", a.name, took)
	}
	return ckpt.WriteAtomic(filepath.Join(dir, "INDEX.txt"), []byte(index.String()))
}

// wallNow is reproduce's only wall-clock tap: the index is stamped and each
// artifact timed in wall time, while every artifact is built on virtual
// time. coordvet's determinism analyzer allowlists this one function, so a
// clock read anywhere else in the command is still a finding.
func wallNow() time.Time { return time.Now() }

// artifacts enumerates the artifact builders in paper order, then the
// reproduction's own experiments.
func artifacts(years float64, seed int64) []artifact {
	return []artifact{
		chartArtifact("fig02_region_outage", func() (*report.Chart, error) { return scenario.Fig2Chart(1), nil }),
		{name: "fig03_charge_profile", build: func() ([]output, error) {
			c := scenario.Fig3Charts()
			return []output{
				{name: "fig03_charge_profile", chart: c[0]},
				{name: "fig03_current", chart: c[1]},
				{name: "fig03_voltage", chart: c[2]},
			}, nil
		}},
		chartArtifact("fig04_power_by_dod", noErr(scenario.Fig4Chart)),
		chartArtifact("fig05_charge_time", noErr(scenario.Fig5Chart)),
		chartArtifact("fig06b_eq1", noErr(scenario.Fig6bChart)),
		chartArtifact("fig07_row_validation", noErr(scenario.Fig7Chart)),
		tableArtifact("table1_components", noErr(scenario.TableITable)),
		chartArtifact("fig09a_aor", func() (*report.Chart, error) { return scenario.Fig9aChart(years, seed) }),
		tableArtifact("table2_sla", func() (*report.Table, error) { return scenario.TableIITable(years, seed) }),
		tableArtifact("table2_breakdown", func() (*report.Table, error) {
			return scenario.BreakdownTable(years, seed, 30*time.Minute)
		}),
		chartArtifact("fig09b_sla_current", noErr(scenario.Fig9bChart)),
		chartArtifact("fig10_prototype_row", noErr(scenario.Fig10Chart)),
		chartArtifact("fig11_override", noErr(scenario.Fig11Chart)),
		chartArtifact("fig12_trace", func() (*report.Chart, error) { return scenario.Fig12Chart(seed) }),
		{name: "fig13_table3", build: func() ([]output, error) {
			res, err := scenario.RunFig13(seed)
			if err != nil {
				return nil, err
			}
			return append(panels("fig13", res.Charts), output{name: "fig13_table3", table: res.TableIII}), nil
		}},
		{name: "fig14_sweeps", build: func() ([]output, error) {
			charts, err := scenario.RunFig14(seed)
			return panels("fig14", charts), err
		}},
		{name: "fig15_distributions", build: func() ([]output, error) {
			charts, err := scenario.RunFig15(seed)
			return panels("fig15", charts), err
		}},
		{name: "case2_building", build: func() ([]output, error) {
			res, err := scenario.RunCaseII(12, seed)
			if err != nil {
				return nil, err
			}
			// The §II-D headline: more than ten thousand servers capped.
			headline := report.NewTable("Case II headline: servers power-capped across the building",
				"Servers capped", "Max per-MSB increase")
			headline.Add(fmt.Sprintf("%d", res.ServersCapped), fmt.Sprintf("+%.1f%%", float64(res.MaxIncrease)*100))
			return []output{
				{name: "case2_building", table: res.Table},
				{name: "case2_headline", table: headline},
			}, nil
		}},
		tableArtifact("endurance_realized_aor", func() (*report.Table, error) {
			res, err := scenario.RunEndurance(scenario.EnduranceSpec{Years: 30, Seed: seed})
			if err != nil {
				return nil, err
			}
			return scenario.EnduranceTable(res), nil
		}),
		tableArtifact("capacity_advice", func() (*report.Table, error) {
			adv, err := scenario.Advise(scenario.AdvisorSpec{NumP1: 89, NumP2: 142, NumP3: 85, Seed: seed})
			if err != nil {
				return nil, err
			}
			return scenario.AdviceTable(adv), nil
		}),
		{name: "grid_shrink", build: func() ([]output, error) {
			res, err := scenario.RunGridShrink(seed)
			if err != nil {
				return nil, err
			}
			return []output{
				{name: "grid_shrink", chart: res.Chart},
				{name: "grid_shrink_table", table: res.Table},
			}, nil
		}},
		{name: "grid_shave", build: func() ([]output, error) {
			res, err := scenario.RunGridShave(seed)
			if err != nil {
				return nil, err
			}
			g := res.Run.Grid
			summary := report.NewTable("Peak shaving outcome",
				"Starts", "Rotations", "Carried by batteries", "Cap violation ticks", "Peak draw")
			summary.Addf(g.ShaveStarts, g.ShaveRotations, g.ShavedEnergy, g.ViolationTicks, g.PeakDraw)
			return []output{
				{name: "grid_shave", chart: res.Chart},
				{name: "grid_shave_table", table: summary},
			}, nil
		}},
	}
}

// chartArtifact and tableArtifact wrap a one-chart or one-table builder; its
// output takes the artifact's name.
func chartArtifact(name string, build func() (*report.Chart, error)) artifact {
	return artifact{name: name, build: func() ([]output, error) {
		c, err := build()
		return []output{{name: name, chart: c}}, err
	}}
}

func tableArtifact(name string, build func() (*report.Table, error)) artifact {
	return artifact{name: name, build: func() ([]output, error) {
		t, err := build()
		return []output{{name: name, table: t}}, err
	}}
}

func noErr[T any](f func() T) func() (T, error) {
	return func() (T, error) { return f(), nil }
}

// panels names a multi-panel figure's charts prefix+"a", prefix+"b", ...
func panels(prefix string, charts []*report.Chart) []output {
	outs := make([]output, len(charts))
	for i, c := range charts {
		outs[i] = output{name: fmt.Sprintf("%s%c", prefix, 'a'+i), chart: c}
	}
	return outs
}
