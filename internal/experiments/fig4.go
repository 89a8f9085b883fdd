package experiments

import (
	"fmt"
	"io"

	"faction/internal/faction"
	"faction/internal/online"
	"faction/internal/report"
)

// ablationVariants lists the Fig. 4 / Table I FACTION variants in the
// paper's order.
func ablationVariants() []struct {
	Name     string
	Sel, Reg bool
} {
	return []struct {
		Name     string
		Sel, Reg bool
	}{
		{"FACTION", true, true},
		{"FACTION w/o fair select", false, true},
		{"FACTION w/o fair reg", true, false},
		{"FACTION w/o fair select & fair reg", false, false},
	}
}

func ablationSpecs() []online.MethodSpec {
	var out []online.MethodSpec
	for _, v := range ablationVariants() {
		o := faction.Defaults()
		o.FairSelect = v.Sel
		o.FairReg = v.Reg
		out = append(out, online.FactionSpec(o))
	}
	return out
}

// Fig4Result holds the ablation curves: FACTION against its three simplified
// variants on every dataset.
type Fig4Result struct {
	Datasets []string
	Variants []string
	Rows     []PanelSet
}

// RunFig4 executes the ablation grid of Fig. 4.
func RunFig4(opt Options) *Fig4Result {
	opt.setDefaults()
	grid := runGrid(opt, opt.Datasets, func(int64) []online.MethodSpec { return ablationSpecs() })

	res := &Fig4Result{Datasets: opt.Datasets}
	for _, v := range ablationVariants() {
		res.Variants = append(res.Variants, v.Name)
	}
	for _, ds := range opt.Datasets {
		row := PanelSet{Dataset: ds, Panels: map[Metric][]report.Series{}}
		for _, metric := range Metrics() {
			for _, variant := range res.Variants {
				row.Panels[metric] = append(row.Panels[metric], taskSeries(variant, grid[ds][variant], metric))
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render prints the ablation panels per dataset.
func (r *Fig4Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 4: ablations — simplified variants should exhibit inferior fairness")
	for _, row := range r.Rows {
		for _, metric := range Metrics() {
			fmt.Fprintln(w)
			report.Chart(w, fmt.Sprintf("[%s] %s per task", row.Dataset, metric), row.Panels[metric], 8)
			report.RenderSeries(w, "", row.Panels[metric], 3)
		}
	}
}

// MeanFairness returns the mean-over-tasks value of a fairness metric per
// dataset and variant, used to check that the full system is fairest.
func (r *Fig4Result) MeanFairness(metric Metric) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, row := range r.Rows {
		out[row.Dataset] = map[string]float64{}
		for i, variant := range r.Variants {
			s := row.Panels[metric][i]
			out[row.Dataset][variant] = report.Mean(s.Mean)
		}
	}
	return out
}
