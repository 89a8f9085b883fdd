package experiments

import (
	"fmt"
	"io"

	"faction/internal/data"
	"faction/internal/faction"
	"faction/internal/fairness"
	"faction/internal/gda"
	"faction/internal/nn"
	"faction/internal/online"
	"faction/internal/report"
	"faction/internal/rngutil"
)

// DesignRow is one configuration of the design-choice ablation.
type DesignRow struct {
	Name       string
	Acc        float64
	DDP        float64
	EOD        float64
	MI         float64
	FlipRate   float64 // counterfactual flip rate on the final task
	RuntimeSec float64
}

// DesignResult is the design-choice ablation of DESIGN.md §5: it isolates
// the implementation decisions this reproduction makes on top of the paper's
// algorithm — the symmetric vs one-sided fairness hinge, the DDP vs DEO
// notion, spectral normalization, GDA covariance shrinkage, and the optional
// individual-fairness penalty — and reports their effect on the NYSF-analog
// protocol plus the counterfactual flip rate on the RC-MNIST analog.
type DesignResult struct {
	Dataset string
	Rows    []DesignRow
}

// designConfig is one compared configuration: FACTION's options and a
// patch to the protocol config.
type designConfig struct {
	Name  string
	Opts  func() faction.Options
	Patch func(cfg *online.Config)
}

// designConfigs enumerates the compared configurations.
func designConfigs() []designConfig {
	base := faction.Defaults
	return []designConfig{
		{Name: "default (symmetric hinge, DDP, spectral, no shrinkage)", Opts: base},
		{
			Name: "one-sided hinge [v]+ (paper literal)",
			Opts: func() faction.Options { o := base(); o.OneSided = true; return o },
		},
		{
			Name: "DEO notion in the regularizer",
			Opts: func() faction.Options { o := base(); o.Mode = nn.ModeDEO; return o },
		},
		{
			Name:  "no spectral normalization",
			Opts:  base,
			Patch: func(cfg *online.Config) { cfg.SpectralNorm = false },
		},
		{
			Name: "automatic GDA covariance shrinkage",
			Opts: func() faction.Options { o := base(); o.GDA = gda.Config{Shrinkage: -1}; return o },
		},
		{
			Name: "+ individual-fairness penalty (§IV-H)",
			Opts: func() faction.Options {
				o := base()
				o.IndividualMu = 0.5
				o.IndividualSigma = 2
				return o
			},
		},
	}
}

// inputs returns the stream run r of dc runs on, its protocol config and
// the seed both come from. The seed depends on the dataset and the run
// alone, so every row of a run sees the same stream, and the same config up
// to its own Patch: the rows compare configurations on paired data.
func (dc designConfig) inputs(opt Options, dataset string, r int) (*data.Stream, online.Config, int64) {
	seed := rngutil.DeriveSeed(opt.Seed, "design", dataset, fmt.Sprint(r))
	stream, err := data.ByName(dataset, opt.Scale.StreamConfig(seed))
	if err != nil {
		panic(err)
	}
	cfg := opt.Scale.RunConfig(seed)
	if dc.Patch != nil {
		dc.Patch(&cfg)
	}
	return stream, cfg, seed
}

// RunDesign executes the design ablation. The first dataset in opt.Datasets
// (default "nysf") hosts the protocol metrics; the counterfactual flip rate
// is always measured on the RC-MNIST analog (its counterfactuals flip the
// color channel).
func RunDesign(opt Options) *DesignResult {
	opt.setDefaults()
	dataset := "nysf"
	if len(opt.Datasets) > 0 && len(opt.Datasets) < len(data.StreamNames()) {
		dataset = opt.Datasets[0]
	}
	res := &DesignResult{Dataset: dataset}
	for _, dc := range designConfigs() {
		var accs, ddps, eods, mis, secs, flips []float64
		for r := 0; r < opt.Runs; r++ {
			stream, cfg, seed := dc.inputs(opt, dataset, r)
			spec := online.FactionSpec(dc.Opts())
			spec.Name = dc.Name
			run := online.MustRun(stream, spec, cfg)
			mean := run.MeanReport()
			accs = append(accs, mean.Accuracy)
			ddps = append(ddps, mean.DDP)
			eods = append(eods, mean.EOD)
			mis = append(mis, mean.MI)
			secs = append(secs, run.Elapsed.Seconds())
			flips = append(flips, designFlipRate(dc, opt, seed))
			opt.progressf("done design %-48s run %d\n", dc.Name, r)
		}
		res.Rows = append(res.Rows, DesignRow{
			Name:       dc.Name,
			Acc:        report.Mean(accs),
			DDP:        report.Mean(ddps),
			EOD:        report.Mean(eods),
			MI:         report.Mean(mis),
			FlipRate:   report.Mean(flips),
			RuntimeSec: report.Mean(secs),
		})
	}
	return res
}

// designFlipRate trains one model on the RC-MNIST analog under the
// configuration's loss and measures the counterfactual flip rate.
func designFlipRate(dc designConfig, opt Options, seed int64) float64 {
	stream := data.RotatedColoredMNIST(opt.Scale.StreamConfig(seed))
	union := data.NewDataset("union", stream.Dim, stream.Classes)
	for _, task := range stream.Tasks[:6] {
		union.Samples = append(union.Samples, task.Pool.Samples...)
	}
	cfg := opt.Scale.RunConfig(seed)
	if dc.Patch != nil {
		dc.Patch(&cfg)
	}
	model := nn.NewClassifier(nn.Config{
		InputDim: stream.Dim, NumClasses: stream.Classes,
		Hidden: cfg.Hidden, SpectralNorm: cfg.SpectralNorm, SpectralCoeff: cfg.SpectralCoeff,
		Seed: seed,
	})
	rng := rngutil.New(seed)
	model.Train(union.Matrix(), union.Labels(), union.Sensitive(), nn.NewAdam(cfg.LR), nn.TrainOpts{
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, Fair: dc.Opts().TrainFairConfig(),
	}, rng)
	last := stream.Tasks[5].Pool
	cf := data.NewDataset("cf", stream.Dim, stream.Classes)
	for _, smp := range last.Samples {
		cf.Append(stream.Counterfactual(smp))
	}
	return fairness.FlipRate(model.PredictClasses(last.Matrix()), model.PredictClasses(cf.Matrix()))
}

// Render prints the design ablation table.
func (r *DesignResult) Render(w io.Writer) {
	t := report.Table{
		Title: fmt.Sprintf("Design-choice ablation on %s (flip rate on rcmnist counterfactuals)", r.Dataset),
		Columns: []string{
			"configuration", "Acc(↑)", "DDP(↓)", "EOD(↓)", "MI(↓)", "CF-flip(↓)", "Runtime(s)",
		},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			report.F(row.Acc, 3), report.F(row.DDP, 3), report.F(row.EOD, 3),
			report.F(row.MI, 4), report.F(row.FlipRate, 3), report.F(row.RuntimeSec, 2))
	}
	t.Render(w)
}
