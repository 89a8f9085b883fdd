package nn

import (
	"encoding/gob"
	"fmt"
	"io"

	"faction/internal/mat"
	"faction/internal/resilience"
)

// classifierSnapshot is the gob wire format of a Classifier: architecture
// plus flattened parameter tensors, in layer order.
type classifierSnapshot struct {
	Version  int
	Cfg      Config
	Params   []paramSnapshot
	Spectral []spectralSnapshot // one per spectral-normalized linear layer
}

type spectralSnapshot struct {
	U, V  []float64
	Sigma float64
}

type paramSnapshot struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

const snapshotVersion = 1

// maxSnapshotParams and maxSnapshotHidden bound the architecture of a loaded
// classifier. LoadClassifier allocates every layer's weights and gradients
// before it reads a tensor, so without a bound a few config bytes could
// demand any amount of memory. The largest model the repo builds, Fig. 6's
// wide backbone (three hidden layers of 1024), has about 2.1M parameters;
// the parameter cap leaves room for wider inputs. The depth cap covers what
// the parameter cap cannot see: each layer's own bookkeeping, which a long
// list of one-wide layers would multiply.
const (
	maxSnapshotParams = 1 << 24
	maxSnapshotHidden = 1 << 10
)

// checkSnapshotConfig rejects a snapshot architecture that NewClassifier
// would panic on, or that exceeds the caps above.
func checkSnapshotConfig(cfg Config) error {
	if cfg.InputDim < 1 || cfg.NumClasses < 2 {
		return fmt.Errorf("nn: snapshot config has %d inputs and %d classes", cfg.InputDim, cfg.NumClasses)
	}
	if !(cfg.DropoutRate < 1) {
		return fmt.Errorf("nn: snapshot dropout rate %g, want below 1", cfg.DropoutRate)
	}
	if len(cfg.Hidden) > maxSnapshotHidden {
		return fmt.Errorf("nn: snapshot has %d hidden layers, more than %d", len(cfg.Hidden), maxSnapshotHidden)
	}
	in := cfg.InputDim
	if in > maxSnapshotParams {
		return fmt.Errorf("nn: snapshot input width %d exceeds %d parameters", in, maxSnapshotParams)
	}
	params := 0
	for _, out := range append(append([]int(nil), cfg.Hidden...), cfg.NumClasses) {
		if out < 1 {
			return fmt.Errorf("nn: snapshot hidden width %d", out)
		}
		// A linear layer holds an in×out weight and an out-wide bias.
		if out > (maxSnapshotParams-params)/(in+1) {
			return fmt.Errorf("nn: snapshot architecture exceeds %d parameters", maxSnapshotParams)
		}
		params += (in + 1) * out
		in = out
	}
	return nil
}

// Save serializes the classifier — architecture, weights and spectral-norm
// power-iteration state — to w.
func (c *Classifier) Save(w io.Writer) error {
	snap := classifierSnapshot{Version: snapshotVersion, Cfg: c.cfg}
	for _, p := range c.net.Params() {
		snap.Params = append(snap.Params, paramSnapshot{
			Name: p.Name,
			Rows: p.Value.Rows,
			Cols: p.Value.Cols,
			Data: append([]float64(nil), p.Value.Data...),
		})
	}
	for _, layer := range c.net.Layers {
		if l, ok := layer.(*Linear); ok && l.sn != nil {
			snap.Spectral = append(snap.Spectral, spectralSnapshot{
				U:     append([]float64(nil), l.sn.u...),
				V:     append([]float64(nil), l.sn.v...),
				Sigma: l.sn.sigma,
			})
		}
	}
	return gob.NewEncoder(w).Encode(snap)
}

// SaveClassifierFile writes a crash-safe classifier snapshot: the bytes are
// checksummed, written to a temp file, and renamed into place, with up to
// keep rotated predecessors (path.1 … path.keep) preserved as fallbacks. A
// crash mid-write leaves the previous snapshot intact.
func SaveClassifierFile(path string, c *Classifier, keep int) error {
	return resilience.SaveSnapshot(path, keep, c.Save)
}

// LoadClassifierFile loads a snapshot written by SaveClassifierFile (or a
// legacy raw .gob file). Truncated or corrupted files are rejected with an
// error wrapping resilience.ErrCorrupt — never half-loaded.
func LoadClassifierFile(path string) (*Classifier, error) {
	var c *Classifier
	err := resilience.LoadSnapshot(path, func(r io.Reader) error {
		var lerr error
		c, lerr = LoadClassifier(r)
		return lerr
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// LoadClassifier reconstructs a classifier saved with Save. Predictions
// match the saved model exactly (including spectral normalization, whose
// power-iteration state is restored verbatim).
func LoadClassifier(r io.Reader) (*Classifier, error) {
	var snap classifierSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("nn: decoding classifier: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("nn: unsupported snapshot version %d", snap.Version)
	}
	if err := checkSnapshotConfig(snap.Cfg); err != nil {
		return nil, err
	}
	c := NewClassifier(snap.Cfg)
	params := c.net.Params()
	if len(params) != len(snap.Params) {
		return nil, fmt.Errorf("nn: snapshot has %d tensors, architecture needs %d", len(snap.Params), len(params))
	}
	for i, ps := range snap.Params {
		p := params[i]
		if p.Value.Rows != ps.Rows || p.Value.Cols != ps.Cols {
			return nil, fmt.Errorf("nn: tensor %d is %dx%d, want %dx%d", i, ps.Rows, ps.Cols, p.Value.Rows, p.Value.Cols)
		}
		if len(ps.Data) != ps.Rows*ps.Cols {
			return nil, fmt.Errorf("nn: tensor %d has %d values, want %d", i, len(ps.Data), ps.Rows*ps.Cols)
		}
		p.Value.CopyFrom(mat.NewDenseData(ps.Rows, ps.Cols, ps.Data))
	}
	if snap.Cfg.SpectralNorm {
		si := 0
		for _, layer := range c.net.Layers {
			l, ok := layer.(*Linear)
			if !ok || l.sn == nil {
				continue
			}
			if si >= len(snap.Spectral) {
				return nil, fmt.Errorf("nn: snapshot missing spectral state for layer %d", si)
			}
			st := snap.Spectral[si]
			if len(st.U) != len(l.sn.u) || len(st.V) != len(l.sn.v) {
				return nil, fmt.Errorf("nn: spectral state %d has u/v lengths %d/%d, want %d/%d",
					si, len(st.U), len(st.V), len(l.sn.u), len(l.sn.v))
			}
			copy(l.sn.u, st.U)
			copy(l.sn.v, st.V)
			l.sn.sigma = st.Sigma
			si++
		}
	}
	return c, nil
}
