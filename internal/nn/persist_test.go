package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"faction/internal/mat"
	"faction/internal/resilience"
)

func TestClassifierSaveLoadExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y, _ := separableData(rng, 120, 0.5)
	c := NewClassifier(Config{InputDim: 2, NumClasses: 2, Hidden: []int{12, 6}, Seed: 2})
	c.Train(x, y, nil, NewAdam(0.01), TrainOpts{Epochs: 10, BatchSize: 32}, rng)

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Logits(x)
	got := loaded.Logits(x)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("logit %d: %g != %g", i, got.Data[i], want.Data[i])
		}
	}
	if loaded.Config().Hidden[0] != 12 {
		t.Fatal("config not restored")
	}
}

func TestClassifierSaveLoadSpectral(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y, _ := separableData(rng, 120, 0.5)
	c := NewClassifier(Config{
		InputDim: 2, NumClasses: 2, Hidden: []int{16},
		SpectralNorm: true, SpectralCoeff: 1.5, Seed: 4,
	})
	c.Train(x, y, nil, NewAdam(0.01), TrainOpts{Epochs: 20, BatchSize: 32}, rng)

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Logits(x)
	got := loaded.Logits(x)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("spectral logit %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestLoadClassifierGarbage(t *testing.T) {
	if _, err := LoadClassifier(strings.NewReader("not gob")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestLoadClassifierTamperedShape(t *testing.T) {
	c := NewClassifier(Config{InputDim: 2, NumClasses: 2, Hidden: []int{4}, Seed: 5})
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Decode, tamper, re-encode via the exported path is not possible from a
	// test of the same package — directly exercise the shape check instead.
	snap := classifierSnapshot{Version: snapshotVersion, Cfg: c.cfg}
	for _, p := range c.net.Params() {
		snap.Params = append(snap.Params, paramSnapshot{
			Name: p.Name, Rows: p.Value.Rows, Cols: p.Value.Cols,
			Data: append([]float64(nil), p.Value.Data...),
		})
	}
	snap.Params[0].Data = snap.Params[0].Data[:1] // corrupt
	var buf2 bytes.Buffer
	if err := encodeSnap(&buf2, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadClassifier(&buf2); err == nil {
		t.Fatal("expected error on corrupted tensor")
	}
}

func TestLoadClassifierBadVersion(t *testing.T) {
	c := NewClassifier(Config{InputDim: 2, NumClasses: 2, Seed: 6})
	snap := classifierSnapshot{Version: 99, Cfg: c.cfg}
	var buf bytes.Buffer
	if err := encodeSnap(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadClassifier(&buf); err == nil {
		t.Fatal("expected version error")
	}
}

func encodeSnap(buf *bytes.Buffer, snap classifierSnapshot) error {
	return gob.NewEncoder(buf).Encode(snap)
}

// badConfigs are snapshot architectures LoadClassifier must reject before it
// builds anything; NewClassifier panics on each.
func badConfigs() map[string]Config {
	return map[string]Config{
		"no inputs":       {InputDim: 0, NumClasses: 2},
		"one class":       {InputDim: 2, NumClasses: 1},
		"negative hidden": {InputDim: 2, NumClasses: 2, Hidden: []int{-1}},
		"dropout 1":       {InputDim: 2, NumClasses: 2, Hidden: []int{4}, DropoutRate: 1},
	}
}

func TestLoadClassifierBadConfig(t *testing.T) {
	for name, cfg := range badConfigs() {
		var buf bytes.Buffer
		if err := encodeSnap(&buf, classifierSnapshot{Version: snapshotVersion, Cfg: cfg}); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: LoadClassifier panicked: %v", name, r)
				}
			}()
			if _, err := LoadClassifier(&buf); err == nil {
				t.Errorf("%s: expected an error", name)
			}
		}()
	}
}

// The caps hold at their boundaries; checked on the config alone, since a
// model at the cap is too large to build in a test.
func TestCheckSnapshotConfigCaps(t *testing.T) {
	deep := make([]int, maxSnapshotHidden+1)
	for i := range deep {
		deep[i] = 1
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"wide backbone", Config{InputDim: 40, NumClasses: 2, Hidden: WideHidden()}, true},
		// (in+1)·2 weights and biases in one layer.
		{"at the parameter cap", Config{InputDim: maxSnapshotParams/2 - 1, NumClasses: 2}, true},
		{"over the parameter cap", Config{InputDim: maxSnapshotParams / 2, NumClasses: 2}, false},
		{"over the cap in a later layer", Config{InputDim: 2, NumClasses: 2, Hidden: []int{1 << 12, 1 << 12}}, false},
		{"overflowing input width", Config{InputDim: 1 << 62, NumClasses: 2}, false},
		{"overflowing hidden width", Config{InputDim: 2, NumClasses: 2, Hidden: []int{1 << 62}}, false},
		{"at the depth cap", Config{InputDim: 2, NumClasses: 2, Hidden: deep[1:]}, true},
		{"too deep", Config{InputDim: 2, NumClasses: 2, Hidden: deep}, false},
	} {
		if err := checkSnapshotConfig(tc.cfg); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}

// FuzzClassifierLoad: LoadClassifier of arbitrary bytes either fails or
// returns a classifier that computes logits for an all-zero row without
// panicking. Seeds: Save output with and without spectral normalization, and
// the snapshots of TestLoadClassifierBadConfig.
func FuzzClassifierLoad(f *testing.F) {
	for _, sn := range []bool{false, true} {
		c := NewClassifier(Config{InputDim: 3, NumClasses: 2, Hidden: []int{4}, SpectralNorm: sn, Seed: 7})
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, cfg := range badConfigs() {
		var buf bytes.Buffer
		if err := encodeSnap(&buf, classifierSnapshot{Version: snapshotVersion, Cfg: cfg}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadClassifier(bytes.NewReader(data))
		if err != nil {
			return
		}
		c.Logits(mat.NewDense(1, c.Config().InputDim))
	})
}

func TestMatrixAliasSafetyOnLoad(t *testing.T) {
	// The snapshot copies data; mutating the loaded model must not affect a
	// second load from the same bytes.
	c := NewClassifier(Config{InputDim: 2, NumClasses: 2, Seed: 7})
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	a, err := LoadClassifier(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	a.net.Params()[0].Value.Set(0, 0, 999)
	b, err := LoadClassifier(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if b.net.Params()[0].Value.At(0, 0) == 999 {
		t.Fatal("loads share storage")
	}
}

func TestClassifierFileSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, y, _ := separableData(rng, 80, 0.5)
	c := NewClassifier(Config{InputDim: 2, NumClasses: 2, Hidden: []int{8}, Seed: 9})
	c.Train(x, y, nil, NewAdam(0.01), TrainOpts{Epochs: 5, BatchSize: 32}, rng)

	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveClassifierFile(path, c, 2); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadClassifierFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, got := c.Logits(x), loaded.Logits(x)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("logit %d: %g != %g", i, got.Data[i], want.Data[i])
		}
	}
	// A second save rotates the first snapshot to path.1.
	if err := SaveClassifierFile(path, loaded, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadClassifierFile(path + ".1"); err != nil {
		t.Fatalf("rotated checkpoint unreadable: %v", err)
	}
}

func TestClassifierFileSnapshotTruncated(t *testing.T) {
	c := NewClassifier(Config{InputDim: 2, NumClasses: 2, Hidden: []int{8}, Seed: 10})
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveClassifierFile(path, c, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadClassifierFile(path); !errors.Is(err, resilience.ErrCorrupt) {
		t.Fatalf("truncated snapshot: err = %v, want resilience.ErrCorrupt", err)
	}
}

func TestClassifierFileSnapshotLegacyGob(t *testing.T) {
	c := NewClassifier(Config{InputDim: 2, NumClasses: 2, Hidden: []int{8}, Seed: 11})
	path := filepath.Join(t.TempDir(), "legacy.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Save(f); err != nil { // raw pre-envelope format
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadClassifierFile(path); err != nil {
		t.Fatalf("legacy snapshot rejected: %v", err)
	}
}
