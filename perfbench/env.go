package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// stamp describes the host a run measured on. It is printed next to the
// metrics, never as one, so a reader can tell host drift from a regression.
type stamp struct {
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"numcpu"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	SourceSHA256  string  `json:"source_sha256"`
	WorkdirFS     string  `json:"workdir_fs"`
	CalibrationMs float64 `json:"calibration_ms"`
}

func environment(workdir string) stamp {
	return stamp{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		GoVersion:     runtime.Version(),
		Commit:        vcsCommit(),
		SourceSHA256:  sourceDigest("."),
		WorkdirFS:     fsType(workdir),
		CalibrationMs: calibrate(),
	}
}

// vcsCommit is the revision the binary was built from, when the build saw a
// git checkout.
func vcsCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes the Go sources and module files under root, so runs
// from a checkout without git history still name the code they measured.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir (the WAL, snapshot and CSV files).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlay",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// calibSink keeps the calibration loop's result observable.
var calibSink float64

// calibrate times a fixed amount of dependent floating-point and integer
// work: the same loop on the same host takes the same time, so a shift in
// it between two runs is host drift, not a code change.
func calibrate() float64 {
	start := time.Now()
	x, acc := uint64(0x9E3779B97F4A7C15), 0.0
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc = acc*0.999999 + float64(x>>40)
	}
	calibSink = acc
	return float64(time.Since(start).Microseconds()) / 1000
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
