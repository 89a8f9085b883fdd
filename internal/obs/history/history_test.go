package history

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSampleNowAndSnapshot(t *testing.T) {
	sp := New(time.Second, 4)
	v := 0.0
	sp.Track("faction_fairness_gap", func() (float64, bool) { return v, true })

	base := time.UnixMilli(1_000_000)
	for i := 0; i < 3; i++ {
		v = float64(i) / 10
		sp.SampleNow(base.Add(time.Duration(i) * time.Second))
	}
	resp := sp.Snapshot(nil, 0)
	pts := resp.Series["faction_fairness_gap"]
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	for i, p := range pts {
		if p.T != base.Add(time.Duration(i)*time.Second).UnixMilli() || p.V != float64(i)/10 {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
}

func TestRingWraps(t *testing.T) {
	sp := New(time.Second, 3)
	i := 0
	sp.Track("s", func() (float64, bool) { return float64(i), true })
	base := time.UnixMilli(0)
	for i = 0; i < 10; i++ {
		sp.SampleNow(base.Add(time.Duration(i) * time.Second))
	}
	pts := sp.Snapshot([]string{"s"}, 0).Series["s"]
	if len(pts) != 3 {
		t.Fatalf("got %d points, want capacity 3", len(pts))
	}
	// Oldest-first: values 7, 8, 9 survive. The loop variable is shared with
	// the source, so the last sampled value is i at sample time.
	for j, want := range []float64{7, 8, 9} {
		if pts[j].V != want {
			t.Fatalf("pts[%d].V = %g, want %g (ring should keep newest)", j, pts[j].V, want)
		}
	}
}

func TestNonFiniteAndNotOKSkipped(t *testing.T) {
	sp := New(time.Second, 8)
	vals := []float64{1, math.NaN(), 2, math.Inf(1), math.Inf(-1), 3}
	k := 0
	sp.Track("s", func() (float64, bool) {
		v := vals[k]
		k++
		return v, true
	})
	sp.Track("never", func() (float64, bool) { return 99, false })
	base := time.UnixMilli(0)
	for range vals {
		sp.SampleNow(base)
		base = base.Add(time.Second)
	}
	snap := sp.Snapshot(nil, 0)
	pts := snap.Series["s"]
	if len(pts) != 3 || pts[0].V != 1 || pts[1].V != 2 || pts[2].V != 3 {
		t.Fatalf("non-finite samples not skipped: %+v", pts)
	}
	if len(snap.Series["never"]) != 0 {
		t.Fatalf("ok=false source produced points: %+v", snap.Series["never"])
	}
	// The whole snapshot must be JSON-marshalable (no NaN leaked through).
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not marshalable: %v", err)
	}
}

func TestTrackReplacesSourceKeepsPoints(t *testing.T) {
	sp := New(time.Second, 8)
	sp.Track("s", func() (float64, bool) { return 1, true })
	sp.SampleNow(time.UnixMilli(1000))
	sp.Track("s", func() (float64, bool) { return 2, true })
	sp.SampleNow(time.UnixMilli(2000))
	pts := sp.Snapshot([]string{"s"}, 0).Series["s"]
	if len(pts) != 2 || pts[0].V != 1 || pts[1].V != 2 {
		t.Fatalf("re-Track lost points or source: %+v", pts)
	}
}

func TestWindowFiltering(t *testing.T) {
	sp := New(time.Second, 16)
	sp.Track("s", func() (float64, bool) { return 5, true })
	old := time.Now().Add(-time.Hour)
	sp.SampleNow(old)
	sp.SampleNow(time.Now())
	pts := sp.Snapshot([]string{"s"}, 5*time.Minute).Series["s"]
	if len(pts) != 1 {
		t.Fatalf("window filter kept %d points, want 1", len(pts))
	}
	all := sp.Snapshot([]string{"s"}, 0).Series["s"]
	if len(all) != 2 {
		t.Fatalf("window=0 kept %d points, want 2", len(all))
	}
}

func TestHandler(t *testing.T) {
	sp := New(time.Second, 8)
	sp.Track("a", func() (float64, bool) { return 1, true })
	sp.Track("b", func() (float64, bool) { return 2, true })
	sp.SampleNow(time.Now())

	rec := httptest.NewRecorder()
	sp.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/history?series=a", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.IntervalSeconds != 1 || resp.Capacity != 8 {
		t.Fatalf("metadata: %+v", resp)
	}
	if len(resp.Series) != 1 || len(resp.Series["a"]) != 1 {
		t.Fatalf("series selection: %+v", resp.Series)
	}

	rec = httptest.NewRecorder()
	sp.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/history?window=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad window: status %d, want 400", rec.Code)
	}

	rec = httptest.NewRecorder()
	sp.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/metrics/history", nil))
	if rec.Code != 405 || rec.Header().Get("Allow") != "GET, HEAD" {
		t.Fatalf("POST: status %d, Allow %q; want 405, Allow \"GET, HEAD\"", rec.Code, rec.Header().Get("Allow"))
	}

	rec = httptest.NewRecorder()
	sp.Handler().ServeHTTP(rec, httptest.NewRequest("HEAD", "/metrics/history", nil))
	if rec.Code != 200 {
		t.Fatalf("HEAD: status %d, want 200", rec.Code)
	}
}

func TestStartStop(t *testing.T) {
	sp := New(time.Millisecond, 64)
	n := 0.0
	sp.Track("s", func() (float64, bool) { n++; return n, true })
	sp.Start()
	deadline := time.After(2 * time.Second)
	for len(sp.Snapshot([]string{"s"}, 0).Series["s"]) == 0 {
		select {
		case <-deadline:
			t.Fatal("background loop never sampled")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	sp.Stop()
	sp.Stop() // idempotent
}

func TestStopWithoutStart(t *testing.T) {
	sp := New(time.Second, 4)
	sp.Stop() // must not hang or panic
}

func TestSampleNowZeroAllocs(t *testing.T) {
	sp := New(time.Second, 128)
	for _, name := range []string{"a", "b", "c", "d"} {
		sp.Track(name, func() (float64, bool) { return 1.5, true })
	}
	now := time.UnixMilli(42)
	if allocs := testing.AllocsPerRun(200, func() { sp.SampleNow(now) }); allocs != 0 {
		t.Fatalf("SampleNow allocates %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkSampleNow(b *testing.B) {
	sp := New(time.Second, 512)
	for _, name := range []string{"fairness_gap", "p99", "regret", "violation", "wal_lag", "drift"} {
		sp.Track(name, func() (float64, bool) { return 0.25, true })
	}
	now := time.UnixMilli(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.SampleNow(now)
	}
}

// The Track-while-sampling hammer: one goroutine re-Tracks a series in a hot
// loop (the refit path re-registering its sources) while another samples and a
// third snapshots. Run under -race this pins the fix for the unlocked s.src
// read the sampling loop used to perform.
func TestTrackWhileSamplingRace(t *testing.T) {
	sp := New(time.Second, 32)
	sp.Track("s", func() (float64, bool) { return 0, true })
	stop := make(chan struct{})
	done := make(chan struct{}, 3)
	go func() {
		defer func() { done <- struct{}{} }()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := float64(i)
			sp.Track("s", func() (float64, bool) { return v, true })
		}
	}()
	go func() {
		defer func() { done <- struct{}{} }()
		now := time.UnixMilli(1000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			now = now.Add(time.Millisecond)
			sp.SampleNow(now)
		}
	}()
	go func() {
		defer func() { done <- struct{}{} }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sp.Snapshot([]string{"s"}, time.Minute)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	for i := 0; i < 3; i++ {
		<-done
	}
}

// Window filtering is anchored at each series' newest retained point, not the
// wall clock: a timeline sampled entirely with a synthetic clock (here, epoch
// Unix-millisecond 1000 onwards — decades in the past) still windows
// correctly. Under the old time.Now() cutoff every point here would have been
// dropped.
func TestWindowAnchoredAtNewestPoint(t *testing.T) {
	sp := New(time.Second, 16)
	v := 0.0
	sp.Track("s", func() (float64, bool) { return v, true })
	base := time.UnixMilli(1000)
	for i := 0; i < 10; i++ {
		v = float64(i)
		sp.SampleNow(base.Add(time.Duration(i) * time.Second))
	}
	// Newest point is at base+9s; a 3s window keeps base+6s..base+9s.
	pts := sp.Snapshot([]string{"s"}, 3*time.Second).Series["s"]
	if len(pts) != 4 {
		t.Fatalf("window kept %d points, want 4: %+v", len(pts), pts)
	}
	for i, p := range pts {
		if p.V != float64(6+i) {
			t.Fatalf("window kept wrong points: %+v", pts)
		}
	}
}
