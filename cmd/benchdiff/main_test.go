package main

import (
	"math"
	"strings"
	"testing"
)

func TestParseAveragesRepeats(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: ncg
BenchmarkEnsembleSweep-8   	      20	   2000000 ns/op	  110976 B/op	     672 allocs/op
BenchmarkEnsembleSweep-8   	      20	   4000000 ns/op	  110976 B/op	     672 allocs/op
BenchmarkCacheBuild256     	     100	    140000 ns/op
PASS
ok  	ncg	5.5s
`
	snap, err := Parse(strings.NewReader(in), "abc")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Commit != "abc" {
		t.Fatalf("commit %q", snap.Commit)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("benchmarks %v", snap.Benchmarks)
	}
	if v := snap.Benchmarks["EnsembleSweep"]; math.Abs(v-3000000) > 1 {
		t.Fatalf("EnsembleSweep = %v, want 3000000 (mean of repeats, -8 suffix stripped)", v)
	}
	if v := snap.Benchmarks["CacheBuild256"]; math.Abs(v-140000) > 1 {
		t.Fatalf("CacheBuild256 = %v", v)
	}
}

func TestParseIgnoresNonBenchmarkLines(t *testing.T) {
	snap, err := Parse(strings.NewReader("BenchmarkBroken-8 20 notanumber ns/op\nrandom text\n"), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 0 {
		t.Fatalf("expected empty snapshot, got %v", snap.Benchmarks)
	}
}

// TestCompareRowsAreSorted: baseline rows and NEW rows both come out in
// name order, so the bench log is the same on every run.
func TestCompareRowsAreSorted(t *testing.T) {
	base := Snapshot{Benchmarks: map[string]float64{"Zeta": 100, "Alpha": 100, "Mid": 100}}
	cur := Snapshot{Benchmarks: map[string]float64{"Alpha": 200, "Mid": 100}}
	for _, name := range []string{"Zz", "Bb", "Yy", "Cc", "Xx", "Dd"} {
		cur.Benchmarks[name] = 1
	}
	want := []string{"REGRESSION Alpha", "ok Mid", "MISSING Zeta",
		"NEW Bb", "NEW Cc", "NEW Dd", "NEW Xx", "NEW Yy", "NEW Zz"}
	for range 5 {
		var sb strings.Builder
		if got := Compare(&sb, base, cur, 0.25); got != 1 {
			t.Fatalf("regressions = %d, want 1", got)
		}
		lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
		if len(lines) != len(want) {
			t.Fatalf("got %d rows, want %d:\n%s", len(lines), len(want), sb.String())
		}
		for i, line := range lines {
			if f := strings.Fields(line); f[0]+" "+f[1] != want[i] {
				t.Fatalf("row %d = %q, want %q", i, line, want[i])
			}
		}
	}
}
