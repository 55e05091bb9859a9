// Command benchdiff maintains the repository's benchmark trajectory file:
// it parses `go test -bench` output into a compact JSON snapshot and
// compares two snapshots, failing on regressions beyond a tolerance. CI
// uses it to record BENCH_ensemble.json on every push and to gate merges
// against the committed BENCH_baseline.json.
//
// Usage:
//
//	go test -run xxx -bench ... ./... | benchdiff parse -commit $SHA -out BENCH_ensemble.json
//	benchdiff check -baseline BENCH_baseline.json -current BENCH_ensemble.json -tolerance 0.25
//
// "parse" reads benchmark lines ("BenchmarkName-8  20  12345 ns/op  ...")
// from stdin (or -in), averages repeated runs of the same benchmark (the
// -count flag), and writes one JSON object. "check" compares ns/op of
// every benchmark present in both snapshots and exits non-zero if any
// current value exceeds baseline by more than the tolerance fraction;
// benchmarks missing from either side are reported but never fail the
// check, so the recorded set can grow over time.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is the trajectory file schema: mean ns/op per benchmark name
// (the "Benchmark" prefix and "-GOMAXPROCS" suffix stripped).
type Snapshot struct {
	Commit     string             `json:"commit,omitempty"`
	Benchmarks map[string]float64 `json:"benchmarks"`
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		fail("usage: benchdiff parse|check [flags]")
	}
	switch os.Args[1] {
	case "parse":
		cmdParse(os.Args[2:])
	case "check":
		cmdCheck(os.Args[2:])
	default:
		fail("unknown subcommand %q (want parse or check)", os.Args[1])
	}
}

func cmdParse(args []string) {
	var commit, in, out string
	parseFlags(args, map[string]*string{"-commit": &commit, "-in": &in, "-out": &out})
	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		r = f
	}
	snap, err := Parse(r, commit)
	if err != nil {
		fail("%v", err)
	}
	if len(snap.Benchmarks) == 0 {
		fail("no benchmark lines found in input")
	}
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	b = append(b, '\n')
	if out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		fail("%v", err)
	}
}

func cmdCheck(args []string) {
	var baseline, current, tolStr string
	parseFlags(args, map[string]*string{"-baseline": &baseline, "-current": &current, "-tolerance": &tolStr})
	if baseline == "" || current == "" {
		fail("check needs -baseline and -current")
	}
	tol := 0.25
	if tolStr != "" {
		v, err := strconv.ParseFloat(tolStr, 64)
		if err != nil || v < 0 {
			fail("bad -tolerance %q", tolStr)
		}
		tol = v
	}
	regressions := Compare(os.Stdout, load(baseline), load(current), tol)
	if regressions > 0 {
		fmt.Printf("benchdiff: %d benchmark(s) regressed more than %.0f%%\n", regressions, tol*100)
		os.Exit(1)
	}
}

// Compare writes one row per baseline benchmark (ok, REGRESSION or
// MISSING) and then one NEW row per benchmark only the current snapshot
// has, both in name order, and returns the number of regressions beyond
// tol.
func Compare(w io.Writer, base, cur Snapshot, tol float64) int {
	var names, added []string
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(names)
	sort.Strings(added)
	regressions := 0
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "MISSING  %-28s baseline %.0f ns/op, absent from current\n", name, b)
			continue
		}
		ratio := c / b
		status := "ok"
		if ratio > 1+tol {
			status = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-10s %-28s %12.0f -> %12.0f ns/op  (%+.1f%%)\n", status, name, b, c, (ratio-1)*100)
	}
	for _, name := range added {
		fmt.Fprintf(w, "NEW      %-28s %.0f ns/op (not in baseline)\n", name, cur.Benchmarks[name])
	}
	return regressions
}

// parseFlags is a tiny strict flag scanner: every argument must be a known
// "-name value" pair.
func parseFlags(args []string, flags map[string]*string) {
	for i := 0; i < len(args); i += 2 {
		dst, ok := flags[args[i]]
		if !ok || i+1 >= len(args) {
			fail("bad flag %q", args[i])
		}
		*dst = args[i+1]
	}
}

func load(path string) Snapshot {
	b, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		fail("%s: %v", path, err)
	}
	return s
}

// Parse extracts benchmark results from go test output, averaging repeated
// runs of the same benchmark.
func Parse(r io.Reader, commit string) (Snapshot, error) {
	sums := map[string]float64{}
	counts := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// "BenchmarkName-8  20  12345 ns/op  ..."
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if fields[3] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		sums[name] += ns
		counts[name]++
	}
	if err := sc.Err(); err != nil {
		return Snapshot{}, err
	}
	snap := Snapshot{Commit: commit, Benchmarks: map[string]float64{}}
	for name, sum := range sums {
		snap.Benchmarks[name] = sum / float64(counts[name])
	}
	return snap, nil
}
