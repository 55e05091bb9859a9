package main

import (
	"bytes"
	"fmt"
	"time"

	"ncg/internal/ensemble"
	"ncg/internal/gen"
)

// sweepScenarios are the paper-sweep workload: the paper's Figure 7-14
// experiments plus round play, each on its default grid (n = 10..50,
// 60 trials per n).
var sweepScenarios = []string{
	"fig7-asg-sum-k2",
	"fig7-asg-sum-k2-random",
	"fig8-asg-max-k2",
	"fig11-gbg-sum-a4",
	"fig12-gbg-sum-rl-a2",
	"fig13-gbg-max-a4",
	"fig14-gbg-max-dl-a2",
	"rounds-asg-sum-k2",
}

const sweepWorkers = 2

type sweepBench struct {
	scenarios []ensemble.Scenario
	seeds     []int64
	ref       [][]byte
}

func (b *sweepBench) setup(seed int64) error {
	b.scenarios, b.seeds = b.scenarios[:0], b.seeds[:0]
	for i, name := range sweepScenarios {
		sc, ok := ensemble.Lookup(name)
		if !ok {
			return fmt.Errorf("scenario %q is not registered", name)
		}
		b.scenarios = append(b.scenarios, sc)
		s := gen.Seed(seed, uint64(i))
		if s == 0 { // 0 selects the scenario's own default seed
			s = 1
		}
		b.seeds = append(b.seeds, s)
	}
	return nil
}

// timedSink times each record write and the gap before it: the time the
// ordered collector kept the sink waiting.
type timedSink struct {
	inner  ensemble.Sink
	tr     *tracer
	parent int64
	last   time.Time
	writes []float64 // µs
	gaps   []float64 // ms
	recs   []ensemble.Record
}

func (s *timedSink) Write(rec ensemble.Record) error {
	t0 := time.Now()
	s.gaps = append(s.gaps, ms(t0.Sub(s.last)))
	err := s.inner.Write(rec)
	t1 := time.Now()
	s.writes = append(s.writes, float64(t1.Sub(t0))/float64(time.Microsecond))
	s.tr.record(s.parent, "ensemble", "sink-write", t0, t1)
	s.last = t1
	s.recs = append(s.recs, rec)
	return err
}

func (s *timedSink) Close() error { return s.inner.Close() }

// reference runs the same sweep with one worker.
func (b *sweepBench) reference() error {
	b.ref = b.ref[:0]
	for i, sc := range b.scenarios {
		var buf bytes.Buffer
		if _, err := ensemble.Execute(sc, ensemble.Options{Workers: 1, Seed: b.seeds[i]}, ensemble.NewJSONLSink(&buf)); err != nil {
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
		b.ref = append(b.ref, buf.Bytes())
	}
	return nil
}

func (b *sweepBench) pass(tr *tracer, root int64, _ bool) (*pass, error) {
	p := newPass()
	var writes, gaps []float64
	for i, sc := range b.scenarios {
		var buf bytes.Buffer
		id := tr.id()
		t0 := time.Now()
		sink := &timedSink{inner: ensemble.NewJSONLSink(&buf), tr: tr, parent: id, last: t0}
		_, err := ensemble.Execute(sc, ensemble.Options{Workers: sweepWorkers, Seed: b.seeds[i]}, sink)
		t1 := time.Now()
		tr.add(id, root, "ensemble", "execute", t0, t1)
		p.ops++
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		p.wall += t1.Sub(t0)
		p.units = append(p.units, t1.Sub(t0))
		p.layer["ensemble.scenario_ms."+sc.Name] = ms(t1.Sub(t0))
		for _, rec := range sink.recs {
			p.runs++
			p.recs++
			p.counts["ensemble.records"]++
			p.counts["dynamics.steps"] += int64(rec.Steps)
			addMoveCounts(p, rec.Moves)
			for _, m := range rec.Moves {
				p.moves += float64(m)
			}
		}
		writes = append(writes, sink.writes...)
		gaps = append(gaps, sink.gaps...)
		p.output = append(p.output, buf.Bytes())
	}
	p.layer["ensemble.sink_write_us"] = median(writes)
	if v, ok := percentile(gaps, 90); ok {
		p.layer["ensemble.emit_gap_p90_ms"] = v
	}
	return p, nil
}

func (b *sweepBench) verify(_ *tracer, _ int64, p *pass) ([]string, map[string]float64) {
	var fails []string
	for i, out := range p.output {
		if !bytes.Equal(out, b.ref[i]) {
			fails = append(fails, fmt.Sprintf("%s: JSONL at %d workers differs from the 1-worker reference", sweepScenarios[i], sweepWorkers))
		}
	}
	return fails, nil
}

func (b *sweepBench) close() {}
