package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/obs"
)

// serveStages are the spans espserve records for every /predict request.
var serveStages = []string{
	obs.StageDecode, obs.StageAdmission, obs.StageCache, obs.StageCompile,
	obs.StageFeaturize, obs.StageQueueWait, obs.StageForward, obs.StageEncode,
}

// readTraces parses an espserve access log: one JSON trace per line.
func readTraces(r io.Reader) ([]obs.Trace, error) {
	var out []obs.Trace
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var t obs.Trace
		if err := json.Unmarshal(sc.Bytes(), &t); err != nil {
			return nil, fmt.Errorf("access log line: %w", err)
		}
		out = append(out, t)
	}
	return out, sc.Err()
}

// addTraces folds the /predict traces into the per-layer figures: every
// span's duration as a sample of its stage, the request's duration as the
// base its spans should cover, and the union of its spans as the part they
// do cover (spans may overlap, so the union, not the sum).
func addTraces(l *layers, traces []obs.Trace) {
	for _, t := range traces {
		if t.Endpoint != "predict" {
			continue
		}
		for _, s := range t.Spans {
			l.sample("serve."+s.Stage, float64(s.DurUS))
		}
		l.addBase(time.Duration(t.DurUS) * time.Microsecond)
		l.addCovered(time.Duration(spanUnionUS(t.Spans)) * time.Microsecond)
	}
}

// spanUnionUS is the length of the union of the spans' intervals.
func spanUnionUS(spans []obs.Span) int64 {
	iv := append([]obs.Span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].StartUS < iv[j].StartUS })
	var total, end int64
	first := true
	for _, s := range iv {
		lo, hi := s.StartUS, s.StartUS+s.DurUS
		if first || lo > end {
			total += hi - lo
			end = hi
			first = false
			continue
		}
		if hi > end {
			total += hi - end
			end = hi
		}
	}
	return total
}
