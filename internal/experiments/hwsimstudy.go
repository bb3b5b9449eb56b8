package experiments

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/hwsim"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/par"
	"repro/internal/pgo"
	"repro/internal/stats"
)

// HwsimGenSeed pins the generated-corpus slice of the hardware
// co-simulation study; EXPERIMENTS.md documents the pinned value.
const HwsimGenSeed = 1995

// HwsimPredictors and HwsimSeeds name the simulated matrix, in
// presentation order. Every (predictor, seed) pair is scored from one
// traced interpreter run per program via a multiplexing sink.
var (
	HwsimPredictors = []string{"1bit", "2bit", "gshare", "tage"}
	HwsimSeeds      = []string{"unseeded", "btfnt", "heuristic", "esp", "perfect"}
)

// HwsimCell aggregates one (predictor, seed) pair over a program set:
// total dynamic branches and mispredicts, plus the same pair truncated at
// each hwsim.Warmups cold-start budget (per program, then summed).
type HwsimCell struct {
	Predictor  string  `json:"predictor"`
	Seed       string  `json:"seed"`
	Events     int64   `json:"events"`
	Miss       int64   `json:"miss"`
	WarmEvents []int64 `json:"warm_events"`
	WarmMiss   []int64 `json:"warm_miss"`
}

// Rate is the steady-state mispredict rate.
func (c *HwsimCell) Rate() float64 {
	if c.Events == 0 {
		return 0
	}
	return float64(c.Miss) / float64(c.Events)
}

// WarmRate is the cold-start mispredict rate at warmup checkpoint k.
func (c *HwsimCell) WarmRate(k int) float64 {
	if c.WarmEvents[k] == 0 {
		return 0
	}
	return float64(c.WarmMiss[k]) / float64(c.WarmEvents[k])
}

// HwsimStudyResult is the hardware predictor co-simulation: what is a good
// static prior worth to dynamic prediction hardware? Per-site predictors
// (1-bit, 2-bit, the TAGE base table) seed their counters directly from
// each source's hint bits; gshare seeds via the agree transformation.
type HwsimStudyResult struct {
	Warmups []int64 `json:"warmups"`
	GenN    int     `json:"gen_n"`
	// Cells covers the real 46-program corpus, predictor-major in
	// HwsimPredictors × HwsimSeeds order.
	Cells []HwsimCell `json:"cells"`
	// GenCells covers the pinned generated slice (absent when GenN = 0).
	GenCells []HwsimCell `json:"gen_cells,omitempty"`
	// ProgramESPMiss is each real program's steady-state mispredict rate
	// for the headline configuration (ESP-seeded 2-bit).
	ProgramESPMiss map[string]float64 `json:"program_esp_miss"`
}

// cell returns the real-corpus cell for a (predictor, seed) name pair.
func (r *HwsimStudyResult) cell(pred, seed string) *HwsimCell {
	for i := range r.Cells {
		if r.Cells[i].Predictor == pred && r.Cells[i].Seed == seed {
			return &r.Cells[i]
		}
	}
	return nil
}

// HwsimStudy simulates the predictor × seed matrix over all 46 corpus
// programs plus genN generated programs (seed HwsimGenSeed, all mixes).
// ESP hints follow the honest Table 4 protocol: leave-one-out models
// within each language group (pgoModels), and the full-real-C-group model
// for generated programs.
func HwsimStudy(ctx *Context, espCfg core.Config, genN int) (*HwsimStudyResult, error) {
	models, cModel, err := pgoModels(ctx, espCfg)
	if err != nil {
		return nil, err
	}
	entries, nReal := studyEntries(HwsimGenSeed, genN)
	perProg := make([][]*hwsim.Counter, len(entries))
	err = par.For(0, len(entries), func(i int) error {
		e := entries[i]
		m := models[e.Name]
		if m == nil {
			m = cModel // generated programs: full-C-group model
		}
		var err error
		if perProg[i], err = hwsimProgram(e, m); err != nil {
			return fmt.Errorf("experiments: hwsim: %s: %w", e.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &HwsimStudyResult{
		Warmups:        hwsim.Warmups,
		GenN:           genN,
		Cells:          emptyCells(),
		ProgramESPMiss: make(map[string]float64, nReal),
	}
	if genN > 0 {
		res.GenCells = emptyCells()
	}
	espIdx := matrixIndex("2bit", "esp")
	for i, counters := range perProg {
		cells := res.Cells
		if i >= nReal {
			cells = res.GenCells
		}
		for ci, c := range counters {
			cells[ci].Events += c.Events
			cells[ci].Miss += c.Miss
			for k := range hwsim.Warmups {
				miss, ev := c.WarmMiss(k)
				cells[ci].WarmMiss[k] += miss
				cells[ci].WarmEvents[k] += ev
			}
		}
		if i < nReal {
			res.ProgramESPMiss[entries[i].Name] = counters[espIdx].MissRate()
		}
	}
	return res, nil
}

// emptyCells allocates the zeroed predictor-major matrix.
func emptyCells() []HwsimCell {
	cells := make([]HwsimCell, 0, len(HwsimPredictors)*len(HwsimSeeds))
	for _, p := range HwsimPredictors {
		for _, s := range HwsimSeeds {
			cells = append(cells, HwsimCell{
				Predictor:  p,
				Seed:       s,
				WarmEvents: make([]int64, len(hwsim.Warmups)),
				WarmMiss:   make([]int64, len(hwsim.Warmups)),
			})
		}
	}
	return cells
}

// matrixIndex locates a (predictor, seed) pair in the flat matrix order.
func matrixIndex(pred, seed string) int {
	for i, p := range HwsimPredictors {
		for j, s := range HwsimSeeds {
			if p == pred && s == seed {
				return i*len(HwsimSeeds) + j
			}
		}
	}
	panic("experiments: unknown hwsim matrix entry " + pred + "/" + seed)
}

// hwsimSink builds the predictor matrix when the trace delivers the site
// table (predictor state is sized by site count) and fans every branch
// event out to all counters. It implements interp.TraceSink.
type hwsimSink struct {
	vecs     []features.Vector
	evidence []heuristics.Evidence
	srcs     []pgo.ProbSource // HwsimSeeds order; nil = unseeded
	counters []*hwsim.Counter // matrix order; built in BeginTrace
}

func (s *hwsimSink) BeginTrace(refs []ir.BranchRef) {
	n := len(refs)
	hintSets := make([][]bool, len(s.srcs))
	for i, src := range s.srcs {
		if src != nil {
			hintSets[i] = hwsim.Hints(src, s.vecs, s.evidence, refs)
		}
	}
	builders := []func(h []bool) hwsim.Predictor{
		func(h []bool) hwsim.Predictor { return hwsim.NewOneBit(n, h) },
		func(h []bool) hwsim.Predictor { return hwsim.NewTwoBit(n, h) },
		func(h []bool) hwsim.Predictor { return hwsim.NewGshare(0, h) },
		func(h []bool) hwsim.Predictor { return hwsim.NewTage(n, h) },
	}
	for _, build := range builders {
		for _, hints := range hintSets {
			s.counters = append(s.counters, hwsim.NewCounter(build(hints)))
		}
	}
}

func (s *hwsimSink) TraceBranch(site int32, taken bool) {
	for _, c := range s.counters {
		c.Observe(site, taken)
	}
}

// hwsimProgram simulates the full matrix over one program: a plain run for
// the perfect-profile hints, then one traced run scoring all counters.
func hwsimProgram(e corpus.Entry, model *core.Model) ([]*hwsim.Counter, error) {
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		return nil, err
	}
	cfg := e.RunConfig()
	prof, err := interp.Run(prog, cfg)
	if err != nil {
		return nil, fmt.Errorf("profile run: %w", err)
	}
	ps := features.Collect(prog)
	sink := &hwsimSink{
		vecs:     features.ExtractAll(ps),
		evidence: heuristics.EvidenceOf(ps),
		srcs: []pgo.ProbSource{
			nil, // unseeded
			hwsim.BTFNT{},
			pgo.NewHeuristic(),
			&pgo.Model{M: model},
			&pgo.Measured{Prof: prof},
		},
	}
	tprof, err := interp.RunTrace(prog, cfg, sink)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	// The stream must cover exactly the profiled conditional executions —
	// the CycleCount-style consistency check, applied end to end.
	for _, c := range sink.counters {
		if c.Events != tprof.CondExec {
			return nil, fmt.Errorf("counter %s saw %d events, profile recorded %d",
				c.Pred.Name(), c.Events, tprof.CondExec)
		}
	}
	return sink.counters, nil
}

// Render formats the study: the steady-state matrix, cold-start tables for
// the per-site and shared-table headliners, and the per-program ESP-seeded
// 2-bit rates through the shared per-program renderer.
func (r *HwsimStudyResult) Render() string {
	head := "Hardware co-simulation: mispredict rates by predictor and hint-bit seed\n"
	steady := stats.NewTable(append([]string{"Predictor"}, HwsimSeeds...)...)
	for _, p := range HwsimPredictors {
		row := []interface{}{p}
		for _, s := range HwsimSeeds {
			row = append(row, stats.Pct1(r.cell(p, s).Rate()))
		}
		steady.Row(row...)
	}
	out := head + "\nSteady state (full stream, 46 programs)\n" + steady.String()

	for _, p := range []string{"2bit", "gshare"} {
		warm := stats.NewTable(append([]string{"Warmup"}, HwsimSeeds...)...)
		for k, w := range r.Warmups {
			row := []interface{}{fmt.Sprintf("%d", w)}
			for _, s := range HwsimSeeds {
				row = append(row, stats.Pct1(r.cell(p, s).WarmRate(k)))
			}
			warm.Row(row...)
		}
		out += fmt.Sprintf("\nCold start, %s (first-N-branch mispredict rate)\n", p) + warm.String()
	}
	out += "\nPer-program steady-state mispredict rate, ESP-seeded 2-bit\n" +
		renderPerProgram("Miss", r.ProgramESPMiss, stats.Pct1) + pctFootnote
	return out
}
