package experiments

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/hwsim"
	"repro/internal/interp"
	"repro/internal/par"
	"repro/internal/stats"
)

// TaxonomyRow is one program's branch-predictability taxonomy, aggregated
// execution-weighted over its branch sites (hwsim.Taxonomy).
type TaxonomyRow struct {
	Program   string       `json:"program"`
	Suite     corpus.Suite `json:"suite,omitempty"`
	Sites     int          `json:"sites"`
	Events    int64        `json:"events"`
	Entropy   float64      `json:"entropy"`
	Bias      float64      `json:"bias"`
	SelfAgree float64      `json:"self_agree"`
	PrevAgree float64      `json:"prev_agree"`
}

// TaxonomyResult is the predictability-taxonomy corpus study: per-branch
// outcome entropy, bias, lag-1 self-correlation, and previous-branch
// correlation, streamed from one traced run per program. It quantifies the
// structure the hwsim predictors exploit — low entropy favors static hints
// and per-site counters, high inter-branch agreement favors global history.
type TaxonomyResult struct {
	Rows []TaxonomyRow `json:"rows"`
	// Corpus is the event-weighted aggregate over the real programs.
	Corpus TaxonomyRow `json:"corpus"`
	GenN   int         `json:"gen_n"`
}

// TaxonomyStudy computes the taxonomy over all 46 corpus programs plus
// genN generated programs (seed HwsimGenSeed, all mixes).
func TaxonomyStudy(ctx *Context, genN int) (*TaxonomyResult, error) {
	entries, nReal := studyEntries(HwsimGenSeed, genN)
	rows := make([]TaxonomyRow, len(entries))
	err := par.For(0, len(entries), func(i int) error {
		var err error
		if rows[i], err = taxonomyRow(entries[i]); err != nil {
			return fmt.Errorf("experiments: taxonomy: %s: %w", entries[i].Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &TaxonomyResult{Rows: rows, GenN: genN}
	var ev float64
	for i := 0; i < nReal; i++ {
		row := &rows[i]
		w := float64(row.Events)
		res.Corpus.Sites += row.Sites
		res.Corpus.Events += row.Events
		res.Corpus.Entropy += float64(w * row.Entropy)
		res.Corpus.Bias += float64(w * row.Bias)
		res.Corpus.SelfAgree += float64(w * row.SelfAgree)
		res.Corpus.PrevAgree += float64(w * row.PrevAgree)
		ev += w
	}
	if ev > 0 {
		res.Corpus.Entropy /= ev
		res.Corpus.Bias /= ev
		res.Corpus.SelfAgree /= ev
		res.Corpus.PrevAgree /= ev
	}
	res.Corpus.Program = "Corpus (weighted)"
	return res, nil
}

// taxonomyRow streams one program's outcome trace through the taxonomy sink.
func taxonomyRow(e corpus.Entry) (TaxonomyRow, error) {
	prog, err := e.Compile(codegen.Default)
	if err != nil {
		return TaxonomyRow{}, err
	}
	var tax hwsim.Taxonomy
	prof, err := interp.RunTrace(prog, e.RunConfig(), &tax)
	if err != nil {
		return TaxonomyRow{}, err
	}
	sum := tax.Summarize()
	if sum.Events != prof.CondExec {
		return TaxonomyRow{}, fmt.Errorf("taxonomy saw %d events, profile recorded %d",
			sum.Events, prof.CondExec)
	}
	return TaxonomyRow{
		Program:   e.Name,
		Suite:     e.Suite,
		Sites:     sum.Sites,
		Events:    sum.Events,
		Entropy:   sum.Entropy,
		Bias:      sum.Bias,
		SelfAgree: sum.SelfAgree,
		PrevAgree: sum.PrevAgree,
	}, nil
}

// f3 renders a small absolute quantity (entropy bits) with 3 decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// Render formats the taxonomy: the per-program table (suite-separated, with
// the weighted corpus aggregate), then per-program entropy through the
// shared per-program renderer.
func (r *TaxonomyResult) Render() string {
	t := stats.NewTable("Program", "Sites", "Events", "Entropy", "Bias", "SelfAgree", "PrevAgree")
	emit := func(row TaxonomyRow) {
		t.Row(row.Program, row.Sites, row.Events, f3(row.Entropy),
			stats.Pct1(row.Bias), stats.Pct1(row.SelfAgree), stats.Pct1(row.PrevAgree))
	}
	var lastSuite corpus.Suite
	for i, row := range r.Rows {
		if i > 0 && row.Suite != lastSuite {
			t.Separator()
		}
		lastSuite = row.Suite
		emit(row)
	}
	t.Separator()
	emit(r.Corpus)
	entropy := make(map[string]float64, len(r.Rows))
	for _, row := range r.Rows {
		if row.Suite != corpus.SuiteGenerated {
			entropy[row.Program] = row.Entropy
		}
	}
	return "Branch predictability taxonomy (entropy in bits; bias and agreement in %)\n" +
		t.String() +
		"\nPer-program execution-weighted branch entropy (bits)\n" +
		renderPerProgram("Entropy", entropy, f3)
}
