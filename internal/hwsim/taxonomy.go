package hwsim

import (
	"math"

	"repro/internal/ir"
)

// Taxonomy is a TraceSink computing the branch-predictability taxonomy of
// one execution: per-site outcome entropy and bias, lag-1 self-correlation
// (does a branch repeat its own last outcome?), and global correlation
// (does it agree with the immediately preceding dynamic branch, whichever
// site that was?). Everything is streamed — per site it keeps counts and
// one bit of history, never the trace.
type Taxonomy struct {
	Refs  []ir.BranchRef
	Stats []SiteStat

	last       []int8 // per-site last outcome: -1 unseen, else 0/1
	globalLast int8
}

// SiteStat accumulates one site's taxonomy counts.
type SiteStat struct {
	Exec, Taken int64
	// SameAsSelf counts outcomes equal to the site's previous outcome, out
	// of SelfSeen repeat executions.
	SameAsSelf, SelfSeen int64
	// SameAsPrev counts outcomes equal to the immediately preceding dynamic
	// branch anywhere in the program, out of PrevSeen.
	SameAsPrev, PrevSeen int64
}

// BeginTrace implements interp.TraceSink.
func (x *Taxonomy) BeginTrace(refs []ir.BranchRef) {
	x.Refs = refs
	x.Stats = make([]SiteStat, len(refs))
	x.last = make([]int8, len(refs))
	for i := range x.last {
		x.last[i] = -1
	}
	x.globalLast = -1
}

// TraceBranch implements interp.TraceSink.
func (x *Taxonomy) TraceBranch(site int32, taken bool) {
	s := &x.Stats[site]
	out := int8(0)
	if taken {
		out = 1
		s.Taken++
	}
	s.Exec++
	if prev := x.last[site]; prev >= 0 {
		s.SelfSeen++
		if prev == out {
			s.SameAsSelf++
		}
	}
	if x.globalLast >= 0 {
		s.PrevSeen++
		if x.globalLast == out {
			s.SameAsPrev++
		}
	}
	x.last[site] = out
	x.globalLast = out
}

// Entropy is the site's outcome entropy in bits (0 = perfectly biased,
// 1 = coin flip).
func (s *SiteStat) Entropy() float64 {
	if s.Exec == 0 {
		return 0
	}
	p := float64(s.Taken) / float64(s.Exec)
	return binEntropy(p)
}

// Bias is the frequency of the site's majority direction (0.5..1).
func (s *SiteStat) Bias() float64 {
	if s.Exec == 0 {
		return 0
	}
	p := float64(s.Taken) / float64(s.Exec)
	return math.Max(p, 1-p)
}

// SelfAgree is the fraction of executions repeating the site's previous
// outcome — the lag-1 self-correlation a 1-bit predictor exploits.
func (s *SiteStat) SelfAgree() float64 {
	if s.SelfSeen == 0 {
		return 0
	}
	return float64(s.SameAsSelf) / float64(s.SelfSeen)
}

// PrevAgree is the fraction of executions agreeing with the immediately
// preceding dynamic branch — the inter-branch correlation global-history
// predictors exploit.
func (s *SiteStat) PrevAgree() float64 {
	if s.PrevSeen == 0 {
		return 0
	}
	return float64(s.SameAsPrev) / float64(s.PrevSeen)
}

func binEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -float64(p*math.Log2(p)) - float64((1-p)*math.Log2(1-p))
}

// Summary is the execution-weighted program-level aggregate of the
// taxonomy: every dynamic branch contributes its site's statistic.
type Summary struct {
	Sites     int     // static sites that executed at least once
	Events    int64   // dynamic conditional branches
	Entropy   float64 // weighted mean outcome entropy (bits)
	Bias      float64 // weighted mean majority-direction frequency
	SelfAgree float64 // weighted mean lag-1 self-agreement
	PrevAgree float64 // weighted mean previous-branch agreement
}

// Summarize aggregates the per-site taxonomy, weighting each site by its
// execution count.
func (x *Taxonomy) Summarize() Summary {
	var sum Summary
	var wEnt, wBias, wSelf, wPrev float64
	for i := range x.Stats {
		s := &x.Stats[i]
		if s.Exec == 0 {
			continue
		}
		sum.Sites++
		sum.Events += s.Exec
		w := float64(s.Exec)
		wEnt += float64(w * s.Entropy())
		wBias += float64(w * s.Bias())
		wSelf += float64(w * s.SelfAgree())
		wPrev += float64(w * s.PrevAgree())
	}
	if sum.Events > 0 {
		n := float64(sum.Events)
		sum.Entropy = wEnt / n
		sum.Bias = wBias / n
		sum.SelfAgree = wSelf / n
		sum.PrevAgree = wPrev / n
	}
	return sum
}
