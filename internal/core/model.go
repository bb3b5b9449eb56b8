package core

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/dtree"
	"repro/internal/features"
	"repro/internal/heuristics"
	"repro/internal/mbr"
	"repro/internal/neural"
)

// ClassifierKind selects the function approximator behind ESP.
type ClassifierKind int

// Supported classifiers.
const (
	// NeuralNet is the paper's primary classifier (Section 3.1.1).
	NeuralNet ClassifierKind = iota
	// DecisionTree is the Section 3.1.2 alternative.
	DecisionTree
	// MemoryBased is memory-based reasoning, the other alternative the
	// paper names in Section 6.
	MemoryBased
)

// String names the classifier.
func (k ClassifierKind) String() string {
	switch k {
	case DecisionTree:
		return "decision-tree"
	case MemoryBased:
		return "memory-based"
	}
	return "neural-net"
}

// Config parameterizes ESP training.
type Config struct {
	// Classifier selects the model type (default NeuralNet).
	Classifier ClassifierKind
	// Hidden is the hidden-layer width (default 20).
	Hidden int
	// Seed makes training deterministic (default 1).
	Seed uint64
	// Net carries neural-net training overrides (epochs, learning rate…).
	Net neural.Config
	// Tree carries decision-tree overrides.
	Tree dtree.Config
	// MBR carries memory-based-reasoning overrides.
	MBR mbr.Config
	// ExcludeFeatures lists Table 2 feature indices to hide from the model
	// (feature-set ablations): excluded features read as Unknown.
	ExcludeFeatures []int
	// UniformWeights trains with equal example weights instead of the
	// paper's normalized branch weights n_k (the loss ablation); the
	// evaluation metric stays execution-weighted either way.
	UniformWeights bool
	// IncludeLibraryFeature exposes the library-subroutine feature
	// (features.FLibraryProc) to the model. The paper's feature set is the
	// 24 features of Table 2; the 25th is its Section 6 future-work
	// extension, so it is opt-in.
	IncludeLibraryFeature bool
	// IncludeCorrelationFeatures exposes the sparse inter-branch
	// correlation features (features.FCorrSharedCond, FCorrDomCond) to the
	// model — the correlation-feature ablation. Opt-in for the same reason
	// as the library feature: the default model is the paper's.
	IncludeCorrelationFeatures bool
}

// Defaulted returns c with every default that training applies filled in,
// so a zero field and its explicit default give equal configurations.
// Defaulting is idempotent: c.Defaulted().Defaulted() equals c.Defaulted().
func (c Config) Defaulted() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Hidden == 0 {
		c.Hidden = 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Net.MaxEpochs == 0 {
		c.Net.MaxEpochs = 600
	}
	if c.Net.Patience == 0 {
		c.Net.Patience = 60
	}
	if !c.IncludeLibraryFeature {
		c.ExcludeFeatures = withExcluded(c.ExcludeFeatures, features.FLibraryProc)
	}
	if !c.IncludeCorrelationFeatures {
		c.ExcludeFeatures = withExcluded(c.ExcludeFeatures,
			features.FCorrSharedCond, features.FCorrDomCond)
	}
	return c
}

// withExcluded returns a copy of excl (the caller's list is never written
// to) with each of fs appended unless it is already listed, so defaulting
// a defaulted config changes nothing.
func withExcluded(excl []int, fs ...int) []int {
	out := append([]int(nil), excl...)
	for _, f := range fs {
		if !slices.Contains(out, f) {
			out = append(out, f)
		}
	}
	return out
}

// Model is a trained ESP predictor.
type Model struct {
	Cfg     Config
	Encoder *features.Encoder
	Net     *neural.Net
	Tree    *dtree.Tree
	MBR     *mbr.Model
	// TrainStats records the neural training run (empty for trees).
	TrainStats neural.TrainResult
	// gate marks the features the model excludes (Cfg.ExcludeFeatures):
	// prediction encodes them as Unknown, so it never copies the vector.
	gate featureGate
	// scratch pools the per-prediction row/hidden buffers so
	// TakenProbability stays allocation-free and safe for concurrent use.
	scratch sync.Pool
}

// featureGate marks, per feature, whether the model hides it.
type featureGate = [features.NumFeatures]bool

// predictBuf is the reusable per-prediction scratch: the sparse input row
// (capacity Dim, so appending never grows it) and the hidden activations.
type predictBuf struct {
	idx []int32
	val []float64
	h   []float64
}

// Train fits an ESP model on the pooled examples of a corpus of programs.
func Train(corpus []*ProgramData, cfg Config) *Model {
	var examples []Example
	for _, pd := range corpus {
		examples = append(examples, pd.Examples()...)
	}
	return TrainExamples(examples, cfg)
}

// TrainExamples fits an ESP model on explicit examples.
func TrainExamples(examples []Example, cfg Config) *Model {
	cfg = cfg.withDefaults()
	gate := gateOf(cfg.ExcludeFeatures)
	masked := make([]features.Vector, len(examples))
	targets := make([]float64, len(examples))
	weightVals := make([]float64, len(examples))
	for i, ex := range examples {
		masked[i] = maskVector(ex.Vector, &gate)
		targets[i] = ex.Target
		weightVals[i] = ex.Weight
	}
	return trainMasked(masked, targets, weightVals, cfg, gate)
}

// trainMasked fits a model on already-masked feature vectors. Cross-validation
// masks each program's vectors once and reuses them across all folds, so the
// masking work is hoisted out of here.
func trainMasked(masked []features.Vector, targets, weightVals []float64, cfg Config, gate featureGate) *Model {
	m := &Model{Cfg: cfg, gate: gate}
	if cfg.UniformWeights {
		uniform := make([]float64, len(masked))
		for i := range uniform {
			uniform[i] = 1 / float64(len(masked))
		}
		weightVals = uniform
	}
	m.Encoder = features.NewEncoder(masked)

	switch cfg.Classifier {
	case DecisionTree:
		tex := make([]dtree.Example, len(masked))
		for i := range masked {
			tex[i] = dtree.Example{
				Values: masked[i].Values,
				TakenW: weightVals[i] * targets[i],
				NotW:   weightVals[i] * (1 - targets[i]),
			}
		}
		m.Tree = dtree.Build(tex, cfg.Tree)
	case MemoryBased:
		mex := make([]mbr.Example, len(masked))
		for i := range masked {
			mex[i] = mbr.Example{
				Values: masked[i].Values,
				Target: targets[i],
				Weight: weightVals[i],
			}
		}
		mcfg := cfg.MBR
		mcfg.InformationWeights = true
		m.MBR = mbr.New(mex, mcfg)
	default:
		xs := m.Encoder.EncodeAllSparse(masked)
		ncfg := cfg.Net
		ncfg.Inputs = m.Encoder.Dim
		ncfg.Hidden = cfg.Hidden
		if ncfg.Seed == 0 {
			ncfg.Seed = cfg.Seed
		}
		m.Net = neural.New(ncfg)
		m.TrainStats = m.Net.TrainCSR(ncfg, xs, targets, weightVals)
	}
	return m
}

// gateOf marks the listed feature indices; indices outside the feature set
// are ignored.
func gateOf(feats []int) featureGate {
	var g featureGate
	for _, f := range feats {
		if f >= 0 && f < features.NumFeatures {
			g[f] = true
		}
	}
	return g
}

// maskVector returns a copy of v with the gated features set to Unknown:
// the training set's form, and the form the decision tree and
// memory-based classifiers predict from.
func maskVector(v features.Vector, gate *featureGate) features.Vector {
	for f, g := range gate {
		if g {
			v.Values[f] = features.Unknown
		}
	}
	return v
}

// TakenProbability returns the model's estimate that the branch described by
// the feature vector is taken.
func (m *Model) TakenProbability(v features.Vector) float64 {
	if m.Tree != nil || m.MBR != nil {
		v = maskVector(v, &m.gate)
		if m.Tree != nil {
			return m.Tree.Predict(v.Values)
		}
		return m.MBR.Predict(v.Values)
	}
	buf := m.getBuf()
	y := m.forwardFloat(&v, buf)
	m.scratch.Put(buf)
	return y
}

// getBuf pools the per-prediction scratch.
func (m *Model) getBuf() *predictBuf {
	buf, _ := m.scratch.Get().(*predictBuf)
	if buf == nil {
		buf = &predictBuf{
			idx: make([]int32, 0, m.Encoder.Dim),
			val: make([]float64, 0, m.Encoder.Dim),
			h:   make([]float64, m.Net.Hidden),
		}
	}
	return buf
}

// forwardFloat runs one vector through the float64 network: its sparse row
// from the encoder's precomputed tables, with the model's excluded features
// gated, then the training kernel's forward pass. Bit-identical to masking
// v, Encode and the dense forward pass (the test oracle in predict_test.go).
// v is not modified.
func (m *Model) forwardFloat(v *features.Vector, buf *predictBuf) float64 {
	buf.idx, buf.val = m.Encoder.AppendRow(buf.idx[:0], buf.val[:0], v, &m.gate)
	return m.Net.ForwardSparse(buf.h, buf.idx, buf.val)
}

// TakenProbabilities predicts a whole batch of feature vectors into out
// (len(out) must equal len(vs)). For the neural classifier the batch shares
// one pooled scratch — a single Get/Put and one row buffer for all vectors —
// so a serving worker can fold many queued queries into one pass. The
// results are bit-identical to calling TakenProbability per vector.
func (m *Model) TakenProbabilities(vs []features.Vector, out []float64) {
	if len(out) != len(vs) {
		panic(fmt.Sprintf("core: TakenProbabilities out length %d, want %d", len(out), len(vs)))
	}
	if m.Tree != nil || m.MBR != nil {
		for i, v := range vs {
			out[i] = m.TakenProbability(v)
		}
		return
	}
	buf := m.getBuf()
	for i := range vs {
		out[i] = m.forwardFloat(&vs[i], buf)
	}
	m.scratch.Put(buf)
}

// Predictor adapts the model to the heuristics.Predictor interface used by
// all evaluation, profile estimation and hint derivation: it never
// declines, and a branch is predicted taken when the estimated probability
// exceeds 0.5.
type Predictor struct {
	Model *Model
}

// Prob implements heuristics.Predictor.
func (p *Predictor) Prob(v *features.Vector, _ *heuristics.Evidence) (float64, bool) {
	return p.Model.TakenProbability(*v), true
}

// modelJSON is the serialized form of a model. Load decodes it with plain
// encoding/json semantics, so fields it does not know — such as the
// "quant" calibration older model files carry — are ignored.
type modelJSON struct {
	Classifier ClassifierKind    `json:"classifier"`
	Hidden     int               `json:"hidden"`
	Excluded   []int             `json:"excluded,omitempty"`
	Encoder    *features.Encoder `json:"encoder"`
	Net        *neural.Net       `json:"net,omitempty"`
	Tree       *dtree.Tree       `json:"tree,omitempty"`
	MBR        *mbr.Model        `json:"mbr,omitempty"`
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(modelJSON{
		Classifier: m.Cfg.Classifier,
		Hidden:     m.Cfg.Hidden,
		Excluded:   m.Cfg.ExcludeFeatures,
		Encoder:    m.Encoder,
		Net:        m.Net,
		Tree:       m.Tree,
		MBR:        m.MBR,
	})
}

// Load reads a model saved by Save.
func Load(r io.Reader) (*Model, error) {
	var mj modelJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	if mj.Encoder == nil {
		return nil, fmt.Errorf("core: model file has no encoder")
	}
	if err := mj.Encoder.Rebuild(); err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	if mj.Net != nil && mj.Net.Inputs != mj.Encoder.Dim {
		// The net's own shapes (bias and output-weight lengths, weight
		// rows) are checked when it decodes.
		return nil, fmt.Errorf("core: loading model: net has %d inputs, encoder dimension is %d",
			mj.Net.Inputs, mj.Encoder.Dim)
	}
	m := &Model{
		Cfg: Config{
			Classifier:      mj.Classifier,
			Hidden:          mj.Hidden,
			ExcludeFeatures: mj.Excluded,
		},
		Encoder: mj.Encoder,
		Net:     mj.Net,
		Tree:    mj.Tree,
		MBR:     mj.MBR,
		gate:    gateOf(mj.Excluded),
	}
	if m.Net == nil && m.Tree == nil && m.MBR == nil {
		return nil, fmt.Errorf("core: model file has no classifier")
	}
	return m, nil
}
