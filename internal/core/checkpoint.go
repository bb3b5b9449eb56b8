package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// foldCheckpoint is the on-disk record of one completed fold. ConfigHash
// binds it to the exact configuration and corpus that produced it, so a
// stale checkpoint from a different run is ignored rather than resumed.
type foldCheckpoint struct {
	ConfigHash string     `json:"config_hash"`
	Fold       FoldResult `json:"fold"`
}

// checkpointHash fingerprints everything that determines fold results: the
// fully-defaulted configuration and the ordered corpus program names.
func checkpointHash(corpus []*ProgramData, cfg Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", cfg)
	for _, pd := range corpus {
		fmt.Fprintf(h, "%s\x00", pd.Name)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkpointPath(dir string, i int, held string) string {
	// Program names are corpus identifiers ("bc", "gcc"), but sanitize
	// anyway so a hostile name cannot escape dir.
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, held)
	return filepath.Join(dir, fmt.Sprintf("fold-%03d-%s.json", i, safe))
}

// loadCheckpoint returns the fold recorded at path if it exists, parses,
// and carries the expected hash. Corrupt, partial, or stale files are
// treated as absent: the fold just recomputes.
func loadCheckpoint(path, wantHash string) (FoldResult, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return FoldResult{}, false
	}
	var cp foldCheckpoint
	if err := json.Unmarshal(data, &cp); err != nil || cp.ConfigHash != wantHash {
		return FoldResult{}, false
	}
	return cp.Fold, true
}

// saveCheckpoint writes the fold atomically: the JSON lands in a temp file
// in the same directory, is synced, and is renamed into place, so a crash
// mid-write leaves either the old state or the new state — never a torn
// file a resume could half-read.
func saveCheckpoint(path string, cp foldCheckpoint) error {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".fold-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// CrossValidateCheckpointed is CrossValidate with crash safety: each
// completed fold is checkpointed to dir (created if needed), and a rerun
// after a crash or cancellation resumes from the checkpoints instead of
// retraining finished folds. Folds run serially in corpus order; because
// every fold's training is deterministic and independent, a resumed run
// returns results bit-identical to an uninterrupted CrossValidateSerial.
//
// ctx is checked between folds: on cancellation the folds completed so far
// remain checkpointed and ctx.Err() is returned.
func CrossValidateCheckpointed(ctx context.Context, corpus []*ProgramData, cfg Config, dir string) ([]FoldResult, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	hash := checkpointHash(corpus, cfg)
	gate := gateOf(cfg.ExcludeFeatures)
	preps := make([]preparedProgram, len(corpus))
	for i, pd := range corpus {
		preps[i] = prepareProgram(pd, &gate)
	}
	results := make([]FoldResult, len(corpus))
	for i := range corpus {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		path := checkpointPath(dir, i, corpus[i].Name)
		if fold, ok := loadCheckpoint(path, hash); ok {
			results[i] = fold
			continue
		}
		results[i] = crossValidateFold(corpus, preps, i, cfg, gate)
		if err := saveCheckpoint(path, foldCheckpoint{ConfigHash: hash, Fold: results[i]}); err != nil {
			return nil, fmt.Errorf("core: checkpoint fold %d: %w", i, err)
		}
	}
	return results, nil
}
