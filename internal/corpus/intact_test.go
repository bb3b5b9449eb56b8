package corpus_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/corpus"
)

// TestMain fails the run when any test wrote to a runtime-library image.
// Linked programs share their image's IR, so the image must hash to its ID
// after the tests as it did when it was built.
func TestMain(m *testing.M) {
	code := m.Run()
	if err := corpus.CheckLibraryImages(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}
