// Package guard defines the shared vocabulary of resource budgets that the
// compile and execute pipelines enforce when they face untrusted input: a
// typed sentinel error that every budget violation wraps, and a Limits
// record the serving layer threads through the parser, code generator, and
// interpreter.
//
// The rule of the house: budget checks are OFF by default (zero Limits mean
// "unlimited" everywhere) so the paper-reproduction experiments remain
// bit-identical, and ON in espserve, where a hostile or runaway program must
// produce a typed error instead of hanging a worker.
package guard

import "errors"

// ErrBudgetExceeded is wrapped by every resource-budget violation — parser
// recursion depth, code-generator CFG caps, interpreter fuel, stack, heap,
// and call-depth limits. Callers classify failures with
// errors.Is(err, guard.ErrBudgetExceeded) and can translate them into a
// client error (the work was impossible under the configured budget) rather
// than an infrastructure failure.
var ErrBudgetExceeded = errors.New("resource budget exceeded")

// Limits bundles the compile-side budgets a server enforces per request.
// Zero values mean unlimited.
type Limits struct {
	// ParseDepth bounds the parser's statement/expression nesting depth.
	ParseDepth int
	// CFGBlocks bounds the basic-block count of any single generated
	// function (the CFG size cap).
	CFGBlocks int
}
