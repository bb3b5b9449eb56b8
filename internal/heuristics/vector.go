package heuristics

import "repro/internal/features"

// This file builds a site's Evidence from a Table 2 feature vector alone,
// without access to the program's CFG. The serving stack's degraded mode
// needs it: when the neural model path is unavailable (inference failure,
// deadline, overload), espserve answers from the feature vectors a client
// sent or it extracted, through the same Dempster-Shafer combiner
// (DSHC.Prob) that scores the heuristic tier offline, the tier
// the paper shows ESP only modestly beats (Tables 4-5). Offline, every
// predictor reads the Evidence that EvidenceOf computes from the CFG.
//
// The Table 2 vector encodes most of what the heuristics inspect, but not
// everything, so the vector forms fall into three classes:
//
//   - Exactly recoverable — Loop Branch (back-edge flags), Guard
//     (use-before-def + post-dominance flags), Loop Header (reaches-header +
//     post-dominance flags), and Call (reaches-call + post-dominance flags)
//     test precisely the predicates the vector stores; their vector forms
//     agree with the CFG forms on every branch.
//   - Approximate — Loop Exit (the vector has exact exit-edge flags but not
//     the "successor is a loop header" exclusion), Return (the vector sees
//     only the successor's own terminator, not unconditional chains to a
//     return), and Opcode (the vector sees the branch mnemonic, not the
//     resolved comparison, so materialized compares read as plain
//     register tests).
//   - Unrecoverable — Pointer and Store inspect operand kinds and successor
//     instruction bodies that Table 2 does not encode; their vector forms
//     never apply.
//
// Everything here is a pure function of the vector, so degraded-mode
// answers are deterministic and a test can recompute them offline.

// VectorApply builds a site's Evidence from its Table 2 feature vector:
// each heuristic's vector form under Config{}, None where it does not
// apply.
func VectorApply(v *features.Vector) Evidence {
	var ev Evidence
	for h := range ev {
		ev[h] = vectorApply(Heuristic(h), v)
	}
	return ev
}

// vectorApply evaluates the vector form of heuristic h.
func vectorApply(h Heuristic, v *features.Vector) Prediction {
	val := func(i int) string { return v.Values[i] }
	switch h {
	case LoopBranch:
		if val(features.FTakenSuccBackedge) == "LB" {
			return Taken
		}
		if val(features.FNotTakenSuccBackedge) == "LB" {
			return NotTaken
		}
	case Opcode:
		// The comparison-against-zero/constant forms visible in the branch
		// mnemonic itself. Float branches are excluded, as in the CFG form.
		switch val(features.FBrOpcode) {
		case "blt", "ble", "beq":
			return NotTaken
		case "bgt", "bge", "bne":
			return Taken
		}
	case Guard:
		takenGuards := val(features.FTakenSuccUseDef) == "UBD" &&
			val(features.FTakenPostdominates) == "NPD"
		fallGuards := val(features.FNotTakenSuccUseDef) == "UBD" &&
			val(features.FNotTakenPostdominates) == "NPD"
		if takenGuards && !fallGuards {
			return Taken
		}
		if fallGuards && !takenGuards {
			return NotTaken
		}
	case LoopExit:
		takenExits := val(features.FTakenSuccExit) == "LE"
		fallExits := val(features.FNotTakenSuccExit) == "LE"
		if takenExits && !fallExits {
			return NotTaken
		}
		if fallExits && !takenExits {
			return Taken
		}
	case LoopHeader:
		if val(features.FTakenSuccLoop) == "LH" &&
			val(features.FTakenPostdominates) == "NPD" {
			return Taken
		}
		if val(features.FNotTakenSuccLoop) == "LH" &&
			val(features.FNotTakenPostdominates) == "NPD" {
			return NotTaken
		}
	case Call:
		if val(features.FTakenSuccCall) == "PC" &&
			val(features.FTakenPostdominates) == "NPD" {
			return NotTaken
		}
		if val(features.FNotTakenSuccCall) == "PC" &&
			val(features.FNotTakenPostdominates) == "NPD" {
			return Taken
		}
	case Return:
		takenReturns := val(features.FTakenSuccEnds) == "RETURN"
		fallReturns := val(features.FNotTakenSuccEnds) == "RETURN"
		if takenReturns && !fallReturns {
			return NotTaken
		}
		if fallReturns && !takenReturns {
			return Taken
		}
	}
	// Pointer and Store: not recoverable from the vector.
	return None
}
