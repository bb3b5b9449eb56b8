package main

// recordedModel is a study seed's pinned training outcome.
type recordedModel struct {
	epochs  int
	missPct float64
}

// studyExpected records, per seed, the epochs core.Train ran with the
// default config and the miss rate of its model on the study corpus
// (percent, four decimals). A seed missing here is checked for
// determinism within the run instead.
var studyExpected = map[int64]recordedModel{
	1:              {154, 14.9678},
	2:              {180, 15.4296},
	3:              {169, 16.6600},
	4:              {300, 17.0062},
	5:              {222, 14.9139},
	6:              {255, 16.6683},
	7:              {320, 16.8146},
	8:              {253, 15.9727},
	9:              {231, 17.0860},
	10:             {229, 15.1966},
	validationSeed: {127, 15.7523},
}

// genExpectedMiss records, per seed, the held-out miss rate of the set-up
// model (setupTrainConfig on the study corpus, 18.4133% in sample) on the
// seed's generated corpus (percent, four decimals).
var genExpectedMiss = map[int64]float64{
	1:              29.7166,
	2:              27.7759,
	3:              27.3494,
	4:              29.0883,
	5:              29.3532,
	6:              28.1046,
	7:              28.2319,
	8:              28.1838,
	9:              28.6706,
	10:             29.0420,
	validationSeed: 27.2969,
}

// setupModelMiss is the set-up model's miss rate on the study corpus.
const setupModelMiss = 18.4133
