package artifact

// The record codec's payload functions, for the external codec tests,
// which build records through gencorpus (an importer of this package).
var (
	EncodeRecord  = encodeRecord
	DecodePayload = decodeRecord
)
