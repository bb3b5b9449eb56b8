package gencorpus

// SetBinaryIdentity makes ShardedCorpus index as if the running binary's
// identity were id, until the returned function restores it. A nil id
// turns the source index off.
func SetBinaryIdentity(id []byte) (restore func()) {
	prev := binaryIdentity
	binaryIdentity = func() []byte { return id }
	return func() { binaryIdentity = prev }
}
