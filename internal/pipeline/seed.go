package pipeline

// Seed identifies one augmentation context: a training job, an epoch, and a
// sample. Each op in the pipeline derives its own independent random stream
// from the seed, so a prefix of ops executed on the storage server and the
// suffix executed locally consume exactly the same randomness as a fully
// local run — the split-equivalence invariant SOPHON's correctness rests on.
type Seed struct {
	Job    uint64
	Epoch  uint64
	Sample uint64
}

// forOp derives the 64-bit stream seed for the op at index opIndex.
func (s Seed) forOp(opIndex int) uint64 {
	x := splitmix(s.Job ^ 0x243f6a8885a308d3)
	x = splitmix(x ^ s.Epoch)
	x = splitmix(x ^ s.Sample)
	return splitmix(x ^ uint64(opIndex)*0x9e3779b97f4a7c15)
}

// splitmix is the SplitMix64 finalizer — a cheap, well-distributed 64-bit
// mixer used to derive independent streams.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
