package storage

// Packed fetch directives. The trainer's fetch paths carry a single int
// "split" per sample through several wrapper layers (retry, sharding,
// caching). The progressive dimension packs into the same int — split in the
// low byte, fidelity (refinement scans to withhold) in the next — so every
// wrapper signature keeps working unchanged and a plain split value is the
// identical directive it always was: PackDirective(s, 0) == s.

// PackDirective combines a pipeline split and a progressive fidelity drop
// into one directive int. Both must fit a byte; callers validate ranges (the
// fetch paths reject out-of-range values).
func PackDirective(split, fidelity int) int {
	return split | fidelity<<8
}

// Rows, beside a packed directive, asks a raw fetch for only the part — the
// rows and columns — the epoch's crop reads (wire.FetchBatchItem.Rows). The trainer sets it outside
// the profiling epoch; a cache clears it on the misses it forwards.
const Rows = 1 << 30

// UnpackDirective splits a directive int back into (split, fidelity), Rows aside.
func UnpackDirective(d int) (split, fidelity int) {
	d &^= Rows
	return d & 0xFF, d >> 8
}
